"""The ``kvstore`` experiment: end-to-end KV quality per protocol.

Sweeps broadcast protocols and workload mixes (Zipf skew × write ratio)
over dynamics scenarios, running every cell through
:func:`repro.kvstore.trial.kv_trial_task` so each trial reports what the
*user* sees — staleness, visibility latency, causal-buffer occupancy —
on top of the usual delivery/cost metrics.

One aggregated row per ``(scenario, protocol, zipf_s, write_ratio)``
cell:

===================  ==================================================
``delivery``         mean delivery ratio of the write broadcasts
``stale_reads``      mean fraction of reads that missed >= 1 write
``staleness_v``      mean per-read staleness in versions
``visibility_p50``   mean p50 write visibility latency (trials with
                     samples; None when no write ever reached a remote)
``visibility_p99``   likewise at p99
``buffer_mean``      mean causal-buffer occupancy (per-replica mean)
``buffer_max``       worst per-replica buffer occupancy across trials
``convergence_s``    mean post-dynamics convergence time over the trials
                     that converged (None when none did)
``data_msgs``        mean DATA messages (replication traffic)
``control_msgs``     mean CONTROL+HEARTBEAT messages (protocol overhead,
                     attributable thanks to the per-category split)
===================  ==================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.experiments.campaign import Cell, CellResults, TrialSpec
from repro.kvstore.trial import KV_TRIAL_FN
from repro.kvstore.workload import KVWorkloadParams
from repro.protocols.registry import protocol_names
from repro.results.schema import ResultSet
from repro.scenario.registry import scenario_trials
from repro.util import jsonio

if TYPE_CHECKING:  # import cycle: the registry imports this module
    from repro.experiments.registry import ExperimentContext

__all__ = [
    "DEFAULT_SCENARIOS",
    "DEFAULT_WRITE_RATIOS",
    "DEFAULT_ZIPF_S",
    "KV_COLUMNS",
    "cells",
    "fold",
]

DEFAULT_SCENARIOS: Tuple[str, ...] = (
    "hot-key-storm",
    "partition-heal",
    "flash-crowd",
)
DEFAULT_ZIPF_S: Tuple[float, ...] = (0.9,)
DEFAULT_WRITE_RATIOS: Tuple[float, ...] = (0.3,)

KV_COLUMNS: Tuple[str, ...] = (
    "scenario",
    "protocol",
    "zipf_s",
    "write_ratio",
    "delivery",
    "stale_reads",
    "staleness_v",
    "visibility_p50",
    "visibility_p99",
    "buffer_mean",
    "buffer_max",
    "convergence_s",
    "data_msgs",
    "control_msgs",
)

#: The trial metrics :func:`fold` reads.
_READS: Tuple[str, ...] = (
    "delivery_ratio",
    "kv_stale_reads",
    "kv_staleness_versions",
    "kv_visibility_p50",
    "kv_visibility_p99",
    "kv_buffer_mean",
    "kv_buffer_max",
    "kv_convergence_time",
    "data_messages",
    "control_messages",
    "heartbeat_messages",
)


def _workload(params, zipf_s: float, write_ratio: float) -> KVWorkloadParams:
    overrides = {
        name: getattr(params, name)
        for name in ("keys", "ops", "regions")
        if getattr(params, name) is not None
    }
    return KVWorkloadParams(
        zipf_s=float(zipf_s), write_ratio=float(write_ratio), **overrides
    )


def cells(ctx: ExperimentContext) -> List[Cell]:
    """One cell per (scenario, protocol, zipf, ratio) point; the protocols
    default to every registered one (plugins included), in registry
    order."""
    p = ctx.params
    trials = scenario_trials(ctx.scale, p.trials)
    return [
        (
            (scenario, protocol, zipf_s, write_ratio),
            TrialSpec.trials(
                KV_TRIAL_FN,
                _READS,
                trials,
                scenario=scenario,
                protocol=protocol,
                scale=ctx.scale.name,
                workload=jsonio.dumps(
                    jsonio.encode(_workload(p, zipf_s, write_ratio))
                ),
            ),
        )
        for scenario in map(str, p.scenario or DEFAULT_SCENARIOS)
        for protocol in map(str, p.protocol or protocol_names())
        for zipf_s in map(float, p.zipf_s or DEFAULT_ZIPF_S)
        for write_ratio in map(float, p.write_ratio or DEFAULT_WRITE_RATIOS)
    ]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _mean_present(values: Sequence[float]) -> Optional[float]:
    """Mean of the non-sentinel values (>= 0); None when all are missing."""
    present = [v for v in values if v >= 0.0]
    return _mean(present) if present else None


def fold(ctx: ExperimentContext, cells: Sequence[CellResults]) -> ResultSet:
    """Fold per-trial metrics into one row per cell."""
    rows = [
        [
            *coords,
            _mean([r["delivery_ratio"] for r in chunk]),
            _mean([r["kv_stale_reads"] for r in chunk]),
            _mean([r["kv_staleness_versions"] for r in chunk]),
            _mean_present([r["kv_visibility_p50"] for r in chunk]),
            _mean_present([r["kv_visibility_p99"] for r in chunk]),
            _mean([r["kv_buffer_mean"] for r in chunk]),
            max(r["kv_buffer_max"] for r in chunk),
            _mean_present([r["kv_convergence_time"] for r in chunk]),
            _mean([r["data_messages"] for r in chunk]),
            _mean(
                [r["control_messages"] + r["heartbeat_messages"] for r in chunk]
            ),
        ]
        for coords, chunk in cells
    ]
    return ResultSet.from_rows(
        "kvstore",
        "Causal KV store quality (protocols x workload mixes x scenarios)",
        KV_COLUMNS,
        rows,
    )
