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
``buffer_max``       worst per-replica buffer depth across trials
``convergence_s``    mean post-dynamics convergence time over the trials
                     that converged (None when none did)
``data_msgs``        mean DATA messages (replication traffic)
``control_msgs``     mean CONTROL+HEARTBEAT messages (protocol overhead,
                     attributable thanks to the per-category split)
===================  ==================================================
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.experiments.campaign import TrialSpec
from repro.experiments.runner import ExperimentScale
from repro.kvstore.trial import KV_TRIAL_FN
from repro.kvstore.workload import KVWorkloadParams
from repro.results.schema import ResultSet
from repro.scenario.registry import scenario_trials

__all__ = [
    "DEFAULT_SCENARIOS",
    "DEFAULT_WRITE_RATIOS",
    "DEFAULT_ZIPF_S",
    "KV_COLUMNS",
    "kvstore_aggregate",
    "kvstore_build",
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

#: The trial metrics :func:`kvstore_aggregate` reads.
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


def _default_protocols() -> Tuple[str, ...]:
    """All registered broadcast protocols, in registry order.

    Deferred so plugin protocols registered before the run participate;
    build and aggregate resolve the same ordered tuple within one
    process, so the result slicing stays aligned.
    """
    from repro.protocols.registry import protocol_names

    return protocol_names()


def _grid(scale: ExperimentScale, params):
    scenarios = tuple(params.scenario or DEFAULT_SCENARIOS)
    protocols = tuple(params.protocol or _default_protocols())
    zipfs = tuple(params.zipf_s or DEFAULT_ZIPF_S)
    ratios = tuple(params.write_ratio or DEFAULT_WRITE_RATIOS)
    trials = scenario_trials(scale, params.trials)
    return scenarios, protocols, zipfs, ratios, trials


def _workload(params, zipf_s: float, write_ratio: float) -> KVWorkloadParams:
    overrides = {
        name: getattr(params, name)
        for name in ("keys", "ops", "regions")
        if getattr(params, name) is not None
    }
    return KVWorkloadParams(
        zipf_s=float(zipf_s), write_ratio=float(write_ratio), **overrides
    )


def kvstore_build(scale: ExperimentScale, params) -> List[TrialSpec]:
    """One trial spec per (scenario, protocol, zipf, ratio, trial) cell."""
    scenarios, protocols, zipfs, ratios, trials = _grid(scale, params)
    specs: List[TrialSpec] = []
    for scenario in scenarios:
        for protocol in protocols:
            for zipf_s in zipfs:
                for write_ratio in ratios:
                    payload = _workload(params, zipf_s, write_ratio).to_payload()
                    for trial in range(trials):
                        specs.append(
                            TrialSpec.make(
                                KV_TRIAL_FN,
                                _READS,
                                scenario=str(scenario),
                                protocol=str(protocol),
                                scale=scale.name,
                                trial=trial,
                                workload=payload,
                            )
                        )
    return specs


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _mean_present(values: Sequence[float]) -> Optional[float]:
    """Mean of the non-sentinel values (>= 0); None when all are missing."""
    present = [v for v in values if v >= 0.0]
    return _mean(present) if present else None


def kvstore_aggregate(
    scale: ExperimentScale, params, results: Sequence[dict]
) -> ResultSet:
    """Fold per-trial metrics into one row per grid cell."""
    scenarios, protocols, zipfs, ratios, trials = _grid(scale, params)
    expected = len(scenarios) * len(protocols) * len(zipfs) * len(ratios) * trials
    if len(results) != expected:
        raise ValidationError(
            f"kvstore aggregate expected {expected} trial results, "
            f"got {len(results)}"
        )
    rows: List[List[object]] = []
    index = 0
    for scenario in scenarios:
        for protocol in protocols:
            for zipf_s in zipfs:
                for write_ratio in ratios:
                    chunk = results[index : index + trials]
                    index += trials
                    rows.append(
                        [
                            str(scenario),
                            str(protocol),
                            float(zipf_s),
                            float(write_ratio),
                            _mean([r["delivery_ratio"] for r in chunk]),
                            _mean([r["kv_stale_reads"] for r in chunk]),
                            _mean(
                                [r["kv_staleness_versions"] for r in chunk]
                            ),
                            _mean_present(
                                [r["kv_visibility_p50"] for r in chunk]
                            ),
                            _mean_present(
                                [r["kv_visibility_p99"] for r in chunk]
                            ),
                            _mean([r["kv_buffer_mean"] for r in chunk]),
                            max(r["kv_buffer_max"] for r in chunk),
                            _mean_present(
                                [r["kv_convergence_time"] for r in chunk]
                            ),
                            _mean([r["data_messages"] for r in chunk]),
                            _mean(
                                [
                                    r["control_messages"]
                                    + r["heartbeat_messages"]
                                    for r in chunk
                                ]
                            ),
                        ]
                    )
    return ResultSet.from_rows(
        "kvstore",
        "Causal KV store quality (protocols x workload mixes x scenarios)",
        KV_COLUMNS,
        rows,
    )
