"""The ``membership`` experiment: partial-view quality under dynamics.

Sweeps peer-sampling policy triples (``view:peer:propagation``) and view
sizes over churn/partition scenarios, running a partial-view protocol
(``gossip-pv`` by default) through
:func:`repro.scenario.trial.membership_trial_task` so every trial emits
the :class:`~repro.membership.quality.ViewQualityMonitor` columns on top
of the usual delivery metrics.

One aggregated row per ``(scenario, policy, view_size)`` cell:

==================  =================================================
``delivery``        mean delivery ratio across trials
``indegree_mean``   mean in-degree of the final view graph
``indegree_p99``    p99 in-degree (load concentration proxy)
``indegree_max``    worst-case in-degree across trials
``staleness``       mean view-entry age relative to ``max_age``
``clustering``      mean directed view-overlap (clustering proxy)
``recovery_s``      mean partition-recovery time over the trials that
                    observed a heal (None when no trial did)
==================  =================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import ValidationError, did_you_mean
from repro.experiments.campaign import Cell, CellResults, TrialSpec
from repro.membership.sampler import PROPAGATION_POLICIES, SELECTION_POLICIES
from repro.results.schema import ResultSet
from repro.scenario.registry import scenario_trials
from repro.scenario.trial import MEMBERSHIP_TRIAL_FN
from repro.util import jsonio

if TYPE_CHECKING:  # import cycle: the registry imports this module
    from repro.experiments.registry import ExperimentContext

__all__ = [
    "DEFAULT_POLICIES",
    "DEFAULT_PROTOCOL",
    "DEFAULT_SCENARIOS",
    "DEFAULT_VIEW_SIZES",
    "MEMBERSHIP_COLUMNS",
    "cells",
    "fold",
    "parse_policy_triple",
]

DEFAULT_VIEW_SIZES: Tuple[int, ...] = (8, 16)
DEFAULT_POLICIES: Tuple[str, ...] = (
    "head:rand:pushpull",  # Jelasity et al.'s recommended healer profile
    "head:head:push",  # cheapest: one-way traffic, youngest-first
    "rand:rand:pull",  # maximally randomised, reply-driven
)
DEFAULT_SCENARIOS: Tuple[str, ...] = ("churn-mill", "partition-heal")
DEFAULT_PROTOCOL = "gossip-pv"

MEMBERSHIP_COLUMNS: Tuple[str, ...] = (
    "scenario",
    "policy",
    "view_size",
    "delivery",
    "indegree_mean",
    "indegree_p99",
    "indegree_max",
    "staleness",
    "clustering",
    "recovery_s",
)

#: The trial metrics :func:`fold` reads.
_READS: Tuple[str, ...] = (
    "delivery_ratio",
    "view_indegree_mean",
    "view_indegree_p99",
    "view_indegree_max",
    "view_staleness",
    "view_clustering",
    "view_partition_recovery",
)


def parse_policy_triple(policy: str) -> Tuple[str, str, str]:
    """Split and validate a ``view:peer:propagation`` policy triple."""
    parts = str(policy).split(":")
    if len(parts) != 3:
        raise ValidationError(
            f"membership policy must be 'view:peer:propagation', got {policy!r}"
        )
    view, peer, propagation = (part.strip().lower() for part in parts)
    for value, options, label in (
        (view, SELECTION_POLICIES, "view selection"),
        (peer, SELECTION_POLICIES, "peer selection"),
        (propagation, PROPAGATION_POLICIES, "propagation"),
    ):
        if value not in options:
            _, hint = did_you_mean(value, options)
            raise ValidationError(
                f"unknown {label} {value!r} in policy {policy!r}; "
                f"options: {', '.join(options)}{hint}"
            )
    return view, peer, propagation


def _cell_params(protocol: str, policy: str, size: int) -> str:
    """The protocol-parameter payload of one (policy, view size) cell."""
    view, peer, propagation = parse_policy_triple(policy)
    return jsonio.dumps(
        {
            protocol: {
                "view_size": size,
                "view_selection": view,
                "peer_selection": peer,
                "propagation": propagation,
            }
        },
        compact=False,
    )


def cells(ctx: ExperimentContext) -> List[Cell]:
    """One cell per (scenario, policy, view_size) point."""
    p = ctx.params
    protocol = str(p.protocol or DEFAULT_PROTOCOL)
    trials = scenario_trials(ctx.scale, p.trials)
    return [
        (
            (scenario, policy, size),
            TrialSpec.trials(
                MEMBERSHIP_TRIAL_FN,
                _READS,
                trials,
                scenario=scenario,
                protocol=protocol,
                scale=ctx.scale.name,
                params=_cell_params(protocol, policy, size),
            ),
        )
        for scenario in map(str, p.scenario or DEFAULT_SCENARIOS)
        for policy in map(str, p.policy or DEFAULT_POLICIES)
        for size in map(int, p.view_size or DEFAULT_VIEW_SIZES)
    ]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def fold(ctx: ExperimentContext, cells: Sequence[CellResults]) -> ResultSet:
    """Fold per-trial metrics into one row per cell."""
    rows: List[List[object]] = []
    for coords, chunk in cells:
        recoveries = [
            r["view_partition_recovery"]
            for r in chunk
            if r["view_partition_recovery"] >= 0.0
        ]
        recovery: Optional[float] = _mean(recoveries) if recoveries else None
        rows.append(
            [
                *coords,
                _mean([r["delivery_ratio"] for r in chunk]),
                _mean([r["view_indegree_mean"] for r in chunk]),
                _mean([r["view_indegree_p99"] for r in chunk]),
                max(r["view_indegree_max"] for r in chunk),
                _mean([r["view_staleness"] for r in chunk]),
                _mean([r["view_clustering"] for r in chunk]),
                recovery,
            ]
        )
    return ResultSet.from_rows(
        "membership",
        "Partial-view membership quality (policy triples x view sizes)",
        MEMBERSHIP_COLUMNS,
        rows,
    )
