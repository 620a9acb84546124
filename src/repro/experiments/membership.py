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

import json
from typing import List, Optional, Sequence, Tuple

from repro.errors import ValidationError, did_you_mean
from repro.experiments.campaign import TrialSpec
from repro.experiments.runner import ExperimentScale
from repro.membership.sampler import PROPAGATION_POLICIES, SELECTION_POLICIES
from repro.results.schema import ResultSet
from repro.scenario.registry import scenario_trials
from repro.scenario.trial import MEMBERSHIP_TRIAL_FN

__all__ = [
    "DEFAULT_POLICIES",
    "DEFAULT_PROTOCOL",
    "DEFAULT_SCENARIOS",
    "DEFAULT_VIEW_SIZES",
    "MEMBERSHIP_COLUMNS",
    "membership_aggregate",
    "membership_build",
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

#: The trial metrics :func:`membership_aggregate` reads.
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


def _grid(
    scale: ExperimentScale, params
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[int, ...], str, int]:
    scenarios = tuple(params.scenario or DEFAULT_SCENARIOS)
    policies = tuple(params.policy or DEFAULT_POLICIES)
    view_sizes = tuple(params.view_size or DEFAULT_VIEW_SIZES)
    protocol = params.protocol or DEFAULT_PROTOCOL
    trials = scenario_trials(scale, params.trials)
    return scenarios, policies, view_sizes, protocol, trials


def membership_build(scale: ExperimentScale, params) -> List[TrialSpec]:
    """One trial spec per (scenario, policy, view_size, trial) cell."""
    scenarios, policies, view_sizes, protocol, trials = _grid(scale, params)
    specs: List[TrialSpec] = []
    for scenario in scenarios:
        for policy in policies:
            view, peer, propagation = parse_policy_triple(policy)
            for size in view_sizes:
                payload = json.dumps(
                    {
                        protocol: {
                            "view_size": int(size),
                            "view_selection": view,
                            "peer_selection": peer,
                            "propagation": propagation,
                        }
                    },
                    sort_keys=True,
                )
                for trial in range(trials):
                    specs.append(
                        TrialSpec.make(
                            MEMBERSHIP_TRIAL_FN,
                            _READS,
                            scenario=str(scenario),
                            protocol=str(protocol),
                            scale=scale.name,
                            trial=trial,
                            params=payload,
                        )
                    )
    return specs


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def membership_aggregate(
    scale: ExperimentScale, params, results: Sequence[dict]
) -> ResultSet:
    """Fold per-trial metrics into one row per grid cell."""
    scenarios, policies, view_sizes, _, trials = _grid(scale, params)
    expected = len(scenarios) * len(policies) * len(view_sizes) * trials
    if len(results) != expected:
        raise ValidationError(
            f"membership aggregate expected {expected} trial results, "
            f"got {len(results)}"
        )
    rows: List[List[object]] = []
    index = 0
    for scenario in scenarios:
        for policy in policies:
            for size in view_sizes:
                chunk = results[index : index + trials]
                index += trials
                recoveries = [
                    r["view_partition_recovery"]
                    for r in chunk
                    if r["view_partition_recovery"] >= 0.0
                ]
                recovery: Optional[float] = (
                    _mean(recoveries) if recoveries else None
                )
                rows.append(
                    [
                        str(scenario),
                        str(policy),
                        int(size),
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
