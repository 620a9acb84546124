"""Figure 4 — reference gossip vs optimal algorithm message ratio.

The paper varies network connectivity (k-neighbour graphs over 100
processes) and plots the ratio

    messages(reference gossip) / messages(optimal algorithm)

for several crash probabilities with reliable links (Figure 4a) and
several loss probabilities with reliable processes (Figure 4b).  Both
algorithms must deliver to all processes with the same probability ``K``.

* The **optimal** side is deterministic: ``sum(~m)`` from ``optimize``
  over the MRT under the true configuration (the cost function of Eq. 3).
  It is computed once per grid point, by the phase-1 task that already
  holds the point's configuration (:func:`phase1_reference`), and
  reaches the aggregate as a trial result — through the cache, the
  worker pipes and every backend, like the round budget beside it.
* The **reference** side is empirical: gossip rounds are first calibrated
  so the all-reached frequency meets ``K`` (the paper's "determined
  interactively"), then data-message counts are averaged over measurement
  trials.  Every trial deploys the gossip stack through the protocol
  registry (:mod:`repro.protocols.registry`) — the registry's
  ``needs_calibration`` capability flag marks exactly this knob.

Execution is campaign-based (see :mod:`repro.experiments.campaign`):
:func:`figure4_build` describes every calibration and measurement trial
as a seed-complete :class:`~repro.experiments.campaign.TrialSpec` and a
:class:`~repro.experiments.campaign.Campaign` runs them — serially
in-process by default, or fanned out over worker processes with on-disk
result caching, with bit-identical aggregates either way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.mrt import maximum_reliability_tree
from repro.core.optimize import optimize
from repro.experiments.campaign import Campaign, TrialSpec, chunked
from repro.experiments.runner import (
    ExperimentScale,
    make_network,
    point_grid,
    variant_axes,
)
from repro.protocols.gossip import calibrate_rounds, run_gossip_trial
from repro.results.schema import ResultSet
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.topology.graph import Graph

#: Probability values plotted in the paper for each variant.
PAPER_CRASH_VALUES = (0.01, 0.03, 0.05, 0.07)
PAPER_LOSS_VALUES = (0.01, 0.03, 0.05, 0.07)


def optimal_messages(graph: Graph, config: Configuration, k_target: float) -> int:
    """``c(~m)`` of the optimal algorithm (deterministic)."""
    tree = maximum_reliability_tree(graph, config, root=0)
    return optimize(tree, k_target, config).total_messages


def phase1_reference(
    graph: Graph, config: Configuration, seed_tag: str, k_target: float, trials: int
) -> Dict[str, float]:
    """Phase 1 for one configuration: round budget and optimal cost.

    Calibration seeds are fully determined by ``seed_tag`` and the trial
    index, so the result is identical wherever this runs.
    """
    rounds = calibrate_rounds(
        lambda t: make_network(config, "fig4-cal", seed_tag, t),
        k_target=k_target,
        trials=trials,
    )
    optimal = optimal_messages(graph, config, k_target)
    return {"rounds": float(rounds), "optimal_messages": float(optimal)}


def measure_reference_once(
    config: Configuration,
    seed_tag: str,
    trial: int,
    rounds: int,
    k_target: float,
    count_acks: bool = False,
) -> float:
    """One seeded gossip measurement trial: the message count."""
    outcome = run_gossip_trial(
        lambda: make_network(config, "fig4-meas", seed_tag, trial),
        rounds=rounds,
        k_target=k_target,
    )
    messages = outcome["data_messages"]
    if count_acks:
        messages += outcome["ack_messages"]
    return messages


def _uniform_config(
    n: int, connectivity: int, crash: float, loss: float
) -> Tuple[Graph, Configuration]:
    graph = k_regular(n, connectivity)
    return graph, Configuration.uniform(graph, crash=crash, loss=loss)


# -- campaign trial functions (spawn-safe module-level entry points) ----------------


def gossip_phase1_task(
    *,
    n: int,
    connectivity: int,
    crash: float,
    loss: float,
    k_target: float,
    trials: int,
    seed_tag: str,
) -> Dict[str, float]:
    """Campaign task: round budget and optimal cost of one uniform point."""
    graph, config = _uniform_config(n, connectivity, float(crash), float(loss))
    return phase1_reference(graph, config, seed_tag, k_target, trials)


def gossip_measurement_task(
    *,
    n: int,
    connectivity: int,
    crash: float,
    loss: float,
    k_target: float,
    rounds: int,
    trial: int,
    seed_tag: str,
    count_acks: bool = False,
) -> Dict[str, float]:
    """Campaign task: one gossip measurement trial on a uniform config."""
    _, config = _uniform_config(n, connectivity, float(crash), float(loss))
    messages = measure_reference_once(
        config, seed_tag, trial, rounds, k_target, count_acks
    )
    return {"messages": messages}


TASK_FNS = (
    "repro.experiments.figure4:gossip_phase1_task",
    "repro.experiments.figure4:gossip_measurement_task",
)


def _point_params(
    scale: ExperimentScale, connectivity: int, crash: float, loss: float
) -> Dict[str, object]:
    """The spec parameters both tasks of one point share (they fix its seeds)."""
    return {
        "n": scale.n,
        "connectivity": connectivity,
        "crash": crash,
        "loss": loss,
        "k_target": scale.k_target,
        "seed_tag": f"k{connectivity}-P{crash}-L{loss}-n{scale.n}",
    }


def run_phase1(
    scale: ExperimentScale,
    campaign: Campaign,
    fns: Tuple[str, str],
    points: Sequence[Dict[str, object]],
    **measurement_params: object,
) -> Tuple[List[Dict[str, float]], List[TrialSpec]]:
    """Run phase 1 of ``points``: its results and the specs they parameterise.

    ``fns`` is the (phase-1, measurement) task pair: one phase-1 trial per
    point, then ``scale.trials`` measurement specs per point at its budget.
    """
    phase1_fn, measurement_fn = fns
    phase1 = campaign.run(
        [
            TrialSpec.make(
                phase1_fn,
                ("rounds", "optimal_messages"),
                trials=scale.calibration_trials,
                **point,
            )
            for point in points
        ]
    )
    meas_specs = [
        TrialSpec.make(
            measurement_fn,
            ("messages",),
            rounds=int(result["rounds"]),
            trial=trial,
            **point,
            **measurement_params,
        )
        for point, result in zip(points, phase1)
        for trial in range(scale.trials)
    ]
    return phase1, meas_specs


def _variant_axes(
    variant: str, values: Optional[Sequence[float]]
) -> Tuple[Tuple[float, ...], str, str]:
    """The (values, curve label, title) triple of one Figure 4 variant."""
    return variant_axes(
        variant,
        values,
        defaults={"crash": PAPER_CRASH_VALUES, "loss": PAPER_LOSS_VALUES},
        titles={
            "crash": "Figure 4(a) - reference/optimal ratio, reliable links (L=0)",
            "loss": "Figure 4(b) - reference/optimal ratio, reliable processes (P=0)",
        },
    )


def _probs(variant: str, value: float) -> Tuple[float, float]:
    """The (crash, loss) pair a swept value denotes in this variant."""
    return (float(value), 0.0) if variant == "crash" else (0.0, float(value))


def figure4_build(
    variant: str,
    scale: ExperimentScale,
    campaign: Campaign,
    values: Optional[Sequence[float]] = None,
    count_acks: bool = False,
) -> Tuple[List[Dict[str, float]], List[TrialSpec]]:
    """Phase 1 + the phase-2 specs of one Figure 4 variant.

    Phase 1 (one round-budget fit and one optimal cost per grid point)
    runs through ``campaign`` immediately — its results parameterise the
    measurement specs.  Returns ``(phase-1 results, measurement specs)``:
    the caller (the experiment registry) runs the specs through the same
    campaign and hands both result lists to :func:`figure4_aggregate`.
    """
    values, _, _ = _variant_axes(variant, values)
    points = [
        _point_params(scale, connectivity, *_probs(variant, value))
        for value, connectivity in point_grid(scale, values)
    ]
    return run_phase1(scale, campaign, TASK_FNS, points, count_acks=count_acks)


def figure4_aggregate(
    variant: str,
    scale: ExperimentScale,
    phase1: Sequence[Dict[str, float]],
    measurements: Sequence[Dict[str, float]],
    values: Optional[Sequence[float]] = None,
) -> ResultSet:
    """Fold ordered phase-1 and measurement results into the Figure 4 table."""
    values, label, title = _variant_axes(variant, values)
    by_value: Dict[float, Dict[int, float]] = {value: {} for value in values}
    for (value, connectivity), point, chunk in zip(
        point_grid(scale, values), phase1, chunked(measurements, scale.trials)
    ):
        reference = Campaign.aggregate(chunk, "messages").mean
        by_value[value][connectivity] = reference / point["optimal_messages"]
    return ResultSet.from_curves(
        "figure4a" if variant == "crash" else "figure4b",
        title,
        "connectivity (links/process)",
        [(f"{label}={value:g}", by_value[value]) for value in values],
    )
