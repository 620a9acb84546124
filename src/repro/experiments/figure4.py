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
  reaches the fold in the point's coordinates — as a trial result
  through the cache, the worker pipes and every backend, like the round
  budget beside it.
* The **reference** side is empirical: gossip rounds are first calibrated
  so the all-reached frequency meets ``K`` (the paper's "determined
  interactively"), then data-message counts are averaged over measurement
  trials.  Every trial deploys the gossip stack through the protocol
  registry (:mod:`repro.protocols.registry`) — the registry's
  ``needs_calibration`` capability flag marks exactly this knob.

Execution is campaign-based (see :mod:`repro.experiments.campaign`):
:func:`cells` describes every calibration and measurement trial as a
seed-complete :class:`~repro.experiments.campaign.TrialSpec` and a
:class:`~repro.experiments.campaign.Campaign` runs them — serially
in-process by default, or fanned out over worker processes with on-disk
result caching, with bit-identical tables either way.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.core.mrt import maximum_reliability_tree
from repro.core.optimize import optimize
from repro.experiments.campaign import Campaign, Cell, CellResults, TrialSpec
from repro.experiments.runner import (
    ExperimentScale,
    make_network,
    point_grid,
    sized_scale,
    variant_axes,
)
from repro.protocols.gossip import calibrate_rounds, run_gossip_trial
from repro.results.schema import ResultSet
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.topology.graph import Graph

if TYPE_CHECKING:  # import cycle: the registry imports this module
    from repro.experiments.registry import ExperimentContext

#: Probability values plotted in the paper for each variant.
PAPER_VALUES = {
    "crash": (0.01, 0.03, 0.05, 0.07),
    "loss": (0.01, 0.03, 0.05, 0.07),
}

TITLES = {
    "crash": "Figure 4(a) - reference/optimal ratio, reliable links (L=0)",
    "loss": "Figure 4(b) - reference/optimal ratio, reliable processes (P=0)",
}


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
    points: Sequence[Tuple[Tuple[object, ...], Dict[str, object]]],
    **measurement_params: object,
) -> List[Cell]:
    """Run phase 1 of ``points``; returns the measurement cells.

    ``points`` pairs each point's coordinates with its spec parameters;
    ``fns`` is the (phase-1, measurement) task pair.  One phase-1 trial
    per point fixes its round budget and optimal cost; the point's cell
    is ``scale.trials`` measurement specs at that budget, and its
    coordinates gain the optimal cost.
    """
    phase1_fn, measurement_fn = fns
    phase1 = campaign.run(
        [
            TrialSpec.make(
                phase1_fn,
                ("rounds", "optimal_messages"),
                trials=scale.calibration_trials,
                **params,
            )
            for _, params in points
        ]
    )
    return [
        (
            (*coords, result["optimal_messages"]),
            TrialSpec.trials(
                measurement_fn,
                ("messages",),
                scale.trials,
                rounds=int(result["rounds"]),
                **params,
                **measurement_params,
            ),
        )
        for (coords, params), result in zip(points, phase1)
    ]


def _probs(variant: str, value: float) -> Tuple[float, float]:
    """The (crash, loss) pair a swept value denotes in this variant."""
    return (float(value), 0.0) if variant == "crash" else (0.0, float(value))


def cells(
    variant: str, ctx: ExperimentContext, count_acks: bool = False
) -> List[Cell]:
    """Phase 1, then the measurement cells of one Figure 4 variant.

    Phase 1 (one round-budget fit and one optimal cost per grid point)
    runs through ``ctx.campaign`` immediately — its results parameterise
    the measurement specs.  A cell's coordinates are its curve label,
    its connectivity and its optimal cost.  ``count_acks`` adds the
    reference side's ACKs to its cost (the ACK-accounting ablation).
    """
    scale = sized_scale(ctx.scale, ctx.params, trials_in_scale=True)
    values, label = variant_axes(variant, ctx.params, PAPER_VALUES)
    points = [
        (
            (f"{label}={value:g}", connectivity),
            _point_params(scale, connectivity, *_probs(variant, value)),
        )
        for value, connectivity in point_grid(scale, values)
    ]
    return run_phase1(scale, ctx.campaign, TASK_FNS, points, count_acks=count_acks)


def fold(
    variant: str, ctx: ExperimentContext, cells: Sequence[CellResults]
) -> ResultSet:
    """Fold each point's measurements over its optimal cost into the
    Figure 4 table: one curve per probability value."""
    curves: Dict[str, Dict[int, float]] = {}
    for (curve, connectivity, optimal), results in cells:
        reference = Campaign.aggregate(results, "messages").mean
        curves.setdefault(curve, {})[connectivity] = reference / optimal
    return ResultSet.from_curves(
        "figure4a" if variant == "crash" else "figure4b",
        TITLES[variant],
        "connectivity (links/process)",
        list(curves.items()),
    )
