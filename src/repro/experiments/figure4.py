"""Figure 4 — reference gossip vs optimal algorithm message ratio.

The paper varies network connectivity (k-neighbour graphs over 100
processes) and plots the ratio

    messages(reference gossip) / messages(optimal algorithm)

for several crash probabilities with reliable links (Figure 4a) and
several loss probabilities with reliable processes (Figure 4b).  Both
algorithms must deliver to all processes with the same probability ``K``.

* The **optimal** side is deterministic: ``sum(~m)`` from ``optimize``
  over the MRT under the true configuration (the cost function of Eq. 3).
* The **reference** side is empirical: gossip rounds are first calibrated
  so the all-reached frequency meets ``K`` (the paper's "determined
  interactively"), then data-message counts are averaged over measurement
  trials.  Every trial deploys the gossip stack through the protocol
  registry (:mod:`repro.protocols.registry`) — the registry's
  ``needs_calibration`` capability flag marks exactly this knob.

Execution is campaign-based (see :mod:`repro.experiments.campaign`):
:func:`figure4_table` describes every calibration and measurement trial
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
    current_scale,
    make_network,
    point_grid,
    variant_axes,
)
from repro.protocols.gossip import calibrate_rounds, run_gossip_trial
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.topology.graph import Graph
from repro.util.stats import OnlineStats
from repro.util.tables import Series, SeriesTable

#: Probability values plotted in the paper for each variant.
PAPER_CRASH_VALUES = (0.01, 0.03, 0.05, 0.07)
PAPER_LOSS_VALUES = (0.01, 0.03, 0.05, 0.07)


def optimal_messages(graph: Graph, config: Configuration, k_target: float) -> int:
    """``c(~m)`` of the optimal algorithm (deterministic)."""
    tree = maximum_reliability_tree(graph, config, root=0)
    return optimize(tree, k_target, config).total_messages


def calibrate_reference(
    config: Configuration, seed_tag: str, k_target: float, trials: int
) -> int:
    """Calibrate the gossip round budget for one configuration.

    Seeds are fully determined by ``seed_tag`` and the trial index, so
    the result is identical wherever this runs.
    """
    return calibrate_rounds(
        lambda t: make_network(config, "fig4-cal", seed_tag, t),
        k_target=k_target,
        trials=trials,
    )


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


def gossip_calibration_task(
    *,
    n: int,
    connectivity: int,
    crash: float,
    loss: float,
    k_target: float,
    trials: int,
    seed_tag: str,
) -> Dict[str, float]:
    """Campaign task: calibrate rounds for a uniform configuration."""
    _, config = _uniform_config(n, connectivity, float(crash), float(loss))
    rounds = calibrate_reference(config, seed_tag, k_target, trials)
    return {"rounds": float(rounds)}


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


CALIBRATION_FN = "repro.experiments.figure4:gossip_calibration_task"
MEASUREMENT_FN = "repro.experiments.figure4:gossip_measurement_task"


def reference_messages(
    graph: Graph,
    config: Configuration,
    k_target: float,
    scale: ExperimentScale,
    seed_tag: str,
    count_acks: bool = False,
) -> Tuple[float, int]:
    """Mean gossip data messages at the calibrated round budget.

    In-process serial path (used by :func:`figure4_point` and the
    heterogeneous extension); the campaign tasks above compute the exact
    same per-trial values from the same seeds.

    Returns:
        ``(mean_messages, rounds)``.
    """
    rounds = calibrate_reference(
        config, seed_tag, k_target, scale.calibration_trials
    )
    stats = OnlineStats()
    for t in range(scale.trials):
        stats.add(
            measure_reference_once(
                config, seed_tag, t, rounds, k_target, count_acks
            )
        )
    return stats.mean, rounds


def figure4_point(
    connectivity: int,
    crash: float,
    loss: float,
    scale: ExperimentScale,
    count_acks: bool = False,
) -> Dict[str, float]:
    """One (connectivity, P, L) point: the ratio and its components."""
    graph, config = _uniform_config(scale.n, connectivity, crash, loss)
    optimal = optimal_messages(graph, config, scale.k_target)
    seed_tag = _seed_tag(connectivity, crash, loss, scale.n)
    reference, rounds = reference_messages(
        graph, config, scale.k_target, scale, seed_tag, count_acks
    )
    return {
        "connectivity": float(connectivity),
        "optimal_messages": float(optimal),
        "reference_messages": reference,
        "rounds": float(rounds),
        "ratio": reference / optimal,
    }


def _seed_tag(connectivity: int, crash: float, loss: float, n: int) -> str:
    return f"k{connectivity}-P{crash}-L{loss}-n{n}"


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
) -> List[TrialSpec]:
    """Phase 1 + the phase-2 specs of one Figure 4 variant.

    The calibration phase (one round-budget fit per grid point) runs
    through ``campaign`` immediately — its results parameterise the
    measurement specs this returns.  Callers (``figure4_table``, the
    experiment registry) run the returned specs through the same
    campaign and hand the results to :func:`figure4_aggregate`.
    """
    values, _, _ = _variant_axes(variant, values)
    points = point_grid(scale, values)

    # Phase 1: one calibration per (value, connectivity) point.
    cal_specs: List[TrialSpec] = []
    for value, connectivity in points:
        crash, loss = _probs(variant, value)
        cal_specs.append(
            TrialSpec.make(
                CALIBRATION_FN,
                n=scale.n,
                connectivity=connectivity,
                crash=crash,
                loss=loss,
                k_target=scale.k_target,
                trials=scale.calibration_trials,
                seed_tag=_seed_tag(connectivity, crash, loss, scale.n),
            )
        )
    calibrations = campaign.run(cal_specs)

    # Phase 2: the measurement trials, fanned out across all points.
    meas_specs: List[TrialSpec] = []
    for (value, connectivity), calibration in zip(points, calibrations):
        crash, loss = _probs(variant, value)
        for trial in range(scale.trials):
            meas_specs.append(
                TrialSpec.make(
                    MEASUREMENT_FN,
                    n=scale.n,
                    connectivity=connectivity,
                    crash=crash,
                    loss=loss,
                    k_target=scale.k_target,
                    rounds=int(calibration["rounds"]),
                    trial=trial,
                    seed_tag=_seed_tag(connectivity, crash, loss, scale.n),
                    count_acks=count_acks,
                )
            )
    return meas_specs


def figure4_aggregate(
    variant: str,
    scale: ExperimentScale,
    measurements: Sequence[Dict[str, float]],
    values: Optional[Sequence[float]] = None,
) -> SeriesTable:
    """Fold ordered measurement results into the Figure 4 table."""
    values, label, title = _variant_axes(variant, values)
    points = point_grid(scale, values)
    table = SeriesTable(title=title, x_label="connectivity (links/process)")
    by_value: Dict[float, Series] = {
        value: Series(name=f"{label}={value:g}") for value in values
    }
    for (value, connectivity), chunk in zip(
        points, chunked(measurements, scale.trials)
    ):
        crash, loss = _probs(variant, value)
        graph, config = _uniform_config(scale.n, connectivity, crash, loss)
        optimal = optimal_messages(graph, config, scale.k_target)
        reference = Campaign.aggregate(chunk, "messages").mean
        by_value[value].add(connectivity, reference / optimal)
    for value in values:
        table.add_series(by_value[value])
    return table


def figure4_table(
    variant: str = "crash",
    scale: Optional[ExperimentScale] = None,
    values: Optional[Sequence[float]] = None,
    count_acks: bool = False,
    campaign: Optional[Campaign] = None,
) -> SeriesTable:
    """Regenerate Figure 4(a) (``variant="crash"``) or 4(b) (``"loss"``).

    Each curve fixes one probability value; the x-axis sweeps network
    connectivity.  y = reference/optimal message ratio.

    Args:
        campaign: execution engine; defaults to a serial, cache-less
            :class:`Campaign`.  Pass one with a parallel ``backend``
            and/or a :class:`~repro.util.cache.TrialCache` — the table
            is identical in all cases.
    """
    scale = scale or current_scale()
    campaign = campaign or Campaign()
    meas_specs = figure4_build(
        variant, scale, campaign, values=values, count_acks=count_acks
    )
    measurements = campaign.run(meas_specs)
    return figure4_aggregate(variant, scale, measurements, values=values)
