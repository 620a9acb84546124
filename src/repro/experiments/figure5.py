"""Figure 5 — convergence effort of the adaptive protocol.

The paper measures "the effort needed to converge (i.e., all processes in
the system learn the reliability probabilities) in number of messages per
link", which is "twice the number of heartbeat messages sent by a process
through a link until all processes converge": every process sends one
heartbeat per incident link per ``delta``, so messages/link accumulate at
2 per ``delta`` and the metric equals ``2 x convergence rounds``.

We run the full adaptive stack (vectorised views) until the
:func:`repro.analysis.convergence.views_converged` predicate holds and
report ``heartbeat messages sent / link count``.  Trials are described as
campaign specs (seed-complete, spawn-safe), so ``repro experiments run``
can fan them out across worker processes with results identical to the
serial run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.analysis.convergence import ConvergenceCriterion, views_converged
from repro.errors import ConvergenceTimeoutError
from repro.experiments.campaign import Campaign, Cell, CellResults, TrialSpec
from repro.protocols.registry import AdaptiveProtocolParams
from repro.protocols.trial import Trial
from repro.results.schema import ResultSet
from repro.experiments.runner import (
    make_network,
    point_grid,
    sized_scale,
    variant_axes,
)
from repro.sim.monitors import ConvergenceMonitor
from repro.sim.trace import MessageCategory
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.topology.graph import Graph

if TYPE_CHECKING:  # import cycle: the registry imports this module
    from repro.experiments.registry import ExperimentContext

#: Probability values plotted in the paper for each variant.
PAPER_VALUES = {
    "crash": (0.0, 0.01, 0.03, 0.05),
    "loss": (0.0, 0.01, 0.03, 0.05),
}

TITLES = {
    "crash": "Figure 5(a) - convergence effort, reliable links (L=0)",
    "loss": "Figure 5(b) - convergence effort, reliable processes (P=0)",
}


def convergence_messages_per_link(
    graph: Graph,
    config: Configuration,
    seed_tag: object,
    deadline: float,
    criterion: Optional[ConvergenceCriterion] = None,
    poll_period: float = 5.0,
    params: Optional[AdaptiveProtocolParams] = None,
    strict: bool = True,
) -> float:
    """Run the adaptive protocol until global convergence.

    Returns:
        Heartbeat messages per link at convergence time (the Figure 5/6
        metric).

    Raises:
        ConvergenceTimeoutError: if ``strict`` and the deadline passes
            without convergence.
    """
    criterion = criterion or ConvergenceCriterion()
    network = make_network(config, "fig5", seed_tag)
    with Trial(network, "adaptive", 0.99, params=params) as t:
        t.network.start()
        views = [node.view for node in t.nodes]
        watcher = ConvergenceMonitor(
            t.sim,
            lambda: views_converged(views, config, criterion),
            period=poll_period,
            stop_when_converged=True,
            deadline=deadline,
        )
        t.sim.run(until=deadline)
    if not watcher.converged:
        if strict:
            raise ConvergenceTimeoutError(
                f"no convergence within {deadline} time units "
                f"(n={graph.n}, links={graph.link_count})"
            )
        return math.inf
    return network.stats.sent(MessageCategory.HEARTBEAT) / graph.link_count


def convergence_trial_task(
    *,
    n: int,
    connectivity: int,
    crash: float,
    loss: float,
    deadline: float,
    trial: int,
) -> Dict[str, float]:
    """Campaign task: one seeded convergence trial on a k-regular graph.

    The seed tag reproduces the serial runner's
    ``(connectivity, crash, loss, trial)`` tuple exactly, so campaign
    execution is bit-identical to the serial loop.
    """
    connectivity, trial = int(connectivity), int(trial)
    crash, loss = float(crash), float(loss)
    graph = k_regular(int(n), connectivity)
    config = Configuration.uniform(graph, crash=crash, loss=loss)
    effort = convergence_messages_per_link(
        graph,
        config,
        (connectivity, crash, loss, trial),
        deadline=float(deadline),
    )
    return {"messages_per_link": effort}


CONVERGENCE_FN = "repro.experiments.figure5:convergence_trial_task"


def cells(variant: str, ctx: ExperimentContext) -> List[Cell]:
    """The convergence trials of one Figure 5 variant, one cell per
    ``(curve label, connectivity)`` point, in grid order."""
    scale = sized_scale(ctx.scale, ctx.params, trials_in_scale=False)
    values, label = variant_axes(variant, ctx.params, PAPER_VALUES)
    trials = scale.convergence_trials(ctx.params.trials)
    return [
        (
            (f"{label}={value:g}", connectivity),
            TrialSpec.trials(
                CONVERGENCE_FN,
                ("messages_per_link",),
                trials,
                n=scale.n,
                connectivity=int(connectivity),
                crash=float(value) if variant == "crash" else 0.0,
                loss=float(value) if variant == "loss" else 0.0,
                deadline=float(scale.convergence_deadline),
            ),
        )
        for value, connectivity in point_grid(scale, values)
    ]


def fold(
    variant: str, ctx: ExperimentContext, cells: Sequence[CellResults]
) -> ResultSet:
    """Fold each point's convergence efforts into the Figure 5 table."""
    curves: Dict[str, Dict[int, float]] = {}
    for (curve, connectivity), results in cells:
        curves.setdefault(curve, {})[connectivity] = Campaign.aggregate(
            results, "messages_per_link"
        ).mean
    return ResultSet.from_curves(
        "figure5a" if variant == "crash" else "figure5b",
        TITLES[variant],
        "connectivity (links/process)",
        list(curves.items()),
    )
