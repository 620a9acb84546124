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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.convergence import ConvergenceCriterion, views_converged
from repro.core.adaptive import AdaptiveParameters
from repro.errors import ConvergenceTimeoutError, ValidationError
from repro.experiments.campaign import Campaign, TrialSpec, chunked
from repro.protocols.registry import (
    AdaptiveProtocolParams,
    DeployContext,
    resolve_protocol,
)
from repro.results.schema import ResultSet
from repro.experiments.runner import (
    ExperimentScale,
    make_network,
    point_grid,
    variant_axes,
)
from repro.sim.monitors import BroadcastMonitor, ConvergenceMonitor
from repro.sim.trace import MessageCategory
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.topology.graph import Graph

#: Probability values plotted in the paper for each variant.
PAPER_CRASH_VALUES = (0.0, 0.01, 0.03, 0.05)
PAPER_LOSS_VALUES = (0.0, 0.01, 0.03, 0.05)


def _registry_params(
    params: Optional[AdaptiveParameters],
) -> AdaptiveProtocolParams:
    """Map the core parameter object onto the registry's flat params.

    Deployment goes through the protocol registry (the same
    ``factory(ctx)`` path as scenario trials); callers that tune
    :class:`AdaptiveParameters` directly keep working — except for
    ``view_impl="object"``, which the registry does not deploy and this
    refuses rather than silently measuring the vector view instead.
    """
    p = params or AdaptiveParameters()
    if p.view_impl != "vector":
        raise ValidationError(
            "figure 5/6 runs deploy the vector view; view_impl="
            f"{p.view_impl!r} is only selectable on AdaptiveParameters "
            "handed to AdaptiveBroadcast directly"
        )
    kp = p.knowledge
    return AdaptiveProtocolParams(
        delta=kp.delta,
        intervals=kp.intervals,
        tick=kp.tick,
        recompute_at_receiver=p.recompute_at_receiver,
        piggyback_knowledge=p.piggyback_knowledge,
    )


def convergence_messages_per_link(
    graph: Graph,
    config: Configuration,
    seed_tag: object,
    deadline: float,
    criterion: Optional[ConvergenceCriterion] = None,
    poll_period: float = 5.0,
    params: Optional[AdaptiveParameters] = None,
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
    monitor = BroadcastMonitor(graph.n)
    nodes = resolve_protocol("adaptive").deploy(
        DeployContext(
            network=network,
            monitor=monitor,
            k_target=0.99,
            params=_registry_params(params),
        )
    )
    network.start()
    views = [node.view for node in nodes]
    watcher = ConvergenceMonitor(
        network.sim,
        lambda: views_converged(views, config, criterion),
        period=poll_period,
        stop_when_converged=True,
        deadline=deadline,
    )
    network.sim.run(until=deadline)
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


def _point_specs(
    connectivity: int,
    crash: float,
    loss: float,
    scale: ExperimentScale,
    trials: int,
) -> List[TrialSpec]:
    return [
        TrialSpec.make(
            CONVERGENCE_FN,
            ("messages_per_link",),
            n=scale.n,
            connectivity=int(connectivity),
            crash=float(crash),
            loss=float(loss),
            deadline=float(scale.convergence_deadline),
            trial=trial,
        )
        for trial in range(trials)
    ]


def _variant_axes(
    variant: str, values: Optional[Sequence[float]]
) -> Tuple[Tuple[float, ...], str, str]:
    """The (values, curve label, title) triple of one Figure 5 variant."""
    return variant_axes(
        variant,
        values,
        defaults={"crash": PAPER_CRASH_VALUES, "loss": PAPER_LOSS_VALUES},
        titles={
            "crash": "Figure 5(a) - convergence effort, reliable links (L=0)",
            "loss": "Figure 5(b) - convergence effort, reliable processes (P=0)",
        },
    )


def figure5_build(
    variant: str,
    scale: ExperimentScale,
    values: Optional[Sequence[float]] = None,
    trials: Optional[int] = None,
) -> List[TrialSpec]:
    """All convergence trials of one Figure 5 variant, in grid order."""
    values, _, _ = _variant_axes(variant, values)
    trials = scale.convergence_trials(trials)
    specs: List[TrialSpec] = []
    for value, connectivity in point_grid(scale, values):
        crash = float(value) if variant == "crash" else 0.0
        loss = float(value) if variant == "loss" else 0.0
        specs.extend(_point_specs(connectivity, crash, loss, scale, trials))
    return specs


def figure5_aggregate(
    variant: str,
    scale: ExperimentScale,
    results: Sequence[Dict[str, float]],
    values: Optional[Sequence[float]] = None,
    trials: Optional[int] = None,
) -> ResultSet:
    """Fold ordered convergence results into the Figure 5 table."""
    values, label, title = _variant_axes(variant, values)
    trials = scale.convergence_trials(trials)
    by_value: Dict[float, Dict[int, float]] = {value: {} for value in values}
    for (value, connectivity), chunk in zip(
        point_grid(scale, values), chunked(results, trials)
    ):
        by_value[value][connectivity] = Campaign.aggregate(
            chunk, "messages_per_link"
        ).mean
    return ResultSet.from_curves(
        "figure5a" if variant == "crash" else "figure5b",
        title,
        "connectivity (links/process)",
        [(f"{label}={value:g}", by_value[value]) for value in values],
    )
