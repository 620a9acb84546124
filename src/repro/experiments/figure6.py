"""Figure 6 — scalability of the adaptive protocol (ring vs random tree).

The paper grows the system from 100 to 240 processes on two topologies:
a ring (worst case: information traverses half the system on average, so
convergence effort grows linearly with n) and random trees (convergence
effort stays nearly constant).  The metric is the same messages/link
counter as Figure 5, with a mildly unreliable uniform configuration.

Like Figures 4/5, every trial of a (topology, loss, n) cell is a
seed-complete campaign spec, so ``repro experiments run figure6`` parallelises and
caches the sweep; ``--sweep topology=... --sweep size=... --sweep loss=...`` widens
or narrows the grid (multiple loss values add one curve per topology x
loss combination).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.errors import ValidationError
from repro.experiments.campaign import Campaign, Cell, CellResults, TrialSpec
from repro.experiments.figure5 import convergence_messages_per_link
from repro.results.schema import ResultSet
from repro.topology.configuration import Configuration
from repro.topology.generators import random_tree, ring
from repro.util.rng import RandomSource

if TYPE_CHECKING:  # import cycle: the registry imports this module
    from repro.experiments.registry import ExperimentContext

#: Loss probability used for the scalability runs (mildly lossy links —
#: the paper does not state the exact value; 0.01 keeps suspicion traffic
#: representative without dominating convergence time).
DEFAULT_LOSS = 0.01

#: Topologies contrasted by the paper's Figure 6.
TOPOLOGIES = ("ring", "tree")


def scalability_trial_task(
    *,
    topology: str,
    n: int,
    loss: float,
    deadline: float,
    trial: int,
) -> Dict[str, float]:
    """Campaign task: one seeded convergence trial at system size ``n``.

    Ring graphs are deterministic; random trees draw their shape from the
    dedicated ``("fig6-tree", n, trial)`` stream, exactly as the serial
    runner always did.
    """
    n, trial = int(n), int(trial)
    loss = float(loss)
    if topology == "ring":
        graph = ring(n)
    elif topology == "tree":
        graph = random_tree(n, RandomSource("fig6-tree", n, trial))
    else:
        raise ValidationError(f"topology must be 'ring' or 'tree', got {topology!r}")
    config = Configuration.uniform(graph, crash=0.0, loss=loss)
    effort = convergence_messages_per_link(
        graph,
        config,
        ("fig6", topology, n, trial),
        deadline=float(deadline),
    )
    return {"messages_per_link": effort}


SCALABILITY_FN = "repro.experiments.figure6:scalability_trial_task"


def cells(ctx: ExperimentContext) -> List[Cell]:
    """All scalability trials of one Figure 6 grid, one cell per
    ``(curve label, n)`` point: one curve per topology, and per loss
    (with an ``L=`` suffix) when several losses are swept."""
    p = ctx.params
    topologies = p.topology or TOPOLOGIES
    for topology in topologies:
        if topology not in TOPOLOGIES:
            raise ValidationError(
                f"topology must be 'ring' or 'tree', got {topology!r}"
            )
    losses = p.loss or (DEFAULT_LOSS,)
    trials = ctx.scale.convergence_trials(p.trials)
    return [
        (
            (topology if len(losses) == 1 else f"{topology} L={loss:g}", n),
            TrialSpec.trials(
                SCALABILITY_FN,
                ("messages_per_link",),
                trials,
                topology=topology,
                n=int(n),
                loss=float(loss),
                deadline=float(ctx.scale.convergence_deadline),
            ),
        )
        for topology in topologies
        for loss in losses
        for n in p.size or ctx.scale.figure6_sizes
    ]


def fold(ctx: ExperimentContext, cells: Sequence[CellResults]) -> ResultSet:
    """Fold each point's convergence efforts into the Figure 6 table."""
    curves: Dict[str, Dict[int, float]] = {}
    for (curve, n), results in cells:
        curves.setdefault(curve, {})[n] = Campaign.aggregate(
            results, "messages_per_link"
        ).mean
    return ResultSet.from_curves(
        "figure6",
        "Figure 6 - adaptive algorithm scalability",
        "number of processes",
        list(curves.items()),
    )
