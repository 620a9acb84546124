"""Figure 6 — scalability of the adaptive protocol (ring vs random tree).

The paper grows the system from 100 to 240 processes on two topologies:
a ring (worst case: information traverses half the system on average, so
convergence effort grows linearly with n) and random trees (convergence
effort stays nearly constant).  The metric is the same messages/link
counter as Figure 5, with a mildly unreliable uniform configuration.

Like Figures 4/5, every (topology, n, trial) cell is a seed-complete
campaign spec, so ``repro experiments run figure6`` parallelises and
caches the sweep; ``--sweep topology=... --sweep size=... --sweep loss=...`` widens
or narrows the grid (multiple loss values add one curve per topology x
loss combination).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.experiments.campaign import Campaign, TrialSpec, chunked
from repro.experiments.figure5 import convergence_messages_per_link
from repro.experiments.runner import ExperimentScale
from repro.results.schema import ResultSet
from repro.topology.configuration import Configuration
from repro.topology.generators import random_tree, ring
from repro.util.rng import RandomSource

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


def _cell_grid(
    scale: ExperimentScale,
    sizes: Optional[Sequence[int]],
    topologies: Optional[Sequence[str]],
    losses: Optional[Sequence[float]],
    loss: float,
):
    """The validated (topology, loss, n) cell grid of one Figure 6 run."""
    sizes = tuple(sizes or scale.figure6_sizes)
    topologies = tuple(topologies or TOPOLOGIES)
    losses = tuple(losses or (loss,))
    for topology in topologies:
        if topology not in TOPOLOGIES:
            raise ValidationError(
                f"topology must be 'ring' or 'tree', got {topology!r}"
            )
    cells = [
        (topology, loss_value, n)
        for topology in topologies
        for loss_value in losses
        for n in sizes
    ]
    return cells, losses


def figure6_build(
    scale: ExperimentScale,
    sizes: Optional[Sequence[int]] = None,
    trials: Optional[int] = None,
    loss: float = DEFAULT_LOSS,
    topologies: Optional[Sequence[str]] = None,
    losses: Optional[Sequence[float]] = None,
) -> List[TrialSpec]:
    """All scalability trials of one Figure 6 grid, in cell order."""
    cells, _ = _cell_grid(scale, sizes, topologies, losses, loss)
    trials = scale.convergence_trials(trials)
    specs: List[TrialSpec] = []
    for topology, loss_value, n in cells:
        specs += TrialSpec.trials(
            SCALABILITY_FN,
            ("messages_per_link",),
            trials,
            topology=topology,
            n=int(n),
            loss=float(loss_value),
            deadline=float(scale.convergence_deadline),
        )
    return specs


def figure6_aggregate(
    scale: ExperimentScale,
    results: Sequence[Dict[str, float]],
    sizes: Optional[Sequence[int]] = None,
    trials: Optional[int] = None,
    loss: float = DEFAULT_LOSS,
    topologies: Optional[Sequence[str]] = None,
    losses: Optional[Sequence[float]] = None,
) -> ResultSet:
    """Fold ordered scalability results into the Figure 6 table.

    One curve per topology; several ``losses`` add ``L=`` suffixes and
    one curve per topology x loss combination.
    """
    cells, losses = _cell_grid(scale, sizes, topologies, losses, loss)
    trials = scale.convergence_trials(trials)
    curves: Dict[Tuple[str, float], Dict[int, float]] = {}
    for (topology, loss_value, n), chunk in zip(cells, chunked(results, trials)):
        stats = Campaign.aggregate(chunk, "messages_per_link")
        curves.setdefault((topology, loss_value), {})[n] = stats.mean
    single = len(losses) == 1
    return ResultSet.from_curves(
        "figure6",
        "Figure 6 - adaptive algorithm scalability",
        "number of processes",
        [
            (topology if single else f"{topology} L={loss_value:g}", points)
            for (topology, loss_value), points in curves.items()
        ],
    )
