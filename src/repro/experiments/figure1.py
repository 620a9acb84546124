"""Figure 1 — adaptive vs traditional gossip on the two-path model.

Pure closed-form regeneration (Appendix A); the property tests separately
validate the formulas against Monte-Carlo simulation.

Although every point is analytic, the experiment runs through the same
campaign machinery as the simulated figures: each ``(L, alpha)`` point is
a seed-free :class:`~repro.experiments.campaign.TrialSpec`, so parallel
execution, on-disk caching and the experiment registry treat Figure 1
exactly like Figures 4/5/6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.analysis.two_paths import message_ratio
from repro.experiments.campaign import Cell, CellResults, TrialSpec
from repro.results.schema import ResultSet

if TYPE_CHECKING:  # import cycle: the registry imports this module
    from repro.experiments.registry import ExperimentContext

#: The loss probabilities plotted in the paper's Figure 1.
PAPER_LOSSES = (1e-2, 1e-3, 1e-4)

#: The alpha range of the paper's x-axis.
PAPER_ALPHAS = tuple(range(1, 11))


def two_path_ratio_task(*, loss: float, alpha: float) -> Dict[str, float]:
    """Campaign task: one analytic ``k1/k0`` point of Figure 1."""
    return {"ratio": message_ratio(float(loss), float(alpha))}


RATIO_FN = "repro.experiments.figure1:two_path_ratio_task"


def cells(ctx: ExperimentContext) -> List[Cell]:
    """One seed-free spec per ``(L, alpha)`` point, in the plotting order."""
    p = ctx.params
    return [
        (
            (loss, alpha),
            [
                TrialSpec.make(
                    RATIO_FN, ("ratio",), loss=float(loss), alpha=float(alpha)
                )
            ],
        )
        for loss in p.loss or PAPER_LOSSES
        for alpha in p.alpha or PAPER_ALPHAS
    ]


def fold(ctx: ExperimentContext, cells: Sequence[CellResults]) -> ResultSet:
    """Fold the point results into Figure 1: one curve per ``L``."""
    by_loss: Dict[float, Dict[float, float]] = {}
    for (loss, alpha), (result,) in cells:
        by_loss.setdefault(loss, {})[alpha] = result["ratio"]
    return ResultSet.from_curves(
        "figure1",
        "Figure 1 - adaptive vs traditional gossip (k1/k0)",
        "alpha",
        [(f"L={loss:g}", points) for loss, points in by_loss.items()],
    )
