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

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.two_paths import message_ratio
from repro.experiments.campaign import TrialSpec
from repro.results.schema import ResultSet

#: The loss probabilities plotted in the paper's Figure 1.
PAPER_LOSSES = (1e-2, 1e-3, 1e-4)

#: The alpha range of the paper's x-axis.
PAPER_ALPHAS = tuple(range(1, 11))


def two_path_ratio_task(*, loss: float, alpha: float) -> Dict[str, float]:
    """Campaign task: one analytic ``k1/k0`` point of Figure 1."""
    return {"ratio": message_ratio(float(loss), float(alpha))}


RATIO_FN = "repro.experiments.figure1:two_path_ratio_task"


def _grid(
    losses: Sequence[float], alphas: Iterable[float]
) -> List[Tuple[float, float]]:
    return [(loss, alpha) for loss in losses for alpha in alphas]


def figure1_build(
    losses: Sequence[float] = PAPER_LOSSES,
    alphas: Iterable[float] = PAPER_ALPHAS,
) -> List[TrialSpec]:
    """One spec per (L, alpha) point, in the plotting order."""
    return [
        TrialSpec.make(RATIO_FN, ("ratio",), loss=float(loss), alpha=float(alpha))
        for loss, alpha in _grid(losses, list(alphas))
    ]


def figure1_aggregate(
    results: Sequence[Dict[str, float]],
    losses: Sequence[float] = PAPER_LOSSES,
    alphas: Iterable[float] = PAPER_ALPHAS,
) -> ResultSet:
    """Fold the point results into Figure 1: one curve per ``L``."""
    by_loss: Dict[float, Dict[float, float]] = {}
    for (loss, alpha), result in zip(_grid(losses, list(alphas)), results):
        by_loss.setdefault(loss, {})[alpha] = result["ratio"]
    return ResultSet.from_curves(
        "figure1",
        "Figure 1 - adaptive vs traditional gossip (k1/k0)",
        "alpha",
        [(f"L={loss:g}", points) for loss, points in by_loss.items()],
    )


def expected_anchor_points() -> dict:
    """Anchor values stated in the paper's introduction, for verification.

    *"When alpha = 10 ... L = 0.0001, an adaptive algorithm only needs
    about 87% of the messages sent by a traditional gossip algorithm"*,
    and at ``alpha = 1`` the ratio is exactly 1.
    """
    return {
        ("alpha=1", "any L"): 1.0,
        ("alpha=10", "L=1e-4"): 0.875,
    }
