"""Table 1 — Bayesian belief adaptation after a failure suspicion.

The paper illustrates Algorithm 5 with ``U = 5``: equal a-priori beliefs
(case a) become ``[0.04, 0.12, 0.20, 0.28, 0.36]`` after one suspicion
(case b).  This module regenerates both cases from the implementation.

Each interval row is a campaign task (exact, seed-free), so Table 1 runs
through the same parallel/cached/registry machinery as every other
experiment — trivially cheap here, but uniform.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.bayesian import BeliefEstimator
from repro.experiments.campaign import TrialSpec
from repro.results.schema import ResultSet

#: The paper's published case-(b) beliefs, for verification.
PAPER_AFTER_SUSPICION = (0.04, 0.12, 0.20, 0.28, 0.36)


def belief_row_task(*, intervals: int, u: int) -> Dict[str, float]:
    """Campaign task: one belief interval's row of Table 1."""
    intervals, u = int(intervals), int(u)
    initial = BeliefEstimator(intervals)
    after = BeliefEstimator(intervals)
    after.decrease_reliability(1)
    lo, hi = initial.interval_bounds(u)
    return {
        "lo": float(lo),
        "hi": float(hi),
        "midpoint": float(initial.midpoints[u]),
        "initial": float(initial.beliefs[u]),
        "after": float(after.beliefs[u]),
    }


BELIEF_FN = "repro.experiments.table1:belief_row_task"


def table1_build(intervals: int = 5) -> List[TrialSpec]:
    """One spec per belief interval."""
    return [
        TrialSpec.make(
            BELIEF_FN,
            ("lo", "hi", "midpoint", "initial", "after"),
            intervals=int(intervals),
            u=u,
        )
        for u in range(intervals)
    ]


def table1_aggregate(
    results: Sequence[Dict[str, float]], intervals: int = 5
) -> ResultSet:
    """Fold the per-interval results into Table 1: (interval bounds,
    P_F|B midpoint, initial belief, belief after one suspicion)."""
    rows = []
    for u, result in enumerate(results):
        lo, hi = result["lo"], result["hi"]
        bounds = (
            f"[{lo:.1f}, {hi:.1f})" if u < intervals - 1 else f"[{lo:.1f}, {hi:.1f}]"
        )
        rows.append(
            [bounds, result["midpoint"], result["initial"], result["after"]]
        )
    return ResultSet.from_rows(
        "table1",
        "Table 1 - adapting failure beliefs after a suspicion",
        ("interval", "P_F|B", "P_B initial", "P_B after suspicion"),
        rows,
    )
