"""Brute-force reference for the greedy ``optimize()`` (Theorem 2).

Appendix D proves the greedy choice optimal.  This exhaustive optimizer
is the oracle the tests hold :func:`repro.core.optimize.optimize`
against on small trees; it is exponential in the number of tree links.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from repro.core.optimize import OptimizeResult
from repro.core.reach import reach
from repro.core.tree import ReliabilityView, SpanningTree
from repro.errors import UnreachableTargetError, ValidationError
from repro.util.validation import check_open_probability


def optimize_bruteforce(
    tree: SpanningTree,
    k_target: float,
    view: ReliabilityView,
    max_per_link: int = 8,
) -> OptimizeResult:
    """Exhaustive reference optimizer (exponential — tests only).

    Enumerates all vectors with ``1 <= m_j <= max_per_link`` and returns
    one with minimal total messages among those meeting ``K`` (ties broken
    by highest reach, then lexicographically by node id for determinism).

    Raises:
        UnreachableTargetError: if no enumerated vector meets ``K``.
    """
    check_open_probability(k_target, "k_target")
    nodes = list(tree.non_root_nodes)
    if not nodes:
        return OptimizeResult(counts={}, achieved=1.0, total_messages=0, increments=0)
    if len(nodes) > 6:
        raise ValidationError(
            f"brute force limited to 6 links, tree has {len(nodes)}"
        )
    best: Optional[Tuple[int, float, Tuple[int, ...]]] = None
    for combo in itertools.product(range(1, max_per_link + 1), repeat=len(nodes)):
        counts = dict(zip(nodes, combo))
        r = reach(tree, counts, view)
        if r < k_target:
            continue
        key = (sum(combo), -r, combo)
        if best is None or key < (best[0], -best[1], best[2]):
            best = (sum(combo), r, combo)
    if best is None:
        raise UnreachableTargetError(
            f"no vector with m_j <= {max_per_link} reaches K={k_target}"
        )
    total, achieved, combo = best
    return OptimizeResult(
        counts=dict(zip(nodes, combo)),
        achieved=achieved,
        total_messages=total,
        increments=total - len(nodes),
    )
