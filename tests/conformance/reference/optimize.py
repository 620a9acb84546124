"""Reference optimizers for the greedy ``optimize()`` (Theorem 2).

Appendix D proves the greedy choice optimal.  The exhaustive
:func:`optimize_bruteforce` is the oracle the tests hold
:func:`repro.core.optimize.optimize` against on small trees; it is
exponential in the number of tree links.  :func:`optimize_for_budget`
is the greedy for the dual problem (Lemma 3): the largest reach for a
message budget.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.core.optimize import OptimizeResult, gain
from repro.core.reach import reach
from repro.core.tree import ReliabilityView, SpanningTree
from repro.errors import UnreachableTargetError, ValidationError
from repro.types import ProcessId
from repro.util.heap import AddressableHeap
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


def optimize_for_budget(
    tree: SpanningTree,
    budget: int,
    view: ReliabilityView,
) -> OptimizeResult:
    """The dual problem of Eq. 5: maximise reach subject to ``sum(m) <= M``.

    Runs the same greedy with the stop condition swapped (footnote 3 of
    Appendix D).  The oracle of the equivalence tests for Lemma 3.

    Raises:
        ValidationError: if ``budget`` cannot cover the minimal vector.
    """
    nodes = tree.non_root_nodes
    if budget < len(nodes):
        raise ValidationError(
            f"budget {budget} below the minimal vector size {len(nodes)}"
        )
    lambdas = tree.lambdas(view)
    counts: Dict[ProcessId, int] = {j: 1 for j in nodes}
    heap: AddressableHeap[ProcessId] = AddressableHeap()
    for j in nodes:
        g = gain(lambdas[j], 1)
        if g > 1.0:
            heap.push(j, (-g, j))  # type: ignore[arg-type]
    total = len(nodes)
    increments = 0
    while total < budget and heap:
        j, _ = heap.pop()
        counts[j] += 1
        total += 1
        increments += 1
        g_next = gain(lambdas[j], counts[j])
        if g_next > 1.0:
            heap.push(j, (-g_next, j))  # type: ignore[arg-type]
    return OptimizeResult(
        counts=counts,
        achieved=reach(tree, counts, view),
        total_messages=total,
        increments=increments,
    )
