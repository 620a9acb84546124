"""The greedy ``optimize()`` function (Section 3.3, Algorithm 2).

Starting from the minimal vector ``m = (1,...,1)``, the algorithm
repeatedly increments the component whose extra copy maximises the
multiplicative gain

    gain_j(m_j) = (1 - lambda_j^(m_j+1)) / (1 - lambda_j^(m_j))

until ``reach(m) >= K``.  Appendix D proves the greedy choice is optimal
because the gain is isotonic (non-increasing in ``m_j``); this
implementation exploits exactly that property to replace the paper's
argmax scan with a max-heap — the result is identical (ties broken by
node id for determinism) at O(total increments · log n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import UnreachableTargetError, ValidationError
from repro.core.reach import reach
from repro.core.tree import ReliabilityView, SpanningTree
from repro.types import ProcessId
from repro.util.heap import AddressableHeap
from repro.util.validation import check_open_probability


@dataclass(frozen=True)
class OptimizeResult:
    """Outcome of :func:`optimize`.

    Attributes:
        counts: ``m_j`` per non-root tree node (the vector ``~m``).
        achieved: the reach probability of ``counts`` (>= requested ``K``).
        total_messages: ``c(m) = sum(m_j)`` — the optimisation objective.
        increments: greedy steps taken beyond the minimal vector.
    """

    counts: Dict[ProcessId, int]
    achieved: float
    total_messages: int
    increments: int


def gain(lam: float, m: int) -> float:
    """``gain_j`` of Eq. 6: reach multiplier for one extra copy on a link."""
    if lam <= 0.0:
        return 1.0
    numerator = 1.0 - lam ** (m + 1)
    denominator = 1.0 - lam ** m
    if denominator <= 0.0:
        return math.inf  # first useful copy on an m=0 link
    return numerator / denominator


def optimize(
    tree: SpanningTree,
    k_target: float,
    view: ReliabilityView,
    max_total: Optional[int] = None,
) -> OptimizeResult:
    """Minimise total messages subject to ``reach >= k_target`` (Eq. 3).

    Args:
        tree: the MRT (or any rooted spanning tree).
        k_target: required probability ``K`` in (0, 1).
        view: reliability provider for ``lambda_j``.
        max_total: safety cap on ``sum(m_j)``; defaults to
            ``max(10_000, 1_000 * links)``.

    Returns:
        An :class:`OptimizeResult`; ``counts`` is the paper's ``~m``.

    Raises:
        UnreachableTargetError: if some ``lambda_j = 1`` (that node can
            never be reached) or the cap is hit before ``K``.
    """
    check_open_probability(k_target, "k_target")
    nodes = tree.non_root_nodes
    if not nodes:  # single-node tree: the sender itself always delivers
        return OptimizeResult(counts={}, achieved=1.0, total_messages=0, increments=0)

    lambdas = tree.lambdas(view)
    for j, lam in lambdas.items():
        if lam >= 1.0:
            raise UnreachableTargetError(
                f"node {j} is unreachable (lambda = {lam}); "
                "no retransmission count can meet the target"
            )
        if lam < 0.0:
            raise ValidationError(f"negative lambda {lam} at node {j}")

    cap = max_total if max_total is not None else max(10_000, 1_000 * len(nodes))
    counts: Dict[ProcessId, int] = {j: 1 for j in nodes}
    log_r = 0.0
    for j in nodes:
        log_r += math.log(1.0 - lambdas[j])
    log_k = math.log(k_target)

    # Max-gain heap: priority (-gain, node) pops the largest gain, ties by id.
    heap: AddressableHeap[ProcessId] = AddressableHeap()
    for j in nodes:
        g = gain(lambdas[j], 1)
        if g > 1.0:
            heap.push(j, (-g, j))  # type: ignore[arg-type]

    total = len(nodes)
    increments = 0
    while log_r < log_k:
        if not heap:
            # every gain collapsed to 1.0 in floating point: reach is as
            # high as representable; accept if within tolerance else fail.
            if log_r >= log_k - 1e-12:
                break
            raise UnreachableTargetError(
                f"greedy stalled at reach={math.exp(log_r):.12f} "
                f"< K={k_target}"
            )
        j, priority = heap.pop()
        g = -priority[0]  # type: ignore[index]
        counts[j] += 1
        total += 1
        increments += 1
        log_r += math.log(g)
        if total > cap:
            raise UnreachableTargetError(
                f"optimize() exceeded the {cap}-message cap at "
                f"reach={math.exp(log_r):.9f} < K={k_target}"
            )
        g_next = gain(lambdas[j], counts[j])
        if g_next > 1.0:
            heap.push(j, (-g_next, j))  # type: ignore[arg-type]

    return OptimizeResult(
        counts=counts,
        achieved=reach(tree, counts, view),
        total_messages=total,
        increments=increments,
    )
