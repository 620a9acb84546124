"""Eq. 1 of the paper: the recursive form of ``reach``.

``reach(T_s, m)`` expands over the direct subtrees of the root: the
probability that a child ``p_c`` receives one of its ``m_c`` copies,
times the reach of the subtree ``T_c``.  Unrolled, that is Eq. 2's
product over non-root nodes, which :func:`repro.core.reach.reach`
computes; this form is the oracle the tests hold the product to.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.reach import _validated_counts
from repro.core.tree import ReliabilityView, SpanningTree
from repro.types import ProcessId


def reach_recursive(
    tree: SpanningTree,
    counts: Mapping[ProcessId, int],
    view: ReliabilityView,
) -> float:
    """Recursive ``reach`` (Eq. 1): per-direct-subtree expansion."""
    m = _validated_counts(tree, counts)
    lambdas = tree.lambdas(view)

    def rec(node: ProcessId) -> float:
        prob = 1.0
        for child in tree.children(node):
            arrived = 1.0 - lambdas[child] ** m[child]
            prob *= arrived * rec(child)
        return prob

    return rec(tree.root)
