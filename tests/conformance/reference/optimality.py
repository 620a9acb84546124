"""Lemma 2 oracle: the MRT is a maximum spanning tree (Appendix C).

The Maximum Reliability Tree really is a *maximum spanning tree* of the
reliability-weighted graph — checked against an independent Kruskal —
and its sorted edge weights dominate those of any other spanning tree.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.mrt import link_weight
from repro.core.tree import ReliabilityView, SpanningTree
from repro.topology.graph import Graph
from repro.types import Link

from .unionfind import UnionFind


def kruskal_maximum_spanning_weight(
    graph: Graph, view: ReliabilityView
) -> float:
    """Log-weight of a maximum spanning tree, via Kruskal (oracle).

    Returns ``sum(log w(e))`` over the chosen edges; ``-inf`` weights
    (zero-reliability links) sort last and are used only if forced.
    """
    edges: List[Tuple[float, Link]] = []
    for link in graph.links:
        w = link_weight(view, link)
        logw = math.log(w) if w > 0 else -math.inf
        edges.append((logw, link))
    edges.sort(key=lambda e: (-e[0], e[1]))
    uf = UnionFind(range(graph.n))
    total = 0.0
    taken = 0
    for logw, link in edges:
        if uf.union(link.u, link.v):
            total += logw
            taken += 1
            if taken == graph.n - 1:
                break
    return total


def tree_log_weight(tree: SpanningTree, view: ReliabilityView) -> float:
    """``sum(log w(l))`` over a tree's links (``-inf`` if any is zero)."""
    total = 0.0
    for j in tree.non_root_nodes:
        w = link_weight(view, tree.link_to(j))
        if w <= 0.0:
            return -math.inf
        total += math.log(w)
    return total


def is_maximum_spanning_tree(
    graph: Graph, view: ReliabilityView, tree: SpanningTree, tol: float = 1e-9
) -> bool:
    """Lemma 2 check: the tree's total log-weight equals Kruskal's."""
    if tree.size != graph.n:
        return False
    return abs(
        tree_log_weight(tree, view) - kruskal_maximum_spanning_weight(graph, view)
    ) <= tol


def edge_dominance_bijection(
    mst_weights: List[float], other_weights: List[float]
) -> bool:
    """Appendix C's bijection property: sorted MST weights dominate.

    For a maximum spanning tree there is a bijection onto any other
    spanning tree's edges such that each MST edge weighs at least as much
    as its image; for sorted weight lists this reduces to element-wise
    dominance.
    """
    if len(mst_weights) != len(other_weights):
        return False
    a = sorted(mst_weights, reverse=True)
    b = sorted(other_weights, reverse=True)
    return all(x >= y - 1e-12 for x, y in zip(a, b))
