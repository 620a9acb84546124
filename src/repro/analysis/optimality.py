"""Adaptiveness verification (Definition 2).

An adaptive process's plan eventually equals the optimal plan:
:func:`verify_adaptiveness` builds both and compares them.  The oracles
for Lemma 2 (MRT maximality) and Theorem 2 (greedy optimality) are kept
with the tests.
"""

from __future__ import annotations

from typing import Dict

from repro.core.mrt import maximum_reliability_tree
from repro.core.optimize import optimize
from repro.core.tree import ReliabilityView
from repro.topology.graph import Graph
from repro.types import ProcessId


def verify_adaptiveness(
    graph: Graph,
    true_view: ReliabilityView,
    adaptive_view: ReliabilityView,
    root: ProcessId,
    k_target: float,
    count_tolerance: int = 0,
) -> Dict[str, object]:
    """Definition 2 check: does the adaptive plan match the optimal plan?

    Builds both plans (optimal from ``true_view``, adaptive from
    ``adaptive_view``) and compares tree edge sets and total message
    counts.

    Returns:
        dict with ``same_tree`` (bool), ``optimal_messages``,
        ``adaptive_messages`` and ``adaptive`` (bool — totals within
        ``count_tolerance``).
    """
    optimal_tree = maximum_reliability_tree(graph, true_view, root=root)
    adaptive_tree = maximum_reliability_tree(graph, adaptive_view, root=root)
    optimal_plan = optimize(optimal_tree, k_target, true_view)
    adaptive_plan = optimize(adaptive_tree, k_target, adaptive_view)
    same_tree = set(optimal_tree.links()) == set(adaptive_tree.links())
    diff = abs(optimal_plan.total_messages - adaptive_plan.total_messages)
    return {
        "same_tree": same_tree,
        "optimal_messages": optimal_plan.total_messages,
        "adaptive_messages": adaptive_plan.total_messages,
        "adaptive": same_tree and diff <= count_tolerance,
    }
