"""The ``reach`` function (Equations 1 and 2 of the paper).

Given a rooted tree ``T_s`` and a message-count vector ``m`` (how many
copies transit each tree link), ``reach`` is the probability that *every*
process in the tree receives at least one copy.  With

``lambda_j = 1 - (1 - P_pred(j)) (1 - L_j) (1 - P_j)``

(the probability that a single copy fails to arrive at ``p_j``), the
probability ``p_j`` gets at least one of its ``m_j`` copies is
``1 - lambda_j ** m_j`` and the tree-wide probability is the product over
all non-root nodes (Eq. 2).

:func:`reach` is that product; :func:`log_reach` is its logarithm,
computed in log space for trees whose product would underflow.  The
recursive form of Eq. 1 is the tests' oracle for both and lives with
them, in ``tests/conformance/reference/reach.py``.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

from repro.errors import ValidationError
from repro.core.tree import ReliabilityView, SpanningTree
from repro.types import ProcessId


def _validated_counts(
    tree: SpanningTree, counts: Mapping[ProcessId, int]
) -> Dict[ProcessId, int]:
    out: Dict[ProcessId, int] = {}
    for j in tree.non_root_nodes:
        m = counts.get(j)
        if m is None:
            raise ValidationError(f"no message count for tree node {j}")
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise ValidationError(f"message count for node {j} must be an int >= 0")
        out[j] = m
    return out


def reach(
    tree: SpanningTree,
    counts: Mapping[ProcessId, int],
    view: ReliabilityView,
) -> float:
    """Iterative ``reach`` (Eq. 2): product over non-root nodes.

    Args:
        tree: the (relabelled) MRT ``T_s``.
        counts: ``m_j`` per non-root node ``j`` (copies sent over ``l_j``).
        view: reliability provider (true or estimated configuration).

    Returns:
        Probability that all tree nodes receive the message.
    """
    m = _validated_counts(tree, counts)
    lambdas = tree.lambdas(view)
    prob = 1.0
    for j in tree.non_root_nodes:
        prob *= 1.0 - lambdas[j] ** m[j]
    return prob


def log_reach(
    tree: SpanningTree,
    counts: Mapping[ProcessId, int],
    view: ReliabilityView,
) -> float:
    """``log(reach)`` computed stably in log space.

    Useful for very large trees / very small per-node probabilities where
    the plain product would underflow.  Returns ``-inf`` when any node has
    zero probability of being reached.
    """
    m = _validated_counts(tree, counts)
    lambdas = tree.lambdas(view)
    total = 0.0
    for j in tree.non_root_nodes:
        term = 1.0 - lambdas[j] ** m[j]
        if term <= 0.0:
            return -math.inf
        total += math.log(term)
    return total
