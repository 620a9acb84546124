"""Theorem 2 on every small graph: greedy ``optimize`` is optimal.

Appendix D proves that the greedy copy allocation of Algorithm 2 meets
the reliability target ``K`` with the fewest messages.  These tests hold
:func:`repro.core.optimize.optimize` against the exhaustive
:func:`~tests.conformance.reference.optimize.optimize_bruteforce` on the
Maximum Reliability Tree — the tree the protocols actually plan on — of
every connected graph up to isomorphism with at most five processes,
each under one seeded heterogeneous configuration.  Seeded random graphs
of six and seven processes are the slow tier.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.mrt import maximum_reliability_tree
from repro.core.optimize import optimize
from repro.topology.configuration import Configuration
from repro.topology.graph import Graph
from repro.util.rng import RandomSource
from tests.conformance.reference.graphs import random_connected
from tests.conformance.reference.optimize import optimize_bruteforce

#: Reliability targets, cycled over the graphs.
TARGETS = (0.9, 0.99, 0.999)
#: Default per-link cap of the brute-force enumeration.
MAX_PER_LINK = 8


def _connected(n, links):
    reached = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for a, b in links:
            for x, y in ((a, b), (b, a)):
                if x == u and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return len(reached) == n


def connected_graphs(n):
    """One representative of every connected graph on ``n`` nodes.

    Enumerates the edge subsets of the complete graph and keeps the
    first of each isomorphism class (canonical form: the smallest
    relabelled, sorted edge list).
    """
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    graphs = []
    for size in range(n - 1, len(pairs) + 1):
        for links in itertools.combinations(pairs, size):
            if not _connected(n, links):
                continue
            canon = min(
                tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in links))
                for p in perms
            )
            if canon not in seen:
                seen.add(canon)
                graphs.append(Graph(n, links))
    return graphs


SMALL_GRAPHS = [g for n in range(1, 6) for g in connected_graphs(n)]


def test_enumeration_counts_every_connected_graph():
    # OEIS A001349: connected graphs on n unlabelled nodes
    assert [len(connected_graphs(n)) for n in range(1, 6)] == [1, 1, 2, 6, 21]


def assert_greedy_is_optimal(graph, rng, k_target):
    config = Configuration.random_uniform(
        graph, rng, crash_range=(0.0, 0.15), loss_range=(0.0, 0.4)
    )
    tree = maximum_reliability_tree(graph, config, root=0)
    greedy = optimize(tree, k_target, config)
    # the enumeration must cover anything greedy picks, otherwise brute
    # force is artificially worse
    cap = max([MAX_PER_LINK, *greedy.counts.values()])
    brute = optimize_bruteforce(tree, k_target, config, max_per_link=cap)
    assert greedy.achieved >= k_target
    assert greedy.total_messages == brute.total_messages, (graph.links, k_target)


@pytest.mark.parametrize(
    "index", range(len(SMALL_GRAPHS)), ids=lambda i: f"graph{i}"
)
def test_greedy_matches_bruteforce_on_every_small_graph(index):
    graph = SMALL_GRAPHS[index]
    rng = RandomSource("greedy-optimality", index)
    assert_greedy_is_optimal(graph, rng, TARGETS[index % len(TARGETS)])


@pytest.mark.slow
@pytest.mark.parametrize("n,samples", [(6, 3), (7, 1)])
def test_greedy_matches_bruteforce_on_sampled_graphs(n, samples):
    for sample in range(samples):
        rng = RandomSource("greedy-optimality-sampled", n, sample)
        extra = rng.child("extra").integer(n * (n - 1) // 2 - (n - 1) + 1)
        graph = random_connected(n, extra, rng.child("graph"))
        assert_greedy_is_optimal(
            graph, rng.child("config"), TARGETS[sample % len(TARGETS)]
        )
