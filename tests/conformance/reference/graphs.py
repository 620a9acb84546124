"""Random connected graphs, the generated inputs of the property tests,
and hop distances over them.

The paper's topologies (rings, k-neighbour graphs, random trees) are
regular or acyclic.  The tests also want arbitrary connected graphs, so
this generator densifies a random spanning tree with extra links.  It is
seeded through :class:`repro.util.rng.RandomSource`, so a test's graphs
are a function of its seed.
"""

from __future__ import annotations

from collections import deque
from typing import List

from repro.errors import UnknownProcessError, ValidationError
from repro.topology.generators import random_tree
from repro.topology.graph import Graph
from repro.types import Link, ProcessId
from repro.util.rng import RandomSource
from repro.util.validation import check_positive_int


def random_connected(n: int, extra_links: int, rng: RandomSource) -> Graph:
    """Random connected graph: a random tree plus ``extra_links`` random
    additional links (Erdős–Rényi-style densification over a spanning tree).
    """
    check_positive_int(n, "n")
    if extra_links < 0:
        raise ValidationError(f"extra_links must be >= 0, got {extra_links}")
    base = random_tree(n, rng.child("tree")) if n > 1 else Graph(1, [])
    existing = set(base.links)
    max_extra = n * (n - 1) // 2 - len(existing)
    if extra_links > max_extra:
        raise ValidationError(
            f"extra_links={extra_links} exceeds available pairs ({max_extra})"
        )
    pick = rng.child("extra")
    added: List[Link] = []
    while len(added) < extra_links:
        u = pick.integer(n)
        v = pick.integer(n)
        if u == v:
            continue
        link = Link.of(u, v)
        if link in existing:
            continue
        existing.add(link)
        added.append(link)
    return base.with_links(added)


UNREACHABLE = -1
"""Distance marker for unreachable processes."""


def bfs_distances(graph: Graph, source: ProcessId) -> List[int]:
    """Hop distance from ``source`` to every process (-1 if unreachable)."""
    if not 0 <= source < graph.n:
        raise UnknownProcessError(f"process {source} not in graph")
    dist = [UNREACHABLE] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        p = queue.popleft()
        for q in graph.neighbors(p):
            if dist[q] == UNREACHABLE:
                dist[q] = dist[p] + 1
                queue.append(q)
    return dist
