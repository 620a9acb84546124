"""Hop distances over topologies.

The adaptive protocol's distortion factors are lower-bounded by network
distance (Section 4.2): ``bfs_distances`` gives one process's hop
distances, ``distance_matrix`` all pairs, and ``diameter`` the largest.
"""

from __future__ import annotations

from collections import deque
from typing import List

from repro.errors import DisconnectedGraphError, UnknownProcessError
from repro.topology.graph import Graph
from repro.types import ProcessId

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


def distance_matrix(graph: Graph) -> List[List[int]]:
    """All-pairs hop distances via repeated BFS (O(n * (n + m)))."""
    return [bfs_distances(graph, p) for p in graph.processes]


def diameter(graph: Graph) -> int:
    """Largest finite hop distance.

    Raises:
        DisconnectedGraphError: if the graph is disconnected.
    """
    best = 0
    for row in distance_matrix(graph):
        for d in row:
            if d == UNREACHABLE:
                raise DisconnectedGraphError("diameter of a disconnected graph")
            best = max(best, d)
    return best
