"""Hop distances over the generated topologies, read through the
reference breadth-first search the optimality tests measure paths with."""


import pytest

from repro.errors import UnknownProcessError
from repro.topology.generators import clique, line, ring, star
from repro.topology.graph import Graph
from tests.conformance.reference.graphs import UNREACHABLE, bfs_distances


def eccentricities(graph):
    return [max(bfs_distances(graph, p)) for p in graph.processes]


class TestBfsDistances:
    def test_line_distances(self):
        g = line(5)
        assert bfs_distances(g, 0) == [0, 1, 2, 3, 4]
        assert bfs_distances(g, 2) == [2, 1, 0, 1, 2]

    def test_unreachable(self):
        g = Graph(3, [(0, 1)])
        assert bfs_distances(g, 0) == [0, 1, UNREACHABLE]

    def test_unknown_source(self):
        with pytest.raises(UnknownProcessError):
            bfs_distances(line(3), 7)


class TestGeneratorDiameters:
    def test_ring_diameter(self):
        assert max(eccentricities(ring(8))) == 4
        assert max(eccentricities(ring(9))) == 4

    def test_line_diameter(self):
        assert max(eccentricities(line(5))) == 4
        assert min(eccentricities(line(5))) == 2

    def test_star_diameter(self):
        assert eccentricities(star(6)) == [1, 2, 2, 2, 2, 2]

    def test_single_process_diameter(self):
        assert eccentricities(Graph(1, [])) == [0]

    def test_clique_diameter(self):
        assert eccentricities(clique(6)) == [1] * 6

