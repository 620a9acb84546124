"""Unit tests for hop-distance computations."""


import pytest

from repro.errors import DisconnectedGraphError, UnknownProcessError
from repro.topology.generators import clique, line, ring, star
from repro.topology.graph import Graph
from repro.topology.paths import (
    UNREACHABLE,
    bfs_distances,
    diameter,
    distance_matrix,
)


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


class TestDiameterAndFriends:
    def test_ring_diameter(self):
        assert diameter(ring(8)) == 4
        assert diameter(ring(9)) == 4

    def test_line_diameter(self):
        assert diameter(line(5)) == 4

    def test_star_diameter(self):
        assert diameter(star(6)) == 2

    def test_single_process_diameter(self):
        assert diameter(Graph(1, [])) == 0

    def test_distance_matrix_rows_are_bfs(self, small_graph):
        matrix = distance_matrix(small_graph)
        for p in small_graph.processes:
            assert matrix[p] == bfs_distances(small_graph, p)

    def test_clique_diameter(self):
        assert diameter(clique(6)) == 1

    def test_disconnected_raises(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(DisconnectedGraphError):
            diameter(g)

    def test_distance_matrix_symmetry(self, small_graph):
        matrix = distance_matrix(small_graph)
        for i in small_graph.processes:
            for j in small_graph.processes:
                assert matrix[i][j] == matrix[j][i]
            assert matrix[i][i] == 0
