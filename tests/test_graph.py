"""Unit tests for the Graph type."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    TopologyError,
    UnknownLinkError,
    UnknownProcessError,
    ValidationError,
)
from repro.topology.graph import Graph
from repro.types import Link


class TestLinkType:
    def test_canonical_order(self):
        assert Link.of(3, 1) == Link.of(1, 3)
        assert Link.of(3, 1).u == 1

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Link.of(2, 2)

    def test_other(self):
        link = Link.of(1, 5)
        assert link.other(1) == 5
        assert link.other(5) == 1
        with pytest.raises(ValueError):
            link.other(3)


class TestGraphConstruction:
    def test_basic(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n == 3
        assert g.link_count == 2
        assert g.neighbors(1) == (0, 2)

    def test_duplicate_links_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.link_count == 1

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            Graph(0, [])
        with pytest.raises(ValidationError):
            Graph(True, [])

    def test_self_link_rejected(self):
        with pytest.raises(ValidationError):
            Graph(3, [(1, 1)])

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValidationError):
            Graph(3, [(0, 3)])

    def test_links_sorted_and_ids_stable(self):
        g = Graph(4, [(2, 3), (0, 1), (1, 2)])
        assert list(g.links) == [Link.of(0, 1), Link.of(1, 2), Link.of(2, 3)]
        for i, link in enumerate(g.links):
            assert g.link_id(link) == i

    def test_unknown_link_id(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(UnknownLinkError):
            g.link_id(Link.of(1, 2))


class TestGraphQueries:
    def test_has_link(self, small_graph):
        assert small_graph.has_link(0, 1)
        assert small_graph.has_link(1, 0)
        assert not small_graph.has_link(0, 5)
        assert not small_graph.has_link(2, 2)

    def test_degree_and_connectivity(self, small_graph):
        assert small_graph.degree(0) == 3
        assert small_graph.degree(5) == 1

    def test_incident_links(self, small_graph):
        incident = small_graph.incident_links(4)
        assert set(incident) == {Link.of(3, 4), Link.of(4, 5)}

    def test_unknown_process(self, small_graph):
        with pytest.raises(UnknownProcessError):
            small_graph.neighbors(99)
        with pytest.raises(UnknownProcessError):
            small_graph.degree(-1)

    def test_connectivity(self, small_graph):
        assert small_graph.is_connected()

    def test_disconnected(self):
        g = Graph(4, [(0, 1)])
        assert not g.is_connected()

    def test_single_process_graph(self):
        g = Graph(1, [])
        assert g.is_connected()
        assert list(g.processes) == [0]


class TestGraphDerivation:
    def test_with_links(self, small_graph):
        g2 = small_graph.with_links([(1, 5)])
        assert g2.has_link(1, 5)
        assert g2.link_count == small_graph.link_count + 1
        assert not small_graph.has_link(1, 5)  # original immutable

    def test_subgraph_links(self, small_graph):
        keep = [Link.of(0, 1), Link.of(1, 2)]
        sub = small_graph.subgraph_links(keep)
        assert sub.link_count == 2
        with pytest.raises(TopologyError):
            small_graph.subgraph_links([Link.of(0, 5)])

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        c = Graph(3, [(0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "not a graph"


@given(
    n=st.integers(2, 12),
    data=st.data(),
)
def test_neighbor_symmetry_property(n, data):
    """q in neighbors(p) iff p in neighbors(q)."""
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    links = data.draw(st.lists(st.sampled_from(possible), max_size=20))
    g = Graph(n, links)
    for p in g.processes:
        for q in g.neighbors(p):
            assert p in g.neighbors(q)
    assert sum(g.degree(p) for p in g.processes) == 2 * g.link_count
