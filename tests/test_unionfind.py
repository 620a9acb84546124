"""Unit tests for the disjoint-set structure."""

from hypothesis import given, strategies as st

from tests.conformance.reference.unionfind import UnionFind


class TestUnionFind:
    def test_singletons(self):
        uf = UnionFind(range(4))
        assert uf.set_count == 4
        assert len(uf) == 4
        for i in range(4):
            assert uf.find(i) == i

    def test_union_merges(self):
        uf = UnionFind()
        assert uf.union(1, 2)
        assert uf.connected(1, 2)
        assert uf.set_count == 1

    def test_union_same_set_returns_false(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        assert not uf.union(1, 3)

    def test_lazy_item_registration(self):
        uf = UnionFind()
        assert "a" not in uf
        uf.find("a")
        assert "a" in uf

    def test_add_idempotent(self):
        uf = UnionFind()
        uf.add(5)
        uf.add(5)
        assert len(uf) == 1

    def test_sets_partition(self):
        uf = UnionFind(range(6))
        uf.union(0, 1)
        uf.union(2, 3)
        uf.union(3, 4)
        sets = {frozenset(s) for s in uf.sets()}
        assert sets == {
            frozenset({0, 1}),
            frozenset({2, 3, 4}),
            frozenset({5}),
        }

    def test_spanning_tree_detection(self):
        """n-1 non-redundant unions over n nodes == a spanning tree."""
        tree_edges = [(0, 1), (1, 2), (1, 3), (3, 4)]
        uf = UnionFind(range(5))
        assert all(uf.union(u, v) for u, v in tree_edges)
        assert uf.set_count == 1

    def test_cycle_detection(self):
        cyclic = [(0, 1), (1, 2), (2, 0)]
        uf = UnionFind(range(3))
        results = [uf.union(u, v) for u, v in cyclic]
        assert results == [True, True, False]

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 20)),
            max_size=100,
        )
    )
    def test_set_count_invariant(self, edges):
        """set_count decreases exactly on each successful union."""
        uf = UnionFind(range(21))
        count = 21
        for u, v in edges:
            if uf.union(u, v):
                count -= 1
            assert uf.set_count == count

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(0, 15)),
            max_size=60,
        )
    )
    def test_connectivity_matches_bfs(self, edges):
        """union-find connectivity agrees with graph reachability."""
        uf = UnionFind(range(16))
        adj = {i: set() for i in range(16)}
        for u, v in edges:
            uf.union(u, v)
            adj[u].add(v)
            adj[v].add(u)

        def reachable(start):
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            return seen

        component = reachable(0)
        for node in range(16):
            assert uf.connected(0, node) == (node in component)
