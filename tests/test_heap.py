"""Unit tests for the addressable heap."""

import pytest
from hypothesis import given, strategies as st

from repro.util.heap import AddressableHeap


class TestAddressableHeap:
    def test_push_pop_orders_by_priority(self):
        heap = AddressableHeap()
        heap.push("a", 3.0)
        heap.push("b", 1.0)
        heap.push("c", 2.0)
        assert heap.pop() == ("b", 1.0)
        assert heap.pop() == ("c", 2.0)
        assert heap.pop() == ("a", 3.0)

    def test_len_and_bool(self):
        heap = AddressableHeap()
        assert not heap
        assert len(heap) == 0
        heap.push(1, 1.0)
        assert heap
        assert len(heap) == 1

    def test_contains(self):
        heap = AddressableHeap()
        heap.push("x", 0.0)
        assert "x" in heap
        assert "y" not in heap

    def test_duplicate_push_rejected(self):
        heap = AddressableHeap()
        heap.push("x", 0.0)
        with pytest.raises(ValueError):
            heap.push("x", 1.0)

    def test_update_decrease(self):
        heap = AddressableHeap()
        heap.push("a", 5.0)
        heap.push("b", 1.0)
        heap.update("a", 0.5)
        assert heap.pop() == ("a", 0.5)

    def test_update_increase(self):
        heap = AddressableHeap()
        heap.push("a", 1.0)
        heap.push("b", 2.0)
        heap.update("a", 3.0)
        assert heap.pop() == ("b", 2.0)
        assert heap.pop() == ("a", 3.0)

    def test_iter_yields_every_item(self):
        heap = AddressableHeap()
        for i, p in enumerate([4.0, 1.0, 3.0, 2.0]):
            heap.push(i, p)
        heap.pop()
        assert sorted(heap) == [0, 2, 3]

    def test_update_unknown_item_raises(self):
        heap = AddressableHeap()
        heap.push("a", 1.0)
        with pytest.raises(KeyError):
            heap.update("zzz", 0.0)
        assert heap.pop() == ("a", 1.0)

    def test_priority_lookup(self):
        heap = AddressableHeap()
        heap.push("a", 7.5)
        assert heap.priority("a") == 7.5
        with pytest.raises(KeyError):
            heap.priority("zzz")

    def test_pop_empty_raises(self):
        heap = AddressableHeap()
        with pytest.raises(IndexError):
            heap.pop()

    def test_tuple_priorities(self):
        heap = AddressableHeap()
        heap.push("a", (-0.9, 2))
        heap.push("b", (-0.9, 1))
        heap.push("c", (-1.0, 5))
        assert heap.pop()[0] == "c"
        assert heap.pop()[0] == "b"

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60))
    def test_heapsort_matches_sorted(self, priorities):
        heap = AddressableHeap()
        for item, priority in enumerate(priorities):
            heap.push(item, priority)
        result = [heap.pop() for _ in priorities]
        assert [p for _, p in result] == sorted(priorities)

    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.floats(0, 100)),
            min_size=1,
            max_size=80,
        )
    )
    def test_random_operations_maintain_order(self, ops):
        heap = AddressableHeap()
        reference = {}
        for item, priority in ops:
            if item in heap:
                heap.update(item, priority)
            else:
                heap.push(item, priority)
            reference[item] = priority
        out = []
        while heap:
            out.append(heap.pop())
        assert sorted(out, key=lambda x: (x[1], x[0])) == sorted(
            reference.items(), key=lambda x: (x[1], x[0])
        )
        assert [p for _, p in out] == sorted(reference.values())
