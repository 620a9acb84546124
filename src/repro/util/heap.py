"""An addressable binary heap.

:class:`AddressableHeap` is a small, dependency-free min-heap keyed by
arbitrary hashable items supporting ``decrease``/``update`` in O(log n).
Used by the modified Prim's algorithm that builds the Maximum Reliability
Tree (Appendix B of the paper) and by the greedy ``optimize()``
(Algorithm 2), which repeatedly extracts the link with the maximum
reliability gain (a negated priority).

The simulation event queue uses :mod:`heapq` directly (it never needs
re-prioritisation); this class exists for algorithms that do.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterator, List, Tuple, TypeVar

ItemT = TypeVar("ItemT", bound=Hashable)


class AddressableHeap(Generic[ItemT]):
    """Binary min-heap with O(log n) ``update`` of an item's priority.

    Items must be hashable and unique within the heap.  Priorities are
    compared with ``<`` only, so any totally ordered type works.

    Example:
        >>> h = AddressableHeap()
        >>> h.push("a", 3.0)
        >>> h.push("b", 1.0)
        >>> h.update("a", 0.5)
        >>> h.pop()
        ('a', 0.5)
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[float, ItemT]] = []
        self._index: Dict[ItemT, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __contains__(self, item: ItemT) -> bool:
        return item in self._index

    def __iter__(self) -> Iterator[ItemT]:
        """Iterate over items in arbitrary (heap) order."""
        return iter(self._index)

    def priority(self, item: ItemT) -> float:
        """Return the current priority of ``item``.

        Raises:
            KeyError: if ``item`` is not in the heap.
        """
        return self._entries[self._index[item]][0]

    def push(self, item: ItemT, priority: float) -> None:
        """Insert a new item.

        Raises:
            ValueError: if ``item`` is already present (use :meth:`update`).
        """
        if item in self._index:
            raise ValueError(f"item {item!r} already in heap; use update()")
        self._entries.append((priority, item))
        self._index[item] = len(self._entries) - 1
        self._sift_up(len(self._entries) - 1)

    def update(self, item: ItemT, priority: float) -> None:
        """Change the priority of an existing item (any direction)."""
        pos = self._index[item]
        old, _ = self._entries[pos]
        self._entries[pos] = (priority, item)
        if priority < old:
            self._sift_up(pos)
        else:
            self._sift_down(pos)

    def pop(self) -> Tuple[ItemT, float]:
        """Remove and return (item, priority) with the minimum priority."""
        if not self._entries:
            raise IndexError("pop from an empty heap")
        priority, item = self._entries[0]
        del self._index[item]
        last = self._entries.pop()
        if self._entries:
            self._entries[0] = last
            self._index[last[1]] = 0
            self._sift_down(0)
        return item, priority

    def _sift_up(self, pos: int) -> None:
        entry = self._entries[pos]
        while pos > 0:
            parent = (pos - 1) >> 1
            if entry[0] < self._entries[parent][0]:
                self._entries[pos] = self._entries[parent]
                self._index[self._entries[pos][1]] = pos
                pos = parent
            else:
                break
        self._entries[pos] = entry
        self._index[entry[1]] = pos

    def _sift_down(self, pos: int) -> None:
        size = len(self._entries)
        if pos >= size:
            return
        entry = self._entries[pos]
        while True:
            child = 2 * pos + 1
            if child >= size:
                break
            right = child + 1
            if right < size and self._entries[right][0] < self._entries[child][0]:
                child = right
            if self._entries[child][0] < entry[0]:
                self._entries[pos] = self._entries[child]
                self._index[self._entries[pos][1]] = pos
                pos = child
            else:
                break
        self._entries[pos] = entry
        self._index[entry[1]] = pos
