"""Disjoint-set (union-find) with union by rank and path compression.

Used to verify spanning-tree invariants (a set of ``n - 1`` links forms a
spanning tree iff no union is redundant) and by the Kruskal-based
cross-check of the Maximum Reliability Tree in :mod:`.optimality`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, TypeVar

ItemT = TypeVar("ItemT", bound=Hashable)


class UnionFind:
    """Disjoint sets over arbitrary hashable items.

    Items are added lazily on first use; :meth:`find` and :meth:`union`
    run in effectively amortised O(α(n)).
    """

    def __init__(self, items: Iterable[ItemT] = ()) -> None:
        self._parent: Dict[ItemT, ItemT] = {}
        self._rank: Dict[ItemT, int] = {}
        self._count = 0
        for item in items:
            self.add(item)

    def __len__(self) -> int:
        """Number of items tracked (not the number of sets)."""
        return len(self._parent)

    def __contains__(self, item: ItemT) -> bool:
        return item in self._parent

    @property
    def set_count(self) -> int:
        """Current number of disjoint sets."""
        return self._count

    def add(self, item: ItemT) -> None:
        """Register ``item`` as a singleton set (no-op if present)."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0
            self._count += 1

    def find(self, item: ItemT) -> ItemT:
        """Return the canonical representative of ``item``'s set."""
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: ItemT, b: ItemT) -> bool:
        """Merge the sets of ``a`` and ``b``.

        Returns:
            ``True`` if a merge happened, ``False`` if they were already
            in the same set (i.e. the edge (a, b) would close a cycle).
        """
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        self._count -= 1
        return True

    def connected(self, a: ItemT, b: ItemT) -> bool:
        """Whether ``a`` and ``b`` are currently in the same set."""
        return self.find(a) == self.find(b)

    def sets(self) -> List[List[ItemT]]:
        """Return the current partition as a list of item lists."""
        groups: Dict[ItemT, List[ItemT]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return list(groups.values())
