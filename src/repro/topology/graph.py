"""Immutable undirected graph over dense integer process ids.

This is the ``G = (Pi, Lambda)`` of the paper's system model.  The graph is
immutable once constructed: simulations, MRT computation and the knowledge
protocol all share one graph object safely.  (The *approximated* topology
``Lambda_k`` that processes build at runtime is a mutable set of links held
by each process view, not a :class:`Graph`.)
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import (
    TopologyError,
    UnknownLinkError,
    UnknownProcessError,
    ValidationError,
)
from repro.types import Link, ProcessId


class Graph:
    """Undirected simple graph with processes ``0..n-1``.

    Args:
        n: number of processes; ids are ``0..n-1``.
        links: iterable of ``(u, v)`` pairs or :class:`Link` objects.
            Duplicate links (in either orientation) collapse to one.

    Raises:
        ValidationError: on non-positive ``n``, self-links, or endpoints
            outside ``0..n-1``.
    """

    __slots__ = ("_n", "_links", "_neighbors", "_link_index")

    def __init__(self, n: int, links: Iterable[Tuple[ProcessId, ProcessId]]) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
            raise ValidationError(f"n must be a positive int, got {n!r}")
        canonical: List[Link] = []
        seen: set = set()
        for raw in links:
            u, v = raw
            if not 0 <= u < n or not 0 <= v < n:
                raise ValidationError(
                    f"link ({u},{v}) has endpoints outside 0..{n - 1}"
                )
            if u == v:
                raise ValidationError(f"self-link at process {u} is not allowed")
            link = Link.of(u, v)
            if link not in seen:
                seen.add(link)
                canonical.append(link)
        canonical.sort()
        self._n = n
        self._links: Tuple[Link, ...] = tuple(canonical)
        self._link_index: Dict[Link, int] = {
            link: i for i, link in enumerate(self._links)
        }
        neighbors: List[List[ProcessId]] = [[] for _ in range(n)]
        for link in self._links:
            neighbors[link.u].append(link.v)
            neighbors[link.v].append(link.u)
        self._neighbors: Tuple[Tuple[ProcessId, ...], ...] = tuple(
            tuple(sorted(adj)) for adj in neighbors
        )

    # -- basic accessors ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processes."""
        return self._n

    @property
    def processes(self) -> range:
        """All process ids, as a range."""
        return range(self._n)

    @property
    def links(self) -> Tuple[Link, ...]:
        """All links, sorted canonically; index positions are stable link ids."""
        return self._links

    @property
    def link_count(self) -> int:
        return len(self._links)

    def link_id(self, link: Link) -> int:
        """Dense integer id of a link (its index in :attr:`links`).

        Raises:
            UnknownLinkError: if the link is not in the graph.
        """
        try:
            return self._link_index[link]
        except KeyError:
            raise UnknownLinkError(f"link {link} not in graph") from None

    def has_link(self, u: ProcessId, v: ProcessId) -> bool:
        if u == v:
            return False
        return Link.of(u, v) in self._link_index

    def neighbors(self, p: ProcessId) -> Tuple[ProcessId, ...]:
        """The ``neighbors(p)`` of the paper: processes sharing a link with p."""
        self._check_process(p)
        return self._neighbors[p]

    def degree(self, p: ProcessId) -> int:
        self._check_process(p)
        return len(self._neighbors[p])

    def incident_links(self, p: ProcessId) -> List[Link]:
        """All links with ``p`` as an endpoint."""
        self._check_process(p)
        return [Link.of(p, q) for q in self._neighbors[p]]

    def _check_process(self, p: ProcessId) -> None:
        if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < self._n:
            raise UnknownProcessError(f"process {p!r} not in graph of size {self._n}")

    # -- structure queries --------------------------------------------------------

    def is_connected(self) -> bool:
        """Whether every process is reachable from process 0."""
        if self._n == 1:
            return True
        seen = [False] * self._n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            p = stack.pop()
            for q in self._neighbors[p]:
                if not seen[q]:
                    seen[q] = True
                    count += 1
                    stack.append(q)
        return count == self._n

    # -- derivation ---------------------------------------------------------------

    def with_links(self, extra: Iterable[Tuple[ProcessId, ProcessId]]) -> "Graph":
        """A new graph with additional links (same process set)."""
        return Graph(self._n, list(self._links) + list(extra))

    def subgraph_links(self, keep: Iterable[Link]) -> "Graph":
        """A new graph over the same processes with only ``keep`` links.

        Raises:
            TopologyError: if some kept link is not in this graph.
        """
        keep_list = list(keep)
        for link in keep_list:
            if link not in self._link_index:
                raise TopologyError(f"link {link} not in parent graph")
        return Graph(self._n, keep_list)

    # -- dunder -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._links == other._links

    def __hash__(self) -> int:
        return hash((self._n, self._links))

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(range(self._n))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, links={len(self._links)})"
