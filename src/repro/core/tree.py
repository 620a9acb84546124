"""Rooted spanning trees — the substrate of the MRT and ``reach``.

Section 3.2 relabels the MRT from a sender ``p_s``: each non-root process
``p_j`` is reached through exactly one link ``l_j`` from its predecessor
``pred(j)``, and the optimisation assigns a message count ``m_j`` to that
link.  :class:`SpanningTree` captures this rooted view: parent/children
pointers plus the ``lambda_j`` computation from a reliability view.

A *reliability view* is anything exposing ``crash_probability(p)`` and
``loss_probability(link)`` — the true :class:`~repro.topology.configuration.
Configuration` for the optimal algorithm, or a process's approximated view
for the adaptive one.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import TreeError
from repro.types import Link, ProcessId

try:  # Protocol is typing-only; keep runtime dependency-free on 3.9
    from typing import Protocol
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]


class ReliabilityView(Protocol):
    """Anything that can price processes and links (true or estimated)."""

    def crash_probability(self, p: ProcessId) -> float:  # pragma: no cover
        ...

    def loss_probability(self, link: Link) -> float:  # pragma: no cover
        ...


class SpanningTree:
    """A tree rooted at a sender, over a subset of processes.

    Args:
        root: the sender ``p_s``.
        parent: mapping ``child -> parent`` for every non-root node.

    The node set is ``{root} ∪ parent.keys()``; every parent must itself
    be a node.  The MRT of a fully known system spans all processes; the
    adaptive protocol may build partial trees while its topology knowledge
    is still incomplete.
    """

    __slots__ = ("_root", "_parent", "_children", "_order")

    def __init__(self, root: ProcessId, parent: Mapping[ProcessId, ProcessId]) -> None:
        if root in parent:
            raise TreeError(f"root {root} cannot have a parent")
        nodes = set(parent) | {root}
        children: Dict[ProcessId, List[ProcessId]] = {p: [] for p in sorted(nodes)}
        for child, par in parent.items():
            if par not in nodes:
                raise TreeError(f"parent {par} of {child} is not a tree node")
            if child == par:
                raise TreeError(f"node {child} is its own parent")
            children[par].append(child)
        for kids in children.values():
            kids.sort()
        # verify connectivity/acyclicity by walking from the root
        seen = {root}
        stack = [root]
        while stack:
            p = stack.pop()
            for c in children[p]:
                if c in seen:
                    raise TreeError(f"cycle detected at node {c}")
                seen.add(c)
                stack.append(c)
        if seen != nodes:
            raise TreeError(
                f"{len(nodes) - len(seen)} node(s) unreachable from root {root}"
            )
        self._root = root
        self._parent: Dict[ProcessId, ProcessId] = dict(parent)
        self._children: Dict[ProcessId, Tuple[ProcessId, ...]] = {
            p: tuple(kids) for p, kids in children.items()
        }
        # breadth-first order (root first): deterministic iteration order
        order: List[ProcessId] = [root]
        idx = 0
        while idx < len(order):
            order.extend(self._children[order[idx]])
            idx += 1
        self._order = tuple(order)

    # -- structure ---------------------------------------------------------------

    @property
    def root(self) -> ProcessId:
        return self._root

    @property
    def size(self) -> int:
        """Number of nodes (links = size - 1)."""
        return len(self._order)

    @property
    def nodes(self) -> Tuple[ProcessId, ...]:
        """Nodes in breadth-first order (root first)."""
        return self._order

    @property
    def non_root_nodes(self) -> Tuple[ProcessId, ...]:
        """The relabelled ``p_1 .. p_{n-1}`` of Section 3.2 (BFS order)."""
        return self._order[1:]

    def parent(self, p: ProcessId) -> ProcessId:
        """``pred(p)`` — the predecessor of ``p`` in the tree.

        Raises:
            TreeError: for the root or unknown nodes.
        """
        if p == self._root:
            raise TreeError("the root has no parent")
        try:
            return self._parent[p]
        except KeyError:
            raise TreeError(f"node {p} not in tree") from None

    def children(self, p: ProcessId) -> Tuple[ProcessId, ...]:
        """Direct subtree roots below ``p`` (the ``S_p`` of Section 3.2)."""
        try:
            return self._children[p]
        except KeyError:
            raise TreeError(f"node {p} not in tree") from None

    def contains(self, p: ProcessId) -> bool:
        return p in self._children

    def link_to(self, p: ProcessId) -> Link:
        """``l_p`` — the link through which ``p`` is reached."""
        return Link.of(self.parent(p), p)

    def links(self) -> List[Link]:
        """All tree links (one per non-root node, BFS order)."""
        return [self.link_to(p) for p in self.non_root_nodes]

    def leaves(self) -> List[ProcessId]:
        return [p for p in self._order if not self._children[p]]

    # -- reliability labelling ----------------------------------------------------

    def lambdas(self, view: ReliabilityView) -> Dict[ProcessId, float]:
        """Per-node transmission failure probabilities.

        ``lambda_j = 1 - (1-P_pred(j)) (1-L_j) (1-P_j)`` — the probability
        that one message sent towards ``p_j`` over ``l_j`` does *not*
        arrive (Eq. 3).  Keyed by the non-root node ``j``.
        """
        out: Dict[ProcessId, float] = {}
        for j in self.non_root_nodes:
            pred = self._parent[j]
            out[j] = 1.0 - (
                (1.0 - view.crash_probability(pred))
                * (1.0 - view.loss_probability(Link.of(pred, j)))
                * (1.0 - view.crash_probability(j))
            )
        return out

    # -- dunder -------------------------------------------------------------------

    def __iter__(self) -> Iterator[ProcessId]:
        return iter(self._order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanningTree):
            return NotImplemented
        return self._root == other._root and self._parent == other._parent

    def __hash__(self) -> int:
        return hash((self._root, tuple(sorted(self._parent.items()))))

    def __repr__(self) -> str:
        return f"SpanningTree(root={self._root}, size={self.size})"

    # -- construction helpers -------------------------------------------------------

    @classmethod
    def from_links(
        cls, root: ProcessId, links: Sequence[Link]
    ) -> "SpanningTree":
        """Orient an unrooted link set into a tree rooted at ``root``.

        Raises:
            TreeError: if the links do not form a tree containing ``root``.
        """
        adjacency: Dict[ProcessId, List[ProcessId]] = {}
        for link in links:
            adjacency.setdefault(link.u, []).append(link.v)
            adjacency.setdefault(link.v, []).append(link.u)
        if root not in adjacency and links:
            raise TreeError(f"root {root} is not an endpoint of any link")
        parent: Dict[ProcessId, ProcessId] = {}
        seen = {root}
        stack = [root]
        while stack:
            p = stack.pop()
            for q in adjacency.get(p, ()):
                if q in seen:
                    continue
                seen.add(q)
                parent[q] = p
                stack.append(q)
        if len(parent) != len(links):
            raise TreeError(
                f"{len(links)} links but only {len(parent)} reachable "
                "non-root nodes: not a tree on the root's component"
            )
        return cls(root, parent)
