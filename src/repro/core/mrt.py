"""Maximum Reliability Tree (Section 3.1, Algorithm 6, Appendix B).

The MRT is the spanning tree whose links maximise the per-hop success
probability ``w(u,v) = (1-P_u)(1-L_uv)(1-P_v)``; equivalently (Appendix C)
it is the *maximum spanning tree* of the graph weighted by ``w``.  It is
computed with a modified Prim's algorithm, exactly as the paper's
Algorithm 6 but with an addressable heap for O(m log n) instead of the
naive O(n·m) scan, and with deterministic tie-breaking so that processes
agreeing on ``(G, C)`` build the *same* tree (a requirement stated in
Section 3.1).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.errors import DisconnectedGraphError, UnknownProcessError
from repro.core.tree import ReliabilityView, SpanningTree
from repro.topology.graph import Graph
from repro.types import Link, ProcessId
from repro.util.heap import AddressableHeap


def link_weight(view: ReliabilityView, link: Link) -> float:
    """``(1-P_u)(1-L_uv)(1-P_v)`` — Algorithm 6, line 6."""
    return (
        (1.0 - view.crash_probability(link.u))
        * (1.0 - view.loss_probability(link))
        * (1.0 - view.crash_probability(link.v))
    )


def maximum_reliability_tree(
    graph: Graph,
    view: ReliabilityView,
    root: ProcessId = 0,
    restrict_to: Optional[Iterable[ProcessId]] = None,
) -> SpanningTree:
    """Build the MRT of ``graph`` under ``view``, rooted at ``root``.

    Args:
        graph: the (known) topology ``(Pi, Lambda)``.
        view: reliability provider — the true configuration for the
            optimal algorithm, a process's approximation for the adaptive
            one.
        root: the sender ``p_s`` (Algorithm 1 builds ``mrt_k`` at the
            broadcasting process ``p_k``).
        restrict_to: optionally limit the tree to a subset of processes
            (the adaptive protocol spans only processes it knows paths to).

    Returns:
        The rooted MRT.  Ties between equally reliable candidate links are
        broken deterministically (lowest candidate process id, then lowest
        attaching-endpoint id), so all processes with identical knowledge
        derive identical trees.

    Raises:
        DisconnectedGraphError: if some requested process is unreachable.
        UnknownProcessError: if ``root`` is not a graph process.
    """
    if not 0 <= root < graph.n:
        raise UnknownProcessError(f"root {root} not in graph")
    targets: Set[ProcessId] = (
        set(restrict_to) if restrict_to is not None else set(graph.processes)
    )
    targets.add(root)

    parent: Dict[ProcessId, ProcessId] = {}
    in_tree: Set[ProcessId] = {root}
    # frontier: candidate node -> (priority tuple), best attaching edge
    # priority = (-weight, candidate, attach): max weight first, then ids.
    best_attach: Dict[ProcessId, ProcessId] = {}
    heap: AddressableHeap[ProcessId] = AddressableHeap()

    def relax(u: ProcessId) -> None:
        """Offer edges from newly added tree node ``u`` to the frontier."""
        for v in graph.neighbors(u):
            if v in in_tree:
                continue
            w = link_weight(view, Link.of(u, v))
            priority = (-w, v, u)
            if v in heap:
                if priority < heap.priority(v):  # type: ignore[operator]
                    heap.update(v, priority)  # type: ignore[arg-type]
                    best_attach[v] = u
            else:
                heap.push(v, priority)  # type: ignore[arg-type]
                best_attach[v] = u

    relax(root)
    while heap:
        v, _ = heap.pop()
        u = best_attach[v]
        in_tree.add(v)
        parent[v] = u
        relax(v)

    missing = targets - in_tree
    if missing:
        raise DisconnectedGraphError(
            f"{len(missing)} process(es) unreachable from root {root}: "
            f"{sorted(missing)[:10]}"
        )
    if restrict_to is not None:
        # prune branches that contain no requested process
        tree = SpanningTree(root, parent)
        keep: Set[ProcessId] = set()
        for t in targets:
            node = t
            while node not in keep:
                keep.add(node)
                if node == root:
                    break
                node = tree.parent(node)
        parent = {c: p for c, p in parent.items() if c in keep}
    return SpanningTree(root, parent)


def reachable_processes(
    graph: Graph, links: Iterable[Link], start: ProcessId
) -> Set[ProcessId]:
    """Processes reachable from ``start`` using only the given links.

    Helper for the adaptive protocol: its known topology ``Lambda_k`` may
    cover only part of the system, and the MRT must span exactly the
    reachable component.
    """
    adjacency: Dict[ProcessId, list] = {}
    for link in links:
        adjacency.setdefault(link.u, []).append(link.v)
        adjacency.setdefault(link.v, []).append(link.u)
    seen = {start}
    stack = [start]
    while stack:
        p = stack.pop()
        for q in adjacency.get(p, ()):
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen
