"""Topology generators.

Section 5 of the paper evaluates on rings, k-neighbour graphs (connectivity
2..20 over 100 processes) and random trees.  Those three families are the
reproduction-critical generators; the others (grid, star, clique,
small-world, scale-free, two-tier WAN/LAN) support the examples, extended
experiments and ablations.

All generators return a connected :class:`repro.topology.graph.Graph`; the
randomised ones take a :class:`repro.util.rng.RandomSource` so experiments
stay deterministic per seed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import TopologyError, ValidationError
from repro.topology.graph import Graph
from repro.types import Link, ProcessId
from repro.util.rng import RandomSource
from repro.util.validation import check_positive_int


def ring(n: int) -> Graph:
    """Ring of ``n`` processes — the paper's minimal-connectivity topology.

    Every process has exactly two neighbours.  ``n >= 3``.
    """
    check_positive_int(n, "n")
    if n < 3:
        raise ValidationError(f"a ring needs at least 3 processes, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def line(n: int) -> Graph:
    """Path graph ``0 - 1 - ... - n-1`` (worst-case diameter tree)."""
    check_positive_int(n, "n")
    if n < 2:
        raise ValidationError(f"a line needs at least 2 processes, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int, center: ProcessId = 0) -> Graph:
    """Star with ``center`` connected to every other process."""
    check_positive_int(n, "n")
    if n < 2:
        raise ValidationError(f"a star needs at least 2 processes, got {n}")
    if not 0 <= center < n:
        raise ValidationError(f"center {center} outside 0..{n - 1}")
    return Graph(n, [(center, i) for i in range(n) if i != center])


def clique(n: int) -> Graph:
    """Complete graph (every pair connected)."""
    check_positive_int(n, "n")
    if n < 2:
        raise ValidationError(f"a clique needs at least 2 processes, got {n}")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid(rows: int, cols: int, wrap: bool = False) -> Graph:
    """``rows x cols`` lattice; ``wrap=True`` makes it a torus."""
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    if rows * cols < 2:
        raise ValidationError("grid needs at least 2 processes")
    links: List[Tuple[int, int]] = []

    def pid(r: int, c: int) -> int:
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                links.append((pid(r, c), pid(r, c + 1)))
            elif wrap and cols > 2:
                links.append((pid(r, c), pid(r, 0)))
            if r + 1 < rows:
                links.append((pid(r, c), pid(r + 1, c)))
            elif wrap and rows > 2:
                links.append((pid(r, c), pid(0, c)))
    return Graph(rows * cols, links)


def k_regular(n: int, k: int) -> Graph:
    """Circulant k-neighbour graph: each process linked to its ``k`` nearest
    ring neighbours (``k/2`` on each side).

    This is the standard construction for the paper's "network connectivity
    (links/process)" axis: connectivity 2 is the ring, 20 links each process
    to its 10 nearest neighbours on both sides.  ``k`` must be even and
    ``k < n``.
    """
    check_positive_int(n, "n")
    check_positive_int(k, "k")
    if k % 2 != 0:
        raise ValidationError(f"k must be even for a circulant graph, got {k}")
    if k >= n:
        raise ValidationError(f"k must be < n, got k={k}, n={n}")
    half = k // 2
    links = [
        (i, (i + off) % n) for i in range(n) for off in range(1, half + 1)
    ]
    return Graph(n, links)


def random_tree(n: int, rng: RandomSource) -> Graph:
    """Uniform random labelled tree via a random Prüfer sequence.

    The paper's scalability experiment (Figure 6) uses "random trees";
    Prüfer sampling yields the uniform distribution over the ``n^(n-2)``
    labelled trees.
    """
    check_positive_int(n, "n")
    if n < 2:
        raise ValidationError(f"a tree needs at least 2 processes, got {n}")
    if n == 2:
        return Graph(2, [(0, 1)])
    prufer = [rng.integer(n) for _ in range(n - 2)]
    degree = [1] * n
    for p in prufer:
        degree[p] += 1
    links: List[Tuple[int, int]] = []
    # classic decode: repeatedly attach the smallest leaf to the next code entry
    import heapq

    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    for p in prufer:
        leaf = heapq.heappop(leaves)
        links.append((leaf, p))
        degree[p] -= 1
        if degree[p] == 1:
            heapq.heappush(leaves, p)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    links.append((u, v))
    return Graph(n, links)


def small_world(n: int, k: int, beta: float, rng: RandomSource) -> Graph:
    """Watts–Strogatz small world: ``k_regular(n, k)`` with each link
    rewired with probability ``beta`` (kept connected by retrying).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValidationError(f"beta must be in [0,1], got {beta}")
    base = k_regular(n, k)
    if beta == 0.0:
        return base
    rewire = rng.child("rewire")
    links = set(base.links)
    for link in list(base.links):
        if link not in links:
            continue
        if not rewire.bernoulli(beta):
            continue
        for _ in range(32):  # try a few times to find a fresh endpoint
            new_v = rewire.integer(n)
            if new_v == link.u:
                continue
            candidate = Link.of(link.u, new_v)
            if candidate in links:
                continue
            trial = (links - {link}) | {candidate}
            graph = Graph(n, [tuple(link) for link in sorted(trial)])
            if graph.is_connected():
                links = trial
                break
    return Graph(n, [tuple(link) for link in sorted(links)])


def scale_free(n: int, attach: int, rng: RandomSource) -> Graph:
    """Barabási–Albert preferential attachment with ``attach`` links per
    arriving process (hub-heavy topologies for the examples/ablations).
    """
    check_positive_int(n, "n")
    check_positive_int(attach, "attach")
    if n <= attach:
        raise ValidationError(f"need n > attach, got n={n}, attach={attach}")
    pick = rng.child("attach")
    links: List[Tuple[int, int]] = []
    # endpoint pool repeats each process once per incident link => preferential
    pool: List[int] = list(range(attach + 1))
    for u in range(attach + 1):
        for v in range(u + 1, attach + 1):
            links.append((u, v))
            pool.extend((u, v))
    for u in range(attach + 1, n):
        targets: set = set()
        while len(targets) < attach:
            targets.add(pool[pick.integer(len(pool))])
        for v in sorted(targets):
            links.append((u, v))
            pool.extend((u, v))
        pool.append(u)
    return Graph(n, links)


def two_tier(
    clusters: int,
    cluster_size: int,
    rng: Optional[RandomSource] = None,
    backbone_degree: int = 1,
) -> Tuple[Graph, List[Link], List[Link]]:
    """WAN-of-LANs topology for the heterogeneous-reliability examples.

    Builds ``clusters`` cliques of ``cluster_size`` processes (the LANs) and
    a ring over one gateway per cluster (the WAN backbone), optionally
    thickened with ``backbone_degree - 1`` extra random inter-gateway links.

    Returns:
        ``(graph, lan_links, wan_links)`` so callers can assign distinct
        loss probabilities to each tier — the motivating scenario of the
        paper's introduction (LAN links more reliable than WAN links).
    """
    check_positive_int(clusters, "clusters")
    check_positive_int(cluster_size, "cluster_size")
    if clusters < 2:
        raise ValidationError(f"need at least 2 clusters, got {clusters}")
    if cluster_size < 1:
        raise ValidationError("cluster_size must be >= 1")
    n = clusters * cluster_size
    lan_links: List[Link] = []
    wan_links: List[Link] = []

    def member(c: int, i: int) -> int:
        return c * cluster_size + i

    for c in range(clusters):
        for i in range(cluster_size):
            for j in range(i + 1, cluster_size):
                lan_links.append(Link.of(member(c, i), member(c, j)))
    gateways = [member(c, 0) for c in range(clusters)]
    if clusters == 2:
        wan_links.append(Link.of(gateways[0], gateways[1]))
    else:
        for c in range(clusters):
            wan_links.append(Link.of(gateways[c], gateways[(c + 1) % clusters]))
    if backbone_degree > 1:
        if rng is None:
            raise ValidationError("rng is required when backbone_degree > 1")
        existing = set(wan_links)
        pick = rng.child("backbone")
        budget = (backbone_degree - 1) * clusters // 2
        attempts = 0
        while budget > 0 and attempts < 1000:
            attempts += 1
            a = gateways[pick.integer(clusters)]
            b = gateways[pick.integer(clusters)]
            if a == b:
                continue
            link = Link.of(a, b)
            if link in existing:
                continue
            existing.add(link)
            wan_links.append(link)
            budget -= 1
    links = [tuple(link) for link in lan_links + wan_links]
    graph = Graph(n, links)
    if not graph.is_connected():  # pragma: no cover - construction guarantees it
        raise TopologyError("two_tier produced a disconnected graph")
    return graph, lan_links, wan_links
