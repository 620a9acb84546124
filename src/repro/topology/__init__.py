"""Topology substrate: graphs, generators and failure configurations.

The paper's system model is ``G = (Pi, Lambda)`` with a failure
configuration ``C`` assigning a crash probability to every process and a
loss probability to every link (Section 2.1).  This package provides:

* :class:`repro.topology.graph.Graph` — immutable undirected graph.
* :mod:`repro.topology.generators` — the topologies of Section 5 (ring,
  k-regular, random tree) plus richer families for examples and ablations.
* :class:`repro.topology.configuration.Configuration` — the ``C`` tuple.
"""

from repro.topology.configuration import Configuration
from repro.topology.generators import (
    clique,
    grid,
    k_regular,
    line,
    random_tree,
    ring,
    scale_free,
    small_world,
    star,
    two_tier,
)
from repro.topology.graph import Graph

__all__ = [
    "Graph",
    "Configuration",
    "ring",
    "line",
    "star",
    "clique",
    "grid",
    "k_regular",
    "random_tree",
    "small_world",
    "scale_free",
    "two_tier",
]
