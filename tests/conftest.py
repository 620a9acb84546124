"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

try:
    from hypothesis import settings

    # "ci" pins the property tests for gate jobs: derandomized (fixed
    # seed) and deadline-free, so a loaded runner never flakes a pass
    # into a timeout.  Select with HYPOTHESIS_PROFILE=ci.
    settings.register_profile("ci", derandomize=True, deadline=None)
    settings.register_profile("dev", deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass

from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular, ring
from repro.topology.graph import Graph
from repro.util.rng import RandomSource


@pytest.fixture
def rng() -> RandomSource:
    """A deterministic root random stream."""
    return RandomSource("tests", 1234)


@pytest.fixture
def small_graph() -> Graph:
    """A 6-process graph with a mix of degrees.

    Layout: a square 0-1-2-3 with a diagonal 0-2, and a tail 3-4-5.
    """
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4), (4, 5)])


@pytest.fixture
def small_config(small_graph: Graph) -> Configuration:
    """Heterogeneous probabilities over ``small_graph``."""
    crash = {0: 0.0, 1: 0.01, 2: 0.02, 3: 0.0, 4: 0.05, 5: 0.0}
    loss = {
        (0, 1): 0.01,
        (1, 2): 0.10,
        (2, 3): 0.02,
        (0, 3): 0.05,
        (0, 2): 0.03,
        (3, 4): 0.04,
        (4, 5): 0.20,
    }
    return Configuration(small_graph, crash=crash, loss=loss)


@pytest.fixture
def ring10() -> Graph:
    return ring(10)


@pytest.fixture
def kreg_16_4() -> Graph:
    return k_regular(16, 4)


def build_network(
    config: Configuration, seed: object = 0, **options
) -> Network:
    """Fresh simulator+network with a deterministic per-seed stream."""
    from repro.sim.network import NetworkOptions

    sim = Simulator()
    rng = RandomSource("tests-net", seed)
    opts = NetworkOptions(**options) if options else None
    return Network(sim, config, rng, options=opts)


@pytest.fixture
def network_factory():
    return build_network


@pytest.fixture
def clean_registry():
    """Snapshot the protocol and experiment registries; restore them after."""
    from repro.experiments.registry import EXPERIMENTS
    from repro.protocols.registry import PROTOCOLS

    saved = [
        (r, dict(r._specs), dict(r._owner), r._discovered)
        for r in (PROTOCOLS, EXPERIMENTS)
    ]
    yield
    for r, specs, owner, discovered in saved:
        r._specs, r._owner, r._discovered = specs, owner, discovered
