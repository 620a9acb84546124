"""Micro-benchmarks of the core algorithmic kernels at paper scale.

These are throughput benchmarks (pytest-benchmark statistics matter),
not figure regenerations: the discrete-event engine's raw event
throughput, the per-message network delivery path, MRT construction,
greedy optimisation, the reach evaluation and the vectorised heartbeat
merge on a 100-process, connectivity-20 system — the heaviest
configuration of Section 5.

The engine/network benches reuse the exact workloads of ``repro bench``
(:mod:`repro.benchrunner`), so their numbers line up with the committed
``BENCH_core.json`` baseline the CI perf gate compares against.
"""

import pytest

from repro.benchrunner import bench_engine_events, bench_network_delivery

from repro.core.knowledge import KnowledgeParameters
from repro.core.mrt import maximum_reliability_tree
from repro.core.optimize import optimize
from repro.core.reach import reach
from repro.core.viewtable import VectorView
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.util.rng import RandomSource

N = 100
K = 20


@pytest.fixture(scope="module")
def paper_graph():
    return k_regular(N, K)


@pytest.fixture(scope="module")
def paper_config(paper_graph):
    return Configuration.random_uniform(
        paper_graph,
        RandomSource("micro"),
        crash_range=(0.0, 0.05),
        loss_range=(0.0, 0.07),
    )


def test_engine_event_throughput(benchmark, track_events, scale):
    """Kernel event throughput: timer chains + cancellations, no network."""
    raw = benchmark(lambda: bench_engine_events(scale.name))
    track_events(int(raw["events"]), raw["wall_s"])
    assert raw["events"] > 0


def test_network_delivery_throughput(benchmark, track_events, scale):
    """Per-message path: send → crash/loss/latency draws → delivery."""
    raw = benchmark(lambda: bench_network_delivery(scale.name))
    track_events(int(raw["events"]), raw["wall_s"])
    assert raw["messages"] > 0


def test_mrt_construction(benchmark, paper_graph, paper_config):
    tree = benchmark(
        lambda: maximum_reliability_tree(paper_graph, paper_config, root=0)
    )
    assert tree.size == N


def test_optimize_greedy(benchmark, paper_graph, paper_config):
    tree = maximum_reliability_tree(paper_graph, paper_config, root=0)
    result = benchmark(lambda: optimize(tree, 0.9999, paper_config))
    assert result.achieved >= 0.9999


def test_reach_evaluation(benchmark, paper_graph, paper_config):
    tree = maximum_reliability_tree(paper_graph, paper_config, root=0)
    counts = optimize(tree, 0.9999, paper_config).counts
    value = benchmark(lambda: reach(tree, counts, paper_config))
    assert 0.0 < value <= 1.0


def test_vector_view_heartbeat_merge(benchmark, paper_graph):
    """One Event-1 handling at n=100, 1000 links, U=100."""
    params = KnowledgeParameters(delta=1.0, intervals=100, tick=1.0)
    receiver = VectorView(0, paper_graph, params)
    sender = VectorView(paper_graph.neighbors(0)[0], paper_graph, params)
    snapshot = sender.emit_heartbeat(1.0)

    benchmark(lambda: receiver.handle_heartbeat(snapshot, 1.0))
    assert receiver.knows_link(
        (sender.pid, paper_graph.neighbors(sender.pid)[0])
    )
    # every timed round repeats the same non-empty merge: adopted rows are
    # stored at d + 1, so the sender's own row and its K - 1 links that do
    # not end at the receiver win again
    assert int((snapshot.d < receiver.d).sum()) == K


def test_vector_view_snapshot(benchmark, paper_graph):
    params = KnowledgeParameters(delta=1.0, intervals=100, tick=1.0)
    view = VectorView(0, paper_graph, params)
    snapshot = benchmark(lambda: view.emit_heartbeat(1.0))
    assert snapshot.sender == 0
    assert snapshot.logb.shape == (N + paper_graph.link_count, params.intervals)
    assert not snapshot.logb.flags.writeable


def test_staleness_sweep(benchmark, paper_graph):
    params = KnowledgeParameters(delta=1.0, intervals=100, tick=1.0)
    view = VectorView(0, paper_graph, params)
    clock = {"now": 0.0}

    def sweep():
        clock["now"] += 1.0
        view.staleness_sweep(clock["now"])

    benchmark(sweep)
