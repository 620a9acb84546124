"""Golden pinned-seed digests: the kernel-optimization determinism gate.

The hot-path rewrite of the simulation kernel (tuple-heap event queue,
``__slots__`` records, batched RNG draws, closure-free delivery
scheduling) must be *bit-identical* to the original implementation: the
engine must execute the same callbacks in the same order at the same
times, and every experiment table must come out byte-for-byte unchanged.

These tests pin that property to committed fixtures
(``tests/fixtures/golden_digests.json``) whose digests were computed on
the pre-optimization kernel.  Any change to event ordering, RNG
consumption, or aggregation arithmetic shows up here as a digest
mismatch — *before* it silently invalidates the figure regenerations.

To regenerate after an *intentional* behaviour change (which must be
argued in the PR — this file existing means "never accidentally")::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_determinism_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_digests.json"
)

_UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _check(name: str, payload: str) -> None:
    """Assert ``payload``'s digest matches the committed golden digest."""
    digest = _digest(payload)
    try:
        with open(FIXTURE, encoding="utf-8") as fh:
            golden = json.load(fh)
    except OSError:
        golden = {}
    if _UPDATE:
        golden[name] = digest
        os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
        with open(FIXTURE, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    assert name in golden, (
        f"no golden digest for {name!r}; regenerate the fixture with "
        "REPRO_UPDATE_GOLDEN=1"
    )
    assert digest == golden[name], (
        f"{name} drifted from its pre-optimization golden digest: the "
        "kernel no longer reproduces the original execution bit-for-bit "
        f"(got {digest[:16]}…, expected {golden[name][:16]}…)"
    )


def test_engine_execution_order_digest():
    """A seeded synthetic workload executes in the exact golden order.

    Mixes everything the ordering contract covers: random delays,
    explicit priorities, same-instant ties, cancellations (including
    cancel-after-pop-neighbour patterns) and callbacks that schedule
    further events.  The digest covers the full (time, name) trace.
    """
    from repro.sim.engine import Simulator
    from repro.util.rng import RandomSource

    rng = RandomSource("golden-engine")
    sim = Simulator(trace=True)
    handles = []

    def spawn(depth: int) -> None:
        count = rng.integer(1, 4)
        for i in range(count):
            delay = 0.25 + 2.0 * rng.random()
            priority = rng.integer(-5, 6)
            name = f"d{depth}i{i}p{priority}"
            if depth < 3:
                handle = sim.schedule(
                    delay,
                    lambda d=depth: spawn(d + 1),
                    name=name,
                    priority=priority,
                )
            else:
                handle = sim.schedule(
                    delay, lambda: None, name=name, priority=priority
                )
            handles.append(handle)
        # cancel a pseudo-random queued event per spawn wave
        victim = handles[rng.integer(len(handles))]
        victim.cancel()

    for _ in range(8):
        spawn(0)
    # same-instant priority ties, scheduled out of priority order
    for priority in (3, -3, 0, 7, -7):
        sim.schedule_at(5.0, lambda: None, name=f"tie{priority}", priority=priority)
    sim.run(until=40.0)

    trace = "\n".join(f"{r.time!r} {r.kind} {r.detail}" for r in sim.trace)
    payload = f"executed={sim.executed_events} now={sim.now!r}\n{trace}"
    _check("engine-execution-order", payload)


def _stack_payload(protocol: str) -> str:
    """One full protocol stack run -> accounting + delivery payload."""
    from repro.protocols.registry import DeployContext, resolve_protocol
    from repro.sim.monitors import BroadcastMonitor
    from repro.sim.network import Network, NetworkOptions
    from repro.sim.engine import Simulator
    from repro.topology.configuration import Configuration
    from repro.topology.generators import k_regular
    from repro.util.rng import RandomSource

    graph = k_regular(12, 4)
    config = Configuration.uniform(graph, crash=0.03, loss=0.08)
    sim = Simulator()
    root = RandomSource("golden-stack", protocol)
    network = Network(
        sim,
        config,
        root.child("net"),
        options=NetworkOptions(crash_model="markov", markov_mean_down_ticks=3.0),
    )
    monitor = BroadcastMonitor(graph.n)
    ctx = DeployContext(
        network=network, monitor=monitor, k_target=0.95, rng=root
    )
    nodes = resolve_protocol(protocol).deploy(ctx)
    network.start()
    mids = [nodes[p].broadcast(("golden", p)) for p in (0, 5, 9)]
    sim.run(until=30.0)
    deliveries = [monitor.delivery_count(mid) for mid in mids]
    return json.dumps(
        {
            "stats": network.stats.snapshot(),
            "deliveries": deliveries,
            "executed": sim.executed_events,
            "now": sim.now,
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("protocol", ["gossip", "flooding", "two-phase"])
def test_protocol_stack_digest(protocol):
    """Gossip/flooding/two-phase runs under Markov crashes stay golden."""
    _check(f"stack-{protocol}", _stack_payload(protocol))


def _scenario_payload(protocol: str) -> str:
    from repro.experiments.runner import current_scale
    from repro.scenario.registry import build_scenario
    from repro.scenario.trial import run_scenario_trial

    spec = build_scenario("partition-heal", current_scale("quick"))
    metrics = run_scenario_trial(spec, protocol, trial=0)
    return json.dumps({k: repr(v) for k, v in metrics.items()}, sort_keys=True)


@pytest.mark.parametrize("protocol", ["gossip", "adaptive"])
def test_scenario_partition_heal_digest(protocol):
    """Pinned-seed partition-heal trial metrics are byte-identical."""
    _check(f"scenario-partition-heal-{protocol}", _scenario_payload(protocol))


def test_membership_churn_mill_digest():
    """A pinned gossip-pv churn-mill trial (with view metrics) stays golden.

    Covers the whole membership chain: sampler bootstrap, seeded policy
    draws, exchange wire traffic, churn age-out and the
    ``ViewQualityMonitor`` columns.  Any drift in the peer-sampling RNG
    consumption or exchange ordering shows up here.
    """
    from repro.experiments.runner import current_scale
    from repro.scenario.registry import build_scenario
    from repro.scenario.trial import run_scenario_trial

    spec = build_scenario("churn-mill", current_scale("quick"))
    metrics = run_scenario_trial(spec, "gossip-pv", trial=0, view_quality=True)
    payload = json.dumps({k: repr(v) for k, v in metrics.items()}, sort_keys=True)
    _check("membership-churn-mill-gossip-pv", payload)


def test_kvstore_hot_key_storm_digest():
    """A pinned gossip hot-key-storm KV trial stays golden.

    Covers the whole application chain: the seeded Zipf/surge client
    schedule, vector-clock stamping, causal hold-back delivery, LWW
    resolution and every ``kv_*`` monitor metric.  Any drift in the
    workload RNG consumption, delivery ordering or staleness arithmetic
    shows up here.
    """
    from repro.experiments.runner import current_scale
    from repro.kvstore.trial import run_kv_trial
    from repro.scenario.registry import build_scenario

    spec = build_scenario("hot-key-storm", current_scale("quick"))
    metrics = run_kv_trial(spec, "gossip", trial=0)
    payload = json.dumps({k: repr(v) for k, v in metrics.items()}, sort_keys=True)
    _check("kvstore-hot-key-storm-gossip", payload)


@pytest.mark.parametrize(("protocol", "trial"), [("gossip", 100), ("two-phase", 100)])
def test_kvstore_hot_key_storm_default_digest(protocol, trial):
    """Pinned default-scale hot-key-storm KV trials with a 200-op schedule.

    The quick-scale trial above leaves the hold-back buffer idle; here
    the gossip trial holds back up to 21 writes (``kv_buffer_max``) and
    the two-phase trial's anti-entropy rounds find stores that disagree,
    so requests and pushes run too.  Any drift in the causal apply path
    or the digest exchange shows up here.
    """
    from repro.experiments.runner import current_scale
    from repro.kvstore.trial import run_kv_trial
    from repro.kvstore.workload import KVWorkloadParams
    from repro.scenario.registry import build_scenario

    spec = build_scenario("hot-key-storm", current_scale("default"))
    workload = KVWorkloadParams(ops=200, surge_ops=60, keys=64, write_ratio=0.3)
    metrics = run_kv_trial(spec, protocol, trial, workload=workload)
    payload = json.dumps({k: repr(v) for k, v in metrics.items()}, sort_keys=True)
    _check(f"kvstore-hot-key-storm-default-{protocol}-{trial}", payload)


def test_generated_scenario_digest():
    """One pinned generator coordinate stays golden end to end.

    Covers the whole generative chain: the sampled spec's canonical JSON
    (envelope arithmetic, topology/environment/timeline sampling) and
    the adaptive + gossip trial metrics it produces.  Any drift in the
    generator's RNG consumption or the trial runner shows up here.
    """
    from repro.experiments.runner import current_scale
    from repro.scenario.generate import ScenarioGenerator
    from repro.scenario.trial import canonical_spec_json, run_scenario_trial

    spec = ScenarioGenerator("golden", current_scale("quick")).generate(7)
    payload = json.dumps(
        {
            "spec": canonical_spec_json(spec),
            "adaptive": {
                k: repr(v)
                for k, v in run_scenario_trial(spec, "adaptive", trial=0).items()
            },
            "gossip": {
                k: repr(v)
                for k, v in run_scenario_trial(spec, "gossip", trial=0).items()
            },
        },
        sort_keys=True,
    )
    _check("generated-scenario-golden-7", payload)


def test_figure4a_table_digest():
    """The figure4a table (reduced quick grid) renders byte-identically."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.registry import resolve_experiment
    from repro.experiments.runner import current_scale

    result = resolve_experiment("figure4a").run(
        scale=current_scale("quick"),
        params={"crash": [0.03], "connectivity": [2, 4], "trials": [3]},
        campaign=Campaign(),
    )
    _check("figure4a-table", result.render())


def test_table1_table_digest():
    """The Table 1 regeneration renders byte-identically."""
    from repro.experiments.registry import resolve_experiment
    from repro.experiments.runner import current_scale

    result = resolve_experiment("table1").run(scale=current_scale("quick"))
    _check("table1-table", result.render())


@pytest.mark.parametrize("variant", ["crash", "loss"])
def test_figure5_table_digest(variant):
    """The Figure 5 convergence-effort tables (reduced quick grid) render
    byte-identically: the one pin on ``convergence_messages_per_link``."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.registry import resolve_experiment
    from repro.experiments.runner import current_scale

    name = "figure5a" if variant == "crash" else "figure5b"
    result = resolve_experiment(name).run(
        scale=current_scale("quick"),
        params={variant: [0.03], "connectivity": [2, 4], "trials": [2]},
        campaign=Campaign(),
    )
    _check(f"{name}-table", result.render())


def _table(name: str, params=None) -> str:
    """One registered experiment's quick-scale table, run serially."""
    from repro.experiments.campaign import Campaign
    from repro.experiments.registry import resolve_experiment
    from repro.experiments.runner import current_scale

    return (
        resolve_experiment(name)
        .run(scale=current_scale("quick"), params=params, campaign=Campaign())
        .render()
    )


def test_figure1_table_digest():
    """The Figure 1 regeneration (the paper's full L x alpha grid)
    renders byte-identically."""
    _check("figure1-table", _table("figure1"))


def test_figure4b_table_digest():
    """The figure4b table (reduced quick grid, two curves) renders
    byte-identically."""
    params = {"loss": [0.01, 0.05], "connectivity": [2, 4], "trials": [2]}
    _check("figure4b-table", _table("figure4b", params))


def test_figure6_table_digest():
    """The Figure 6 table (both topologies, two losses, two sizes)
    renders byte-identically."""
    params = {"size": [8, 12], "loss": [0.0, 0.01], "trials": [1]}
    _check("figure6-table", _table("figure6", params))


def test_heterogeneous_table_digest():
    """The heterogeneous comparison (reduced quick grid) renders
    byte-identically."""
    params = {"connectivity": [2, 4], "trials": [2]}
    _check("heterogeneous-table", _table("heterogeneous", params))


def test_membership_table_digest():
    """The membership table (two policies x two view sizes) renders
    byte-identically."""
    params = {
        "scenario": ["churn-mill"],
        "policy": ["head:rand:pushpull", "rand:rand:pull"],
        "view_size": [4, 8],
        "trials": [1],
    }
    _check("membership-table", _table("membership", params))


def test_kvstore_table_digest():
    """The KV-store table (two protocols x two Zipf skews) renders
    byte-identically."""
    params = {
        "scenario": ["hot-key-storm"],
        "protocol": ["gossip", "flooding"],
        "zipf_s": [0.9, 1.2],
        "trials": [1],
    }
    _check("kvstore-table", _table("kvstore", params))
