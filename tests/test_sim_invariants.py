"""Invariant-checker smoke over generated scenarios + engine guarantees.

The :class:`~repro.sim.monitors.InvariantMonitor` asserts on every
transmission record that the simulation never delivers to a crashed
process, never transmits across a non-existent or severed link, and
never stamps a record outside ``[0, now]``.  Here it rides along a batch
of generated scenarios at quick scale — any violation surfaces as an
:class:`~repro.sim.monitors.InvariantViolation` from inside the run.
The engine-level tests pin the guarantees the monitor builds on:
cancelled events never fire and nothing schedules in the past — and the
kernel's work counters: one ``Event`` per ``schedule`` call, none per
message in flight and none per periodic firing.
"""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.experiments.runner import current_scale
from repro.protocols.gossip import run_gossip_trial
from repro.protocols.registry import resolve_protocol
from repro.scenario.generate import ScenarioGenerator
from repro.scenario.schema import ScenarioSpec
from repro.scenario.trial import (
    run_scenario_trial,
    schedule_workload,
    scenario_trial,
)
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.monitors import InvariantMonitor, InvariantViolation
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.topology.configuration import Configuration
from repro.topology.generators import line, ring
from repro.util.rng import RandomSource
from tests.conftest import cyclic_garbage, repro_types

SMOKE_SCENARIOS = 50


def _run_monitored(spec: ScenarioSpec, protocol: str = "gossip", trial: int = 0):
    """``run_scenario_trial`` with an :class:`InvariantMonitor` attached.

    Built on the runner's own setup (:func:`scenario_trial`, same seed
    derivation, same deploy/driver ordering) and workload, so the
    monitored run exercises the very event sequences the experiments
    measure.  The trial closes on return: the network's stats stay
    readable, and the closed checker still counts what it checked.
    """
    t, driver = scenario_trial(
        spec, resolve_protocol(protocol), "repro-scenario", trial
    )
    with t:
        event_times = [e.at for e in spec.timeline]
        invariants = t.attach(InvariantMonitor(t.sim, t.network, event_times))
        schedule_workload(t, spec, trial)
        t.network.start()
        t.sim.run(until=spec.duration)
    return t.network, driver, invariants


def test_invariants_hold_over_generated_scenarios():
    """~50 generated scenarios run to completion under the checker."""
    generator = ScenarioGenerator("invariants", current_scale("quick"))
    total_checked = 0
    for spec in generator.specs(SMOKE_SCENARIOS):
        _, driver, invariants = _run_monitored(spec)
        assert invariants.records_checked > 0, spec.name
        assert len(driver.applied_events) == len(spec.timeline), spec.name
        # one base epoch plus one snapshot per distinct timeline instant
        assert len(invariants._epochs) == 1 + len({e.at for e in spec.timeline})
        total_checked += invariants.records_checked
    assert total_checked > SMOKE_SCENARIOS  # the runs actually sent traffic


def test_invariants_hold_for_planning_protocol():
    """Planning protocols (failed plans allowed) also stay invariant-clean."""
    generator = ScenarioGenerator("invariants", current_scale("quick"))
    for spec in generator.specs(5):
        _, _, invariants = _run_monitored(spec, protocol="adaptive")
        assert invariants.records_checked > 0, spec.name


@pytest.mark.parametrize("protocol", ["gossip", "adaptive"])
def test_generated_trials_leave_no_cyclic_garbage(protocol):
    """Every generated topology kind, dynamics event and Markov toggle is
    torn down with the trial: the cyclic collector finds nothing after."""
    generator = ScenarioGenerator("invariants", current_scale("quick"))
    specs = generator.specs(SMOKE_SCENARIOS)
    run_scenario_trial(specs[0], protocol, 0)  # module-level caches fill
    for spec in specs:
        garbage = cyclic_garbage(lambda: run_scenario_trial(spec, protocol, 0))
        assert garbage == [], (spec.name, repro_types(garbage))


def test_monitor_is_metrics_transparent():
    """A monitored run reports the exact counters an unmonitored one does."""
    spec = ScenarioGenerator("transparent", current_scale("quick")).generate(0)
    network, _, invariants = _run_monitored(spec)
    reference = run_scenario_trial(spec, "gossip", 0)
    assert invariants.records_checked == network.stats.sent()
    assert float(network.stats.sent()) == reference["total_messages"]
    assert network.stats.delivered() == network.stats.sent() - network.stats.dropped()


def test_monitor_rejects_phantom_link_delivery():
    """The checker is not vacuous: a fabricated record across a
    non-existent link trips it."""
    spec = ScenarioGenerator("phantom", current_scale("quick")).generate(0)
    network, _, invariants = _run_monitored(spec)
    graph = network.graph
    sender = 0
    receiver = next(
        p for p in range(1, graph.n) if not graph.has_link(sender, p)
    )
    with pytest.raises(InvariantViolation):
        invariants._check_record(0.0, sender, receiver, False, None)


def test_monitor_rejects_record_from_the_future():
    spec = ScenarioGenerator("phantom", current_scale("quick")).generate(0)
    network, _, invariants = _run_monitored(spec)
    future = network.sim.now + 1.0
    with pytest.raises(InvariantViolation):
        invariants._check_record(future, 0, 1, True, None)


def test_cancelled_events_never_fire():
    sim = Simulator(trace=True)
    fired = []
    keep = sim.schedule(1.0, lambda: fired.append("keep"), name="keep")
    drop = sim.schedule(2.0, lambda: fired.append("drop"), name="drop")
    drop.cancel()
    assert not keep.cancelled and drop.cancelled
    sim.run()
    assert fired == ["keep"]
    assert [r for r in sim.trace if r.detail == "drop"] == []


def test_cancelled_event_mid_run_never_fires():
    """Cancellation from an earlier callback suppresses a queued event."""
    sim = Simulator()
    fired = []
    victim = sim.schedule(5.0, lambda: fired.append("victim"))
    sim.schedule(1.0, victim.cancel)
    sim.run()
    assert fired == []


def test_nothing_schedules_in_the_past():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    sim.run()
    assert sim.now == 3.0
    with pytest.raises(SchedulingError):
        sim.schedule_at(2.0, lambda: None)
    with pytest.raises(SchedulingError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_returns_the_queued_event():
    """The returned ``Event`` serves every use the old handle had."""
    sim = Simulator()
    relative = sim.schedule(2.0, lambda: None)
    absolute = sim.schedule_at(3.0, lambda: None)
    assert isinstance(relative, Event) and isinstance(absolute, Event)
    assert (relative.time, absolute.time) == (2.0, 3.0)
    assert not relative.cancelled and not absolute.cancelled
    relative.cancel()
    assert relative.cancelled and not absolute.cancelled
    assert sim.pending_events == 1


def test_one_event_per_schedule_call_none_per_message(monkeypatch):
    """A gossip run builds an ``Event`` only per ``schedule``/``schedule_at``
    /``periodic`` call: deliveries and periodic firings queue without one."""
    constructed, calls, networks = [], [], []
    event_init = Event.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(1)
        event_init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    def counted(original):
        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        return counting

    monkeypatch.setattr(Simulator, "schedule", counted(Simulator.schedule))
    monkeypatch.setattr(Simulator, "schedule_at", counted(Simulator.schedule_at))
    monkeypatch.setattr(Simulator, "periodic", counted(Simulator.periodic))

    config = Configuration.reliable(ring(12))
    rounds = 4

    def make_network():
        networks.append(Network(Simulator(), config, RandomSource("work-counters", 0)))
        return networks[0]

    run_gossip_trial(make_network, rounds)
    sim, stats = networks[0].sim, networks[0].stats
    n = config.graph.n
    assert stats.delivered() > n  # messages did flow
    # one periodic chain per process, plus the origin's kick
    assert len(calls) == len(constructed) == n + 1
    # every firing at t = 1 .. rounds + 2 re-used its process's one Event
    assert sim.executed_events == stats.delivered() + 1 + n * (rounds + 2)


class _Sink(SimProcess):
    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.received = []

    def on_message(self, sender, payload):
        self.received.append(payload)


def _wired_pair(trace=False):
    sim = Simulator(trace=trace)
    network = Network(sim, Configuration.reliable(line(2)), RandomSource("pair", 0))
    procs = [_Sink(p, network) for p in range(2)]
    network.start()
    return sim, procs


def test_engine_trace_names_deliveries():
    sim, procs = _wired_pair(trace=True)
    procs[0].send(1, "a")
    procs[1].send(0, "b")
    sim.run()
    assert [r.detail for r in sim.trace] == ["deliver:0->1", "deliver:1->0"]


def test_step_and_pending_events_see_deliveries():
    sim, procs = _wired_pair()
    procs[0].send(1, "a")
    procs[0].send(1, "b")
    assert sim.pending_events == 2
    assert sim.step()
    assert sim.pending_events == 1 and procs[1].received == ["a"]
    assert sim.step()
    assert not sim.step()
    assert sim.pending_events == 0 and procs[1].received == ["a", "b"]
