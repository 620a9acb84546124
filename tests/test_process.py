"""Unit tests for the SimProcess base class (timers, sends, crashes)."""

import pytest

from repro.errors import ValidationError
from repro.sim.process import SimProcess
from repro.topology.configuration import Configuration
from repro.topology.generators import line, ring
from tests.conftest import build_network


class TimerProcess(SimProcess):
    def __init__(self, pid, network):
        super().__init__(pid, network)
        self.crashes = 0
        self.recoveries = []

    def on_crash(self):
        self.crashes += 1

    def on_recovery(self, down_ticks):
        self.recoveries.append(down_ticks)


def wire(config, **options):
    network = build_network(config, 0, **options)
    procs = [TimerProcess(p, network) for p in config.graph.processes]
    network.start()
    return network, procs


class TestTimers:
    def test_periodic(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        ticks = []
        procs[0].set_periodic(1.0, "tick", lambda: ticks.append(network.sim.now))
        network.sim.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_invalid_period(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        with pytest.raises(ValidationError):
            procs[0].set_periodic(0.0, "t", lambda: None)

    def test_timer_active(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        event = procs[0].set_periodic(1.0, "t", lambda: None)
        assert procs[0].timer_active("t")
        procs[0].cancel_periodic("t")
        assert not procs[0].timer_active("t")
        assert event.cancelled

    def test_cancel_unknown_timer_is_a_no_op(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        ticks = []
        procs[0].set_periodic(1.0, "t", lambda: ticks.append(network.sim.now))
        procs[0].cancel_periodic("missing")
        network.sim.run(until=2.5)
        assert ticks == [1.0, 2.0]

    def test_named_chains_run_independently(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        a, b = [], []
        procs[0].set_periodic(1.0, "a", lambda: a.append(network.sim.now))
        procs[0].set_periodic(1.5, "b", lambda: b.append(network.sim.now))
        network.sim.schedule(2.5, lambda: procs[0].cancel_periodic("a"))
        network.sim.run(until=4.6)
        assert a == [1.0, 2.0]
        assert b == [1.5, 3.0, 4.5]

    def test_cancel_periodic(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        ticks = []
        procs[0].set_periodic(1.0, "tick", lambda: ticks.append(network.sim.now))
        network.sim.schedule(2.5, lambda: procs[0].cancel_periodic("tick"))
        network.sim.run(until=6.0)
        assert ticks == [1.0, 2.0]

    def test_rearm_periodic_replaces_the_chain(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        a, b = [], []
        procs[0].set_periodic(1.0, "x", lambda: a.append(network.sim.now))
        network.sim.run(until=2.5)
        procs[0].set_periodic(1.0, "x", lambda: b.append(network.sim.now))
        network.sim.run(until=5.5)
        assert a == [1.0, 2.0]
        assert b == [3.5, 4.5, 5.5]

    def test_rearm_periodic_from_its_own_action(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        a, b = [], []

        def first():
            a.append(network.sim.now)
            procs[0].set_periodic(2.0, "x", lambda: b.append(network.sim.now))

        procs[0].set_periodic(1.0, "x", first)
        network.sim.run(until=6.0)
        assert a == [1.0]
        assert b == [3.0, 5.0]
        assert network.sim.pending_events == 1  # the one armed chain

    def test_cancel_periodic_from_its_own_action(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        ticks = []

        def action():
            ticks.append(network.sim.now)
            if len(ticks) == 2:
                procs[0].cancel_periodic("x")

        procs[0].set_periodic(1.0, "x", action)
        network.sim.run(until=6.0)
        assert ticks == [1.0, 2.0]
        assert not procs[0].timer_active("x")
        assert network.sim.pending_events == 0

    def test_cancel_all(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        ticks = []
        procs[0].set_periodic(1.0, "a", lambda: ticks.append("a"))
        procs[0].set_periodic(2.0, "b", lambda: ticks.append("b"))
        procs[0].cancel_all_timers()
        network.sim.run(until=5.0)
        assert ticks == []
        assert network.sim.pending_events == 0


class TestSendHelpers:
    def test_send_copies_counts(self):
        network, procs = wire(Configuration.reliable(line(2)))
        sent = procs[0].send_copies(1, "x", 4)
        network.sim.run()
        assert sent == 4
        assert network.stats.sent() == 4

    def test_send_copies_with_loss(self):
        config = Configuration.uniform(line(2), loss=1.0)
        network, procs = wire(config)
        sent = procs[0].send_copies(1, "x", 4)
        assert sent == 0
        assert network.stats.sent() == 4  # attempts still counted

    def test_neighbors_property(self):
        network, procs = wire(Configuration.reliable(ring(5)))
        assert procs[0].neighbors == (1, 4)


class TestBurstCrashLifecycle:
    def test_handle_crash_marks_down_and_notifies(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        p = procs[0]
        p.handle_crash(when=1.0)
        assert p.is_down
        assert p.crashes == 1

    def test_recovery_notifies(self):
        network, procs = wire(Configuration.reliable(ring(3)))
        p = procs[0]
        p.handle_crash(when=1.0)
        p.handle_recovery(when=4.0, down_ticks=3)
        assert not p.is_down
        assert p.recoveries == [3]

    def test_down_process_skips_sends_and_timers(self):
        network, procs = wire(Configuration.reliable(line(2)))
        p = procs[0]
        p.handle_crash(when=0.0)
        assert p.send(1, "x") is False
        ticks = []
        p.set_periodic(1.0, "tick", lambda: ticks.append(1))
        network.sim.run(until=3.0)
        assert ticks == []
        p.handle_recovery(when=3.0, down_ticks=3)
        network.sim.run(until=6.0)
        assert len(ticks) == 3  # periodic resumes after recovery

    def test_markov_network_integration(self):
        """With a Markov crash model, burst callbacks reach the process."""
        config = Configuration.uniform(ring(3), crash=0.4)
        network, procs = wire(
            config, crash_model="markov", markov_mean_down_ticks=3.0
        )
        # drive lots of steps so transitions occur
        for t in range(1, 500):
            network.sim.schedule_at(float(t), lambda: network.crash_model.is_down(0, network.sim.now))
        network.sim.run()
        assert procs[0].crashes > 0
        assert procs[0].recoveries
        assert all(n >= 1 for n in procs[0].recoveries)
