"""Unit tests for the simulation kernel."""

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import DELIVERY_PRIORITY, Event


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_simultaneous_fifo(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, lambda tag=tag: fired.append(tag))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_priority_orders_simultaneous(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("delivery"), priority=DELIVERY_PRIORITY)
        sim.schedule(1.0, lambda: fired.append("timer"))
        sim.run()
        assert fired == ["timer", "delivery"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule(float("inf"), lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_from_callback(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_from_callback(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, lambda: fired.append("later"))
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1

    def test_cancel_releases_the_callback(self):
        """A cancelled event never runs; holding its callback could only
        keep a cycle through the event (a periodic chain's) alive."""
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: handle)
        handle.cancel()
        assert handle.callback is None
        sim.run()

    def test_close_drops_every_queued_item(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.close()
        assert sim.pending_events == 0
        sim.run()
        assert fired == []


class TestRunControl:
    def test_until_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(until=2.0)
        assert fired == [1, 2]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 2, 3]

    def test_until_advances_time_when_idle(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_non_positive_max_events_runs_nothing(self):
        """Zero or negative budgets mean "no events", never "unbounded"."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.run(max_events=0)
        sim.run(max_events=-3)
        assert fired == []
        assert sim.pending_events == 1

    def test_stop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        sim.run()
        assert fired == [1, 2]

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def nested():
            sim.run()

        sim.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_idle_budget(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=50)

    def test_executed_events_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(1.0 + i, lambda: None)
        sim.run()
        assert sim.executed_events == 4


class TestTrace:
    def test_trace_records(self):
        sim = Simulator(trace=True)
        sim.schedule(1.0, lambda: None, name="tick")
        sim.run()
        assert len(sim.trace) == 1
        assert sim.trace[0].detail == "tick"
        assert sim.trace[0].time == 1.0


class TestEventOrdering:
    def test_event_sort_key(self):
        a = Event(time=1.0, priority=0, seq=0, callback=lambda: None)
        b = Event(time=1.0, priority=0, seq=1, callback=lambda: None)
        c = Event(time=1.0, priority=5, seq=0, callback=lambda: None)
        d = Event(time=0.5, priority=9, seq=9, callback=lambda: None)
        assert sorted([c, b, a, d]) == [d, a, b, c]


def _entries(sim):
    """The heap entries, tick groups and one-shot items alike."""
    return len(sim._queue)


class TestTickGroups:
    """``periodic`` chains share one heap entry per instant, exactly."""

    def chains(self, sim, names, period=1.0, log=None):
        log = [] if log is None else log
        return log, [
            sim.periodic(period, lambda n=n: log.append((sim.now, n)), n)
            for n in names
        ]

    def test_chains_of_one_instant_share_one_entry(self):
        sim = Simulator()
        log, events = self.chains(sim, "abc")
        assert _entries(sim) == 1 and sim.pending_events == 3
        sim.run(until=2.0)
        assert log == [(1.0, "a"), (1.0, "b"), (1.0, "c"), (2.0, "a"), (2.0, "b"), (2.0, "c")]
        assert _entries(sim) == 1 and sim.executed_events == 6

    def test_seq_reservation(self):
        """A member takes its next seq after its callback, where a lone
        chain re-pushed itself, so later seqs are what they were."""
        sim = Simulator()
        _, (a, b) = self.chains(sim, "ab")
        assert (a.seq, b.seq) == (0, 1)
        sim.run(until=1.0)
        assert (a.time, a.seq, b.time, b.seq) == (2.0, 2, 2.0, 3)
        assert sim.schedule(0.5, lambda: None).seq == 4

    def test_seq_taken_after_the_callback(self):
        sim = Simulator()
        seqs = []
        a = sim.periodic(1.0, lambda: seqs.append(sim.schedule(5.0, lambda: None).seq))
        sim.run(until=1.0)
        assert seqs == [1] and a.seq == 2

    def test_yield_to_a_foreign_item_between_members(self):
        """An item queued between two members' seqs runs between them."""
        sim = Simulator(trace=True)
        log, _ = self.chains(sim, "a")
        sim.schedule_at(1.0, lambda: log.append((sim.now, "x")), "x")
        self.chains(sim, "b", log=log)  # joins a's group: same instant
        assert _entries(sim) == 2
        sim.run(until=1.0)
        assert log == [(1.0, "a"), (1.0, "x"), (1.0, "b")]
        assert [r.detail for r in sim.trace] == ["a", "x", "b"]

    def test_yield_to_an_item_queued_by_a_member(self):
        """A one-shot a member queues for exactly one period on sorts
        after the members that re-armed before it and before its own
        re-arm."""
        sim = Simulator()
        log, _ = self.chains(sim, "a")
        sim.periodic(
            1.0,
            lambda: (log.append((sim.now, "b")), sim.schedule(1.0, lambda: log.append((sim.now, "x")))),
            "b",
        )
        sim.run(until=2.0)
        assert log[2:] == [(2.0, "a"), (2.0, "x"), (2.0, "b")]

    def test_join_needs_instant_and_period(self):
        sim = Simulator()
        self.chains(sim, "a")
        self.chains(sim, "b")  # joins
        self.chains(sim, "c", period=2.0)  # other period
        assert _entries(sim) == 2
        sim.run(until=0.5)
        self.chains(sim, "d")  # other instant: 1.5
        assert _entries(sim) == 3 and sim.pending_events == 4

    def test_a_chain_armed_mid_firing_gets_its_own_group(self):
        sim = Simulator()
        log = []
        late = []

        def arm_late():
            log.append((sim.now, "a"))
            if not late:
                late.append(sim.periodic(1.0, lambda: log.append((sim.now, "z")), "z"))

        sim.periodic(1.0, arm_late, "a")
        self.chains(sim, "b", log=log)
        sim.run(until=1.0)
        # z took its seq inside a's callback, before a and b re-armed
        assert _entries(sim) == 2
        sim.run(until=2.0)
        assert log[2:] == [(2.0, "z"), (2.0, "a"), (2.0, "b")]

    def test_budget_stop_and_step_count_members(self):
        sim = Simulator(trace=True)
        log, _ = self.chains(sim, "abcd")
        sim.run(max_events=2)
        assert [n for _, n in log] == ["a", "b"] and sim.executed_events == 2
        assert sim.pending_events == 4  # a, b re-armed; c, d still due
        assert sim.step() and [n for _, n in log][-1] == "c"
        sim.run(until=1.0)
        assert [n for _, n in log] == ["a", "b", "c", "d"]
        sim.periodic(1.0, sim.stop, "s")  # joins: fires last at t = 2
        sim.run()
        assert sim.now == 2.0 and sim.executed_events == 9
        assert len(sim.trace) == 9

    def test_stop_inside_a_member(self):
        sim = Simulator()
        log = []
        sim.periodic(1.0, lambda: (log.append("a"), sim.stop()), "a")
        self.chains(sim, "b", log=log)
        sim.run()
        assert log == ["a"] and sim.pending_events == 2
        sim.run(until=1.0)
        assert log == ["a", (1.0, "b")]

    def test_cancelled_member_is_dropped_without_a_seq(self):
        sim = Simulator()
        log, (a, b, c) = self.chains(sim, "abc")
        b.cancel()
        assert sim.pending_events == 2
        sim.run(until=1.0)
        assert [n for _, n in log] == ["a", "c"]
        assert (a.seq, c.seq) == (3, 4) and sim.executed_events == 2

    def test_a_member_cancelling_itself_leaves_the_group(self):
        sim = Simulator()
        log, events = self.chains(sim, "ab")
        sim.periodic(1.0, lambda: events[0].cancel(), "killer")
        sim.run(until=3.0)
        assert [n for _, n in log] == ["a", "b", "b", "b"]

    def test_parked_member_is_counted_traced_not_called(self):
        sim = Simulator(trace=True)
        log, (a, b) = self.chains(sim, "ab")
        a.parked = True
        sim.run(until=2.0)
        assert [n for _, n in log] == ["b", "b"]
        assert sim.executed_events == 4 and len(sim.trace) == 4
        assert a.seq == 4  # re-armed like any member
        a.parked = False
        sim.run(until=3.0)
        assert [n for _, n in log][-2:] == ["a", "b"]

    def test_pending_events_inside_a_member(self):
        sim = Simulator()
        seen = []
        for _ in range(3):
            sim.periodic(1.0, lambda: seen.append(sim.pending_events))
        sim.run(until=1.0)
        assert seen == [2, 2, 2]  # the running member is not pending

    def test_a_raising_member_is_dropped_and_the_rest_stay_queued(self):
        sim = Simulator()
        log, _ = self.chains(sim, "a")

        def boom():
            raise RuntimeError("boom")

        sim.periodic(1.0, boom, "boom")
        self.chains(sim, "c", log=log)
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.executed_events == 2 and sim.pending_events == 2
        sim.run(until=2.0)
        assert [n for _, n in log] == ["a", "c", "a", "c"]

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_period(self, period):
        with pytest.raises(SchedulingError):
            Simulator().periodic(period, lambda: None)

    def test_a_period_that_cannot_advance_now_is_refused(self):
        """A first instant equal to ``now`` would be the instant of a
        group mid-firing; such a period is refused instead."""
        sim = Simulator()
        sim.run(until=1e17)
        with pytest.raises(SchedulingError):
            sim.periodic(1.0, lambda: None)  # 1e17 + 1.0 == 1e17

    def test_close_drops_every_group(self):
        sim = Simulator()
        self.chains(sim, "ab")
        sim.close()
        assert sim.pending_events == 0
        self.chains(sim, "c")  # a fresh group, queued
        assert _entries(sim) == 1 and sim.pending_events == 1
