"""Unit tests for delivery/convergence monitors and message stats."""

import math

import pytest

from repro.errors import ValidationError
from repro.kvstore.metrics import KVMetricsMonitor
from repro.membership.quality import ViewQualityMonitor
from repro.sim.engine import Simulator
from repro.sim.monitors import BroadcastMonitor, ConvergenceMonitor
from repro.sim.trace import (
    DropReason,
    MessageCategory,
    MessageStats,
    TransmissionRecord,
)
from repro.types import Link


class TestBroadcastMonitor:
    def test_delivery_tracking(self):
        mon = BroadcastMonitor(3)
        mon.delivered("m1", 0, 1.0)
        mon.delivered("m1", 1, 2.0)
        assert mon.delivery_count("m1") == 2
        assert mon.delivery_ratio("m1") == pytest.approx(2 / 3)
        assert not mon.fully_delivered("m1")
        mon.delivered("m1", 2, 3.0)
        assert mon.fully_delivered("m1")
        assert mon.completion_time("m1") == 3.0

    def test_duplicate_deliveries_ignored(self):
        mon = BroadcastMonitor(2)
        mon.delivered("m", 0, 1.0)
        mon.delivered("m", 0, 2.0)
        assert mon.delivery_count("m") == 1

    def test_unknown_message(self):
        mon = BroadcastMonitor(2)
        assert mon.delivery_count("nope") == 0
        assert mon.completion_time("nope") is None

    def test_all_fully_delivered(self):
        mon = BroadcastMonitor(2)
        mon.delivered("a", 0, 1.0)
        mon.delivered("a", 1, 1.0)
        mon.delivered("b", 0, 1.0)
        assert not mon.all_fully_delivered()
        mon.delivered("b", 1, 2.0)
        assert mon.all_fully_delivered()
        assert set(mon.broadcast_ids()) == {"a", "b"}


class TestConvergenceMonitor:
    def test_detects_first_success(self):
        sim = Simulator()
        state = {"value": 0}
        sim.schedule(3.5, lambda: state.update(value=1))
        mon = ConvergenceMonitor(sim, lambda: state["value"] == 1, period=1.0)
        sim.run(until=10.0)
        assert mon.converged
        assert mon.converged_at == 4.0  # first poll after the change

    def test_never_converges(self):
        sim = Simulator()
        mon = ConvergenceMonitor(
            sim, lambda: False, period=1.0, deadline=5.0, stop_when_converged=True
        )
        sim.run(until=20.0)
        assert not mon.converged
        assert mon.converged_at == math.inf
        assert mon.polls == 5

    def test_stop_when_converged(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        mon = ConvergenceMonitor(
            sim, lambda: True, period=1.0, stop_when_converged=True
        )
        sim.run(until=20.0)
        assert mon.converged_at == 1.0
        assert fired == []  # run stopped before t=10

    def test_polling_stops_after_convergence(self):
        sim = Simulator()
        mon = ConvergenceMonitor(sim, lambda: True, period=1.0)
        sim.run(until=10.0)
        assert mon.polls == 1


POLLING_MONITORS = {
    "convergence": lambda sim, period: ConvergenceMonitor(
        sim, lambda: False, period=period, deadline=10.0
    ),
    "view-quality": lambda sim, period: ViewQualityMonitor(
        sim, None, {}, period=period
    ),
    "kv-metrics": lambda sim, period: KVMetricsMonitor(sim, period=period),
}


@pytest.mark.parametrize("period", [0.0, -1.0, math.nan, math.inf, True])
@pytest.mark.parametrize("monitor", sorted(POLLING_MONITORS))
def test_polling_monitor_rejects_bad_period(monitor, period):
    """Rejected at construction: a zero period used to re-poll at one
    instant forever (the simulator is never run here, so no hang)."""
    sim = Simulator()
    with pytest.raises(ValidationError, match="period"):
        POLLING_MONITORS[monitor](sim, period)
    assert sim.pending_events == 0


class TestMessageStats:
    def test_sent_delivered_dropped(self):
        stats = MessageStats()
        stats.record(0.0, 0, 1, MessageCategory.DATA, True)
        stats.record(0.0, 0, 1, MessageCategory.DATA, False, DropReason.LINK_LOSS)
        stats.record(0.0, 1, 0, MessageCategory.ACK, True)
        assert stats.sent() == 3
        assert stats.sent(MessageCategory.DATA) == 2
        assert stats.delivered() == 2
        assert stats.dropped() == 1
        assert stats.dropped(DropReason.LINK_LOSS) == 1

    def test_per_link_counts_both_directions(self):
        stats = MessageStats()
        stats.record(0.0, 0, 1, MessageCategory.DATA, True)
        stats.record(0.0, 1, 0, MessageCategory.DATA, True)
        assert stats.sent_on(Link.of(0, 1)) == 2
        assert stats.per_link_sent() == {Link.of(0, 1): 2}

    def test_messages_per_link(self):
        stats = MessageStats()
        for _ in range(10):
            stats.record(0.0, 0, 1, MessageCategory.HEARTBEAT, True)
        assert stats.messages_per_link(5) == 2.0
        assert stats.messages_per_link(5, MessageCategory.DATA) == 0.0
        with pytest.raises(ValueError):
            stats.messages_per_link(0)

    def test_trace_disabled_by_default(self):
        stats = MessageStats()
        stats.record(0.0, 0, 1, MessageCategory.DATA, True)
        assert stats.records == []

    def test_trace_enabled(self):
        stats = MessageStats(trace=True)
        stats.record(1.5, 0, 1, MessageCategory.DATA, False, DropReason.LINK_LOSS)
        assert stats.records == [
            TransmissionRecord(
                1.5, 0, 1, MessageCategory.DATA, False, DropReason.LINK_LOSS
            )
        ]

