"""The reference gossip algorithm of Section 5.

The paper's baseline: *"The execution proceeds in steps, and in each step
processes forward data messages to their neighbors.  The execution
continues until all processes have been reached with probability 0.9999 —
the exact number of steps needed ... were determined interactively.  As a
simple optimization, processes acknowledge the receipt of data messages.
Thus, when choosing the neighbors to which some data message m will be
forwarded, each process p never forwards m to its neighbor q if (a) it
has previously received m from q, or (b) it has received an
acknowledgment message from q for m."*

Implementation notes:

* Forwarding is driven by a per-process periodic step timer; every
  process holding a message retransmits it each step to all non-excluded
  neighbours (optionally capped by a ``fanout``), until the per-broadcast
  round budget ``rounds`` is exhausted.  A state with rounds left sits in
  ``_active`` (arrival order) and leaves it on its last forward, so a
  step visits the broadcasts in flight, not every one ever seen;
  ``_states`` keeps them all as the seen/ACK record.  While ``_active``
  is empty a step does nothing, so the step chain is parked exactly
  then (its ticks still happen, in the same order, without the call)
  and unparked when a state enters ``_active`` (:class:`_GossipSteps`,
  shared with the partial-view gossip).
* :func:`calibrate_rounds` automates the paper's "determined
  interactively": it probes round budgets ``1..8, 10, 12, ...`` and
  returns the first whose empirical all-reached frequency meets the
  target over a batch of seeded trials.  Each probe is a sequential
  test: it stops at the trial that decides its verdict (enough hits to
  pass, or too many misses to still pass), so the ``make_network``
  factory is called for a prefix ``0..j`` of the trial indices, not
  necessarily all of them.  The skipped trials could not have changed
  the result; only the opt-in ``rng.*`` draw ledger of a calibration
  spec shrinks with them.
* Message accounting distinguishes DATA and ACK categories so experiments
  can report either (the paper's Figure 4 counts data messages; an
  ablation bench reports the ACK-inclusive ratio too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Set

from repro.core.broadcast import MessageId, ReliableBroadcastProcess
from repro.errors import CalibrationError, ValidationError
from repro.sim.events import Event
from repro.sim.monitors import BroadcastMonitor
from repro.sim.network import Network
from repro.sim.trace import MessageCategory
from repro.types import ProcessId
from repro.util.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class GossipData:
    """A gossiped application message."""

    mid: MessageId
    payload: Any


@dataclass(frozen=True)
class GossipAck:
    """Receipt acknowledgement for ``mid`` (suppresses retransmission)."""

    mid: MessageId


@dataclass(frozen=True)
class GossipParameters:
    """Baseline tunables.

    Attributes:
        rounds: per-broadcast forwarding rounds (the paper's step count,
            calibrated per environment — see :func:`calibrate_rounds`).
        step_period: virtual-time length of one step.
        fanout: max neighbours targeted per step (None = all eligible,
            which is the paper's baseline behaviour).
    """

    rounds: int = 5
    step_period: float = 1.0
    fanout: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive_int(self.rounds, "rounds")
        check_positive(self.step_period, "step_period")
        if self.fanout is not None:
            check_positive_int(self.fanout, "fanout")


class _GossipState:
    """Per-broadcast forwarding state at one process."""

    __slots__ = ("message", "excluded", "rounds_left")

    def __init__(self, message: GossipData, rounds_left: int) -> None:
        self.message = message
        self.excluded: Set[ProcessId] = set()
        self.rounds_left = rounds_left


class _GossipSteps(ReliableBroadcastProcess):
    """A gossip process's broadcast states and its step chain.

    ``_states`` is the seen/ACK record; ``_active`` holds the states with
    rounds left, in arrival order.  A step forwards every state in
    ``_active`` and does nothing while it is empty, so the step chain is
    parked exactly then: :meth:`_admit` unparks it and :meth:`_retire`
    parks it when the last live state leaves.  Subclasses define
    :meth:`_forward`, which calls :meth:`_retire` on a state's last round.
    """

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        monitor: BroadcastMonitor,
        k_target: float,
    ) -> None:
        super().__init__(pid, network, monitor, k_target)
        self._states: Dict[MessageId, _GossipState] = {}  # seen/ACK record
        self._active: Dict[MessageId, _GossipState] = {}  # rounds left
        self._stepper: Optional[Event] = None  # the step chain, once started

    def _start_steps(self, period: float) -> None:
        self._stepper = self.set_periodic(period, "gossip-step", self._step)
        self._stepper.parked = not self._active

    def _admit(self, mid: MessageId, state: _GossipState) -> None:
        """Record a new broadcast as seen and live: steps have work again."""
        self._states[mid] = self._active[mid] = state
        if self._stepper is not None:
            self._stepper.parked = False

    def _retire(self, state: _GossipState) -> None:
        """Drop a state that has used its last round from ``_active``."""
        del self._active[state.message.mid]
        if not self._active and self._stepper is not None:
            self._stepper.parked = True  # nothing live: steps do nothing

    def _step(self) -> None:
        for state in list(self._active.values()):  # _forward retires states
            self._forward(state)

    def _forward(self, state: _GossipState) -> None:
        raise NotImplementedError


class GossipBroadcast(_GossipSteps):
    """Section 5's reference gossip with ACK suppression."""

    def __init__(
        self,
        pid: ProcessId,
        network: Network,
        monitor: BroadcastMonitor,
        k_target: float = 0.99,
        params: Optional[GossipParameters] = None,
    ) -> None:
        super().__init__(pid, network, monitor, k_target)
        self.params = params or GossipParameters()

    def on_start(self) -> None:
        self._start_steps(self.params.step_period)

    # -- broadcast ------------------------------------------------------------------

    def broadcast(self, payload: Any) -> MessageId:
        mid = self.next_message_id()
        message = GossipData(mid=mid, payload=payload)
        state = _GossipState(message, self.params.rounds)
        self._admit(mid, state)
        self.deliver(mid, payload)
        self._forward(state)  # origin forwards immediately
        return mid

    # -- reception ------------------------------------------------------------------

    def on_message(self, sender: ProcessId, payload: Any) -> None:
        if isinstance(payload, GossipAck):
            state = self._states.get(payload.mid)
            if state is not None:
                state.excluded.add(sender)
            return
        if not isinstance(payload, GossipData):
            return
        # acknowledge every reception (even duplicates — the sender keeps
        # retransmitting until it hears an ack or runs out of rounds)
        self.send(sender, GossipAck(payload.mid), category=MessageCategory.ACK)
        state = self._states.get(payload.mid)
        if state is None:
            state = _GossipState(payload, self.params.rounds)
            self._admit(payload.mid, state)
            self.deliver(payload.mid, payload.payload)
        # rule (a): never forward back to a process we received from
        state.excluded.add(sender)

    # -- stepping -------------------------------------------------------------------

    def _forward(self, state: _GossipState) -> None:
        state.rounds_left -= 1
        if state.rounds_left <= 0:
            self._retire(state)
        targets = [q for q in self.neighbors if q not in state.excluded]
        if self.params.fanout is not None and len(targets) > self.params.fanout:
            targets = targets[: self.params.fanout]
        for q in targets:
            self.send(q, state.message, category=MessageCategory.DATA)

    # -- introspection ---------------------------------------------------------------

    def active_broadcasts(self) -> int:
        return len(self._active)


def run_gossip_trial(
    make_network: Callable[[], Network],
    rounds: int,
    origin: ProcessId = 0,
    k_target: float = 0.99,
    step_period: float = 1.0,
    fanout: Optional[int] = None,
) -> Dict[str, float]:
    """Run one seeded gossip broadcast to completion.

    Args:
        make_network: factory producing a fresh simulator+network pair
            (the network's ``sim`` drives the run).
        rounds: forwarding round budget.
        origin: broadcasting process.
        k_target: recorded in the protocol (not used by gossip logic).
        step_period / fanout: see :class:`GossipParameters`.

    Returns:
        dict with ``reached`` (1.0 if all processes delivered),
        ``data_messages``, ``ack_messages``, ``delivery_ratio``.
    """
    # the one trial lifecycle (imported lazily: the protocol registry
    # imports this module for the factory)
    from repro.protocols.trial import Trial

    params = GossipParameters(rounds=rounds, step_period=step_period, fanout=fanout)
    with Trial(make_network(), "gossip", k_target, params=params) as t:
        t.network.start()
        t.sim.schedule(
            0.0,
            lambda: t.issue(lambda: t.network.process(origin).broadcast("m")),
            name="gossip-origin",
        )
        # rounds+2 periods cover all forwarding plus in-flight deliveries
        t.sim.run(until=(rounds + 2) * step_period)
        mid = t.mids[0]
        return {
            "reached": 1.0 if t.monitor.fully_delivered(mid) else 0.0,
            "delivery_ratio": t.monitor.delivery_ratio(mid),
            "data_messages": float(t.network.stats.sent(MessageCategory.DATA)),
            "ack_messages": float(t.network.stats.sent(MessageCategory.ACK)),
        }


def _probe_ladder(max_rounds: int) -> Iterator[int]:
    """Budgets probed by :func:`calibrate_rounds`: ``1..8``, then steps
    of 2, the last step clamped so ``max_rounds`` itself is tried."""
    rounds = 1
    while rounds < max_rounds:
        yield rounds
        rounds += 1 if rounds < 8 else 2  # coarser steps once large
    yield max_rounds


def calibrate_rounds(
    make_network: Callable[[int], Network],
    k_target: float,
    trials: int = 100,
    max_rounds: int = 64,
    origin: ProcessId = 0,
    fanout: Optional[int] = None,
) -> int:
    """Find the first probed round budget meeting ``k_target`` empirically.

    The paper tuned the step count "interactively" until all processes
    were reached with the target probability; this automates the same
    search.  ``make_network(trial_index)`` must build an independently
    seeded network per trial.

    Budgets are probed in the order ``1, 2, ..., 8, 10, 12, ...`` up to
    and including ``max_rounds``.  A probe runs trials ``0, 1, 2, ...``
    and stops as soon as ``reached / trials >= k_target`` can no longer
    change: it already holds, or even all remaining trials reaching
    could not make it hold.  The verdict is exactly that of running all
    ``trials``.

    Returns:
        The first probed ``rounds`` whose all-reached frequency over
        ``trials`` runs is >= ``k_target`` — the smallest such budget up
        to 8, and within one round of it above (steps of 2).

    Raises:
        CalibrationError: if ``max_rounds`` is insufficient.
    """
    if not 0.0 < k_target < 1.0:
        raise ValidationError(f"k_target must be in (0,1), got {k_target}")
    check_positive_int(trials, "trials")
    check_positive_int(max_rounds, "max_rounds")
    for rounds in _probe_ladder(max_rounds):
        reached = 0
        for t in range(trials):
            outcome = run_gossip_trial(
                lambda t=t: make_network(t),
                rounds=rounds,
                origin=origin,
                k_target=k_target,
                fanout=fanout,
            )
            reached += int(outcome["reached"])
            # the same float expression as the verdict below, never
            # ceil(k * trials): 0.99 * 100 is 99.00000000000001
            if (
                reached / trials >= k_target
                or (reached + trials - 1 - t) / trials < k_target
            ):
                break
        if reached / trials >= k_target:
            return rounds
    raise CalibrationError(
        f"gossip did not reach K={k_target} within {max_rounds} rounds "
        f"(reached {reached} of {t + 1} trials run at rounds={rounds})"
    )
