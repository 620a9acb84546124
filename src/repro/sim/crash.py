"""Process crash models.

Section 2.1 defines ``P_i`` as the ratio of *crashed steps* to total steps.
The faithful model is therefore :class:`IidCrashModel`: every step
(a send or a receive) is independently a crashed step with probability
``P_i``, which makes the per-transmission success probability exactly the
``(1-P_sender)(1-L)(1-P_receiver)`` used by the ``reach`` function.

:class:`MarkovCrashModel` provides *bursty* unavailability (geometric
up/down sojourns with the same stationary down fraction) for sensitivity
ablations, plus crash/recovery notifications so protocols can exercise
Event 4 of Algorithm 4 (recovering after ``n`` ticks down) and stable
storage semantics.
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

import numpy as np

from repro.errors import ValidationError
from repro.types import ProcessId
from repro.util.rng import RandomSource
from repro.util.validation import check_positive


class CrashModel(abc.ABC):
    """Decides, per step, whether a process is crashed.

    A *step* is one send or one receive attempt (per §2.1, a normal step
    carries at most one message).  ``crashed_step`` is consulted by the
    network at each transmission endpoint — it is one of the hottest
    calls in the simulator, so the concrete models batch their RNG draws
    (bit-identical to single draws) and carry ``__slots__``.
    """

    __slots__ = ()

    @abc.abstractmethod
    def crashed_step(self, p: ProcessId, now: float) -> bool:
        """Whether process ``p`` executes a crashed step at time ``now``."""

    def is_down(self, p: ProcessId, now: float) -> bool:
        """Whether ``p`` is currently in a down *period* (burst models only).

        Step-wise models have no down periods; they return ``False``.
        """
        return False


class NoCrashModel(CrashModel):
    """All processes are always up (``P_i = 0``)."""

    __slots__ = ()

    def crashed_step(self, p: ProcessId, now: float) -> bool:
        return False


class IidCrashModel(CrashModel):
    """Each step is independently crashed with probability ``P_p``.

    Args:
        crash_probabilities: per-process crash probability vector
            (e.g. ``Configuration.crash_vector``).
        rng: deterministic stream for the draws.
    """

    __slots__ = ("_prob_list", "_draw")

    def __init__(self, crash_probabilities: np.ndarray, rng: RandomSource) -> None:
        probs = np.asarray(crash_probabilities, dtype=float)
        if probs.ndim != 1:
            raise ValidationError("crash_probabilities must be a 1-D vector")
        if np.any(np.isnan(probs)) or np.any(probs < 0) or np.any(probs > 1):
            raise ValidationError("crash probabilities must be in [0, 1]")
        # python-float copy for the per-step lookup (no numpy scalar
        # boxing per call) and block-buffered draws off the same child
        # stream single draws always used — values are bit-identical
        self._prob_list = probs.tolist()
        self._draw = rng.child("iid-crash").buffered()

    def crashed_step(self, p: ProcessId, now: float) -> bool:
        prob = self._prob_list[p]
        if prob <= 0.0:
            return False
        if prob >= 1.0:
            return True
        return self._draw.next() < prob


class MarkovCrashModel(CrashModel):
    """Two-state (up/down) Markov availability with geometric sojourns.

    State is advanced lazily in unit-time ticks.  For a stationary down
    fraction ``P`` and mean down sojourn ``mean_down`` ticks, the
    transition probabilities are::

        p_repair = 1 / mean_down
        p_fail   = P * p_repair / (1 - P)

    so ``P = p_fail / (p_fail + p_repair)``.

    Crash/recovery transitions can be observed through ``on_crash`` /
    ``on_recover`` callbacks — the recovery callback carries the number of
    whole ticks spent down, feeding Event 4 of Algorithm 4.
    """

    __slots__ = (
        "_probs",
        "_p_repair",
        "_p_fail",
        "_p_fail_list",
        "_draw",
        "_down",
        "_last_tick",
        "_down_since",
        "_on_crash",
        "_on_recover",
    )

    def __init__(
        self,
        crash_probabilities: np.ndarray,
        rng: RandomSource,
        mean_down_ticks: float = 5.0,
        on_crash: Optional[Callable[[ProcessId, float], None]] = None,
        on_recover: Optional[Callable[[ProcessId, float, int], None]] = None,
        start_time: float = 0.0,
    ) -> None:
        probs = np.asarray(crash_probabilities, dtype=float)
        if probs.ndim != 1:
            raise ValidationError("crash_probabilities must be a 1-D vector")
        if np.any(np.isnan(probs)) or np.any(probs < 0) or np.any(probs >= 1):
            raise ValidationError(
                "Markov crash probabilities must be in [0, 1) "
                "(P=1 has no stationary up state)"
            )
        if check_positive(mean_down_ticks, "mean_down_ticks") < 1.0:
            raise ValidationError(
                f"mean_down_ticks must be >= 1, got {mean_down_ticks}"
            )
        self._probs = probs
        self._p_repair = 1.0 / mean_down_ticks
        self._p_fail = np.where(
            probs > 0, probs * self._p_repair / (1.0 - probs), 0.0
        )
        self._p_fail_list = self._p_fail.tolist()
        if start_time < 0.0:
            raise ValidationError(f"start_time must be >= 0, got {start_time}")
        # buffered draws off the same child stream the per-tick single
        # draws always consumed — bit-identical values in the same order
        self._draw = rng.child("markov-crash").buffered()
        self._down = np.zeros(len(probs), dtype=bool)
        # a model created mid-run (scenario burst toggles, mid-run
        # reconfiguration) starts all-up *at that instant* — advancing
        # from tick 0 would replay the whole past, firing retroactive
        # crash/recovery callbacks with timestamps before `now`
        self._last_tick = np.full(len(probs), int(start_time), dtype=np.int64)
        self._down_since = np.zeros(len(probs), dtype=np.int64)
        self._on_crash = on_crash
        self._on_recover = on_recover

    def _advance(self, p: ProcessId, now: float) -> None:
        tick_now = int(now)
        last_tick = int(self._last_tick[p])
        if tick_now <= last_tick:
            return
        p_fail = self._p_fail_list[p]
        p_repair = self._p_repair
        down = bool(self._down[p])
        draw = self._draw.next
        for t in range(last_tick + 1, tick_now + 1):
            if down:
                if draw() < p_repair:
                    down = False
                    if self._on_recover is not None:
                        self._on_recover(p, float(t), t - int(self._down_since[p]))
            else:
                if p_fail > 0.0 and draw() < p_fail:
                    down = True
                    self._down_since[p] = t
                    if self._on_crash is not None:
                        self._on_crash(p, float(t))
        self._down[p] = down
        self._last_tick[p] = tick_now

    def crashed_step(self, p: ProcessId, now: float) -> bool:
        self._advance(p, now)
        return bool(self._down[p])

    def is_down(self, p: ProcessId, now: float) -> bool:
        self._advance(p, now)
        return bool(self._down[p])

    def force_recover_all(self, now: float) -> None:
        """Recover every currently-down process, firing ``on_recover``.

        Called when this model is being replaced mid-run (burst-mode
        toggles, reconfiguration): the replacement starts all-up, so any
        process left in a down sojourn here would otherwise be stranded
        with its ``_down`` flag set forever.  States are first advanced
        to ``now`` so sojourns that already ended lazily recover with
        their natural timing.
        """
        tick_now = int(now)
        for p in range(len(self._probs)):
            self._advance(p, now)
            if not self._down[p]:
                continue
            self._down[p] = False
            if self._on_recover is not None:
                self._on_recover(
                    p, now, max(1, tick_now - int(self._down_since[p]))
                )
