"""Reliability-belief management via Bayesian inference (Section 4.3).

A failure probability (of a process or a link) is approximated by a small
Bayesian network ``b -> s``: the unit interval is split into ``U``
equal-width intervals; ``P_F|B[u]`` is the representative failure
probability of interval ``u`` (its midpoint, ``(2u-1)/2U`` for 1-based
``u``) and ``P_B[u]`` the current belief that the true probability lies in
interval ``u``.  Beliefs start uniform (Algorithm 5, lines 5-7).

* observing a **failure** (crash suspicion / message loss) applies Bayes'
  rule with likelihood ``P_F|B`` — ``decreaseReliability`` (lines 8-11);
* observing a **success** (an up-tick, a received heartbeat) applies the
  complementary likelihood ``1 - P_F|B`` — ``increaseReliability``
  (lines 12-15).

After ``f`` failures and ``s`` successes the posterior is proportional to
``P_F|B^f (1-P_F|B)^s`` — a discretised Beta posterior whose mass
concentrates on the interval containing the empirical failure frequency.

The adaptive protocol applies both updates to its own belief rows
(:class:`repro.core.viewtable.VectorView`).  :class:`BeliefEstimator` is
the single-estimate form Table 1 reports; it records failures only.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.util.validation import check_non_negative_int, check_positive_int

#: Paper default: 100 probability intervals (Algorithm 5, line 2).
DEFAULT_INTERVALS = 100


def interval_midpoints(intervals: int) -> np.ndarray:
    """``P_F|B[u] = (2u-1) / (2U)`` for ``u = 1..U`` (0-based array)."""
    check_positive_int(intervals, "intervals")
    u = np.arange(1, intervals + 1, dtype=float)
    return (2.0 * u - 1.0) / (2.0 * intervals)


class BeliefEstimator:
    """One estimate's Bayesian network (Algorithm 5).

    Beliefs are stored in *log space*: after ``f`` failures and ``s``
    successes the unnormalised log-posterior is
    ``log P_B0 + f log P_F|B + s log(1 - P_F|B)``.  This is numerically
    exact where the paper's literal multiply-and-renormalise loses
    intervals to floating-point underflow (a long run of one observation
    type rounds distant intervals to exactly zero, and no amount of later
    evidence can resurrect them).  All exposed values (``beliefs``,
    ``point_estimate``) are the normalised linear posterior.

    Example — Table 1 of the paper (U=5, one suspicion):
        >>> est = BeliefEstimator(intervals=5)
        >>> est.decrease_reliability(1)
        >>> [round(b, 2) for b in est.beliefs]
        [0.04, 0.12, 0.2, 0.28, 0.36]
    """

    __slots__ = ("_midpoints", "_log_beliefs")

    def __init__(
        self,
        intervals: int = DEFAULT_INTERVALS,
        beliefs: Optional[np.ndarray] = None,
    ) -> None:
        self._midpoints = interval_midpoints(intervals)
        if beliefs is None:
            self._log_beliefs = np.zeros(intervals)
        else:
            arr = np.asarray(beliefs, dtype=float)
            if arr.shape != (intervals,):
                raise ValidationError(
                    f"beliefs must have shape ({intervals},), got {arr.shape}"
                )
            if np.any(arr < 0) or not np.isclose(arr.sum(), 1.0):
                raise ValidationError("beliefs must be a probability vector")
            with np.errstate(divide="ignore"):
                self._log_beliefs = np.log(arr / arr.sum())

    # -- queries -----------------------------------------------------------------

    @property
    def intervals(self) -> int:
        return len(self._log_beliefs)

    @property
    def beliefs(self) -> np.ndarray:
        """Current belief vector ``P_B`` (normalised, read-only copy)."""
        shifted = np.exp(self._log_beliefs - self._log_beliefs.max())
        return shifted / shifted.sum()

    @property
    def midpoints(self) -> np.ndarray:
        """Interval representatives ``P_F|B`` (read-only copy)."""
        return self._midpoints.copy()

    def point_estimate(self) -> float:
        """Posterior mean failure probability ``sum(P_B[u] * P_F|B[u])``."""
        return float(self.beliefs @ self._midpoints)

    def map_interval(self) -> int:
        """Index (0-based) of the most believed interval."""
        return int(np.argmax(self._log_beliefs))

    def interval_bounds(self, u: int) -> Tuple[float, float]:
        """``[u/U, (u+1)/U)`` bounds of 0-based interval ``u``."""
        if not 0 <= u < self.intervals:
            raise ValidationError(f"interval {u} outside 0..{self.intervals - 1}")
        width = 1.0 / self.intervals
        return u * width, (u + 1) * width

    # -- updates (Algorithm 5) -----------------------------------------------------

    def decrease_reliability(self, factor: int = 1) -> None:
        """Record ``factor`` failure observations (lines 8-11)."""
        check_non_negative_int(factor, "factor")
        if factor:
            self._log_beliefs += factor * np.log(self._midpoints)
            self._log_beliefs -= self._log_beliefs.max()

    # -- copying -----------------------------------------------------------------

    def copy(self) -> "BeliefEstimator":
        clone = type(self)(self.intervals)
        clone._log_beliefs = self._log_beliefs.copy()
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BeliefEstimator):
            return NotImplemented
        return self.intervals == other.intervals and bool(
            np.allclose(self.beliefs, other.beliefs)
        )

    def __repr__(self) -> str:
        return (
            f"BeliefEstimator(U={self.intervals}, "
            f"estimate={self.point_estimate():.4f}, "
            f"map=[{self.interval_bounds(self.map_interval())[0]:.3f},"
            f"{self.interval_bounds(self.map_interval())[1]:.3f}))"
        )
