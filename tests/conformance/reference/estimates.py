"""Estimates with distortion factors and ``selectBestEstimate`` (Alg. 3).

An *estimate* is a process's current approximation of one failure
probability (of a process or a link).  Besides the Bayesian network it
carries (Section 4.2):

* ``distortion`` — how degraded the estimate is.  Two factors erode
  accuracy: *distance* (adopting a neighbour's estimate increments the
  factor, so it is lower-bounded by network distance) and *time* (Event 2
  increments it when no update arrives for a timeout period).  Fresh
  first-hand estimates have distortion 0; unknown ones start at infinity.
* ``seq`` — heartbeat sequence number (process estimates only).
* ``suspected`` — suspicions since the last heartbeat (neighbour
  processes only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core import bayesian
from repro.core.bayesian import DEFAULT_INTERVALS
from repro.util.validation import check_non_negative_int

#: Distortion of an estimate the process knows nothing about.
UNKNOWN_DISTORTION = math.inf


class BeliefEstimator(bayesian.BeliefEstimator):
    """The shipped estimator plus Algorithm 5's success update.

    :class:`repro.core.viewtable.VectorView` applies successes to its own
    belief rows; the object-form model here applies them one estimate at
    a time, in the same log-space arithmetic.
    """

    __slots__ = ()

    def increase_reliability(self, factor: int = 1) -> None:
        """Record ``factor`` success observations (lines 12-15)."""
        check_non_negative_int(factor, "factor")
        if factor:
            self._log_beliefs += factor * np.log1p(-self._midpoints)
            self._log_beliefs -= self._log_beliefs.max()


@dataclass
class Estimate:
    """One reliability estimate (``C_k[p_i]`` or ``C_k[l_j]``).

    Attributes:
        beliefs: the Bayesian network approximating the failure probability.
        distortion: the ``d`` field of Algorithm 4 (∞ = unknown).
        seq: last heartbeat sequence number seen (process estimates).
        suspected: suspicion count since the last heartbeat (neighbours).
        last_update: simulation time of the last refresh (drives Event 2).
    """

    beliefs: BeliefEstimator = field(default_factory=BeliefEstimator)
    distortion: float = UNKNOWN_DISTORTION
    seq: int = 0
    suspected: int = 0
    last_update: float = 0.0

    @classmethod
    def fresh(
        cls,
        intervals: int = DEFAULT_INTERVALS,
        distortion: float = UNKNOWN_DISTORTION,
        now: float = 0.0,
    ) -> "Estimate":
        """A new estimate with uniform beliefs (initializeReliability)."""
        return cls(
            beliefs=BeliefEstimator(intervals),
            distortion=distortion,
            last_update=now,
        )

    def copy(self) -> "Estimate":
        return Estimate(
            beliefs=self.beliefs.copy(),
            distortion=self.distortion,
            seq=self.seq,
            suspected=self.suspected,
            last_update=self.last_update,
        )

    def point_estimate(self) -> float:
        """Posterior-mean failure probability of this estimate."""
        return self.beliefs.point_estimate()

    def adopt(self, other: "Estimate", now: Optional[float] = None) -> None:
        """Replace this estimate's content with ``other``'s, incrementing
        distortion (Algorithm 3 lines 3-4: adopt, then ``d <- d + 1``).

        The local monitoring fields (``suspected``) are *not* adopted —
        they describe the adopting process's own observations.
        """
        self.beliefs = other.beliefs.copy()
        self.distortion = other.distortion + 1.0
        self.seq = other.seq
        if now is not None:
            self.last_update = now


def select_best_estimate(
    mine: Estimate, theirs: Estimate, now: Optional[float] = None
) -> bool:
    """Algorithm 3: adopt ``theirs`` iff it is strictly less distorted.

    Returns:
        ``True`` if ``mine`` was replaced (its distortion becomes
        ``theirs.distortion + 1`` — the estimate is now second-hand).
    """
    if theirs.distortion < mine.distortion:
        mine.adopt(theirs, now)
        return True
    return False
