"""Algorithm 5 in its literal multiply-and-renormalise form.

:class:`repro.core.bayesian.BeliefEstimator` keeps its beliefs in log
space.  These pure functions apply Bayes' rule the way the paper writes
it: start from ``P_B[u] = 1/U`` (lines 5-7), multiply by the likelihood
``P_F|B`` for a failure (``decreaseReliability``, lines 8-11) or by
``1 - P_F|B`` for a success (``increaseReliability``, lines 12-15), and
renormalise.  The tests hold the estimator to them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.util.validation import check_non_negative_int, check_positive_int


def uniform_beliefs(intervals: int) -> np.ndarray:
    """``P_B[u] = 1/U`` — the equal a-priori beliefs of Algorithm 5."""
    check_positive_int(intervals, "intervals")
    return np.full(intervals, 1.0 / intervals)


def _apply_likelihood(
    beliefs: np.ndarray, likelihood: np.ndarray, factor: int
) -> np.ndarray:
    """``beliefs * likelihood**factor``, renormalised, underflow-safe.

    Repeated Bayes updates with the same likelihood and renormalisation
    each round equal a single multiplication by ``likelihood ** factor``
    followed by one renormalisation (normalisation is a scalar divisor).
    Large factors (e.g. a long recorded downtime) underflow the direct
    product, so the computation falls back to log space when needed.
    """
    updated = beliefs * likelihood**factor
    total = updated.sum()
    if total > 0.0:
        return updated / total
    # log-space fallback: exact up to float rounding, immune to underflow
    with np.errstate(divide="ignore"):
        logs = np.log(beliefs) + factor * np.log(likelihood)
    peak = logs.max()
    if peak == -np.inf:  # pragma: no cover - beliefs are a prob. vector
        raise ValidationError("belief mass vanished during Bayes update")
    updated = np.exp(logs - peak)
    return updated / updated.sum()


def apply_failures(beliefs: np.ndarray, midpoints: np.ndarray, factor: int) -> np.ndarray:
    """Pure-function form of ``decreaseReliability`` (factor repetitions)."""
    check_non_negative_int(factor, "factor")
    if factor == 0:
        return beliefs.copy()
    return _apply_likelihood(beliefs, midpoints, factor)


def apply_successes(beliefs: np.ndarray, midpoints: np.ndarray, factor: int) -> np.ndarray:
    """Pure-function form of ``increaseReliability``."""
    check_non_negative_int(factor, "factor")
    if factor == 0:
        return beliefs.copy()
    return _apply_likelihood(beliefs, 1.0 - midpoints, factor)
