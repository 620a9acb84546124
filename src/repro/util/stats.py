"""Streaming statistics and interval estimates for experiment results.

The experiment harness runs each configuration for several seeded trials and
reports mean ± confidence interval.  :class:`OnlineStats` implements
Welford's numerically stable one-pass algorithm so trial results never need
to be buffered; :func:`mean_confidence_interval` provides a normal-
approximation interval (we deliberately avoid a SciPy dependency in the
core library; SciPy is only used in tests as an oracle).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

#: Two-sided z quantiles for common confidence levels.
_Z_TABLE: Dict[float, float] = {
    0.80: 1.2815515655446004,
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.98: 2.3263478740408408,
    0.99: 2.5758293035489004,
}


class OnlineStats:
    """Welford one-pass mean/variance accumulator.

    Example:
        >>> s = OnlineStats()
        >>> for x in (1.0, 2.0, 3.0):
        ...     s.add(x)
        >>> s.mean
        2.0
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        """Fold a sequence of observations."""
        for value in values:
            self.add(value)

    def merge(self, other: "OnlineStats") -> None:
        """Merge another accumulator into this one (parallel Welford)."""
        if other._n == 0:
            return
        if self._n == 0:
            self._n, self._mean, self._m2 = other._n, other._mean, other._m2
            self._min, self._max = other._min, other._max
            return
        n = self._n + other._n
        delta = other._mean - self._mean
        self._mean += delta * other._n / n
        self._m2 += other._m2 + delta * delta * self._n * other._n / n
        self._n = n
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        if self._n == 0:
            raise ValueError("no observations")
        return self._mean

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 with fewer than two observations)."""
        if self._n < 2:
            return 0.0
        return self._m2 / (self._n - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean (0.0 with fewer than two observations)."""
        if self._n < 2:
            return 0.0
        return self.stdev / math.sqrt(self._n)

    @property
    def minimum(self) -> float:
        if self._n == 0:
            raise ValueError("no observations")
        return self._min

    @property
    def maximum(self) -> float:
        if self._n == 0:
            raise ValueError("no observations")
        return self._max

    def confidence_interval(self, level: float = 0.95) -> Tuple[float, float]:
        """Normal-approximation CI of the mean at the given level."""
        half = z_quantile(level) * self.stderr
        return self.mean - half, self.mean + half


def z_quantile(level: float) -> float:
    """Two-sided standard-normal quantile for a confidence ``level``.

    Uses a small lookup table for the common levels and the Acklam inverse
    normal CDF approximation otherwise (max relative error ~1.15e-9, far
    below any use in this library).
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must be in (0,1), got {level}")
    if level in _Z_TABLE:
        return _Z_TABLE[level]
    return _inverse_normal_cdf(0.5 + level / 2.0)


def _inverse_normal_cdf(p: float) -> float:
    """Acklam's rational approximation of the standard normal quantile."""
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p <= p_high:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
               (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)
    q = math.sqrt(-2 * math.log(1 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)


def mean_confidence_interval(
    values: Sequence[float], level: float = 0.95
) -> Tuple[float, float, float]:
    """Return ``(mean, lower, upper)`` for a sequence of observations."""
    stats = OnlineStats()
    stats.extend(values)
    lower, upper = stats.confidence_interval(level)
    return stats.mean, lower, upper


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (p99 style).

    ``fraction`` is in [0, 1]; the rank ``int(fraction * n)`` is clamped
    to the last element.  Callers decide what an empty sequence reports.
    """
    if not sorted_values:
        raise ValueError("no observations")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    rank = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return float(sorted_values[rank])
