"""Streaming statistics for experiment results.

The experiment harness runs each configuration for several seeded trials
and reports their mean and spread.  :class:`OnlineStats` implements
Welford's numerically stable one-pass algorithm so trial results never
need to be buffered; :func:`percentile` reads a nearest-rank percentile
off sorted observations.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


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

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics."""
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value

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
            self._min = other._min
            return
        n = self._n + other._n
        delta = other._mean - self._mean
        self._mean += delta * other._n / n
        self._m2 += other._m2 + delta * delta * self._n * other._n / n
        self._n = n
        self._min = min(self._min, other._min)

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
