"""Normal-approximation confidence intervals for Monte Carlo checks.

A test that estimates a probability by simulation compares the paper's
value against ``mean ± z * stderr`` of its trials.  The quantile comes
from a small table for the common levels and from Acklam's inverse
normal CDF otherwise, so the tests need no SciPy (SciPy, when present,
is the oracle the fallback is checked against).
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

from repro.util.stats import OnlineStats

#: Two-sided z quantiles for common confidence levels.
_Z_TABLE: Dict[float, float] = {
    0.80: 1.2815515655446004,
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.98: 2.3263478740408408,
    0.99: 2.5758293035489004,
}


def z_quantile(level: float) -> float:
    """Two-sided standard-normal quantile for a confidence ``level``.

    Uses a small lookup table for the common levels and the Acklam inverse
    normal CDF approximation otherwise (max relative error ~1.15e-9).
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
    half = z_quantile(level) * stats.stderr
    return stats.mean, stats.mean - half, stats.mean + half
