"""The motivating two-path model (Section 1, Appendix A, Figure 1).

Two nodes are connected by two independent paths: path one loses messages
with probability ``L``; path two with ``alpha * L`` (``alpha > 1``, i.e.
path two is *less* reliable).  A typical gossip algorithm splits its
``k0`` transmissions evenly across the paths, reaching the peer with
probability ``1 - (sqrt(alpha) * L) ** k0``; an environment-adapted
algorithm sends all ``k1`` messages down the more reliable path, reaching
it with ``1 - L ** k1``.  Equating the two yields the paper's headline
ratio::

    k1 / k0 = 0.5 * log_L(alpha) + 1

so e.g. with ``alpha = 10`` and ``L = 1e-4`` the adaptive algorithm needs
only ~87.5% of the gossip algorithm's messages (Figure 1).
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import ValidationError
from repro.util.rng import RandomSource
from repro.util.validation import check_open_probability, check_positive_int


def _check_alpha(alpha: float, loss: float) -> None:
    if alpha < 1.0:
        raise ValidationError(f"alpha must be >= 1 (path two is worse), got {alpha}")
    if alpha * loss > 1.0:
        raise ValidationError(
            f"alpha * L = {alpha * loss} exceeds 1: path two's loss is not a "
            "probability"
        )


def gossip_reach(loss: float, alpha: float, k0: int) -> float:
    """P(at least one of ``k0`` evenly-split messages arrives).

    ``1 - (sqrt(alpha) * L) ** k0`` — Appendix A.  The closed form assumes
    ``k0`` splits exactly evenly across the two paths (``k0/2`` each); for
    odd ``k0`` an alternating sender favours the path it starts with and
    the true probability deviates slightly.
    """
    check_open_probability(loss, "loss")
    _check_alpha(alpha, loss)
    check_positive_int(k0, "k0")
    return 1.0 - (math.sqrt(alpha) * loss) ** k0


def adaptive_reach(loss: float, k1: int) -> float:
    """P(at least one of ``k1`` best-path messages arrives): ``1 - L**k1``."""
    check_open_probability(loss, "loss")
    check_positive_int(k1, "k1")
    return 1.0 - loss**k1


def message_ratio(loss: float, alpha: float) -> float:
    """``k1/k0`` at equal reliability: ``0.5 * log_L(alpha) + 1``.

    Values below 1 mean the adaptive algorithm needs fewer messages; the
    ratio decreases as ``alpha`` grows (path asymmetry) and as ``L`` grows
    (less reliable environment).
    """
    check_open_probability(loss, "loss")
    _check_alpha(alpha, loss)
    if alpha == 1.0:
        return 1.0
    return 0.5 * math.log(alpha) / math.log(loss) + 1.0


def required_messages(loss: float, k_target: float) -> int:
    """Messages the adaptive side needs on one path for reach >= K."""
    check_open_probability(loss, "loss")
    check_open_probability(k_target, "k_target")
    return max(1, math.ceil(math.log(1.0 - k_target) / math.log(loss)))


def simulate_two_paths(
    loss: float,
    alpha: float,
    messages: int,
    strategy: str,
    rng: RandomSource,
    trials: int = 10_000,
) -> float:
    """Monte-Carlo estimate of the reach probability of either strategy.

    Args:
        strategy: "gossip" (alternate the two paths) or "adaptive"
            (always the more reliable path).

    Returns:
        Fraction of trials in which at least one message arrived —
        the empirical counterpart of :func:`gossip_reach` /
        :func:`adaptive_reach`, used by the property tests.
    """
    check_open_probability(loss, "loss")
    _check_alpha(alpha, loss)
    check_positive_int(messages, "messages")
    check_positive_int(trials, "trials")
    if strategy not in ("gossip", "adaptive"):
        raise ValidationError(f"unknown strategy {strategy!r}")
    path_loss: List[float] = [loss, alpha * loss]
    reached = 0
    gen = rng.child("two-paths", strategy).generator
    for _ in range(trials):
        ok = False
        for i in range(messages):
            p = path_loss[i % 2] if strategy == "gossip" else path_loss[0]
            if gen.random() >= p:
                ok = True
                break
        reached += int(ok)
    return reached / trials
