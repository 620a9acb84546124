"""Seeded production-shaped KV traffic: Zipf keys, surges, regions.

:class:`WorkloadGenerator` pre-computes the whole operation schedule of
a trial as a pure function of ``(params, scenario, RandomSource)`` —
every draw comes from labelled children of one injected stream, so the
schedule is bit-identical at any campaign worker count and, like the
scenario workload origins, independent of the protocol under test:
every protocol row of a comparison faces the same client traffic.

Traffic shape:

* **Zipf hot-key skew** — key ranks drawn from a Zipf(``zipf_s``)
  distribution via inverse-CDF over the precomputed normalised weights
  (``RandomSource`` has no Zipf primitive; one uniform draw per key
  keeps streams splittable);
* **read/write mix** — each op is a write with probability
  ``write_ratio``;
* **flash-crowd surge** — when the scenario's workload declares a
  ``surge_at``, ``surge_ops`` extra operations land in a tight window
  after it, drawn with the sharper ``surge_zipf_s`` skew (the hot key
  gets hotter exactly when the network degrades);
* **multi-region placement** — client operations land on replicas by
  region: ``regions`` contiguous pid blocks, a uniform region draw then
  a uniform replica within it (one region = uniform placement).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import asdict, dataclass, fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

from repro.errors import ValidationError, did_you_mean
from repro.scenario.schema import ScenarioSpec
from repro.types import ProcessId
from repro.util.rng import RandomSource
from repro.util.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive_int,
    check_probability,
)

__all__ = ["KVOp", "KVWorkloadParams", "WorkloadGenerator", "decode_workload"]

#: Fraction of the scenario duration reserved after the last scheduled op
#: so convergence has a quiescent tail to complete in.
_TAIL_FRACTION = 0.15

#: Length of the flash-crowd surge window, as a fraction of the duration.
_SURGE_FRACTION = 0.1


@dataclass(frozen=True)
class KVWorkloadParams:
    """Sweepable knobs of the KV client traffic."""

    keys: int = 32
    zipf_s: float = 0.9
    write_ratio: float = 0.3
    ops: int = 48
    regions: int = 1
    surge_ops: int = 16
    surge_zipf_s: float = 1.4

    def __post_init__(self) -> None:
        check_positive_int(self.keys, "keys")
        check_non_negative(self.zipf_s, "zipf_s")
        check_non_negative(self.surge_zipf_s, "surge_zipf_s")
        check_probability(self.write_ratio, "write_ratio")
        check_positive_int(self.ops, "ops")
        check_positive_int(self.regions, "regions")
        check_non_negative_int(self.surge_ops, "surge_ops")

    def to_payload(self) -> str:
        """Canonical JSON — the spawn-safe campaign parameter encoding."""
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


def decode_workload(payload: Optional[str]) -> Optional[KVWorkloadParams]:
    """Decode the JSON workload payload of a campaign spec (None passes)."""
    if payload is None:
        return None
    decoded = json.loads(payload)
    if not isinstance(decoded, dict):
        raise ValidationError(
            f"workload must encode a parameter object, got {payload!r}"
        )
    names = tuple(f.name for f in dataclass_fields(KVWorkloadParams))
    for key in decoded:
        if key not in names:
            _, hint = did_you_mean(key, names)
            raise ValidationError(
                f"unknown workload parameter {key!r}; "
                f"supported: {', '.join(names)}{hint}"
            )
    return KVWorkloadParams(**decoded)


@dataclass(frozen=True)
class KVOp:
    """One scheduled client operation."""

    at: float
    seq: int
    kind: str  # "put" | "get"
    origin: ProcessId
    key: str
    value: int  # the op's sequence number (ignored for reads)


def _zipf_cdf(keys: int, s: float) -> List[float]:
    """Cumulative normalised ``1/rank^s`` weights for inverse-CDF draws."""
    weights = [(rank + 1) ** (-s) for rank in range(keys)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0  # guard against float round-down at the tail
    return cdf


class WorkloadGenerator:
    """Pre-computes one trial's KV operation schedule, deterministically."""

    def __init__(
        self, params: KVWorkloadParams, n: int, rng: RandomSource
    ) -> None:
        if n < 1:
            raise ValidationError(f"workload needs n >= 1 replicas, got {n}")
        self._params = params
        self._n = n
        self._rng = rng
        self._cdf = _zipf_cdf(params.keys, params.zipf_s)
        self._surge_cdf = _zipf_cdf(params.keys, params.surge_zipf_s)
        # region r owns the contiguous pid block [bounds[r], bounds[r+1])
        regions = min(params.regions, n)
        self._bounds = [r * n // regions for r in range(regions + 1)]

    def _draw_key(self, stream: RandomSource, cdf: List[float]) -> str:
        rank = bisect_left(cdf, stream.random())
        return f"k{rank:04d}"

    def _draw_origin(self, stream: RandomSource) -> ProcessId:
        region = stream.integer(len(self._bounds) - 1)
        lo, hi = self._bounds[region], self._bounds[region + 1]
        return lo + stream.integer(hi - lo)

    def generate(self, spec: ScenarioSpec) -> Tuple[KVOp, ...]:
        """The full schedule for one scenario, sorted by ``(at, seq)``.

        Steady ops spread uniformly over ``[workload.start,
        duration * (1 - tail))``; surge ops (if the scenario declares a
        ``surge_at``) land in a ``duration * 0.1`` window right after it
        with the sharper key skew.
        """
        params = self._params
        duration = spec.duration
        start = min(spec.workload.start, duration)
        window_end = max(start, duration * (1.0 - _TAIL_FRACTION))
        times = self._rng.child("times")
        kinds = self._rng.child("kinds")
        keys = self._rng.child("keys")
        origins = self._rng.child("origins")
        ops: List[KVOp] = []

        def emit(at: float, cdf: List[float]) -> None:
            seq = len(ops)
            kind = "put" if kinds.bernoulli(params.write_ratio) else "get"
            ops.append(
                KVOp(
                    at=at,
                    seq=seq,
                    kind=kind,
                    origin=self._draw_origin(origins),
                    key=self._draw_key(keys, cdf),
                    value=seq,
                )
            )

        for _ in range(params.ops):
            emit(start + times.random() * (window_end - start), self._cdf)
        surge_at = spec.workload.surge_at
        if surge_at is not None and params.surge_ops and surge_at < window_end:
            surge_end = min(window_end, surge_at + duration * _SURGE_FRACTION)
            for _ in range(params.surge_ops):
                emit(
                    surge_at + times.random() * (surge_end - surge_at),
                    self._surge_cdf,
                )
        ops.sort(key=lambda op: (op.at, op.seq))
        return tuple(ops)

    def describe(self) -> Dict[str, object]:
        return {
            "keys": self._params.keys,
            "zipf_s": self._params.zipf_s,
            "write_ratio": self._params.write_ratio,
            "ops": self._params.ops,
            "regions": len(self._bounds) - 1,
            "surge_ops": self._params.surge_ops,
        }
