"""Parallel, cached, resumable execution of experiment trial sweeps.

The figure experiments all reduce to the same shape of work: a grid of
*points* (connectivity x probability x topology ...), each point needing
several independently seeded simulation trials, aggregated with
:class:`repro.util.stats.OnlineStats`.  The seed runner executed that
grid strictly serially; this module fans it out across execution
backends while keeping the results **bit-identical** to serial
execution:

* every trial is described by a :class:`TrialSpec` — a pure function
  (named ``"package.module:function"``) plus JSON-able keyword
  parameters that fully determine its :class:`~repro.util.rng.RandomSource`
  substream, so a trial computes the same floats no matter which process
  (or machine) runs it;
* the campaign collects results *in submission order* and the callers
  fold them into ``OnlineStats`` in that same order, so aggregate means
  are exactly — not just statistically — equal to the serial runner's;
* completed trials are persisted in a :class:`~repro.util.cache.TrialCache`
  keyed by the spec's content hash, so re-runs and interrupted campaigns
  resume for free (only never-finished trials execute).

*How* trials execute is delegated to a pluggable
:class:`~repro.exec.ExecutionBackend` (in-process serial, or a
work-stealing shard queue of spawned workers with simulated worker
loss — see :mod:`repro.exec`).  The backend that computes a fresh trial
is the one that writes it to the cache; the campaign only reads hits.
Out-of-process workers re-import the experiment modules and resolve the
trial function by name, so no live simulator state ever crosses a
process boundary.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ValidationError
from repro.util.cache import TrialCache, content_key
from repro.util.rng import DrawLedger, ledger_scope
from repro.util.stats import OnlineStats

if TYPE_CHECKING:  # import cycle: repro.exec imports trial types from here
    from repro.exec import ExecutionBackend

#: Reserved result-key prefix carrying per-stream RNG draw counts from a
#: ledgered trial back to the parent (stripped before aggregation).
RNG_KEY_PREFIX = "rng."

#: Result type every trial function must return.
TrialResult = Dict[str, float]

SweepValue = Union[int, float, str]


@dataclass(frozen=True)
class TrialSpec:
    """One unit of campaign work: a named pure function plus parameters.

    Attributes:
        fn: import path of the trial function, ``"package.module:function"``.
            The function must be importable by worker processes and return
            a flat ``{metric: float}`` dict.
        params: keyword arguments as a sorted tuple of ``(name, value)``
            pairs (kept hashable so specs can be deduplicated).  Values
            must be JSON-able scalars — they form the cache key.
        reads: metric names the spec's consumer will read — a cache
            entry lacking one is a miss (:func:`cached_result`); not
            part of the spec's identity or key.
    """

    fn: str
    params: Tuple[Tuple[str, object], ...]
    reads: Tuple[str, ...] = field(default=(), compare=False)

    @classmethod
    def make(
        cls, fn: str, reads: Tuple[str, ...] = (), **params: object
    ) -> "TrialSpec":
        """Build a spec, validating the function path and parameters."""
        if ":" not in fn:
            raise ValidationError(
                f"trial fn must be 'module:function', got {fn!r}"
            )
        for name, value in params.items():
            if isinstance(value, bool) or value is None:
                continue
            if not isinstance(value, (int, float, str)):
                raise ValidationError(
                    f"trial param {name}={value!r} is not a JSON-able scalar"
                )
            if isinstance(value, float) and value != value:
                raise ValidationError(f"trial param {name} is NaN")
        return cls(fn, tuple(sorted(params.items())), tuple(reads))

    def kwargs(self) -> Dict[str, object]:
        """The parameters as a plain keyword-argument dict."""
        return dict(self.params)

    def key(self) -> str:
        """Stable content hash identifying this trial (the cache key).

        The package version is folded into the hash so a warm cache
        never serves results produced by older simulation code.
        """
        from repro import __version__  # deferred: package init imports us

        return content_key(
            {"fn": self.fn, "params": self.kwargs(), "code": __version__}
        )

    def resolve(self) -> Callable[..., TrialResult]:
        """Import and return the trial function."""
        module_name, _, attr = self.fn.partition(":")
        module = importlib.import_module(module_name)
        try:
            fn = getattr(module, attr)
        except AttributeError:
            raise ValidationError(
                f"module {module_name!r} has no trial function {attr!r}"
            ) from None
        return fn

    def describe(self) -> str:
        short = self.fn.rsplit(".", 1)[-1]
        args = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{short}({args})"


def execute_spec(spec: TrialSpec) -> TrialResult:
    """Run one trial in the current process (also the shard worker body).

    The reserved ``rng_ledger`` parameter never reaches the trial
    function: when present and true, the trial runs inside a
    :func:`~repro.util.rng.ledger_scope` and its per-stream draw counts
    ride back in ``rng.<stream>`` result keys (so they travel through
    the cache and worker pipes like any other metric).  Ledger
    bookkeeping draws nothing itself, so metric values are bit-identical
    either way — only the cache key differs.
    """
    kwargs = spec.kwargs()
    want_ledger = bool(kwargs.pop("rng_ledger", False))
    fn = spec.resolve()
    ledger = DrawLedger()
    if want_ledger:
        with ledger_scope(ledger):
            result = fn(**kwargs)
    else:
        result = fn(**kwargs)
    if not isinstance(result, dict):
        raise ValidationError(
            f"trial {spec.describe()} returned {type(result).__name__}, "
            "expected a dict of floats"
        )
    out = {name: float(value) for name, value in result.items()}
    if want_ledger:
        for stream, draws in ledger.as_dict().items():
            out[RNG_KEY_PREFIX + stream] = float(draws)
    return out


def cached_result(
    cache: Optional[TrialCache], spec: TrialSpec, key: str
) -> Optional[TrialResult]:
    """The whole cache entry of ``spec``, or None on any miss.

    Whole: it carries every metric the spec's consumer reads.  An entry
    of the right shape but the wrong keys is recomputed and overwritten
    like any malformed one, not left to fail its consumer with a
    ``KeyError``.
    """
    hit = cache.get(key) if cache is not None else None
    if hit is not None:
        for metric in spec.reads:
            if metric not in hit:
                return None
    return hit


def chunked(results: Sequence[TrialResult], size: int):
    """Slice ordered campaign results into consecutive per-point chunks."""
    for start in range(0, len(results), size):
        yield results[start : start + size]


class Campaign:
    """Executes batches of :class:`TrialSpec` with caching and a backend.

    Args:
        cache: optional :class:`TrialCache`; when set, completed trials
            are persisted and later batches skip anything already on
            disk.  The cache is wired into the backend, which writes
            each fresh result before yielding it, so an interrupted
            campaign keeps everything that finished.
        rng_ledger: when true, every trial runs with an active
            :class:`~repro.util.rng.DrawLedger`; per-stream draw counts
            accumulate into :attr:`rng_draws` (summed over executed and
            cache-recovered trials alike) for provenance.  Ledgered
            trials cache under distinct content keys, so default runs
            stay byte-identical to a build without the ledger.
        backend: an :class:`~repro.exec.ExecutionBackend` instance or a
            spec string (``"serial"``, ``"shard:8"``);
            defaults to serial.

    The cumulative counters :attr:`executed` and :attr:`cached` track how
    much work the campaign actually did versus recovered from disk, and
    :attr:`peak_buffered` records the largest number of backend results
    ever held back while restoring submission order or waiting for a
    later duplicate (cache hits, held from the scan to their last yield,
    are not counted; <= 1 for a duplicate-free batch on the serial
    backend).
    """

    def __init__(
        self,
        cache: Optional[TrialCache] = None,
        rng_ledger: bool = False,
        backend: Union["str", "ExecutionBackend", None] = None,
    ) -> None:
        # deferred: repro.exec imports TrialSpec/execute_spec from here
        from repro.exec import SerialBackend, resolve_backend

        backend = (
            SerialBackend() if backend is None else resolve_backend(backend)
        )
        if cache is not None:
            backend.cache = cache
        self.backend = backend
        self.cache = backend.cache
        self.rng_ledger = rng_ledger
        self.executed = 0
        self.cached = 0
        self.peak_buffered = 0
        self.rng_draws: Dict[str, int] = {}

    def run(self, specs: Sequence[TrialSpec]) -> List[TrialResult]:
        """Execute ``specs``; returns their results in submission order.

        A materialized :meth:`run_stream` — see there for semantics.
        """
        return list(self.run_stream(specs))

    def run_stream(self, specs: Sequence[TrialSpec]):
        """Execute ``specs``, yielding results in submission order.

        Duplicate specs (same content key) execute once.  With a cache,
        hits are returned without executing; the backend persists every
        fresh result before yielding it, so a crash or Ctrl-C part-way
        through loses only the in-flight trials.

        Results are yielded *incrementally*: as the backend streams
        completions (in any order), each one is either yielded straight
        through or held in a small reorder buffer until every earlier
        spec has been satisfied.  Each cache entry is read exactly once,
        by the scan that classifies the specs; a hit's payload (a dict of
        a few floats, smaller than the spec and key already held for it)
        is kept from that scan until its last duplicate is yielded, so
        nothing that happens to the cache directory afterwards can fail
        the run.  Backend results are dropped from the reorder buffer at
        their last duplicate the same way, so what the buffer holds is
        bounded by the out-of-orderness of the backend.
        """
        if self.rng_ledger:
            specs = [
                TrialSpec.make(
                    spec.fn, spec.reads, **{**spec.kwargs(), "rng_ledger": True}
                )
                for spec in specs
            ]
        order: List[str] = []
        needs: Dict[str, int] = {}
        pending: List[TrialSpec] = []
        hits: Dict[str, TrialResult] = {}
        for spec in specs:
            key = spec.key()
            order.append(key)
            needs[key] = needs.get(key, 0) + 1
            if needs[key] > 1:
                continue
            hit = cached_result(self.cache, spec, key)
            if hit is not None:
                hits[key] = hit
                self.cached += 1
                self._fold_ledger(hit)
            else:
                pending.append(spec)

        buffer: Dict[str, TrialResult] = {}
        cursor = 0

        def take(key: str) -> TrialResult:
            held = buffer if key in buffer else hits
            needs[key] -= 1
            return held.pop(key) if needs[key] == 0 else held[key]

        def strip(result: TrialResult) -> TrialResult:
            if not self.rng_ledger:
                return result
            return {
                name: value
                for name, value in result.items()
                if not name.startswith(RNG_KEY_PREFIX)
            }

        for spec, result in self.backend.submit(pending):
            self.executed += 1
            self._fold_ledger(result)
            buffer[spec.key()] = result
            self.peak_buffered = max(self.peak_buffered, len(buffer))
            while cursor < len(order) and (
                order[cursor] in buffer or order[cursor] in hits
            ):
                yield strip(take(order[cursor]))
                cursor += 1
        while cursor < len(order):
            key = order[cursor]
            if key not in buffer and key not in hits:
                raise ValidationError(
                    f"backend {self.backend.describe()!r} never returned "
                    f"a result for trial {key[:12]}..."
                )
            yield strip(take(key))
            cursor += 1

    def _fold_ledger(self, result: TrialResult) -> None:
        """Accumulate one distinct trial's rng.* draw counts (ledgered runs)."""
        if not self.rng_ledger:
            return
        for name, value in result.items():
            if name.startswith(RNG_KEY_PREFIX):
                stream = name[len(RNG_KEY_PREFIX) :]
                self.rng_draws[stream] = (
                    self.rng_draws.get(stream, 0) + int(value)
                )

    def execution_record(self) -> Optional[Dict[str, object]]:
        """Backend execution provenance, or ``None`` for unsharded runs.

        Only sharded backends produce a record (shard ids, attempts,
        executed-vs-cached per shard), so serial provenance JSON stays
        byte-identical to earlier builds.
        """
        records = self.backend.shard_records()
        if not records:
            return None
        return {
            "backend": self.backend.name,
            "workers": self.backend.workers,
            "shards": [record.to_json() for record in records],
        }

    # -- aggregation ---------------------------------------------------------------

    @staticmethod
    def aggregate(
        results: Sequence[TrialResult], metric: str
    ) -> OnlineStats:
        """Fold one metric of ordered trial results into OnlineStats.

        Folding happens in sequence order, so the mean is exactly the
        value a serial loop over the same trials would have produced.
        """
        stats = OnlineStats()
        for result in results:
            stats.add(result[metric])
        return stats


# -- sweep specification ------------------------------------------------------------


def parse_sweep(text: str) -> Tuple[str, List[SweepValue]]:
    """Parse one ``--sweep`` argument: ``"key=v1,v2,..."``.

    Values are coerced to int when they look like ints, float when they
    look like floats, and kept as strings otherwise (topology names).
    """
    key, sep, rest = text.partition("=")
    key = key.strip()
    if not sep or not key or not rest.strip():
        raise ValidationError(
            f"sweep spec must look like 'key=v1,v2,...', got {text!r}"
        )
    values: List[SweepValue] = []
    for raw in rest.split(","):
        raw = raw.strip()
        if not raw:
            continue
        try:
            values.append(int(raw))
            continue
        except ValueError:
            pass
        try:
            values.append(float(raw))
            continue
        except ValueError:
            pass
        values.append(raw)
    if not values:
        raise ValidationError(f"sweep spec {text!r} has no values")
    return key, values


def parse_sweeps(texts: Sequence[str]) -> Dict[str, List[SweepValue]]:
    """Parse repeated ``--sweep`` arguments into an ordered mapping."""
    sweeps: Dict[str, List[SweepValue]] = {}
    for text in texts:
        key, values = parse_sweep(text)
        if key in sweeps:
            raise ValidationError(f"duplicate sweep key {key!r}")
        sweeps[key] = values
    return sweeps
