"""Work-stealing shard queue with worker-loss recovery.

The backend models a small fleet: specs are partitioned into
*content-keyed shards* (partition index derived from each spec's cache
key, so the same spec set shards identically regardless of submission
order), shards are dealt round-robin onto per-worker deques, and an
idle worker that drains its own deque *steals from the tail* of the
busiest sibling.  Shard execution happens in spawn-context worker
processes (or inline, when only one slot would run and in
deterministic tests).  This is the only parallel backend: the
``process[:N]`` spec string is another spelling of ``shard[:N]``.

Worker loss is simulated, not suffered: a fault-injection hook — keyed
by ``(shard id, attempt)`` so it is independent of timing and worker
placement — tells a shard to die after completing ``k`` trials.  A
died shard reports **no results** (exactly-once yield contract) and is
requeued on its slot's deque for another attempt.  Because workers
persist every finished trial to the shared
:class:`~repro.util.cache.TrialCache` as they go, the retry recovers
the dead worker's completed trials as cache hits instead of recomputing
them; without a cache nothing is lost either — the retry simply pays
the compute again.

None of this affects output: the campaign reorders the streamed pairs
into submission order, so any steal schedule, shard count, or fault
plan is bit-identical to serial execution.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ValidationError
from repro.exec.backend import ExecutionBackend, ShardRecord
from repro.exec.serial import execute_and_cache
from repro.experiments.campaign import TrialResult, TrialSpec, cached_result
from repro.util.cache import TrialCache
from repro.util.validation import check_positive_int

#: Environment variable carrying a :class:`FaultPlan` string — lets CI
#: smoke jobs kill workers without touching the Python surface.
FAULTS_ENV = "REPRO_EXEC_FAULTS"

#: Attempts after which the fault injector is no longer consulted, so a
#: plan that always answers cannot stall a campaign forever.
MAX_FAULT_ATTEMPTS = 5

#: Fault injector contract: ``(shard id, attempt) -> completed count``
#: before the worker dies, or ``None`` to let the attempt finish.
FaultInjector = Callable[[int, int], Optional[int]]

#: One shard of work: ``(shard id, specs)``.
_Shard = Tuple[int, List[TrialSpec]]


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic worker-loss schedule.

    Each entry is ``(shard, attempt, completed)``: when the given shard
    runs its given attempt (1-based), the worker dies after completing
    ``completed`` trials.  ``completed >= len(shard)`` models a worker
    that finished but died before reporting.  Keying on shard identity
    rather than worker slot keeps the plan timing-independent even
    under a real process pool.
    """

    deaths: Tuple[Tuple[int, int, int], ...]

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse ``"shard:attempt:completed[;...]"`` (the env-var form)."""
        deaths = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) != 3:
                raise ValidationError(
                    "fault plan entries look like 'shard:attempt:completed'"
                    f", got {chunk!r}"
                )
            try:
                shard, attempt, completed = (int(part) for part in parts)
            except ValueError:
                raise ValidationError(
                    f"fault plan entry {chunk!r} has non-integer fields"
                ) from None
            deaths.append((shard, attempt, completed))
        return cls(deaths=tuple(deaths))

    def __call__(self, shard: int, attempt: int) -> Optional[int]:
        for dead_shard, dead_attempt, completed in self.deaths:
            if dead_shard == shard and dead_attempt == attempt:
                return completed
        return None


def _run_shard(
    specs: List[TrialSpec],
    cache_dir: Optional[str],
    die_after: Optional[int],
) -> Tuple[List[Tuple[TrialSpec, TrialResult]], int, int, bool]:
    """Worker body: run one shard, returning ``(pairs, executed, cached, died)``.

    The cache travels as a directory path (a :class:`TrialCache` is just
    a directory handle, but re-opening it here keeps the argument list
    trivially picklable).  Fresh results are persisted *inside the
    worker*, before the shard reports back — that write-through is what
    lets a retry of a died shard find its predecessor's work.
    """
    cache = TrialCache(cache_dir) if cache_dir is not None else None
    pairs: List[Tuple[TrialSpec, TrialResult]] = []
    executed = 0
    cached = 0
    for index, spec in enumerate(specs):
        if die_after is not None and index >= die_after:
            return [], executed, cached, True
        hit = cached_result(cache, spec, spec.key())
        if hit is not None:
            pairs.append((spec, hit))
            cached += 1
            continue
        pairs.append((spec, execute_and_cache(spec, cache)))
        executed += 1
    if die_after is not None:
        # finished the shard but died before reporting: the work
        # survives only through the cache write-through above
        return [], executed, cached, True
    return pairs, executed, cached, False


class _InlineExecutor:
    """Executor double that runs submissions eagerly in-process.

    Used when only one slot would run and for tests that need deterministic,
    subprocess-free scheduling; the scheduler code is identical either
    way because :func:`concurrent.futures.wait` accepts plain futures.
    """

    def submit(self, fn: Callable, *args: object) -> "Future":
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


class ShardQueueBackend(ExecutionBackend):
    """Content-keyed shards on work-stealing deques, with retry on loss.

    Args:
        workers: logical worker count (default: CPU count).
        shards: partition count (default ``workers * 4`` — small shards
            keep steals cheap and bound the work lost to a death).
        cache: shared trial cache; also settable by the campaign.
        fault_injector: test hook, ``(shard, attempt) -> completed`` or
            ``None``; defaults to the :data:`FAULTS_ENV` plan if set.
        inline: run shards in-process instead of spawning workers
            (default: decided per batch — inline when only one slot
            would run, so a one-spec batch never starts a pool).
    """

    name = "shard"

    def __init__(
        self,
        workers: Optional[int] = None,
        shards: Optional[int] = None,
        cache: Optional[TrialCache] = None,
        fault_injector: Optional[FaultInjector] = None,
        inline: Optional[bool] = None,
    ) -> None:
        super().__init__()
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = check_positive_int(workers, "workers")
        if shards is not None:
            check_positive_int(shards, "shards")
        self.shards = shards
        self.cache = cache
        self.fault_injector = fault_injector
        self.inline = inline
        self._records: List[ShardRecord] = []

    def describe(self) -> str:
        if self.shards is None:
            return super().describe()
        return f"{self.name}:{self.workers}:{self.shards}"

    def shard_records(self) -> List[ShardRecord]:
        """Shard provenance, accumulated across every submitted batch."""
        return list(self._records)

    def _resolve_injector(self) -> Optional[FaultInjector]:
        if self.fault_injector is not None:
            return self.fault_injector
        text = os.environ.get(FAULTS_ENV)
        if text:
            return FaultPlan.parse(text)
        return None

    def _partition(self, specs: Sequence[TrialSpec]) -> List[_Shard]:
        """Split specs into content-keyed shards (empty shards dropped).

        The partition index comes from each spec's cache key, so the
        same spec set lands in the same shards no matter how the batch
        was ordered or which host runs it.
        """
        count = self.shards if self.shards is not None else self.workers * 4
        count = max(1, min(count, len(specs)))
        buckets: List[List[TrialSpec]] = [[] for _ in range(count)]
        for spec in specs:
            buckets[int(spec.key()[:16], 16) % count].append(spec)
        return [
            (index, bucket)
            for index, bucket in enumerate(buckets)
            if bucket
        ]

    def submit(
        self, specs: Sequence[TrialSpec]
    ) -> Iterator[Tuple[TrialSpec, TrialResult]]:
        if not specs:
            return
        injector = self._resolve_injector()
        shards = self._partition(specs)
        slots = max(1, min(self.workers, len(shards)))
        queues: List[Deque[_Shard]] = [deque() for _ in range(slots)]
        for index, shard in enumerate(shards):
            queues[index % slots].append(shard)
        attempts: Dict[int, int] = {}
        stats: Dict[int, Dict[str, int]] = {}
        cache_dir = self.cache.directory if self.cache is not None else None
        inline = slots == 1 if self.inline is None else self.inline
        if inline:
            executor = _InlineExecutor()
        else:
            executor = ProcessPoolExecutor(
                max_workers=slots,
                mp_context=multiprocessing.get_context("spawn"),
            )
        running: Dict[Future, Tuple[int, _Shard]] = {}

        def next_shard(slot: int) -> Optional[_Shard]:
            if queues[slot]:
                return queues[slot].popleft()
            # steal from the tail of the longest sibling queue; max()
            # keeps the first (lowest-index) maximum, so victim choice
            # is deterministic for a given queue state
            victim = max(range(slots), key=lambda index: len(queues[index]))
            if queues[victim]:
                return queues[victim].pop()
            return None

        def dispatch(slot: int) -> None:
            shard = next_shard(slot)
            if shard is None:
                return
            shard_id, shard_specs = shard
            attempts[shard_id] = attempts.get(shard_id, 0) + 1
            die_after = None
            if injector is not None and attempts[shard_id] <= MAX_FAULT_ATTEMPTS:
                die_after = injector(shard_id, attempts[shard_id])
            future = executor.submit(
                _run_shard, shard_specs, cache_dir, die_after
            )
            running[future] = (slot, shard)

        try:
            for slot in range(slots):
                dispatch(slot)
            while running:
                done, _ = wait(set(running), return_when=FIRST_COMPLETED)
                for future in done:
                    slot, shard = running.pop(future)
                    shard_id = shard[0]
                    pairs, executed, cached, died = future.result()
                    entry = stats.setdefault(
                        shard_id, {"executed": 0, "cached": 0}
                    )
                    # fresh computation is real cost even on a died
                    # attempt; cache hits only count when delivered
                    entry["executed"] += executed
                    if died:
                        queues[slot].append(shard)
                    else:
                        entry["cached"] += cached
                        for pair in pairs:
                            yield pair
                    dispatch(slot)
        finally:
            executor.shutdown(wait=True)
        self._records.extend(
            ShardRecord(
                shard=shard_id,
                attempts=attempts[shard_id],
                executed=stats[shard_id]["executed"],
                cached=stats[shard_id]["cached"],
            )
            for shard_id in sorted(attempts)
        )
