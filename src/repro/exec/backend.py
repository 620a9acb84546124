"""The execution-backend contract shared by every campaign runner.

A backend is a strategy for turning a batch of :class:`TrialSpec` into
``(spec, result)`` pairs.  The contract is deliberately small:

* :meth:`ExecutionBackend.submit` receives the *pending* specs (the
  campaign has already deduplicated them and filtered cache hits) and
  returns an iterator that yields each submitted spec **exactly once**,
  in whatever order trials happen to complete;
* the campaign — not the backend — restores submission order, so a
  backend is free to fan out, steal work, or retry failed workers
  without ever affecting the aggregate output;
* :attr:`ExecutionBackend.cache` is the shared
  :class:`~repro.util.cache.TrialCache` (or ``None``); a backend that
  has one persists each fresh result *before* yielding it, and is the
  only writer — the campaign reads the cache but never writes it.
  Backends that run workers out-of-process pass the cache *directory*
  down so workers persist finished trials themselves and a retried
  shard recovers its predecessor's work instead of recomputing it.

Backends that partition work additionally report
:class:`ShardRecord` entries through :meth:`ExecutionBackend.shard_records`
so per-shard attempts and executed-vs-cached counts can land in result
provenance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.experiments.campaign import TrialResult, TrialSpec
from repro.util.cache import TrialCache


@dataclass(frozen=True)
class ShardRecord:
    """Per-shard execution provenance from a sharded backend.

    Attributes:
        shard: shard id within its submitted batch (content-keyed
            partition index, stable across runs of the same spec set).
        attempts: how many times the shard was dispatched; ``> 1``
            means a worker died mid-shard and the shard was retried.
        executed: trials computed fresh across *all* attempts (so a
            death after ``k`` uncached trials contributes ``k`` here
            even though the successful attempt recovered them from the
            cache).
        cached: trials the successful attempt served from the shared
            trial cache.
    """

    shard: int
    attempts: int
    executed: int
    cached: int


class ExecutionBackend(ABC):
    """Strategy for executing a batch of campaign trial specs.

    Attributes:
        name: short registry name (``"serial"``, ``"shard"``).
        workers: logical worker count the backend fans out to.
        cache: shared :class:`TrialCache`; the campaign wires its own
            cache in before submitting, and spec strings may attach one
            via the ``+cache[=DIR]`` suffix.
    """

    name: str = "backend"

    def __init__(self) -> None:
        self.workers: int = 1
        self.cache: Optional[TrialCache] = None

    @abstractmethod
    def submit(
        self, specs: Sequence[TrialSpec]
    ) -> Iterator[Tuple[TrialSpec, TrialResult]]:
        """Execute ``specs``, yielding each exactly once as it completes.

        Completion order is unconstrained; callers reorder.  With a
        :attr:`cache`, every freshly computed result is on disk before
        it is yielded.  Raising from a trial function propagates to the
        consumer.
        """

    def describe(self) -> str:
        """The backend in spec-string form (``"shard:4"``)."""
        if self.workers == 1:
            return self.name
        return f"{self.name}:{self.workers}"

    def shard_records(self) -> List[ShardRecord]:
        """Per-shard provenance accumulated so far (empty if unsharded)."""
        return []
