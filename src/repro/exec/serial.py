"""In-process serial execution — the reference backend.

Every other backend is gated against this one: whatever a backend
yields, the campaign's submission-order aggregation must reproduce the
serial output bit for bit.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.exec.backend import ExecutionBackend
from repro.experiments.campaign import TrialResult, TrialSpec, execute_spec
from repro.util.cache import TrialCache


def execute_and_cache(
    spec: TrialSpec, cache: Optional[TrialCache]
) -> TrialResult:
    """Run one trial and persist it before anyone downstream sees it.

    The only code that writes a fresh result to the trial cache: the
    serial backend and every shard worker call it, and the campaign
    never writes.
    """
    result = execute_spec(spec)
    if cache is not None:
        cache.put(
            spec.key(), result, context={"fn": spec.fn, "params": spec.kwargs()}
        )
    return result


class SerialBackend(ExecutionBackend):
    """Runs every trial in the calling process, in submission order."""

    name = "serial"

    def submit(
        self, specs: Sequence[TrialSpec]
    ) -> Iterator[Tuple[TrialSpec, TrialResult]]:
        for spec in specs:
            yield spec, execute_and_cache(spec, self.cache)
