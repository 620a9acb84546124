"""Vector clocks: the happens-before partial order for the KV layer.

A :class:`VectorClock` is a compact map of per-replica event counters —
only non-zero entries are stored, so clocks stay small in systems where
most processes never write.  Clocks are immutable: :meth:`advance` and
:meth:`merge` return new instances, which lets a write carry its stamp
forever without defensive copies.

The comparison surface implements the classic partial order: ``a``
happens-before ``b`` iff ``a``'s counters are elementwise ``<=`` ``b``'s
and the clocks differ; incomparable clocks are *concurrent*.  The JSON
encoding round-trips losslessly (string keys, sorted) so clocks can
travel through campaign payloads and result stores.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.errors import ValidationError
from repro.types import ProcessId
from repro.util.validation import check_non_negative_int

__all__ = ["VectorClock"]


def _validated(counts: Mapping[ProcessId, int]) -> Dict[ProcessId, int]:
    out: Dict[ProcessId, int] = {}
    for pid, count in counts.items():
        # never int(): 2.7 or True must be refused, not truncated
        check_non_negative_int(pid, "clock entry pid")
        check_non_negative_int(count, f"clock counter for pid {pid}")
        if count:  # zero entries are the implicit default — keep clocks compact
            out[pid] = count
    return out


class VectorClock:
    """Immutable per-replica event counters with happens-before ordering."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Mapping[ProcessId, int]] = None) -> None:
        self._counts = _validated(counts) if counts else {}

    # -- accessors ---------------------------------------------------------------

    def counter(self, pid: ProcessId) -> int:
        """The event count recorded for ``pid`` (0 when absent)."""
        return self._counts.get(pid, 0)

    def items(self) -> Tuple[Tuple[ProcessId, int], ...]:
        """The non-zero entries, ascending by pid."""
        return tuple(sorted(self._counts.items()))

    def total(self) -> int:
        """Sum of all counters — the number of writes this clock has seen.

        Strictly monotone along happens-before (``a < b`` implies
        ``a.total() < b.total()``), which makes ``(total, writer)`` a
        deterministic total order extending causality: the LWW tie-break.
        """
        return sum(self._counts.values())

    def __len__(self) -> int:
        return len(self._counts)

    # -- evolution ---------------------------------------------------------------

    def advance(self, pid: ProcessId) -> "VectorClock":
        """A new clock with ``pid``'s counter incremented by one."""
        check_non_negative_int(pid, "clock entry pid")
        counts = dict(self._counts)
        counts[pid] = counts.get(pid, 0) + 1
        clock = VectorClock.__new__(VectorClock)
        clock._counts = counts
        return clock

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Elementwise maximum — the least upper bound of the two clocks."""
        counts = dict(self._counts)
        for pid, count in other._counts.items():
            if count > counts.get(pid, 0):
                counts[pid] = count
        clock = VectorClock.__new__(VectorClock)
        clock._counts = counts
        return clock

    # -- ordering ----------------------------------------------------------------

    def dominated_by(self, other: "VectorClock") -> bool:
        """Elementwise ``self <= other``."""
        return all(
            count <= other._counts.get(pid, 0)
            for pid, count in self._counts.items()
        )

    def compare(self, other: "VectorClock") -> Optional[int]:
        """-1 / 0 / +1 for before / equal / after; None when concurrent."""
        if self._counts == other._counts:
            return 0
        if self.dominated_by(other):
            return -1
        if other.dominated_by(self):
            return 1
        return None

    def waits_for(
        self, writer: ProcessId, local: "VectorClock"
    ) -> Optional[Tuple[ProcessId, int]]:
        """Causal deliverability of a write stamped ``self`` by ``writer``.

        ``None`` when a replica at ``local`` may apply it: the writer's
        entry is the next in sequence and no other entry is ahead of
        ``local``.  Otherwise one entry ``(pid, count)`` that ``local``
        has to reach first (the writer's own, tested first, else the
        first found in dict order) — enough to index a hold-back buffer,
        because an applied write moves one local entry by exactly one.
        Unvalidated, like :meth:`counter`: both clocks are already valid.
        """
        mine, theirs = self._counts, local._counts
        previous = mine.get(writer, 0) - 1
        if previous != theirs.get(writer, 0):
            return (writer, previous)
        for pid, count in mine.items():
            if count > theirs.get(pid, 0) and pid != writer:
                return (pid, count)
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self.items())

    def __repr__(self) -> str:
        inner = ", ".join(f"{pid}: {count}" for pid, count in self.items())
        return f"VectorClock({{{inner}}})"

    # -- serialisation -----------------------------------------------------------

    def to_json(self) -> Dict[str, int]:
        """JSON-able encoding: string pids, sorted, non-zero entries only."""
        return {str(pid): count for pid, count in self.items()}

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "VectorClock":
        if not isinstance(payload, Mapping):
            raise ValidationError(
                f"vector clock JSON must be an object, got {type(payload).__name__}"
            )
        counts: Dict[ProcessId, Any] = {}  # counters: the constructor validates
        for key, value in payload.items():
            try:
                pid = int(key)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"vector clock key {key!r} is not a process id"
                ) from None
            counts[pid] = value
        return cls(counts)

    @classmethod
    def of(cls, entries: Iterable[Tuple[ProcessId, int]]) -> "VectorClock":
        return cls(dict(entries))
