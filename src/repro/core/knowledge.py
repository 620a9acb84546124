"""Shared pieces of the knowledge-approximation activity (Algorithm 4).

Each process ``p_k`` maintains an approximated topology ``Lambda_k`` and
configuration ``C_k`` and reacts to the paper's four events: a received
heartbeat (Event 1), a staleness sweep (Event 2) and its own up and down
ticks (Events 3 and 4).  :class:`repro.core.viewtable.VectorView` runs
those events; this module holds what it shares with every caller that
configures or queries a view: the tunables
(:class:`KnowledgeParameters`) and the process-id check.

The literal object-per-estimate transcription of Algorithm 4 is kept
with the tests, as the reference ``VectorView`` is differential-tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bayesian import DEFAULT_INTERVALS
from repro.errors import UnknownProcessError
from repro.types import ProcessId
from repro.util.validation import check_positive, check_positive_int


def check_process(p: ProcessId, n: int) -> ProcessId:
    """``p``, or UnknownProcessError (a KeyError) unless ``0 <= p < n``."""
    if isinstance(p, bool) or not 0 <= p < n:
        raise UnknownProcessError(f"process {p!r} not in 0..{n - 1}")
    return p


@dataclass(frozen=True)
class KnowledgeParameters:
    """Tunables of the approximation activity.

    Attributes:
        delta: heartbeat period (the paper's ``delta``; also the initial
            per-neighbour suspicion timeout, Algorithm 4 line 7).
        intervals: Bayesian interval count ``U`` (paper: 100).
        tick: the ``delta_tick`` of Events 3/4 (self-reliability ticks).
    """

    delta: float = 1.0
    intervals: int = DEFAULT_INTERVALS
    tick: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.delta, "delta")
        check_positive_int(self.intervals, "intervals")
        check_positive(self.tick, "tick")
