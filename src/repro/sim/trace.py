"""Message accounting and optional transmission tracing.

Every experiment in the paper is scored in *messages*: Figure 4 compares
data-message counts, Figure 5/6 count heartbeats per link.  The
:class:`MessageStats` collector therefore tracks counts per category
(data / ack / heartbeat / control) and per link, distinguishing attempted,
lost and delivered transmissions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.types import Link, LinkKey, ProcessId


class MessageCategory(enum.Enum):
    """Classification of simulated messages for accounting."""

    DATA = "data"
    ACK = "ack"
    HEARTBEAT = "heartbeat"
    CONTROL = "control"

    # C identity hash (Enum's is Python code, run on every record())
    __hash__ = object.__hash__


class DropReason(enum.Enum):
    """Why a transmission failed."""

    SENDER_CRASH = "sender_crash"
    LINK_LOSS = "link_loss"
    RECEIVER_CRASH = "receiver_crash"

    __hash__ = object.__hash__


@dataclass(frozen=True)
class TransmissionRecord:
    """One attempted transmission (only recorded when tracing is enabled)."""

    time: float
    sender: ProcessId
    receiver: ProcessId
    category: MessageCategory
    delivered: bool
    drop_reason: Optional[DropReason]


class MessageStats:
    """Counters for sent / lost / delivered messages.

    *Sent* counts every transmission attempt — a message dropped because
    the sender executed a crashed step still consumed a send step, matching
    the cost function ``c(m) = sum(m_j)`` of Eq. (3) which counts messages
    *sent*, not messages delivered.
    """

    __slots__ = (
        "_sent",
        "_delivered",
        "_dropped",
        "_per_link_sent",
        "_trace_enabled",
        "_records",
    )

    def __init__(self, trace: bool = False) -> None:
        self._sent: Dict[MessageCategory, int] = {c: 0 for c in MessageCategory}
        self._delivered: Dict[MessageCategory, int] = {c: 0 for c in MessageCategory}
        self._dropped: Dict[DropReason, int] = {r: 0 for r in DropReason}
        # one per-link map per category, so protocol overhead (CONTROL,
        # HEARTBEAT) is attributable separately from DATA replication
        # traffic; keyed by the raw canonical (u, v) tuple — Link is
        # itself a tuple so lookups by Link hit the same entries, and the
        # public accessors rebuild Link keys — the hot recording path
        # just avoids one NamedTuple allocation per transmission
        self._per_link_sent: Dict[MessageCategory, Dict[LinkKey, int]] = {
            c: {} for c in MessageCategory
        }
        self._trace_enabled = trace
        self._records: List[TransmissionRecord] = []

    # -- recording ---------------------------------------------------------------

    def record(
        self,
        time: float,
        sender: ProcessId,
        receiver: ProcessId,
        category: MessageCategory,
        delivered: bool,
        drop_reason: Optional[DropReason] = None,
    ) -> None:
        self._sent[category] += 1
        if sender < receiver:
            link = (sender, receiver)
        elif receiver < sender:
            link = (receiver, sender)
        else:
            raise ValueError(f"self-link at process {sender} is not allowed")
        per_link = self._per_link_sent[category]
        per_link[link] = per_link.get(link, 0) + 1
        if delivered:
            self._delivered[category] += 1
        elif drop_reason is not None:
            self._dropped[drop_reason] += 1
        if self._trace_enabled:
            self._records.append(
                TransmissionRecord(time, sender, receiver, category, delivered, drop_reason)
            )

    # -- queries -----------------------------------------------------------------

    def sent(self, category: Optional[MessageCategory] = None) -> int:
        """Messages sent, in one category or in total."""
        if category is None:
            return sum(self._sent.values())
        return self._sent[category]

    def delivered(self, category: Optional[MessageCategory] = None) -> int:
        if category is None:
            return sum(self._delivered.values())
        return self._delivered[category]

    def dropped(self, reason: Optional[DropReason] = None) -> int:
        if reason is None:
            return sum(self._dropped.values())
        return self._dropped[reason]

    def sent_on(
        self, link: Link, category: Optional[MessageCategory] = None
    ) -> int:
        """Messages sent across one link (either direction).

        ``category`` narrows the count to one traffic class; the default
        sums every category, bit-identical to the pre-split aggregate.
        """
        key = Link.of(*link)
        if category is not None:
            return self._per_link_sent[category].get(key, 0)
        return sum(
            per_link.get(key, 0) for per_link in self._per_link_sent.values()
        )

    def per_link_sent(
        self, category: Optional[MessageCategory] = None
    ) -> Dict[Link, int]:
        """Per-link send counts, for one category or summed over all."""
        if category is not None:
            return {
                Link(*key): count
                for key, count in self._per_link_sent[category].items()
            }
        merged: Dict[LinkKey, int] = {}
        for per_link in self._per_link_sent.values():
            for key, count in per_link.items():
                merged[key] = merged.get(key, 0) + count
        return {Link(*key): count for key, count in merged.items()}

    def messages_per_link(
        self, link_count: int, category: Optional[MessageCategory] = None
    ) -> float:
        """Average messages per link — the y-axis of Figures 5 and 6."""
        if link_count <= 0:
            raise ValueError("link_count must be positive")
        return self.sent(category) / link_count

    @property
    def records(self) -> List[TransmissionRecord]:
        return self._records

    def snapshot(self) -> Dict[str, int]:
        """Flat dict summary, convenient for reports."""
        out: Dict[str, int] = {}
        for cat in MessageCategory:
            out[f"sent_{cat.value}"] = self._sent[cat]
            out[f"delivered_{cat.value}"] = self._delivered[cat]
        for reason in DropReason:
            out[f"dropped_{reason.value}"] = self._dropped[reason]
        out["sent_total"] = self.sent()
        out["delivered_total"] = self.delivered()
        return out
