"""Lossy-link transmission model.

Each link drops a requested transmission independently with its configured
loss probability ``L_x`` (Section 2.1).  Latency is configurable but plays
no role in the paper's metrics (all results are message counts); the
default small constant latency merely sequences deliveries after sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import UnknownLinkError
from repro.topology.configuration import Configuration
from repro.types import Link, ProcessId
from repro.util.rng import BufferedUniforms, RandomSource, StreamBatch
from repro.util.validation import check_non_negative

#: One cached directed-pair entry: (loss probability, buffered stream or
#: None when the loss is degenerate and no draw is ever needed).
_LinkEntry = Tuple[float, Optional[BufferedUniforms]]


@dataclass(frozen=True)
class LatencyModel:
    """Per-hop latency: ``base + jitter * U[0,1)`` time units."""

    base: float = 0.1
    jitter: float = 0.0

    def __post_init__(self) -> None:
        # deliveries are pushed at now + latency unchecked
        check_non_negative(self.base, "latency base")
        check_non_negative(self.jitter, "latency jitter")

    def sample(self, rng: RandomSource) -> float:
        if self.jitter == 0.0:
            return self.base
        return self.base + self.jitter * rng.random()


class LossyLinkLayer:
    """Draws per-transmission loss outcomes from per-link streams.

    One random stream per link keeps outcomes independent of the order in
    which other links transmit; the first lossy transmission seeds them all
    in one :class:`StreamBatch`, bit for bit the ``child("loss", idx)`` streams.

    Hot-path layout: the first transmission over a directed pair
    validates the link and materialises a ``(loss, draw)`` entry under
    both ``(u, v)`` and ``(v, u)``; later transmissions are one dict hit
    plus one buffered draw.  Both directions share the *same* buffered
    stream (keyed by the undirected link id), exactly as the unbuffered
    per-link streams always did, and the configuration behind the cached
    loss probabilities is immutable — reconfiguration builds a fresh
    layer.
    """

    __slots__ = ("_config", "_graph", "_root", "_cache", "_loss_streams")

    def __init__(self, config: Configuration, rng: RandomSource) -> None:
        self._config = config
        self._graph = config.graph
        self._root = rng.child("link-layer")
        self._cache: Dict[Tuple[ProcessId, ProcessId], _LinkEntry] = {}
        self._loss_streams: Optional[StreamBatch] = None

    def _materialize(
        self, sender: ProcessId, receiver: ProcessId
    ) -> _LinkEntry:
        """Validate one directed pair and cache its (loss, draw) entry."""
        if not self._graph.has_link(sender, receiver):
            raise UnknownLinkError(
                f"no link between {sender} and {receiver}"
            )
        idx = self._graph.link_id(Link.of(sender, receiver))
        loss = float(self._config.loss_vector[idx])
        draw = None
        if 0.0 < loss < 1.0:
            if self._loss_streams is None:
                losses = enumerate(self._config.loss_vector.tolist())
                lossy = [i for i, p in losses if 0.0 < p < 1.0]
                self._loss_streams = StreamBatch(self._root, "loss", lossy)
            draw = self._loss_streams.buffered(idx)
        entry = (loss, draw)
        self._cache[(sender, receiver)] = entry
        self._cache[(receiver, sender)] = entry
        return entry

    def loss_probability(self, link: Link) -> float:
        return self._config.loss_probability(link)

    def transmit(self, sender: ProcessId, receiver: ProcessId) -> bool:
        """Whether one transmission across (sender, receiver) survives the link.

        Raises:
            UnknownLinkError: if the processes are not neighbours.
        """
        entry = self._cache.get((sender, receiver))
        if entry is None:
            entry = self._materialize(sender, receiver)
        loss, draw = entry
        if draw is not None:
            return draw.next() >= loss
        return loss <= 0.0
