"""Failure configurations — the ``C`` of the paper's probabilistic model.

A :class:`Configuration` assigns a crash probability ``P_i`` to every
process and a loss probability ``L_x`` to every link of a graph
(Section 2.1).  Configurations are immutable; deriving a perturbed
configuration returns a new object.

Section 5 evaluates with *uniform* configurations (all processes share
``P``, all links share ``L``) — the paper notes this choice "counts
against" the adaptive algorithm.  Heterogeneous builders are provided for
the motivating example (two-tier WAN/LAN) and ablations.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.topology.graph import Graph
from repro.types import Link, ProcessId
from repro.util.rng import RandomSource
from repro.util.validation import check_probability


def _set_crash(vec: np.ndarray, crash: Mapping[ProcessId, float]) -> np.ndarray:
    """``vec`` with each ``crash`` entry validated and written into it."""
    for p, value in crash.items():
        if not 0 <= p < len(vec):
            raise ConfigurationError(f"process {p} not in graph")
        vec[p] = check_probability(value, f"crash[{p}]")
    return vec


def _set_loss(vec: np.ndarray, graph: Graph, loss: Mapping[Link, float]) -> np.ndarray:
    """``vec`` with each ``loss`` entry validated and written into it."""
    for raw, value in loss.items():
        link = Link.of(*raw)
        try:
            idx = graph.link_id(link)
        except Exception as exc:
            raise ConfigurationError(f"link {link} not in graph") from exc
        vec[idx] = check_probability(value, f"loss[{link}]")
    return vec


class Configuration:
    """Immutable crash/loss probability assignment for a graph.

    Args:
        graph: the topology the probabilities refer to.
        crash: mapping ``process id -> P_i``; missing processes default to
            ``default_crash``.
        loss: mapping ``Link -> L_x``; missing links default to
            ``default_loss``.
        default_crash: fallback crash probability.
        default_loss: fallback loss probability.

    Raises:
        ConfigurationError: if a key refers to a process/link outside the
            graph, or a probability is invalid.
    """

    __slots__ = ("_graph", "_crash", "_loss")

    def __init__(
        self,
        graph: Graph,
        crash: Optional[Mapping[ProcessId, float]] = None,
        loss: Optional[Mapping[Link, float]] = None,
        default_crash: float = 0.0,
        default_loss: float = 0.0,
    ) -> None:
        check_probability(default_crash, "default_crash")
        check_probability(default_loss, "default_loss")
        crash_vec = _set_crash(np.full(graph.n, float(default_crash)), crash or {})
        loss_vec = np.full(graph.link_count, float(default_loss))
        self._graph = graph
        self._crash = crash_vec
        self._crash.setflags(write=False)
        self._loss = _set_loss(loss_vec, graph, loss or {})
        self._loss.setflags(write=False)

    def _derive(self, crash: np.ndarray, loss: np.ndarray) -> "Configuration":
        """This graph with validated vectors, without ``__init__``'s pass over
        every entry; an unchanged vector is shared (both are read-only)."""
        derived = object.__new__(Configuration)
        derived._graph, derived._crash, derived._loss = self._graph, crash, loss
        crash.setflags(write=False)
        loss.setflags(write=False)
        return derived

    # -- constructors -------------------------------------------------------------

    @classmethod
    def uniform(cls, graph: Graph, crash: float = 0.0, loss: float = 0.0) -> "Configuration":
        """All processes crash with ``crash``; all links lose with ``loss``.

        This is the configuration used throughout the paper's Section 5.
        """
        return cls(graph, default_crash=crash, default_loss=loss)

    @classmethod
    def reliable(cls, graph: Graph) -> "Configuration":
        """No crashes, no losses."""
        return cls(graph)

    @classmethod
    def random_uniform(
        cls,
        graph: Graph,
        rng: RandomSource,
        crash_range: Tuple[float, float] = (0.0, 0.05),
        loss_range: Tuple[float, float] = (0.0, 0.05),
    ) -> "Configuration":
        """Independent per-process / per-link probabilities drawn uniformly
        from the given ranges (heterogeneous environments, §7 future work).
        """
        c_lo, c_hi = crash_range
        l_lo, l_hi = loss_range
        check_probability(c_lo, "crash_range[0]")
        check_probability(c_hi, "crash_range[1]")
        check_probability(l_lo, "loss_range[0]")
        check_probability(l_hi, "loss_range[1]")
        if c_hi < c_lo or l_hi < l_lo:
            raise ConfigurationError("range upper bound below lower bound")
        crash_rng = rng.child("crash")
        loss_rng = rng.child("loss")
        crash = {
            p: c_lo + (c_hi - c_lo) * crash_rng.random() for p in graph.processes
        }
        loss = {
            link: l_lo + (l_hi - l_lo) * loss_rng.random() for link in graph.links
        }
        return cls(graph, crash=crash, loss=loss)

    # -- accessors ----------------------------------------------------------------

    @property
    def graph(self) -> Graph:
        return self._graph

    def crash_probability(self, p: ProcessId) -> float:
        """``P_i`` — the fraction of crashed steps of process ``p``."""
        if not 0 <= p < self._graph.n:
            raise ConfigurationError(f"process {p} not in graph")
        return float(self._crash[p])

    def loss_probability(self, link: Link) -> float:
        """``L_x`` — probability the link drops a requested transmission."""
        return float(self._loss[self._graph.link_id(Link.of(*link))])

    @property
    def crash_vector(self) -> np.ndarray:
        """Read-only vector of crash probabilities indexed by process id."""
        return self._crash

    @property
    def loss_vector(self) -> np.ndarray:
        """Read-only vector of loss probabilities indexed by link id."""
        return self._loss

    def link_weight(self, link: Link) -> float:
        """MRT edge weight ``(1-P_u)(1-L_uv)(1-P_v)`` (Algorithm 6, line 6)."""
        link = Link.of(*link)
        return (
            (1.0 - self.crash_probability(link.u))
            * (1.0 - self.loss_probability(link))
            * (1.0 - self.crash_probability(link.v))
        )

    # -- derivation ---------------------------------------------------------------

    def with_crash(self, updates: Mapping[ProcessId, float]) -> "Configuration":
        """New configuration with some crash probabilities replaced."""
        return self._derive(_set_crash(self._crash.copy(), updates), self._loss)

    def with_loss(self, updates: Mapping[Link, float]) -> "Configuration":
        """New configuration with some loss probabilities replaced."""
        # normalised first, so a later spelling of the same link wins
        loss = {Link.of(*raw): value for raw, value in updates.items()}
        loss_vec = _set_loss(self._loss.copy(), self._graph, loss)
        return self._derive(self._crash, loss_vec)

    # -- dunder -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return (
            self._graph == other._graph
            and bool(np.array_equal(self._crash, other._crash))
            and bool(np.array_equal(self._loss, other._loss))
        )

    def __repr__(self) -> str:
        return (
            f"Configuration(n={self._graph.n}, links={self._graph.link_count}, "
            f"P in [{self._crash.min():.3g},{self._crash.max():.3g}], "
            f"L in [{self._loss.min():.3g},{self._loss.max():.3g}])"
        )
