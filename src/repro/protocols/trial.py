"""One trial's lifecycle: deploy a protocol into a network, run it, free it.

Every experiment in the repo is this one run repeated, and every runner
goes through :class:`Trial`::

    with Trial(network, "gossip", k_target=0.99) as t:
        t.network.start()
        t.sim.schedule(0.0, lambda: t.issue(lambda: t.nodes[0].broadcast("m")))
        t.sim.run(until=10.0)
    print(t.delivery_ratio(), t.network.stats.sent())

The caller schedules its workload and starts the network in the order
its goldens pin (same-time events run in scheduling order).  On exit,
whether the run returned or raised, the trial closes every attached
observer and then the network, which cuts the run's reference cycles.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Union

from repro.errors import UnreachableTargetError
from repro.protocols.registry import DeployContext, ProtocolSpec, resolve_protocol
from repro.sim.monitors import BroadcastMonitor
from repro.sim.network import Network
from repro.util.rng import RandomSource

__all__ = ["Trial"]


class Trial:
    """A protocol deployed through the registry into a built network.

    Exposes ``network``, ``sim``, ``protocol`` (the resolved spec),
    ``monitor`` (the delivery monitor every node reports to), ``nodes``,
    ``mids`` (the ids :meth:`issue` recorded) and ``refused``.
    """

    def __init__(
        self,
        network: Network,
        protocol: Union[str, ProtocolSpec],
        k_target: float,
        params: Optional[object] = None,
        rng: Optional[RandomSource] = None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.protocol = resolve_protocol(protocol)
        self.monitor = BroadcastMonitor(network.graph.n)
        self.nodes: List = self.protocol.deploy(
            DeployContext(network, self.monitor, k_target, rng=rng, params=params)
        )
        self.mids: List[Optional[Hashable]] = []
        self.refused = 0
        self._observers: List = []

    def attach(self, observer):
        """Have the trial close ``observer`` (before the network) on exit."""
        self._observers.append(observer)
        return observer

    def issue(self, send: Callable[[], Hashable]) -> Optional[Hashable]:
        """Run ``send()`` and record the broadcast id it returns.

        A planning protocol (``plans`` flag) may find the target ``K``
        unattainable, e.g. the oracle mid-partition: the broadcast is
        refused, counted in ``refused`` and recorded as ``None``, an id
        the monitor never sees, so it scores a delivery ratio of 0.
        """
        try:
            mid = send()
        except UnreachableTargetError:
            if not self.protocol.plans:
                raise
            self.refused += 1
            mid = None
        self.mids.append(mid)
        return mid

    def delivery_ratio(self) -> float:
        """Mean final delivery ratio over the issued broadcasts."""
        ratios = [self.monitor.delivery_ratio(mid) for mid in self.mids]
        return sum(ratios) / len(ratios) if ratios else 0.0

    def __enter__(self) -> "Trial":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            for observer in self._observers:
                observer.close()
        finally:
            self.network.close()
