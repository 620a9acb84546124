"""``Trial``: the refusal policy of ``issue`` and the close order on exit."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError, UnreachableTargetError
from repro.protocols.trial import Trial
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from repro.util.rng import RandomSource

N = 8


def network() -> Network:
    config = Configuration.reliable(k_regular(N, 2))
    return Network(Simulator(), config, RandomSource("trial-test"))


def refuse():
    raise UnreachableTargetError("K unattainable")


def test_a_planning_protocol_refusal_is_counted_and_scores_zero():
    with Trial(network(), "optimal", 0.99) as t:
        t.network.start()
        delivered = t.issue(lambda: t.nodes[0].broadcast("m"))
        assert t.issue(refuse) is None
        t.sim.run(until=10.0)
    assert t.protocol.plans
    assert t.mids == [delivered, None]
    assert t.refused == 1
    assert t.monitor.fully_delivered(delivered)
    assert t.delivery_ratio() == 0.5


def test_a_non_planning_protocol_refusal_propagates():
    with Trial(network(), "gossip", 0.99) as t:
        assert not t.protocol.plans
        with pytest.raises(UnreachableTargetError):
            t.issue(refuse)
    assert t.mids == []
    assert t.refused == 0
    assert t.delivery_ratio() == 0.0


class Boom(Exception):
    pass


def test_exit_closes_observers_then_the_network_also_when_the_run_raises():
    seen = []

    class Observer:
        def close(self):
            # the network is still open while its observers close
            seen.append(len(t.network.processes))

    with pytest.raises(Boom):
        with Trial(network(), "flooding", 0.99) as t:
            first, second = Observer(), Observer()
            assert t.attach(first) is first
            t.attach(second)
            raise Boom
    assert seen == [N, N]
    assert t.network.processes == []
    with pytest.raises(SimulationError):
        t.network.start()
