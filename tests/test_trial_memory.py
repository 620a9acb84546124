"""A finished trial frees itself: no trial runner leaves reference cycles.

Every trial builds a simulator, a network and one process per node, and
those objects reference each other.  The runners close the network when
the run ends (:meth:`repro.sim.network.Network.close`) and release the
observers that point back at what holds them, which cuts every cycle, so
reference counting frees a trial the moment it returns.  Were one cycle
left, the whole trial would stay in memory until the cyclic collector's
next full pass, and trials run back to back would pile up.

The check: run a trial once (module-level caches fill on first use),
then again with the cyclic collector off, then ask the collector what it
finds.  Anything it finds is garbage only a cycle kept alive.
"""

from __future__ import annotations

import pytest

import repro.api as api
from repro import cli
from repro.experiments import figure5
from repro.experiments.figure4 import measure_reference_once
from repro.experiments.figure5 import convergence_messages_per_link
from repro.experiments.runner import current_scale
from repro.kvstore.trial import run_kv_trial
from repro.kvstore.workload import KVWorkloadParams
from repro.protocols.registry import protocol_names
from repro.scenario.registry import build_scenario
from repro.scenario.trial import membership_trial_task, run_scenario_trial
from repro.sim.monitors import BroadcastMonitor
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular
from tests.conftest import cyclic_garbage, repro_types

QUICK = current_scale("quick")
WORKLOAD = KVWorkloadParams(ops=40)
PARTIAL_VIEW = ("gossip-pv", "flooding-pv", "adaptive-pv")


def assert_frees_itself(run) -> None:
    run()
    garbage = cyclic_garbage(run)
    assert repro_types(garbage) == []
    assert len(garbage) == 0


@pytest.mark.parametrize("protocol", protocol_names())
def test_scenario_trial(protocol):
    spec = build_scenario("partition-heal", QUICK)
    assert_frees_itself(lambda: run_scenario_trial(spec, protocol, 0))


@pytest.mark.parametrize("protocol", PARTIAL_VIEW)
def test_scenario_trial_under_churn(protocol):
    """Churn crashes and recovers samplers through the Markov model's hooks."""
    spec = build_scenario("churn-storm", QUICK)
    assert_frees_itself(lambda: run_scenario_trial(spec, protocol, 0))


def test_membership_trial():
    """The view-quality monitor observes every node's sampler."""
    assert_frees_itself(
        lambda: membership_trial_task(
            scenario="partition-heal", protocol="gossip-pv", scale="quick", trial=0
        )
    )


@pytest.mark.parametrize("invariants", [False, True])
@pytest.mark.parametrize("protocol", ["gossip", "flooding", "two-phase"])
def test_kv_trial(protocol, invariants):
    """Replicas hook their nodes and report to the KV metrics monitor; the
    invariant checker's stats wrapper is held by the network."""
    spec = build_scenario("hot-key-storm", QUICK)
    assert_frees_itself(
        lambda: run_kv_trial(
            spec, protocol, 0, workload=WORKLOAD, invariants=invariants
        )
    )


def test_gossip_trial():
    config = Configuration.uniform(k_regular(16, 4), loss=0.05)
    assert_frees_itself(lambda: measure_reference_once(config, "t", 0, 4, 0.95))


def test_convergence_trial():
    graph = k_regular(12, 4)
    config = Configuration.uniform(graph, loss=0.02)
    assert_frees_itself(
        lambda: convergence_messages_per_link(graph, config, "t", 400.0)
    )


class Boom(Exception):
    pass


def _raising_runs():
    """(runner, (owner, name) of the callable that raises mid-run, period)."""
    spec = build_scenario("partition-heal", QUICK)
    graph = k_regular(12, 4)
    config = Configuration.uniform(graph, loss=0.02)
    delivered = (BroadcastMonitor, "delivered")
    return {
        "kv": (
            lambda: run_kv_trial(
                spec, "gossip", 0, workload=WORKLOAD, invariants=True
            ),
            delivered,
            50,
        ),
        "scenario": (lambda: run_scenario_trial(spec, "gossip", 0), delivered, 50),
        "gossip": (
            lambda: measure_reference_once(
                Configuration.uniform(k_regular(16, 4), loss=0.05), "t", 0, 4, 0.95
            ),
            delivered,
            10,
        ),
        # no broadcast: the convergence watcher's predicate raises instead
        "convergence": (
            lambda: convergence_messages_per_link(graph, config, "t", 400.0),
            (figure5, "views_converged"),
            3,
        ),
        "demo": (lambda: cli._run_demo(None), delivered, 50),
    }


@pytest.mark.parametrize("runner", ["kv", "scenario", "gossip", "convergence", "demo"])
def test_a_trial_that_raises_frees_itself_too(monkeypatch, capsys, runner):
    """Every runner closes on the way out: a failure mid-run leaks nothing."""
    trial, (owner, name), period = _raising_runs()[runner]
    original = getattr(owner, name)
    calls = [0]

    def failing(*args):
        calls[0] += 1
        if calls[0] % period == 0:
            raise Boom
        return original(*args)

    monkeypatch.setattr(owner, name, failing)

    def run():
        try:
            trial()
        except Boom:
            return
        raise AssertionError("the trial did not raise")

    assert_frees_itself(run)


def test_experiment_run(tmp_path):
    """The campaign shell adds no cycle either: fresh cache writes, store."""
    runs = iter(range(2))

    def run():
        api.run_experiment(
            "figure4a",
            scale="quick",
            params={"connectivity": (2,), "crash": (0.01,), "trials": 2},
            backend=f"serial+cache={tmp_path / str(next(runs))}",
            store=str(tmp_path / "store.jsonl"),
        )

    assert_frees_itself(run)
