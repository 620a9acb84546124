"""Seeded execution of one (scenario, protocol, workload) KV trial.

:func:`run_kv_trial` deploys a registered broadcast protocol into a
scenario's network (exactly like
:func:`repro.scenario.trial.run_scenario_trial`), attaches one
:class:`~repro.kvstore.replica.KVReplica` per node, and drives the
replicas with the seeded client schedule of
:class:`~repro.kvstore.workload.WorkloadGenerator`.  The spawn-safe
:func:`kv_trial_task` rebuilds everything from JSON-able scalars, so KV
trials are pure functions of ``(scenario, protocol, scale, trial,
workload, params)`` and run bit-identically in any process.

Seeding mirrors the scenario layer's split: the network/protocol root is
keyed by ``(scenario, protocol, trial)``, but the *client schedule* is
keyed by ``(scenario, trial)`` only — every protocol row of a comparison
faces the same operations, so differences measure the protocol.

Metrics: the scenario-trial cost/delivery metrics (``delivery_ratio``
over the write broadcasts, per-category message counts — CONTROL and
HEARTBEAT overhead now attributable separately from DATA replication
traffic) plus the full ``kv_*`` family of
:class:`~repro.kvstore.metrics.KVMetricsMonitor`.  Writes a planning
protocol refuses mid-disruption count as ``kv_failed_writes`` (the
replica stays untouched — see :meth:`KVReplica.put`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import UnreachableTargetError
from repro.experiments.runner import current_scale, scaled
from repro.kvstore.metrics import KVMetricsMonitor
from repro.kvstore.replica import KVReplica
from repro.kvstore.workload import (
    KVWorkloadParams,
    WorkloadGenerator,
    decode_workload,
)
from repro.protocols.registry import resolve_protocol
from repro.scenario.registry import build_scenario
from repro.scenario.schema import ScenarioSpec
from repro.scenario.trial import _canonical_params, _deploy, decode_params
from repro.sim.dynamics import DynamicsDriver
from repro.sim.engine import Simulator
from repro.sim.monitors import BroadcastMonitor, InvariantMonitor
from repro.sim.network import Network, NetworkOptions
from repro.sim.trace import MessageCategory
from repro.util.rng import RandomSource

__all__ = ["KV_TRIAL_FN", "kv_trial_task", "run_kv_trial"]


def run_kv_trial(
    spec: ScenarioSpec,
    protocol: str,
    trial: int,
    *,
    workload: Optional[KVWorkloadParams] = None,
    params: Optional[Dict[str, Dict[str, object]]] = None,
    invariants: bool = False,
) -> Dict[str, float]:
    """Run one seeded KV trial; returns the flat metric dict.

    Args:
        spec: the scenario providing topology, environment and dynamics.
        protocol: registered broadcast protocol name or alias.
        trial: trial index (the only per-repetition seed input).
        workload: client-traffic knobs (defaults to
            :class:`KVWorkloadParams()`).
        params: optional per-protocol parameter overrides, keyed by
            protocol name, e.g. ``{"gossip": {"rounds": 4}}``.
        invariants: additionally attach an
            :class:`~repro.sim.monitors.InvariantMonitor` (structural
            checks on every transmission) and report
            ``invariant_records``; metrics stay bit-identical because the
            checker is transparent.
    """
    proto = resolve_protocol(protocol)
    wparams = workload or KVWorkloadParams()
    overrides = _canonical_params(params).get(proto.name)

    graph, tiers = spec.topology.build_with_tiers()
    config = spec.environment.base_configuration(graph, tiers)
    sim = Simulator()
    root = RandomSource("repro-kvstore", spec.name, proto.name, trial)
    options = NetworkOptions(
        crash_model=spec.environment.crash_model,
        markov_mean_down_ticks=spec.environment.mean_down_ticks,
    )
    network = Network(sim, config, root.child("net"), options=options)
    monitor = BroadcastMonitor(graph.n)
    nodes = _deploy(proto, spec, network, monitor, root, overrides)

    driver = DynamicsDriver(network, spec.timeline, name=spec.name, tiers=tiers)
    driver.install()
    event_times = [e.at for e in spec.timeline]
    checker: Optional[InvariantMonitor] = None
    if invariants:
        checker = InvariantMonitor(sim, network, event_times=event_times)

    kv = KVMetricsMonitor(sim, event_times=event_times)
    replicas = {node.pid: KVReplica(node, monitor=kv) for node in nodes}

    # client schedule keyed by (scenario, trial) only — NOT by protocol —
    # so every protocol row faces identical traffic
    schedule_rng = RandomSource("repro-kvstore-workload", spec.name, trial)
    ops = WorkloadGenerator(wparams, graph.n, schedule_rng).generate(spec)

    mids: List[object] = []
    failed_writes = [0]

    def issue(op) -> None:
        replica = replicas[op.origin]
        if op.kind == "put":
            try:
                mids.append(replica.put(op.key, op.value))
            except UnreachableTargetError:
                # a planning protocol may (correctly) find the target K
                # unattainable mid-disruption; the write is refused and
                # the replica stays untouched — no causal gap opens
                if not proto.plans:
                    raise
                failed_writes[0] += 1
                mids.append(("failed-write", op.origin, op.seq))
        else:
            replica.get(op.key)

    for op in ops:
        if op.at >= spec.duration:
            continue
        sim.schedule_at(op.at, lambda o=op: issue(o), name="kv-op")

    network.start()
    sim.run(until=spec.duration)

    ratios = [monitor.delivery_ratio(mid) for mid in mids]
    result: Dict[str, float] = {
        "delivery_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
        "data_messages": float(network.stats.sent(MessageCategory.DATA)),
        "control_messages": float(network.stats.sent(MessageCategory.CONTROL)),
        "heartbeat_messages": float(
            network.stats.sent(MessageCategory.HEARTBEAT)
        ),
        "total_messages": float(network.stats.sent()),
        "broadcasts": float(len(mids)),
        "kv_failed_writes": float(failed_writes[0]),
        "kv_ops": float(len(ops)),
    }
    result.update(kv.summary())
    if checker is not None:
        result["invariant_records"] = float(checker.records_checked)
    return result


def kv_trial_task(
    *,
    scenario: str,
    protocol: str,
    scale: str,
    trial: int,
    n: Optional[int] = None,
    loss: Optional[float] = None,
    crash: Optional[float] = None,
    duration: Optional[float] = None,
    workload: Optional[str] = None,
    params: Optional[str] = None,
) -> Dict[str, float]:
    """Campaign task: rebuild the KV trial from scalars and run it.

    ``workload`` is the canonical JSON of a :class:`KVWorkloadParams`
    (see :meth:`KVWorkloadParams.to_payload`), ``params`` the usual JSON
    per-protocol overrides — both strings because campaign spec
    parameters are hashable JSON-able scalars.
    """
    scale_obj = current_scale(str(scale))
    if n is not None:
        scale_obj = scaled(scale_obj, n=int(n))
    spec = build_scenario(str(scenario), scale_obj)
    spec = spec.with_overrides(loss=loss, crash=crash, duration=duration)
    return run_kv_trial(
        spec,
        str(protocol),
        int(trial),
        workload=decode_workload(workload),
        params=decode_params(params),
    )


KV_TRIAL_FN = "repro.kvstore.trial:kv_trial_task"
