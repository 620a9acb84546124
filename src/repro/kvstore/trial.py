"""Seeded execution of one (scenario, protocol, workload) KV trial.

:func:`run_kv_trial` deploys a registered broadcast protocol into a
scenario's network (through the same
:func:`repro.scenario.trial.scenario_trial` setup as
:func:`~repro.scenario.trial.run_scenario_trial`), attaches one
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

from typing import Dict, Optional

from repro.kvstore.metrics import KVMetricsMonitor
from repro.kvstore.replica import KVReplica
from repro.kvstore.workload import (
    KVWorkloadParams,
    WorkloadGenerator,
    decode_workload,
)
from repro.protocols.registry import resolve_protocol
from repro.scenario.schema import ScenarioSpec
from repro.scenario.trial import decode_params, scenario_trial, task_scenario
from repro.sim.monitors import InvariantMonitor
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
    t, _ = scenario_trial(spec, proto, "repro-kvstore", trial, params)
    with t:
        event_times = [e.at for e in spec.timeline]
        checker: Optional[InvariantMonitor] = None
        if invariants:
            checker = t.attach(
                InvariantMonitor(t.sim, t.network, event_times=event_times)
            )

        kv = KVMetricsMonitor(t.sim, event_times=event_times)
        replicas = {node.pid: t.attach(KVReplica(node, monitor=kv)) for node in t.nodes}

        # client schedule keyed by (scenario, trial) only — NOT by protocol —
        # so every protocol row faces identical traffic
        schedule_rng = RandomSource("repro-kvstore-workload", spec.name, trial)
        generator = WorkloadGenerator(wparams, t.network.graph.n, schedule_rng)
        ops = generator.generate(spec)

        def issue(op) -> None:
            replica = replicas[op.origin]
            if op.kind == "put":
                # a refused write leaves the replica untouched — no
                # causal gap opens
                t.issue(lambda: replica.put(op.key, op.value))
            else:
                replica.get(op.key)

        for op in ops:
            if op.at >= spec.duration:
                continue
            t.sim.schedule_at(op.at, lambda o=op: issue(o), name="kv-op")

        t.network.start()
        t.sim.run(until=spec.duration)
        stats = t.network.stats
        result: Dict[str, float] = {
            "delivery_ratio": t.delivery_ratio(),
            "data_messages": float(stats.sent(MessageCategory.DATA)),
            "control_messages": float(stats.sent(MessageCategory.CONTROL)),
            "heartbeat_messages": float(stats.sent(MessageCategory.HEARTBEAT)),
            "total_messages": float(stats.sent()),
            "broadcasts": float(len(t.mids)),
            "kv_failed_writes": float(t.refused),
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
    (see :func:`~repro.kvstore.workload.decode_workload`), ``params``
    the usual JSON per-protocol overrides — both strings because
    campaign spec parameters are hashable JSON-able scalars.
    """
    return run_kv_trial(
        task_scenario(scenario, scale, n, loss, crash, duration),
        str(protocol),
        int(trial),
        workload=decode_workload(workload),
        params=decode_params(params),
    )


KV_TRIAL_FN = "repro.kvstore.trial:kv_trial_task"
