"""Seeded execution of one (scenario, protocol) trial.

:func:`scenario_trial` builds a scenario's network, deploys one
protocol stack into it as a :class:`~repro.protocols.trial.Trial` and
installs the :class:`~repro.sim.dynamics.DynamicsDriver`: the setup the
scenario and KV runners share.  :func:`run_scenario_trial` drives the
declared workload through it and reports flat float metrics.  The
module-level :func:`scenario_trial_task` is the spawn-safe campaign
entry point: it rebuilds everything from JSON-able scalars, so scenario
trials are pure functions of ``(scenario, protocol, scale, trial,
overrides)`` and run bit-identically in any process.

Protocol handling is registry-driven: any registered
:class:`~repro.protocols.registry.ProtocolSpec` — built-in or plugin —
deploys through its ``factory(ctx)``, scenario-specific parameter
defaults come from the spec's ``scenario_defaults`` hook (overridable
per trial via ``params``), and the capability flags decide the
protocol-shaped instrumentation: ``learns`` arms the re-convergence
watcher, ``plans`` lets a broadcast fail cleanly when the target ``K``
is unattainable.

Metrics:

* ``delivery_ratio`` — mean final delivery ratio over all workload
  broadcasts (broadcasts issued mid-disruption count in full: surviving
  stress is exactly what the comparison is about);
* ``data_messages`` / ``total_messages`` — cost, all broadcasts plus all
  protocol overhead (heartbeats, ACKs, digests);
* ``failed_plans`` — broadcasts a planning protocol (``plans`` flag)
  refused outright because the target ``K`` was unattainable under its
  current knowledge (e.g. the oracle mid-partition); they score a
  delivery ratio of 0;
* ``reconv_time`` / ``reconverged`` — learning protocols (``learns``
  flag) only: time from the final timeline event until every process's
  ``(Lambda_k, C_k)`` point-tracks the (restored) true ``(G, C)`` within
  the scenario's tolerance, capped at the remaining run time when
  convergence is not reached.  ``-1`` for protocols that hold no learned
  knowledge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.convergence import ConvergenceCriterion, views_converged
from repro.errors import ValidationError
from repro.experiments.runner import current_scale, scaled
from repro.protocols.registry import (
    SCENARIO_KNOWLEDGE,
    ProtocolSpec,
    resolve_protocol,
)
from repro.protocols.trial import Trial
from repro.membership.quality import ViewQualityMonitor
from repro.scenario.registry import build_scenario
from repro.scenario.schema import Heal, ScenarioSpec
from repro.sim.dynamics import DynamicsDriver
from repro.sim.engine import Simulator
from repro.sim.monitors import ConvergenceMonitor
from repro.sim.network import Network, NetworkOptions
from repro.sim.trace import MessageCategory
from repro.util import jsonio
from repro.util.rng import RandomSource

__all__ = [
    "SCENARIO_KNOWLEDGE",
    "RECONV_POLL",
    "canonical_spec_json",
    "run_scenario_trial",
    "scenario_trial",
    "scenario_trial_task",
    "membership_trial_task",
    "spec_trial_task",
    "TRIAL_FN",
    "MEMBERSHIP_TRIAL_FN",
    "SPEC_TRIAL_FN",
]

#: Poll period of the re-convergence watcher (omniscient, message-free).
RECONV_POLL = 5.0


def _workload_origins(
    spec: ScenarioSpec, trial: int, count: int
) -> List[int]:
    n = spec.topology.n
    policy = spec.workload.origin
    if policy == "fixed":
        return [0] * count
    if policy == "random":
        # keyed by (scenario, trial) only — NOT by protocol — so every
        # protocol row of a comparison table faces the same broadcast
        # schedule and differences measure the protocol, not the workload
        stream = RandomSource("repro-scenario-workload", spec.name, trial)
        return [stream.integer(n) for _ in range(count)]
    # rotate: round-robin offset by the trial index, so trials sample
    # different roots but the schedule stays seed-free
    return [(trial + i) % n for i in range(count)]


def scenario_trial(
    spec: ScenarioSpec,
    proto: ProtocolSpec,
    seed: str,
    trial: int,
    params: Optional[Dict[str, Dict[str, object]]] = None,
) -> Tuple[Trial, DynamicsDriver]:
    """Deploy ``proto`` into ``spec``'s network and install its dynamics.

    The root stream is keyed by ``(seed, scenario, protocol, trial)``;
    ``params`` are per-protocol overrides keyed by protocol name or alias.
    """
    overrides: Dict[str, object] = {}
    for key, values in (params or {}).items():
        if resolve_protocol(key).name == proto.name:
            overrides.update(values)
    graph, tiers = spec.topology.build_with_tiers()
    config = spec.environment.base_configuration(graph, tiers)
    root = RandomSource(seed, spec.name, proto.name, trial)
    options = NetworkOptions(
        crash_model=spec.environment.crash_model,
        markov_mean_down_ticks=spec.environment.mean_down_ticks,
    )
    network = Network(Simulator(), config, root.child("net"), options=options)
    typed = proto.make_params(scenario=spec, overrides=overrides)
    t = Trial(network, proto, spec.k_target, params=typed, rng=root)
    driver = DynamicsDriver(network, spec.timeline, name=spec.name, tiers=tiers)
    driver.install()
    return t, driver


def schedule_workload(t: Trial, spec: ScenarioSpec, trial: int) -> None:
    """Schedule the scenario's broadcasts, each issued through ``t``."""
    times = spec.workload.broadcast_times()
    for when, origin in zip(times, _workload_origins(spec, trial, len(times))):
        if when < spec.duration:
            t.sim.schedule_at(
                when,
                lambda o=origin: t.issue(
                    lambda: t.network.process(o).broadcast({"scenario": spec.name})
                ),
                name="workload",
            )


def run_scenario_trial(
    spec: ScenarioSpec,
    protocol: str,
    trial: int,
    params: Optional[Dict[str, Dict[str, object]]] = None,
    *,
    view_quality: bool = False,
) -> Dict[str, float]:
    """Run one seeded trial; returns the flat metric dict.

    Args:
        spec: the scenario to run.
        protocol: registered protocol name or alias (aliases are exact
            synonyms: seeds derive from the canonical name).
        trial: trial index (the only per-repetition seed input).
        params: optional per-protocol parameter overrides, keyed by
            protocol name, e.g. ``{"gossip": {"rounds": 4}}``.
        view_quality: attach a
            :class:`~repro.membership.quality.ViewQualityMonitor` to the
            deployed samplers and merge its ``view_*`` metrics into the
            result.  Requires a partial-view protocol (nodes exposing a
            ``.sampler``).  The monitor is omniscient — message-free and
            RNG-free — so the base metrics stay bit-identical whether or
            not it is attached.
    """
    proto = resolve_protocol(protocol)
    t, driver = scenario_trial(spec, proto, "repro-scenario", trial, params)
    with t:
        quality: Optional[ViewQualityMonitor] = None
        if view_quality:
            samplers = {n.pid: n.sampler for n in t.nodes if hasattr(n, "sampler")}
            if not samplers:
                raise ValidationError(
                    f"view_quality metrics need a partial-view protocol "
                    f"(nodes with a .sampler); {proto.name!r} has none"
                )
            heal_times = [e.at for e in spec.timeline if isinstance(e, Heal)]
            quality = ViewQualityMonitor(
                t.sim, t.network, samplers, heal_times=heal_times
            )

        schedule_workload(t, spec, trial)

        watcher_box: Dict[str, ConvergenceMonitor] = {}
        if proto.learns and spec.timeline:
            criterion = ConvergenceCriterion(
                mode="point",
                point_tolerance=spec.reconv_tolerance,
                require_full_topology=True,
            )
            views = [node.view for node in t.nodes]

            def arm_watcher() -> None:
                # created at the final event's instant (after it applied —
                # dynamics run at a more urgent priority), so the predicate
                # compares against the settled configuration
                watcher_box["watcher"] = ConvergenceMonitor(
                    t.sim,
                    lambda: views_converged(views, t.network.config, criterion),
                    period=RECONV_POLL,
                )

            t.sim.schedule_at(driver.last_event_time, arm_watcher, name="arm-reconv")

        t.network.start()
        t.sim.run(until=spec.duration)
        result: Dict[str, float] = {
            "delivery_ratio": t.delivery_ratio(),
            "data_messages": float(t.network.stats.sent(MessageCategory.DATA)),
            "total_messages": float(t.network.stats.sent()),
            "broadcasts": float(len(t.mids)),
            "failed_plans": float(t.refused),
        }
        watcher = watcher_box.get("watcher")
        if watcher is None:
            result.update(reconverged=-1.0, reconv_time=-1.0)
        elif watcher.converged:
            since = watcher.converged_at - driver.last_event_time
            result.update(reconverged=1.0, reconv_time=since)
        else:
            window = spec.duration - driver.last_event_time
            result.update(reconverged=0.0, reconv_time=window)
        if quality is not None:
            result.update(quality.summary())
        return result


def decode_params(payload: Optional[str]) -> Optional[Dict[str, Dict[str, object]]]:
    """Decode the JSON per-protocol params payload of a campaign spec."""
    if payload is None:
        return None
    return jsonio.decode_value(
        "protocol params", Dict[str, Dict[str, object]], jsonio.loads(payload)
    )


def task_scenario(
    scenario: str,
    scale: str,
    n: Optional[int] = None,
    loss: Optional[float] = None,
    crash: Optional[float] = None,
    duration: Optional[float] = None,
) -> ScenarioSpec:
    """Rebuild a campaign task's scenario from its JSON-able scalars."""
    scale_obj = current_scale(str(scale))
    if n is not None:
        scale_obj = scaled(scale_obj, n=int(n))
    spec = build_scenario(str(scenario), scale_obj)
    return spec.with_overrides(loss=loss, crash=crash, duration=duration)


def scenario_trial_task(
    *,
    scenario: str,
    protocol: str,
    scale: str,
    trial: int,
    n: Optional[int] = None,
    loss: Optional[float] = None,
    crash: Optional[float] = None,
    duration: Optional[float] = None,
    params: Optional[str] = None,
) -> Dict[str, float]:
    """Campaign task: rebuild the scenario from scalars and run one trial.

    ``params`` is a JSON object of per-protocol parameter overrides
    (``{"gossip": {"rounds": 4}}``), kept as a string because campaign
    spec parameters are hashable JSON-able scalars.
    """
    spec = task_scenario(scenario, scale, n, loss, crash, duration)
    return run_scenario_trial(spec, str(protocol), int(trial), decode_params(params))


TRIAL_FN = "repro.scenario.trial:scenario_trial_task"


def membership_trial_task(
    *,
    scenario: str,
    protocol: str,
    scale: str,
    trial: int,
    n: Optional[int] = None,
    loss: Optional[float] = None,
    crash: Optional[float] = None,
    duration: Optional[float] = None,
    params: Optional[str] = None,
) -> Dict[str, float]:
    """Campaign task: one partial-view trial with view-quality metrics.

    Identical to :func:`scenario_trial_task` — same seeds, same base
    metrics — plus the ``view_*`` columns of the
    :class:`~repro.membership.quality.ViewQualityMonitor`.  Used by the
    ``membership`` experiment.
    """
    spec = task_scenario(scenario, scale, n, loss, crash, duration)
    return run_scenario_trial(
        spec, str(protocol), int(trial), decode_params(params), view_quality=True
    )


MEMBERSHIP_TRIAL_FN = "repro.scenario.trial:membership_trial_task"


def canonical_spec_json(spec: ScenarioSpec) -> str:
    """The canonical (sorted-keys, compact) JSON encoding of a spec.

    This string is the spawn-safe campaign parameter for trials over
    specs that have no registry name — e.g. the shrunk candidates of an
    adversarial search.  Canonicalisation makes equal specs hash to
    equal campaign cache keys.
    """
    return jsonio.dumps(jsonio.encode(spec))


def spec_trial_task(
    *,
    spec_json: str,
    protocol: str,
    trial: int,
    params: Optional[str] = None,
) -> Dict[str, float]:
    """Campaign task: run one trial of a fully-inlined scenario spec.

    Unlike :func:`scenario_trial_task` this needs no registry name and
    no scale — the spec travels as its canonical JSON — so it works for
    mutated specs (shrunk timelines, tightened durations) that exist
    nowhere but in the caller's memory.
    """
    spec = jsonio.decode(ScenarioSpec, jsonio.loads(spec_json), "scenario")
    return run_scenario_trial(
        spec, str(protocol), int(trial), params=decode_params(params)
    )


SPEC_TRIAL_FN = "repro.scenario.trial:spec_trial_task"
