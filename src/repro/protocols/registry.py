"""Protocol registry: one extensible surface for every diffusion protocol.

Every comparable protocol stack — the paper's adaptive algorithm, the
optimal oracle, the Section 5 reference gossip, and the extended
baselines — is described by a :class:`ProtocolSpec`: a canonical name
plus aliases, a uniform ``factory(ctx) -> list[nodes]`` taking a single
:class:`DeployContext`, a typed parameter dataclass with JSON-able
defaults, and capability flags.  Scenario trials, the figure builders
and the CLI all deploy through this registry, so adding a sixth protocol
(or a user-supplied one) is a one-file change:

    from repro import ProtocolSpec, register_protocol

    register_protocol(ProtocolSpec(
        name="my-proto",
        description="my experimental diffusion protocol",
        factory=lambda ctx: [MyProto(p, ctx.network, ctx.monitor,
                                     ctx.k_target) for p in ctx.processes],
    ))

Third-party packages can ship protocols without touching this codebase:

* **entry points** — declare ``[project.entry-points."repro.protocols"]``
  pointing at a :class:`ProtocolSpec` (or a zero-argument callable / list
  of specs); the registry discovers installed plugins lazily;
* **environment variable** — ``REPRO_PROTOCOLS=module:attr,...`` loads
  specs from importable modules, which also reaches campaign worker
  processes (they re-import this module and re-run discovery).

Capability flags replace protocol-name special-casing at the call sites:

===================  ===============================================
``plans``            may refuse a broadcast with
                     :class:`~repro.errors.UnreachableTargetError`
                     when the target ``K`` is unattainable under its
                     current knowledge (the oracle mid-partition)
``learns``           holds learned ``(Lambda_k, C_k)`` knowledge and
                     exposes a per-node ``.view`` — scenario trials arm
                     the re-convergence watcher for these protocols
``needs_calibration``  has an empirical knob tuned per environment
                     (gossip's round budget) rather than derived
``needs_rng``        deployment consumes a seeded
                     :class:`~repro.util.rng.RandomSource` from the
                     :class:`DeployContext`
===================  ===============================================
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
    get_type_hints,
)

from repro.core.adaptive import AdaptiveBroadcast, AdaptiveParameters
from repro.core.knowledge import KnowledgeParameters
from repro.core.optimal import OptimalBroadcast
from repro.errors import (
    UnknownProtocolError,
    ValidationError,
    closest_name,
    did_you_mean,
)
from repro.protocols.flooding import FloodingBroadcast
from repro.protocols.gossip import GossipBroadcast, GossipParameters
from repro.protocols.partial_view import (
    AdaptivePVBroadcast,
    AdaptivePVParams,
    FloodingPVBroadcast,
    FloodingPVParams,
    GossipPVBroadcast,
    GossipPVParams,
)
from repro.protocols.twophase import TwoPhaseBroadcast, TwoPhaseParameters
from repro.sim.monitors import BroadcastMonitor
from repro.sim.network import Network
from repro.util.plugins import load_entry_point_plugins, load_env_plugins
from repro.util.rng import RandomSource
from repro.util.validation import (
    check_positive,
    check_positive_int,
    coerce_scalar,
    unwrap_optional,
)

#: Entry-point group third-party packages register protocol specs under.
ENTRY_POINT_GROUP = "repro.protocols"

#: Comma-separated ``module:attr`` list of plugin specs to load — the
#: uninstalled-plugin path (reaches spawn-safe campaign workers too,
#: since the environment is inherited and discovery re-runs on import).
PLUGIN_ENV = "REPRO_PROTOCOLS"

#: Knowledge-activity sizing scenario runs hand the adaptive protocol:
#: delta/tick of 1.0 as in the paper's convergence experiments, a coarser
#: interval count (50) to keep heartbeat snapshots cheap at scenario
#: durations.
SCENARIO_KNOWLEDGE = KnowledgeParameters(delta=1.0, intervals=50, tick=1.0)


@dataclass
class DeployContext:
    """Everything a protocol factory may need to instantiate its nodes.

    One uniform argument replaces the per-protocol constructor wiring
    that used to live in ``scenario/trial.py``: factories read the
    network, the delivery monitor, the reliability target, an optional
    seeded RNG (present when the spec declares ``needs_rng``) and the
    protocol's typed parameter object.

    Attributes:
        network: the simulated network to deploy into.
        monitor: delivery monitor shared by all nodes.
        k_target: reliability target ``K`` handed to every node.
        rng: seeded random source for protocols whose *deployment*
            consumes randomness (e.g. two-phase peer selection); None
            for deterministic deployments.
        params: instance of the spec's ``params_type`` (None when the
            protocol has no parameters or defaults are wanted).
    """

    network: Network
    monitor: BroadcastMonitor
    k_target: float
    rng: Optional[RandomSource] = None
    params: Optional[object] = None

    @property
    def graph(self):
        return self.network.graph

    @property
    def processes(self):
        return self.network.graph.processes


# -- typed per-protocol parameter dataclasses -----------------------------------------
#
# Flat, JSON-able and validated: campaign sweeps (``--sweep
# gossip.rounds=4,8``), scenario overrides and the public API all address
# per-protocol knobs through these, never through positional constructor
# arguments.


@dataclass(frozen=True)
class AdaptiveProtocolParams:
    """Knobs of the adaptive protocol (Section 4).

    Attributes:
        delta: heartbeat period (the paper's ``delta``).
        intervals: Bayesian interval count ``U`` (paper: 100; scenario
            runs default to 50 — see ``SCENARIO_KNOWLEDGE``).
        tick: self-reliability tick period (Events 3/4).
        recompute_at_receiver: re-run ``optimize`` at every hop
            (Algorithm 1 line 9, literally).
        piggyback_knowledge: attach knowledge snapshots to forwarded
            data messages (Section 4.1's bandwidth optimisation).
    """

    delta: float = 1.0
    intervals: int = 100
    tick: float = 1.0
    recompute_at_receiver: bool = False
    piggyback_knowledge: bool = False

    def __post_init__(self) -> None:
        check_positive(self.delta, "delta")
        check_positive_int(self.intervals, "intervals")
        check_positive(self.tick, "tick")

    def to_adaptive_parameters(self) -> AdaptiveParameters:
        return AdaptiveParameters(
            knowledge=KnowledgeParameters(
                delta=self.delta, intervals=self.intervals, tick=self.tick
            ),
            recompute_at_receiver=self.recompute_at_receiver,
            piggyback_knowledge=self.piggyback_knowledge,
        )


@dataclass(frozen=True)
class OptimalProtocolParams:
    """Knobs of the optimal oracle (Algorithm 1 with perfect knowledge)."""

    recompute_at_receiver: bool = False


@dataclass(frozen=True)
class GossipProtocolParams:
    """Knobs of the Section 5 reference gossip.

    Attributes:
        rounds: per-broadcast forwarding rounds.  The paper calibrates
            this empirically per environment (``needs_calibration``);
            scenario runs default to the scenario's fixed
            ``gossip_rounds`` budget.
        step_period: virtual-time length of one forwarding step.
        fanout: max neighbours targeted per step (None = all eligible,
            the paper's baseline behaviour).
    """

    rounds: int = 5
    step_period: float = 1.0
    fanout: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive_int(self.rounds, "rounds")
        check_positive(self.step_period, "step_period")
        if self.fanout is not None:
            check_positive_int(self.fanout, "fanout")


@dataclass(frozen=True)
class FloodingProtocolParams:
    """Flooding has no knobs; the empty dataclass keeps the surface uniform."""


@dataclass(frozen=True)
class TwoPhaseProtocolParams:
    """Knobs of the bimodal-style two-phase baseline.

    Attributes:
        gossip_period: interval between anti-entropy digest exchanges.
        rounds: anti-entropy rounds each process runs.  This is an
            explicit parameter: scenario runs *default* it to
            ``max(1, int(duration / gossip_period))`` (one repair
            opportunity per period for the whole run) via the spec's
            ``scenario_defaults`` hook — override with
            ``--sweep two-phase.rounds=...`` or a params override.
    """

    gossip_period: float = 1.0
    rounds: int = 10

    def __post_init__(self) -> None:
        check_positive(self.gossip_period, "gossip_period")
        check_positive_int(self.rounds, "rounds")


# -- the spec -------------------------------------------------------------------------


@dataclass(frozen=True)
class ProtocolSpec:
    """Descriptor of one registrable diffusion protocol.

    Attributes:
        name: canonical registry name (lower-case, dash-separated).
        factory: ``factory(ctx) -> list[nodes]`` deploying one node per
            process of ``ctx.network`` (nodes self-register with the
            network on construction).
        description: one-line human summary.
        aliases: alternative accepted spellings.
        params_type: frozen dataclass of JSON-able tunables (None for
            parameterless protocols).
        plans / learns / needs_calibration / needs_rng: capability
            flags — see the module docstring.
        default_compare: include in the default scenario comparison set
            (heavyweight baselines opt out and run via ``--protocols``).
        scenario_defaults: optional hook mapping a
            :class:`~repro.scenario.schema.ScenarioSpec` to default
            parameter overrides (e.g. gossip reads the scenario's fixed
            round budget); explicit overrides still win.
    """

    name: str
    factory: Callable[[DeployContext], List[object]]
    description: str = ""
    aliases: Tuple[str, ...] = ()
    params_type: Optional[type] = None
    plans: bool = False
    learns: bool = False
    needs_calibration: bool = False
    needs_rng: bool = False
    default_compare: bool = True
    scenario_defaults: Optional[Callable[[Any], Dict[str, Any]]] = None

    def capabilities(self) -> Tuple[str, ...]:
        """The set capability flags, as a stable tuple of names."""
        return tuple(
            flag
            for flag in ("plans", "learns", "needs_calibration", "needs_rng")
            if getattr(self, flag)
        )

    def param_fields(self) -> List[Tuple[str, str, object]]:
        """``(name, type name, default)`` rows for help/describe output."""
        if self.params_type is None:
            return []
        rows = []
        hints = get_type_hints(self.params_type)
        for f in dataclass_fields(self.params_type):
            rows.append((f.name, _type_name(hints[f.name]), f.default))
        return rows

    def make_params(
        self,
        scenario: Optional[Any] = None,
        overrides: Optional[Dict[str, Any]] = None,
    ) -> Optional[object]:
        """Build the typed parameter object for one deployment.

        Precedence: dataclass defaults < ``scenario_defaults(scenario)``
        < explicit ``overrides``.  Override keys are validated against
        the dataclass fields (with a closest-match suggestion) and
        values are coerced to the field types, so sweep values arriving
        as strings or floats land correctly typed.
        """
        if self.params_type is None:
            if overrides:
                raise ValidationError(
                    f"protocol {self.name!r} has no parameters; "
                    f"got overrides {sorted(overrides)}"
                )
            return None
        values: Dict[str, Any] = {}
        if scenario is not None and self.scenario_defaults is not None:
            values.update(self.scenario_defaults(scenario))
        if overrides:
            hints = get_type_hints(self.params_type)
            names = [f.name for f in dataclass_fields(self.params_type)]
            for key, value in overrides.items():
                if key not in names:
                    _, hint = did_you_mean(key, names)
                    raise ValidationError(
                        f"protocol {self.name!r} has no parameter {key!r} "
                        f"(available: {', '.join(names) or 'none'}){hint}"
                    )
                values[key] = _coerce_value(self.name, key, hints[key], value)
        return self.params_type(**values)

    def deploy(self, ctx: DeployContext) -> List[object]:
        """Instantiate the protocol's nodes (defaulting missing params)."""
        if ctx.params is None and self.params_type is not None:
            # copy rather than write back: one ctx may deploy several
            # protocols, and another spec's params must never leak in
            ctx = dataclasses.replace(ctx, params=self.params_type())
        if self.needs_rng and ctx.rng is None:
            raise ValidationError(
                f"protocol {self.name!r} needs a seeded rng in its "
                "DeployContext (needs_rng capability)"
            )
        return self.factory(ctx)


def _type_name(hint: Any) -> str:
    base = unwrap_optional(hint)
    if base is not hint:  # Optional[T] renders as "T?"
        return f"{_type_name(base)}?"
    return getattr(hint, "__name__", str(hint))


def _coerce_value(protocol: str, key: str, hint: Any, value: Any) -> Any:
    """Coerce a sweep/override value to a parameter field's type."""
    return coerce_scalar(f"protocol parameter {protocol}.{key}", hint, value)


# -- the registry ---------------------------------------------------------------------

_REGISTRY: Dict[str, ProtocolSpec] = {}  # canonical name -> spec, in order
_LOOKUP: Dict[str, str] = {}  # normalized name/alias -> canonical name
_plugins_loaded = False


def _norm(name: str) -> str:
    return str(name).strip().lower().replace("_", "-")


def register_protocol(spec: ProtocolSpec, replace: bool = False) -> ProtocolSpec:
    """Register a protocol spec; returns it for chaining.

    Raises:
        ValidationError: on an empty/duplicate name or alias (unless
            ``replace`` is set, which atomically swaps the old spec out).
    """
    if not isinstance(spec, ProtocolSpec):
        raise ValidationError(
            f"register_protocol takes a ProtocolSpec, got {type(spec).__name__}"
        )
    name = _norm(spec.name)
    if not name:
        raise ValidationError("protocol name must be non-empty")
    if not callable(spec.factory):
        raise ValidationError(f"protocol {name!r} factory is not callable")
    keys = [name] + [_norm(a) for a in spec.aliases]
    for key in keys:
        owner = _LOOKUP.get(key)
        if owner is not None and owner != name and not replace:
            raise ValidationError(
                f"protocol name/alias {key!r} is already registered "
                f"(by {owner!r}); pass replace=True to override"
            )
    if name in _REGISTRY and not replace:
        raise ValidationError(
            f"protocol {name!r} is already registered; "
            "pass replace=True to override"
        )
    # evict the current owner of every colliding key, not just `name`:
    # a replacing spec whose alias steals another protocol's canonical
    # name must not leave that protocol orphaned in the registry
    for key in keys:
        unregister_protocol(key, missing_ok=True)
    _REGISTRY[name] = spec
    for key in keys:
        _LOOKUP[key] = name
    return spec


def unregister_protocol(name: str, missing_ok: bool = False) -> None:
    """Remove a protocol and all its aliases (mainly for tests/plugins)."""
    canonical = _LOOKUP.get(_norm(name))
    if canonical is None:
        if missing_ok:
            return
        raise UnknownProtocolError(f"unknown protocol {name!r}")
    _REGISTRY.pop(canonical, None)
    for key in [k for k, v in _LOOKUP.items() if v == canonical]:
        del _LOOKUP[key]


def resolve_protocol(protocol: Union[str, ProtocolSpec]) -> ProtocolSpec:
    """Resolve a name or alias (case/underscore-insensitive) to its spec.

    Unknown names raise :class:`~repro.errors.UnknownProtocolError` with
    the closest registered match as a "did you mean?" suggestion — the
    single error path shared by the CLI, the scenario engine and the API.
    """
    if isinstance(protocol, ProtocolSpec):
        return protocol
    key = _norm(protocol)
    if key not in _LOOKUP:
        discover_plugins()
    canonical = _LOOKUP.get(key)
    if canonical is None:
        suggestion, hint = did_you_mean(key, _LOOKUP)
        raise UnknownProtocolError(
            f"unknown protocol {protocol!r}; choose from "
            + ", ".join(protocol_names())
            + hint,
            suggestion=suggestion,
        )
    return _REGISTRY[canonical]


def protocol_names() -> Tuple[str, ...]:
    """Canonical names of all registered protocols, in registration order."""
    discover_plugins()
    return tuple(_REGISTRY)


def protocol_specs() -> List[ProtocolSpec]:
    """All registered specs, in registration order."""
    discover_plugins()
    return list(_REGISTRY.values())


def default_protocols() -> Tuple[str, ...]:
    """The default comparison set (specs with ``default_compare``)."""
    return tuple(
        spec.name for spec in protocol_specs() if spec.default_compare
    )


def deploy_protocol(
    protocol: Union[str, ProtocolSpec], ctx: DeployContext
) -> List[object]:
    """Resolve and deploy in one call (the common call-site shape)."""
    return resolve_protocol(protocol).deploy(ctx)


def parse_param_key(key: str) -> Tuple[ProtocolSpec, str]:
    """Split a dotted ``protocol.param`` sweep key and validate both halves."""
    proto_name, _, param = key.partition(".")
    spec = resolve_protocol(proto_name)
    if spec.params_type is None or param not in {
        f.name for f in dataclass_fields(spec.params_type)
    }:
        available = [row[0] for row in spec.param_fields()]
        close = closest_name(param, available)
        hint = f" — did you mean {spec.name}.{close}?" if close else ""
        raise ValidationError(
            f"protocol {spec.name!r} has no parameter {param!r} "
            f"(available: {', '.join(available) or 'none'}){hint}"
        )
    return spec, param


# -- plugin discovery -----------------------------------------------------------------


def _register_plugin_object(obj: Any, source: str) -> List[str]:
    """Register whatever a plugin hook produced; returns new names."""
    if callable(obj) and not isinstance(obj, ProtocolSpec):
        obj = obj()
    specs = list(obj) if isinstance(obj, (list, tuple)) else [obj]
    registered = []
    for spec in specs:
        if not isinstance(spec, ProtocolSpec):
            raise ValidationError(
                f"plugin {source} produced {type(spec).__name__}, "
                "expected ProtocolSpec"
            )
        if _norm(spec.name) in _LOOKUP:
            continue  # already present (built-in or earlier plugin) — keep it
        register_protocol(spec)
        registered.append(spec.name)
    return registered


def discover_plugins(force: bool = False) -> List[str]:
    """Load third-party protocol specs; returns newly registered names.

    Sources, in order: installed-package entry points in the
    ``repro.protocols`` group, then the ``REPRO_PROTOCOLS`` environment
    variable (``module:attr`` items, comma-separated).  Discovery is
    lazy and runs once per process; a broken plugin is skipped with a
    warning rather than taking the whole registry down.
    """
    global _plugins_loaded
    if _plugins_loaded and not force:
        return []
    _plugins_loaded = True
    registered = load_entry_point_plugins(
        ENTRY_POINT_GROUP, _register_plugin_object, kind="protocol"
    )
    registered += load_env_plugins(
        os.environ.get(PLUGIN_ENV, ""),
        PLUGIN_ENV,
        _register_plugin_object,
        kind="protocol",
    )
    return registered


# -- built-in protocol factories ------------------------------------------------------


def _deploy_adaptive(ctx: DeployContext) -> List[object]:
    params: AdaptiveProtocolParams = ctx.params or AdaptiveProtocolParams()
    adaptive = params.to_adaptive_parameters()
    return [
        AdaptiveBroadcast(p, ctx.network, ctx.monitor, ctx.k_target, adaptive)
        for p in ctx.processes
    ]


def _deploy_optimal(ctx: DeployContext) -> List[object]:
    params: OptimalProtocolParams = ctx.params or OptimalProtocolParams()
    return [
        OptimalBroadcast(
            p,
            ctx.network,
            ctx.monitor,
            ctx.k_target,
            recompute_at_receiver=params.recompute_at_receiver,
        )
        for p in ctx.processes
    ]


def _deploy_gossip(ctx: DeployContext) -> List[object]:
    params: GossipProtocolParams = ctx.params or GossipProtocolParams()
    gossip = GossipParameters(
        rounds=params.rounds,
        step_period=params.step_period,
        fanout=params.fanout,
    )
    return [
        GossipBroadcast(p, ctx.network, ctx.monitor, ctx.k_target, gossip)
        for p in ctx.processes
    ]


def _deploy_flooding(ctx: DeployContext) -> List[object]:
    return [
        FloodingBroadcast(p, ctx.network, ctx.monitor, ctx.k_target)
        for p in ctx.processes
    ]


def _deploy_two_phase(ctx: DeployContext) -> List[object]:
    params: TwoPhaseProtocolParams = ctx.params or TwoPhaseProtocolParams()
    two_phase = TwoPhaseParameters(
        gossip_period=params.gossip_period, rounds=params.rounds
    )
    # the "twophase" child label predates the registry; keeping it keeps
    # every historical seed stream (and warm trial cache) valid
    return [
        TwoPhaseBroadcast(
            p,
            ctx.network,
            ctx.monitor,
            ctx.k_target,
            two_phase,
            rng=ctx.rng.child("twophase", p),
        )
        for p in ctx.processes
    ]


def _deploy_gossip_pv(ctx: DeployContext) -> List[object]:
    params: GossipPVParams = ctx.params or GossipPVParams()
    return [
        GossipPVBroadcast(
            p,
            ctx.network,
            ctx.monitor,
            ctx.k_target,
            params,
            rng=ctx.rng.child("membership", p),
        )
        for p in ctx.processes
    ]


def _deploy_flooding_pv(ctx: DeployContext) -> List[object]:
    params: FloodingPVParams = ctx.params or FloodingPVParams()
    return [
        FloodingPVBroadcast(
            p,
            ctx.network,
            ctx.monitor,
            ctx.k_target,
            params,
            rng=ctx.rng.child("membership", p),
        )
        for p in ctx.processes
    ]


def _deploy_adaptive_pv(ctx: DeployContext) -> List[object]:
    params: AdaptivePVParams = ctx.params or AdaptivePVParams()
    return [
        AdaptivePVBroadcast(
            p,
            ctx.network,
            ctx.monitor,
            ctx.k_target,
            params,
            rng=ctx.rng.child("membership", p),
        )
        for p in ctx.processes
    ]


def _adaptive_scenario_defaults(spec: Any) -> Dict[str, Any]:
    return {"intervals": SCENARIO_KNOWLEDGE.intervals}


def _gossip_scenario_defaults(spec: Any) -> Dict[str, Any]:
    # scenario runs compare protocols under stress with a fixed round
    # budget; they do not re-calibrate per environment snapshot
    return {"rounds": int(spec.gossip_rounds)}


def _two_phase_scenario_defaults(spec: Any) -> Dict[str, Any]:
    # one anti-entropy opportunity per period for the whole run: with the
    # scenario default period of 2.0, rounds = max(1, duration / 2)
    period = 2.0
    return {
        "gossip_period": period,
        "rounds": max(1, int(float(spec.duration) / period)),
    }


register_protocol(
    ProtocolSpec(
        name="adaptive",
        factory=_deploy_adaptive,
        description="Section 4 adaptive algorithm (Bayesian MRT learning)",
        aliases=("adapt", "section4"),
        params_type=AdaptiveProtocolParams,
        plans=True,
        learns=True,
        scenario_defaults=_adaptive_scenario_defaults,
    )
)
register_protocol(
    ProtocolSpec(
        name="optimal",
        factory=_deploy_optimal,
        description="Algorithm 1 oracle with perfect (G, C) knowledge",
        aliases=("oracle",),
        params_type=OptimalProtocolParams,
        plans=True,
    )
)
register_protocol(
    ProtocolSpec(
        name="gossip",
        factory=_deploy_gossip,
        description="Section 5 reference gossip with ACK suppression",
        aliases=("reference",),
        params_type=GossipProtocolParams,
        needs_calibration=True,
        scenario_defaults=_gossip_scenario_defaults,
    )
)
register_protocol(
    ProtocolSpec(
        name="flooding",
        factory=_deploy_flooding,
        description="forward-once flood, the non-probabilistic baseline",
        aliases=("flood",),
        params_type=FloodingProtocolParams,
    )
)
register_protocol(
    ProtocolSpec(
        name="two-phase",
        factory=_deploy_two_phase,
        description="bimodal-style flood + anti-entropy repair baseline",
        aliases=("twophase", "bimodal"),
        params_type=TwoPhaseProtocolParams,
        needs_rng=True,
        default_compare=False,  # heavyweight baseline: opt-in via --protocols
        scenario_defaults=_two_phase_scenario_defaults,
    )
)
register_protocol(
    ProtocolSpec(
        name="gossip-pv",
        factory=_deploy_gossip_pv,
        description="Section 5 gossip stepping over a sampled partial view",
        aliases=("pv-gossip", "gossip-partial-view"),
        params_type=GossipPVParams,
        needs_rng=True,
        default_compare=False,  # partial-view family: opt-in via --protocols
        scenario_defaults=_gossip_scenario_defaults,
    )
)
register_protocol(
    ProtocolSpec(
        name="flooding-pv",
        factory=_deploy_flooding_pv,
        description="forward-once flood over a sampled partial view",
        aliases=("pv-flooding", "flooding-partial-view"),
        params_type=FloodingPVParams,
        needs_rng=True,
        default_compare=False,  # partial-view family: opt-in via --protocols
    )
)
register_protocol(
    ProtocolSpec(
        name="adaptive-pv",
        factory=_deploy_adaptive_pv,
        description="adaptive algorithm learning (Lambda_k, C_k) via a sampled view",
        aliases=("pv-adaptive", "adaptive-partial-view"),
        params_type=AdaptivePVParams,
        plans=True,
        learns=True,
        needs_rng=True,
        default_compare=False,  # partial-view family: opt-in via --protocols
        scenario_defaults=_adaptive_scenario_defaults,
    )
)
