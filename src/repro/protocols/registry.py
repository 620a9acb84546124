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

Third-party packages ship protocols without touching this codebase
through the ``repro.protocols`` entry-point group or the
``REPRO_PROTOCOLS`` environment variable; name resolution, aliases and
plugin discovery are one shared mechanism, :mod:`repro.util.registry`.

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
from dataclasses import dataclass, fields as dataclass_fields
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
from repro.util.registry import Registry
from repro.util.rng import RandomSource
from repro.util.validation import (
    check_positive,
    check_positive_int,
    coerce_scalar,
    unwrap_optional,
)

#: Entry-point group third-party packages register protocol specs under.
ENTRY_POINT_GROUP = "repro.protocols"

#: Comma-separated ``module:attr`` list of plugin specs to load.
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


#: The gossip and two-phase knobs *are* the protocols' own frozen
#: parameter classes; the registry-era names stay importable as aliases.
GossipProtocolParams = GossipParameters
TwoPhaseProtocolParams = TwoPhaseParameters


@dataclass(frozen=True)
class FloodingProtocolParams:
    """Flooding has no knobs; the empty dataclass keeps the surface uniform."""


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
                values[key] = coerce_scalar(
                    f"protocol parameter {self.name}.{key}", hints[key], value
                )
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


# -- the registry ---------------------------------------------------------------------


def _check_spec(name: str, spec: ProtocolSpec) -> None:
    if not callable(spec.factory):
        raise ValidationError(f"protocol {name!r} factory is not callable")


#: The one protocol registry; the functions below are its public face.
PROTOCOLS: Registry[ProtocolSpec] = Registry(
    ProtocolSpec,
    kind="protocol",
    unknown_error=UnknownProtocolError,
    entry_point_group=ENTRY_POINT_GROUP,
    plugin_env=PLUGIN_ENV,
    check=_check_spec,
)


def register_protocol(spec: ProtocolSpec, replace: bool = False) -> ProtocolSpec:
    """Register a protocol spec (:meth:`Registry.register`); returns it."""
    return PROTOCOLS.register(spec, replace=replace)


def unregister_protocol(name: str, missing_ok: bool = False) -> None:
    """Remove a protocol and all its aliases (mainly for tests/plugins)."""
    PROTOCOLS.unregister(name, missing_ok=missing_ok)


def resolve_protocol(protocol: Union[str, ProtocolSpec]) -> ProtocolSpec:
    """Resolve a name or alias (case/underscore-insensitive) to its spec.

    Unknown names raise :class:`~repro.errors.UnknownProtocolError` with
    the closest registered match as a "did you mean?" suggestion — the
    single error path shared by the CLI, the scenario engine and the API.
    """
    return PROTOCOLS.resolve(protocol)


def protocol_names() -> Tuple[str, ...]:
    """Canonical names of all registered protocols, in registration order."""
    return PROTOCOLS.names()


def protocol_specs() -> List[ProtocolSpec]:
    """All registered specs, in registration order."""
    return PROTOCOLS.specs()


def discover_plugins(force: bool = False) -> List[str]:
    """Load third-party protocol specs; returns newly registered names.

    Lazy, once per process unless ``force``; the sources and their order
    are :mod:`repro.util.registry`'s.
    """
    return PROTOCOLS.discover(force=force)


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
    return [
        GossipBroadcast(p, ctx.network, ctx.monitor, ctx.k_target, ctx.params)
        for p in ctx.processes
    ]


def _deploy_flooding(ctx: DeployContext) -> List[object]:
    return [
        FloodingBroadcast(p, ctx.network, ctx.monitor, ctx.k_target)
        for p in ctx.processes
    ]


def _deploy_two_phase(ctx: DeployContext) -> List[object]:
    # the "twophase" child label predates the registry; keeping it keeps
    # every historical seed stream (and warm trial cache) valid
    return [
        TwoPhaseBroadcast(
            p,
            ctx.network,
            ctx.monitor,
            ctx.k_target,
            ctx.params,
            rng=ctx.rng.child("twophase", p),
        )
        for p in ctx.processes
    ]


def _deploy_pv(ctx: DeployContext, node_type: type, params_type: type):
    """The partial-view family: one sampler-hosting node per process."""
    params = ctx.params or params_type()
    return [
        node_type(
            p,
            ctx.network,
            ctx.monitor,
            ctx.k_target,
            params,
            rng=ctx.rng.child("membership", p),
        )
        for p in ctx.processes
    ]


def _deploy_gossip_pv(ctx: DeployContext) -> List[object]:
    return _deploy_pv(ctx, GossipPVBroadcast, GossipPVParams)


def _deploy_flooding_pv(ctx: DeployContext) -> List[object]:
    return _deploy_pv(ctx, FloodingPVBroadcast, FloodingPVParams)


def _deploy_adaptive_pv(ctx: DeployContext) -> List[object]:
    return _deploy_pv(ctx, AdaptivePVBroadcast, AdaptivePVParams)


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
        params_type=GossipParameters,
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
        params_type=TwoPhaseParameters,
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
