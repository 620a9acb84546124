"""Experiment registry: every paper artefact as a first-class object.

PR 3 made protocols registry objects; this module does the same for the
experiments themselves.  Each of the paper's artefacts — Figures 1/4/5/6,
Table 1, and the heterogeneous-environment extension — is described by an
:class:`ExperimentSpec`: a canonical name plus aliases, the paper
artefact it regenerates, a typed parameter dataclass (the sweepable
axes), and a uniform two-hook execution contract:

* ``build(ctx) -> list[TrialSpec]`` — describe every trial as a
  seed-complete campaign spec (multi-phase experiments such as Figure 4
  run phase 1 through ``ctx.campaign``, keep its results in
  ``ctx.phase1`` and return the measurement specs);
* ``aggregate(ctx, results) -> ResultSet`` — fold the ordered results
  (and ``ctx.phase1``) into a typed, provenance-stamped
  :class:`~repro.results.ResultSet`; it folds numbers and does no
  analytic work, so a fully cached run costs cache reads only.

:func:`run_experiment` composes the two through a
:class:`~repro.experiments.campaign.Campaign`, so every registered
experiment — built-in or third-party — parallelises, caches and resumes
uniformly, and its output lands in the results store as durable data
rather than rendered text.

Third-party packages register experiments exactly like protocols,
through the ``repro.experiments`` entry-point group or the
``REPRO_EXPERIMENTS`` environment variable — the shared mechanism is
:mod:`repro.util.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.errors import (
    UnknownExperimentError,
    ValidationError,
    did_you_mean,
)
from repro.experiments.campaign import Campaign, TrialResult, TrialSpec
from repro.experiments.runner import ExperimentScale, current_scale, scaled
from repro.results.schema import Provenance, ResultSet
from repro.util import jsonio
from repro.util.registry import Registry, normalise
from repro.util.validation import check_positive_int, unwrap_optional

#: Entry-point group third-party packages register experiment specs under.
ENTRY_POINT_GROUP = "repro.experiments"

#: Comma-separated ``module:attr`` list of plugin specs to load.
PLUGIN_ENV = "REPRO_EXPERIMENTS"


@dataclass
class ExperimentContext:
    """Everything an experiment's build/aggregate hooks may need.

    Attributes:
        scale: the sizing preset the run uses (before the experiment's
            own parameter overrides are applied — hooks derive their
            effective scale from ``scale`` + ``params``).
        campaign: execution engine; ``build`` hooks may run phase 1
            (calibration, optimal cost) through it, and
            :func:`run_experiment` uses it for the main trial batch.
        params: instance of the spec's ``params_type`` (never None when
            the spec declares one — defaults are materialised).
        phase1: the ordered phase-1 results a ``build`` hook ran, kept
            for its ``aggregate`` hook (empty for single-phase
            experiments).
    """

    scale: ExperimentScale
    campaign: Campaign
    params: Optional[object] = None
    phase1: Sequence[TrialResult] = ()


# -- typed per-experiment parameter dataclasses ---------------------------------------
#
# One frozen dataclass per experiment; the field names are the sweepable
# axes (``repro experiments run figure4a --sweep connectivity=2,4``).
# Tuple-typed fields accept several values (they widen/narrow a grid
# axis); scalar fields accept exactly one.


def _check_trials(trials: Optional[int]) -> None:
    if trials is not None:
        check_positive_int(trials, "swept trials")


@dataclass(frozen=True)
class Figure1Params:
    """Axes of Figure 1: loss probabilities and path-asymmetry alphas."""

    loss: Optional[Tuple[float, ...]] = None
    alpha: Optional[Tuple[float, ...]] = None


@dataclass(frozen=True)
class Table1Params:
    """Axes of Table 1: the Bayesian interval count ``U``."""

    intervals: Optional[int] = None

    def __post_init__(self) -> None:
        if (
            self.intervals is not None
            and check_positive_int(self.intervals, "intervals") < 2
        ):
            raise ValidationError(
                f"intervals must be >= 2, got {self.intervals}"
            )


@dataclass(frozen=True)
class Figure4aParams:
    """Axes of Figure 4(a): connectivity grid, crash probabilities."""

    connectivity: Optional[Tuple[int, ...]] = None
    crash: Optional[Tuple[float, ...]] = None
    n: Optional[int] = None
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        _check_trials(self.trials)


@dataclass(frozen=True)
class Figure4bParams:
    """Axes of Figure 4(b): connectivity grid, loss probabilities."""

    connectivity: Optional[Tuple[int, ...]] = None
    loss: Optional[Tuple[float, ...]] = None
    n: Optional[int] = None
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        _check_trials(self.trials)


@dataclass(frozen=True)
class Figure5aParams:
    """Axes of Figure 5(a): connectivity grid, crash probabilities."""

    connectivity: Optional[Tuple[int, ...]] = None
    crash: Optional[Tuple[float, ...]] = None
    n: Optional[int] = None
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        _check_trials(self.trials)


@dataclass(frozen=True)
class Figure5bParams:
    """Axes of Figure 5(b): connectivity grid, loss probabilities."""

    connectivity: Optional[Tuple[int, ...]] = None
    loss: Optional[Tuple[float, ...]] = None
    n: Optional[int] = None
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        _check_trials(self.trials)


@dataclass(frozen=True)
class Figure6Params:
    """Axes of Figure 6: system sizes, topologies, loss probabilities."""

    size: Optional[Tuple[int, ...]] = None
    topology: Optional[Tuple[str, ...]] = None
    loss: Optional[Tuple[float, ...]] = None
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        _check_trials(self.trials)


@dataclass(frozen=True)
class MembershipExperimentParams:
    """Axes of the membership study: policy triples, view sizes, scenarios.

    ``policy`` entries are ``view:peer:propagation`` triples drawn from
    the :mod:`repro.membership` policy families, e.g.
    ``head:rand:pushpull``.
    """

    view_size: Optional[Tuple[int, ...]] = None
    policy: Optional[Tuple[str, ...]] = None
    scenario: Optional[Tuple[str, ...]] = None
    protocol: Optional[str] = None
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        _check_trials(self.trials)


@dataclass(frozen=True)
class KVExperimentParams:
    """Axes of the KV-store study: protocols × workload mixes × scenarios.

    ``zipf_s`` and ``write_ratio`` widen the workload-mix grid; ``keys``,
    ``ops`` and ``regions`` are scalar workload knobs shared by every
    cell (see :class:`repro.kvstore.workload.KVWorkloadParams`).
    """

    scenario: Optional[Tuple[str, ...]] = None
    protocol: Optional[Tuple[str, ...]] = None
    zipf_s: Optional[Tuple[float, ...]] = None
    write_ratio: Optional[Tuple[float, ...]] = None
    keys: Optional[int] = None
    ops: Optional[int] = None
    regions: Optional[int] = None
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        _check_trials(self.trials)


@dataclass(frozen=True)
class HeterogeneousParams:
    """Axes of the heterogeneous extension: connectivity grid, mean loss."""

    connectivity: Optional[Tuple[int, ...]] = None
    loss: Optional[float] = None
    n: Optional[int] = None
    trials: Optional[int] = None

    def __post_init__(self) -> None:
        _check_trials(self.trials)


# -- the spec -------------------------------------------------------------------------

BuildHook = Callable[[ExperimentContext], List[TrialSpec]]
AggregateHook = Callable[[ExperimentContext, Sequence[TrialResult]], ResultSet]


@dataclass(frozen=True)
class ExperimentSpec:
    """Descriptor of one registrable experiment.

    Attributes:
        name: canonical registry name (lower-case, e.g. ``figure4a``).
        description: one-line human summary.
        build: hook compiling the context into campaign trial specs
            (may run pre-phases through ``ctx.campaign``).
        aggregate: hook folding the ordered trial results into a
            :class:`~repro.results.ResultSet` (:func:`run_experiment`
            stamps provenance afterwards).
        artefact: the paper artefact the experiment regenerates
            (``"Figure 4(a)"``, ``"Table 1"``, ...).
        aliases: alternative accepted spellings.
        params_type: frozen dataclass of sweepable axes (None for a
            parameterless experiment).
        simulated: True when trials run the discrete-event simulator
            (these are the ones worth fanning out with ``--backend``);
            analytic experiments (Figure 1, Table 1) are False.
    """

    name: str
    description: str
    build: BuildHook
    aggregate: AggregateHook
    artefact: str = ""
    aliases: Tuple[str, ...] = ()
    params_type: Optional[type] = None
    simulated: bool = True

    def sweep_keys(self) -> Tuple[str, ...]:
        """The sweepable axis names (the params dataclass fields)."""
        if self.params_type is None:
            return ()
        return tuple(f.name for f in dataclass_fields(self.params_type))

    def param_fields(self) -> List[Tuple[str, str, object]]:
        """``(name, type name, default)`` rows for help/describe output."""
        if self.params_type is None:
            return []
        hints = get_type_hints(self.params_type)
        return [
            (f.name, _axis_type_name(hints[f.name]), f.default)
            for f in dataclass_fields(self.params_type)
        ]

    def make_params(
        self, overrides: Optional[Union[object, Dict[str, Any]]] = None
    ) -> Optional[object]:
        """Build the typed parameter object for one run.

        ``overrides`` may be an instance of ``params_type`` (returned
        as-is), or a mapping of axis name to value(s) — single values
        and lists both coerce, so CLI sweeps and API keyword overrides
        share one path.  Unknown axes raise with the supported keys and
        a closest-match suggestion.
        """
        if self.params_type is None:
            if overrides:
                raise ValidationError(
                    f"experiment {self.name!r} has no parameters; "
                    f"got overrides {sorted(overrides)}"
                )
            return None
        if overrides is None:
            return self.params_type()
        if isinstance(overrides, self.params_type):
            return overrides
        if not isinstance(overrides, dict):
            raise ValidationError(
                f"experiment params must be a {self.params_type.__name__} "
                f"or a dict, got {type(overrides).__name__}"
            )
        hints = get_type_hints(self.params_type)
        values: Dict[str, Any] = {}
        for key, value in overrides.items():
            axis = self._axis_name(key)
            values[axis] = _coerce_axis(self.name, axis, hints[axis], value)
        return self.params_type(**values)

    def _axis_name(self, key: str) -> str:
        """Resolve one override key to a sweep axis, or raise helpfully.

        Keys may carry the experiment's own name (or an alias) as a
        dotted prefix — ``kvstore.zipf_s`` means ``zipf_s`` — so sweep
        spellings stay uniform with the protocol registry's
        ``protocol.param`` convention.  Unknown axes raise the same
        ``did_you_mean`` suggestion shape as protocols and scenarios:
        ``--sweep kvstore.zipff_s=...`` suggests ``zipf_s`` and exits 2.
        """
        names = self.sweep_keys()
        bare = str(key)
        if "." in bare:
            prefix, _, rest = bare.partition(".")
            owners = {normalise(self.name), *(normalise(a) for a in self.aliases)}
            if normalise(prefix) in owners and rest:
                bare = rest
        if bare in names:
            return bare
        _, hint = did_you_mean(bare, names)
        raise ValidationError(
            f"experiment {self.name!r} does not sweep {bare!r}; "
            f"supported keys: {', '.join(names) or 'none'}{hint}"
        )

    def run(
        self,
        scale: Optional[ExperimentScale] = None,
        params: Optional[Union[object, Dict[str, Any]]] = None,
        campaign: Optional[Campaign] = None,
    ) -> ResultSet:
        """Build, execute and aggregate one run; see :func:`run_experiment`."""
        scale = scale or current_scale()
        campaign = campaign or Campaign()
        ctx = ExperimentContext(
            scale=scale, campaign=campaign, params=self.make_params(params)
        )
        specs = self.build(ctx)
        results = campaign.run(specs)
        result_set = self.aggregate(ctx, results)
        from dataclasses import replace

        return replace(
            result_set,
            provenance=Provenance.capture(
                experiment=self.name,
                artefact=self.artefact,
                scale=scale.name,
                # the non-default axis overrides
                params={
                    key: value
                    for key, value in (jsonio.encode(ctx.params) or {}).items()
                    if value is not None
                },
                rng_ledger=(
                    dict(campaign.rng_draws) if campaign.rng_ledger else None
                ),
                execution=campaign.execution_record(),
            ),
        )


def _axis_type_name(hint: Any) -> str:
    """Human name of an axis type: ``int...`` for multi-value axes."""
    hint = unwrap_optional(hint)
    if get_origin(hint) is tuple:
        element = get_args(hint)[0]
        return f"{getattr(element, '__name__', element)}..."
    return getattr(hint, "__name__", str(hint))


def _coerce_axis(experiment: str, key: str, hint: Any, value: Any) -> Any:
    """Coerce one axis override through the codec's field walk, after the
    sweep-only leniency: a scalar is a one-point grid, and a one-element
    list a scalar."""
    grid = get_origin(unwrap_optional(hint)) is tuple
    listed = isinstance(value, (list, tuple))
    if grid and value is not None and not listed:
        value = [value]
    elif not grid and listed:
        if len(value) != 1:
            raise ValidationError(
                f"sweep key {key!r} accepts exactly one value here, "
                f"got {list(value)}"
            )
        value = value[0]
    return jsonio.decode_value(
        f"experiment parameter {experiment}.{key}", hint, value
    )


# -- the registry ---------------------------------------------------------------------


def _check_spec(name: str, spec: ExperimentSpec) -> None:
    if not callable(spec.build) or not callable(spec.aggregate):
        raise ValidationError(
            f"experiment {name!r} build/aggregate hooks must be callable"
        )


#: The one experiment registry; the functions below are its public face.
EXPERIMENTS: Registry[ExperimentSpec] = Registry(
    ExperimentSpec,
    kind="experiment",
    unknown_error=UnknownExperimentError,
    entry_point_group=ENTRY_POINT_GROUP,
    plugin_env=PLUGIN_ENV,
    check=_check_spec,
)


def register_experiment(
    spec: ExperimentSpec, replace: bool = False
) -> ExperimentSpec:
    """Register an experiment spec (:meth:`Registry.register`); returns it."""
    return EXPERIMENTS.register(spec, replace=replace)


def unregister_experiment(name: str, missing_ok: bool = False) -> None:
    """Remove an experiment and all its aliases (mainly for tests/plugins)."""
    EXPERIMENTS.unregister(name, missing_ok=missing_ok)


def resolve_experiment(
    experiment: Union[str, ExperimentSpec],
) -> ExperimentSpec:
    """Resolve a name or alias (case/underscore-insensitive) to its spec.

    Unknown names raise :class:`~repro.errors.UnknownExperimentError`
    with the closest registered match as a "did you mean?" suggestion —
    the same error shape as the protocol registry's.
    """
    return EXPERIMENTS.resolve(experiment)


def experiment_names(simulated: Optional[bool] = None) -> Tuple[str, ...]:
    """Canonical names of registered experiments, in registration order.

    Args:
        simulated: filter on the spec's ``simulated`` flag (None = all).
    """
    return tuple(
        name
        for name, spec in zip(EXPERIMENTS.names(), EXPERIMENTS.specs())
        if simulated is None or spec.simulated == simulated
    )


def experiment_specs() -> List[ExperimentSpec]:
    """All registered specs, in registration order."""
    return EXPERIMENTS.specs()


def discover_plugins(force: bool = False) -> List[str]:
    """Load third-party experiment specs; returns newly registered names.

    Lazy, once per process unless ``force``; the sources and their order
    are :mod:`repro.util.registry`'s.
    """
    return EXPERIMENTS.discover(force=force)


def run_experiment(
    experiment: Union[str, ExperimentSpec],
    scale: Optional[ExperimentScale] = None,
    params: Optional[Union[object, Dict[str, Any]]] = None,
    campaign: Optional[Campaign] = None,
) -> ResultSet:
    """Run one registered experiment end to end.

    The one execution path behind ``repro experiments run``, the short
    ``repro <experiment>`` commands and :func:`repro.api.run_experiment`:
    resolve the spec, materialise its typed params, ``build`` the trial
    specs, execute them through the campaign (serially by default;
    parallel and cached when the campaign says so) and ``aggregate``
    into a provenance-stamped :class:`~repro.results.ResultSet`.
    """
    return resolve_experiment(experiment).run(
        scale=scale, params=params, campaign=campaign
    )


# -- built-in experiment hooks --------------------------------------------------------


def _sized_scale(
    scale: ExperimentScale,
    params: object,
    trials_in_scale: bool,
) -> ExperimentScale:
    """Apply the shared n / connectivity / trials axes to the scale.

    The ``--sweep`` semantics of ``repro experiments run``: ``n``
    replaces the system size first, swept connectivities must fit below
    the (possibly overridden) ``n`` — an explicitly requested value must
    never be silently dropped by the builders' ``connectivity < n`` grid
    filter — and ``trials`` lands in the scale only for the experiments
    that read ``scale.trials`` (Figures 4 and the heterogeneous study;
    the convergence experiments take trials as an explicit argument).
    """
    n = getattr(params, "n", None)
    if n is not None:
        scale = scaled(scale, n=int(n))
    connectivity = getattr(params, "connectivity", None)
    if connectivity:
        bad = [k for k in connectivity if k >= scale.n]
        if bad:
            raise ValidationError(
                f"swept connectivity values {bad} must be below n={scale.n} "
                "(sweep n=... too, or pick smaller values)"
            )
        scale = scaled(scale, connectivities=tuple(connectivity))
    trials = getattr(params, "trials", None)
    if trials_in_scale and trials is not None:
        scale = scaled(scale, trials=int(trials))
    return scale


def _figure1_build(ctx: ExperimentContext) -> List[TrialSpec]:
    from repro.experiments.figure1 import PAPER_ALPHAS, PAPER_LOSSES, figure1_build

    p: Figure1Params = ctx.params
    return figure1_build(
        losses=p.loss or PAPER_LOSSES, alphas=p.alpha or PAPER_ALPHAS
    )


def _figure1_aggregate(
    ctx: ExperimentContext, results: Sequence[TrialResult]
) -> ResultSet:
    from repro.experiments.figure1 import (
        PAPER_ALPHAS,
        PAPER_LOSSES,
        figure1_aggregate,
    )

    p: Figure1Params = ctx.params
    return figure1_aggregate(
        results, losses=p.loss or PAPER_LOSSES, alphas=p.alpha or PAPER_ALPHAS
    )


def _table1_build(ctx: ExperimentContext) -> List[TrialSpec]:
    from repro.experiments.table1 import table1_build

    p: Table1Params = ctx.params
    return table1_build(p.intervals if p.intervals is not None else 5)


def _table1_aggregate(
    ctx: ExperimentContext, results: Sequence[TrialResult]
) -> ResultSet:
    from repro.experiments.table1 import table1_aggregate

    p: Table1Params = ctx.params
    return table1_aggregate(results, p.intervals if p.intervals is not None else 5)


def _figure4_hooks(variant: str) -> Tuple[BuildHook, AggregateHook]:
    def build(ctx: ExperimentContext) -> List[TrialSpec]:
        from repro.experiments.figure4 import figure4_build

        scale = _sized_scale(ctx.scale, ctx.params, trials_in_scale=True)
        values = getattr(ctx.params, variant)
        ctx.phase1, specs = figure4_build(
            variant, scale, ctx.campaign, values=values
        )
        return specs

    def aggregate(
        ctx: ExperimentContext, results: Sequence[TrialResult]
    ) -> ResultSet:
        from repro.experiments.figure4 import figure4_aggregate

        scale = _sized_scale(ctx.scale, ctx.params, trials_in_scale=True)
        values = getattr(ctx.params, variant)
        return figure4_aggregate(variant, scale, ctx.phase1, results, values=values)

    return build, aggregate


def _figure5_hooks(variant: str) -> Tuple[BuildHook, AggregateHook]:
    def build(ctx: ExperimentContext) -> List[TrialSpec]:
        from repro.experiments.figure5 import figure5_build

        scale = _sized_scale(ctx.scale, ctx.params, trials_in_scale=False)
        values = getattr(ctx.params, variant)
        return figure5_build(
            variant, scale, values=values, trials=ctx.params.trials
        )

    def aggregate(
        ctx: ExperimentContext, results: Sequence[TrialResult]
    ) -> ResultSet:
        from repro.experiments.figure5 import figure5_aggregate

        scale = _sized_scale(ctx.scale, ctx.params, trials_in_scale=False)
        values = getattr(ctx.params, variant)
        return figure5_aggregate(
            variant, scale, results, values=values, trials=ctx.params.trials
        )

    return build, aggregate


def _figure6_build(ctx: ExperimentContext) -> List[TrialSpec]:
    from repro.experiments.figure6 import figure6_build

    p: Figure6Params = ctx.params
    return figure6_build(
        ctx.scale,
        sizes=p.size,
        trials=p.trials,
        topologies=p.topology,
        losses=p.loss,
    )


def _figure6_aggregate(
    ctx: ExperimentContext, results: Sequence[TrialResult]
) -> ResultSet:
    from repro.experiments.figure6 import figure6_aggregate

    p: Figure6Params = ctx.params
    return figure6_aggregate(
        ctx.scale,
        results,
        sizes=p.size,
        trials=p.trials,
        topologies=p.topology,
        losses=p.loss,
    )


def _membership_build(ctx: ExperimentContext) -> List[TrialSpec]:
    from repro.experiments.membership import membership_build

    return membership_build(ctx.scale, ctx.params)


def _membership_aggregate(
    ctx: ExperimentContext, results: Sequence[TrialResult]
) -> ResultSet:
    from repro.experiments.membership import membership_aggregate

    return membership_aggregate(ctx.scale, ctx.params, results)


def _kvstore_build(ctx: ExperimentContext) -> List[TrialSpec]:
    from repro.experiments.kvstore import kvstore_build

    return kvstore_build(ctx.scale, ctx.params)


def _kvstore_aggregate(
    ctx: ExperimentContext, results: Sequence[TrialResult]
) -> ResultSet:
    from repro.experiments.kvstore import kvstore_aggregate

    return kvstore_aggregate(ctx.scale, ctx.params, results)


def _heterogeneous_build(ctx: ExperimentContext) -> List[TrialSpec]:
    from repro.experiments.heterogeneous import heterogeneity_build

    p: HeterogeneousParams = ctx.params
    scale = _sized_scale(ctx.scale, p, trials_in_scale=True)
    ctx.phase1, specs = heterogeneity_build(
        scale,
        ctx.campaign,
        mean_loss=p.loss if p.loss is not None else 0.05,
        connectivities=p.connectivity,
    )
    return specs


def _heterogeneous_aggregate(
    ctx: ExperimentContext, results: Sequence[TrialResult]
) -> ResultSet:
    from repro.experiments.heterogeneous import heterogeneity_aggregate

    p: HeterogeneousParams = ctx.params
    scale = _sized_scale(ctx.scale, p, trials_in_scale=True)
    return heterogeneity_aggregate(
        scale,
        ctx.phase1,
        results,
        mean_loss=p.loss if p.loss is not None else 0.05,
        connectivities=p.connectivity,
    )


# -- built-in registrations -----------------------------------------------------------

register_experiment(
    ExperimentSpec(
        name="figure1",
        description="two-path adaptive/gossip ratio (analytic, exact)",
        artefact="Figure 1",
        aliases=("fig1",),
        params_type=Figure1Params,
        simulated=False,
        build=_figure1_build,
        aggregate=_figure1_aggregate,
    )
)
register_experiment(
    ExperimentSpec(
        name="table1",
        description="Bayesian belief adaptation (exact)",
        artefact="Table 1",
        aliases=("tab1",),
        params_type=Table1Params,
        simulated=False,
        build=_table1_build,
        aggregate=_table1_aggregate,
    )
)
_f4a_build, _f4a_aggregate = _figure4_hooks("crash")
register_experiment(
    ExperimentSpec(
        name="figure4a",
        description="reference/optimal message ratio, crashes (simulated)",
        artefact="Figure 4(a)",
        aliases=("fig4a",),
        params_type=Figure4aParams,
        build=_f4a_build,
        aggregate=_f4a_aggregate,
    )
)
_f4b_build, _f4b_aggregate = _figure4_hooks("loss")
register_experiment(
    ExperimentSpec(
        name="figure4b",
        description="reference/optimal message ratio, losses (simulated)",
        artefact="Figure 4(b)",
        aliases=("fig4b",),
        params_type=Figure4bParams,
        build=_f4b_build,
        aggregate=_f4b_aggregate,
    )
)
_f5a_build, _f5a_aggregate = _figure5_hooks("crash")
register_experiment(
    ExperimentSpec(
        name="figure5a",
        description="convergence effort, crashes (simulated)",
        artefact="Figure 5(a)",
        aliases=("fig5a",),
        params_type=Figure5aParams,
        build=_f5a_build,
        aggregate=_f5a_aggregate,
    )
)
_f5b_build, _f5b_aggregate = _figure5_hooks("loss")
register_experiment(
    ExperimentSpec(
        name="figure5b",
        description="convergence effort, losses (simulated)",
        artefact="Figure 5(b)",
        aliases=("fig5b",),
        params_type=Figure5bParams,
        build=_f5b_build,
        aggregate=_f5b_aggregate,
    )
)
register_experiment(
    ExperimentSpec(
        name="figure6",
        description="scalability: ring vs random tree (simulated)",
        artefact="Figure 6",
        aliases=("fig6",),
        params_type=Figure6Params,
        build=_figure6_build,
        aggregate=_figure6_aggregate,
    )
)
register_experiment(
    ExperimentSpec(
        name="membership",
        description="partial-view quality: policy triples x view sizes (simulated)",
        artefact="Membership study",
        aliases=("peer-sampling", "pv"),
        params_type=MembershipExperimentParams,
        build=_membership_build,
        aggregate=_membership_aggregate,
    )
)
register_experiment(
    ExperimentSpec(
        name="kvstore",
        description="causal KV store: protocols x workload mixes (simulated)",
        artefact="KV application study",
        aliases=("kv", "kv-store"),
        params_type=KVExperimentParams,
        build=_kvstore_build,
        aggregate=_kvstore_aggregate,
    )
)
register_experiment(
    ExperimentSpec(
        name="heterogeneous",
        description="extension: uniform vs heterogeneous environments",
        artefact="Section 7 extension",
        aliases=("hetero", "het"),
        params_type=HeterogeneousParams,
        build=_heterogeneous_build,
        aggregate=_heterogeneous_aggregate,
    )
)
