"""Experiment registry: every paper artefact as a first-class object.

Each of the paper's artefacts — Figures 1/4/5/6, Table 1, and the
heterogeneous-environment extension — and the membership and KV-store
studies is described by an :class:`ExperimentSpec`: a canonical name
plus aliases, the paper artefact it regenerates, a typed parameter
dataclass (the sweepable axes), and a uniform two-hook execution
contract over the experiment's grid of *cells* (one per grid point):

* ``cells(ctx) -> [(coords, [TrialSpec])]`` — each grid point's
  coordinates beside its seed-complete campaign specs (two-phase
  experiments such as Figure 4 run phase 1 through ``ctx.campaign``
  here and put what it found, e.g. a point's optimal cost, into the
  point's coordinates);
* ``fold(ctx, [(coords, [TrialResult])]) -> ResultSet`` — fold each
  cell's ordered results, read beside its coordinates, into a typed
  :class:`~repro.results.ResultSet`; it folds numbers and derives no
  grid and does no analytic work, so a fully cached run costs cache
  reads only.

:func:`run_experiment` runs every cell's trials as one batch through a
:class:`~repro.experiments.campaign.Campaign` (see
:meth:`~repro.experiments.campaign.Campaign.run_cells`), so every
registered experiment — built-in or third-party — parallelises, caches
and resumes uniformly, and its output lands in the results store as
durable data rather than rendered text.

Third-party packages register experiments exactly like protocols,
through the ``repro.experiments`` entry-point group or the
``REPRO_EXPERIMENTS`` environment variable — the shared mechanism is
:mod:`repro.util.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
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
from repro.experiments import (
    figure1,
    figure4,
    figure5,
    figure6,
    heterogeneous,
    kvstore,
    membership,
    table1,
)
from repro.experiments.campaign import Campaign, Cell, CellResults
from repro.experiments.runner import ExperimentScale, current_scale
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
    """Everything an experiment's ``cells``/``fold`` hooks may need.

    Attributes:
        scale: the sizing preset the run uses (before the experiment's
            own parameter overrides are applied — ``cells`` derives the
            effective scale from ``scale`` + ``params``).
        campaign: execution engine; ``cells`` may run phase 1
            (calibration, optimal cost) through it, and
            :func:`run_experiment` uses it for the cells' trials.
        params: instance of the spec's ``params_type`` (never None when
            the spec declares one — defaults are materialised).
    """

    scale: ExperimentScale
    campaign: Campaign
    params: Any = None


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


@dataclass(frozen=True)
class ExperimentSpec:
    """Descriptor of one registrable experiment.

    Attributes:
        name: canonical registry name (lower-case, e.g. ``figure4a``).
        description: one-line human summary.
        cells: hook compiling the context into the experiment's cells,
            each grid point's coordinates beside its campaign trial
            specs (may run pre-phases through ``ctx.campaign``).
        fold: hook folding the cells' results, each cell's beside its
            coordinates, into a :class:`~repro.results.ResultSet`
            (:func:`run_experiment` stamps provenance afterwards).
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
    cells: Callable[[ExperimentContext], List[Cell]]
    fold: Callable[[ExperimentContext, List[CellResults]], ResultSet]
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
        a closest-match suggestion; a grid axis that lists a value twice
        raises either way.
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
            params = overrides
        elif isinstance(overrides, dict):
            hints = get_type_hints(self.params_type)
            values: Dict[str, Any] = {}
            for key, value in overrides.items():
                axis = self._axis_name(key)
                values[axis] = _coerce_axis(self.name, axis, hints[axis], value)
            params = self.params_type(**values)
        else:
            raise ValidationError(
                f"experiment params must be a {self.params_type.__name__} "
                f"or a dict, got {type(overrides).__name__}"
            )
        # a grid axis lists each value once: a repeated one would be a
        # second, identical cell
        for axis in dataclass_fields(params):
            grid = getattr(params, axis.name)
            if isinstance(grid, tuple):
                for at, value in enumerate(grid):
                    if value in grid[:at]:
                        raise ValidationError(
                            f"sweep key {axis.name!r} lists {value!r} more than once"
                        )
        return params

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
        """Build, execute and fold one run; see :func:`run_experiment`."""
        scale = scale or current_scale()
        campaign = campaign or Campaign()
        ctx = ExperimentContext(
            scale=scale, campaign=campaign, params=self.make_params(params)
        )
        result_set = self.fold(ctx, campaign.run_cells(self.cells(ctx)))
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
    if not callable(spec.cells) or not callable(spec.fold):
        raise ValidationError(
            f"experiment {name!r} cells/fold hooks must be callable"
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
    resolve the spec, materialise its typed params, compile its
    ``cells``, execute their trials through the campaign (serially by
    default; parallel and cached when the campaign says so) and
    ``fold`` the results into a provenance-stamped
    :class:`~repro.results.ResultSet`.
    """
    return resolve_experiment(experiment).run(
        scale=scale, params=params, campaign=campaign
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
        cells=figure1.cells,
        fold=figure1.fold,
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
        cells=table1.cells,
        fold=table1.fold,
    )
)
register_experiment(
    ExperimentSpec(
        name="figure4a",
        description="reference/optimal message ratio, crashes (simulated)",
        artefact="Figure 4(a)",
        aliases=("fig4a",),
        params_type=Figure4aParams,
        cells=partial(figure4.cells, "crash"),
        fold=partial(figure4.fold, "crash"),
    )
)
register_experiment(
    ExperimentSpec(
        name="figure4b",
        description="reference/optimal message ratio, losses (simulated)",
        artefact="Figure 4(b)",
        aliases=("fig4b",),
        params_type=Figure4bParams,
        cells=partial(figure4.cells, "loss"),
        fold=partial(figure4.fold, "loss"),
    )
)
register_experiment(
    ExperimentSpec(
        name="figure5a",
        description="convergence effort, crashes (simulated)",
        artefact="Figure 5(a)",
        aliases=("fig5a",),
        params_type=Figure5aParams,
        cells=partial(figure5.cells, "crash"),
        fold=partial(figure5.fold, "crash"),
    )
)
register_experiment(
    ExperimentSpec(
        name="figure5b",
        description="convergence effort, losses (simulated)",
        artefact="Figure 5(b)",
        aliases=("fig5b",),
        params_type=Figure5bParams,
        cells=partial(figure5.cells, "loss"),
        fold=partial(figure5.fold, "loss"),
    )
)
register_experiment(
    ExperimentSpec(
        name="figure6",
        description="scalability: ring vs random tree (simulated)",
        artefact="Figure 6",
        aliases=("fig6",),
        params_type=Figure6Params,
        cells=figure6.cells,
        fold=figure6.fold,
    )
)
register_experiment(
    ExperimentSpec(
        name="membership",
        description="partial-view quality: policy triples x view sizes (simulated)",
        artefact="Membership study",
        aliases=("peer-sampling", "pv"),
        params_type=MembershipExperimentParams,
        cells=membership.cells,
        fold=membership.fold,
    )
)
register_experiment(
    ExperimentSpec(
        name="kvstore",
        description="causal KV store: protocols x workload mixes (simulated)",
        artefact="KV application study",
        aliases=("kv", "kv-store"),
        params_type=KVExperimentParams,
        cells=kvstore.cells,
        fold=kvstore.fold,
    )
)
register_experiment(
    ExperimentSpec(
        name="heterogeneous",
        description="extension: uniform vs heterogeneous environments",
        artefact="Section 7 extension",
        aliases=("hetero", "het"),
        params_type=HeterogeneousParams,
        cells=heterogeneous.cells,
        fold=heterogeneous.fold,
    )
)
