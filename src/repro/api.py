"""Public programmatic facade of :mod:`repro`.

One stable surface for programmatic users — protocol discovery and
registration, seeded trials, scenario comparisons, the experiment
registry and the durable results store — so scripts never need to reach
into ``repro.core`` / ``repro.sim`` internals:

    import repro.api as api

    api.list_protocols()                      # registered ProtocolSpecs
    api.get_protocol("twophase").name         # alias -> "two-phase"
    api.run_trial("partition-heal", "gossip") # one seeded TrialResult
    api.compare(["adaptive", "gossip"],       # ComparisonResult
                scenario="partition-heal", scale="quick")

    api.list_experiments()                    # registered ExperimentSpecs
    rs = api.run_experiment("figure4a", scale="quick",
                            backend="process:4")
    rs = api.run_experiment("figure4a", scale="quick", store=True)
    api.load_results(experiment="figure4a")   # stored ResultSets
    api.diff_results(a, b, tolerance=0.0)     # run-to-run regression check

Everything returns typed result records (:class:`TrialResult`,
:class:`ProtocolResult`, :class:`ComparisonResult`,
:class:`~repro.results.ResultSet`) rather than loose dicts.  Protocols
and experiments registered at runtime work everywhere in-process;
campaign fan-out (``backend="process:N"`` / ``"shard:N"``) rebuilds
trials in spawned workers, so parallel runs additionally need the
plugin importable there — an
installed ``repro.protocols`` / ``repro.experiments`` entry point, or
modules named in the ``REPRO_PROTOCOLS`` / ``REPRO_EXPERIMENTS``
environment variables.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.analysis.rules import Violation

from repro.errors import ValidationError
from repro.exec import (
    ExecutionBackend,
    SerialBackend,
    ShardQueueBackend,
    parse_backend,
)
from repro.experiments.campaign import Campaign
from repro.experiments.registry import (
    ExperimentContext,
    ExperimentSpec,
    experiment_names,
    experiment_specs,
    register_experiment,
    resolve_experiment,
    unregister_experiment,
)
from repro.experiments.registry import (
    discover_plugins as discover_experiment_plugins,
)
from repro.experiments.runner import ExperimentScale, current_scale
from repro.protocols.registry import (
    DeployContext,
    ProtocolSpec,
    default_protocols,
    deploy_protocol,
    discover_plugins,
    protocol_names,
    protocol_specs,
    register_protocol,
    resolve_protocol,
    unregister_protocol,
)
from repro.results.schema import (
    Provenance,
    ResultDiff,
    ResultSet,
    diff_result_sets,
)
from repro.kvstore.clocks import VectorClock
from repro.kvstore.metrics import KVMetricsMonitor
from repro.kvstore.replica import KVReplica, KVWrite
from repro.kvstore.trial import run_kv_trial
from repro.kvstore.workload import KVWorkloadParams, WorkloadGenerator
from repro.membership.quality import ViewQualityMonitor
from repro.membership.sampler import MembershipParams, PeerSampler, ViewExchange
from repro.membership.service import PeerSamplingService
from repro.results.store import ResultStore, resolve_result
from repro.scenario.adversarial import Find, HuntResult
from repro.scenario.adversarial import hunt as run_hunt
from repro.scenario.generate import ScenarioGenerator
from repro.scenario.registry import (
    build_scenario,
    promoted_names,
    scenario_names,
    scenario_trials,
)
from repro.scenario.registry import promote_scenario as _promote_scenario
from repro.scenario.run import (
    ComparisonResult,
    ProtocolResult,
    protocol_row,
    scenario_reports,
)
from repro.scenario.schema import ScenarioSpec
from repro.scenario.trial import run_scenario_trial

__all__ = [
    # protocol surface
    "ProtocolSpec",
    "DeployContext",
    "list_protocols",
    "get_protocol",
    "register_protocol",
    "unregister_protocol",
    "deploy_protocol",
    "discover_plugins",
    "protocol_names",
    "default_protocols",
    # scenario surface
    "list_scenarios",
    "get_scenario",
    "generate_scenarios",
    "hunt",
    "promote_scenario",
    "list_promoted_scenarios",
    "ScenarioGenerator",
    "HuntResult",
    "Find",
    # membership surface
    "MembershipParams",
    "PeerSampler",
    "PeerSamplingService",
    "ViewExchange",
    "ViewQualityMonitor",
    # kvstore surface
    "VectorClock",
    "KVReplica",
    "KVWrite",
    "KVWorkloadParams",
    "KVMetricsMonitor",
    "WorkloadGenerator",
    "run_kv_trial",
    # experiment surface
    "ExperimentSpec",
    "ExperimentContext",
    "list_experiments",
    "get_experiment",
    "register_experiment",
    "unregister_experiment",
    "experiment_names",
    "discover_experiment_plugins",
    "run_experiment",
    # results surface
    "ResultSet",
    "ResultDiff",
    "ResultStore",
    "Provenance",
    "load_results",
    "diff_results",
    # static analysis
    "lint_paths",
    # execution
    "run_trial",
    "run_scenario",
    "compare",
    "ExecutionBackend",
    "SerialBackend",
    "ShardQueueBackend",
    "parse_backend",
    # typed results
    "TrialResult",
    "ProtocolResult",
    "ComparisonResult",
    "version",
]

ParamOverrides = Dict[str, Dict[str, object]]


def version() -> str:
    """The installed package version (source-tree fallback: ``__version__``)."""
    from importlib import metadata

    try:
        return metadata.version("repro-dsn2004-diffusion")
    except metadata.PackageNotFoundError:
        from repro import __version__

        return __version__


# -- protocol surface -----------------------------------------------------------------


def list_protocols() -> List[ProtocolSpec]:
    """All registered protocol specs (built-ins + discovered plugins)."""
    return protocol_specs()


def get_protocol(name: Union[str, ProtocolSpec]) -> ProtocolSpec:
    """Resolve a protocol name or alias; raises with a did-you-mean hint."""
    return resolve_protocol(name)


# -- scenario surface -----------------------------------------------------------------


def list_scenarios() -> List[str]:
    """Names of the built-in scenarios."""
    return scenario_names()


def get_scenario(
    name: str, scale: Union[str, ExperimentScale, None] = None
) -> ScenarioSpec:
    """Resolve one scenario at the given scale (default: ambient).

    Accepts built-in names, ``gen:<seed>:<index>`` generated names and
    promoted scenario names.
    """
    return build_scenario(name, _scale(scale))


def generate_scenarios(
    seed: str = "0",
    count: int = 10,
    *,
    scale: Union[str, ExperimentScale, None] = None,
    start: int = 0,
) -> List[ScenarioSpec]:
    """``count`` seeded scenarios from the generator stream.

    Each spec is a pure function of ``(seed, scale name, index)`` and is
    addressable through the registry as ``gen:<seed>:<index>``.
    """
    return ScenarioGenerator(seed, _scale(scale)).specs(count, start=start)


def hunt(
    seed: str = "0",
    budget: int = 50,
    *,
    scale: Union[str, ExperimentScale, None] = None,
    top: int = 5,
    trials: Optional[int] = None,
    protocol: str = "adaptive",
    oracle: str = "optimal",
    min_regret: float = 0.0,
    shrink: bool = True,
    backend: BackendArg = None,
    store: Union[bool, str, ResultStore, None] = None,
) -> HuntResult:
    """Adversarial search over ``budget`` generated scenarios.

    Scores each scenario by adaptive-vs-oracle regret, keeps the
    ``top``-K worst, and (by default) shrinks each find's timeline to a
    minimal counterexample.  Deterministic for a pinned seed regardless
    of the execution ``backend`` (a spec string like ``"process:4"`` or
    an :class:`ExecutionBackend`).  With ``store``, the frontier is
    appended to the results store (generator-seed provenance included)
    and the returned result reflects the stored run id via
    :meth:`HuntResult.to_result_set`.
    """
    with probed_store(store) as result_store:
        result = run_hunt(
            seed,
            budget,
            scale=_scale(scale),
            top=top,
            trials=trials,
            protocol=protocol,
            oracle=oracle,
            min_regret=min_regret,
            shrink=shrink,
            campaign=Campaign(backend=backend),
        )
    if result_store is not None:
        result_store.append(result.to_result_set())
    return result


def promote_scenario(
    spec: Union[ScenarioSpec, Find],
    name: str,
    directory: Optional[str] = None,
) -> str:
    """Write a spec (or a hunt find's minimized spec) into the registry.

    Returns the path of the promoted JSON file; the scenario then
    resolves by ``name`` everywhere (``repro scenario run <name>``,
    :func:`get_scenario`, campaign workers).  See
    :func:`repro.scenario.registry.promote_scenario`.
    """
    if isinstance(spec, Find):
        spec = spec.minimized
    return _promote_scenario(spec, name, directory=directory)


def list_promoted_scenarios(directory: Optional[str] = None) -> List[str]:
    """Names of promoted (file-backed) scenarios."""
    return promoted_names(directory)


def _scale(scale: Union[str, ExperimentScale, None]) -> ExperimentScale:
    if isinstance(scale, ExperimentScale):
        return scale
    return current_scale(scale)


BackendArg = Union[str, ExecutionBackend, None]


# -- typed result records -------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    """One seeded (scenario, protocol, trial) outcome.

    ``reconv_time`` / ``reconverged`` are None for protocols without
    learned knowledge (the trial runner reports them as ``-1``).
    """

    scenario: str
    protocol: str
    trial: int
    delivery_ratio: float
    data_messages: float
    total_messages: float
    broadcasts: float
    failed_plans: float
    reconv_time: Optional[float]
    reconverged: Optional[float]
    metrics: Dict[str, float] = field(default_factory=dict, repr=False)

    @classmethod
    def from_metrics(
        cls, scenario: str, protocol: str, trial: int, metrics: Dict[str, float]
    ) -> "TrialResult":
        learned = metrics.get("reconverged", -1.0) >= 0.0
        return cls(
            scenario=scenario,
            protocol=protocol,
            trial=trial,
            delivery_ratio=metrics["delivery_ratio"],
            data_messages=metrics["data_messages"],
            total_messages=metrics["total_messages"],
            broadcasts=metrics["broadcasts"],
            failed_plans=metrics["failed_plans"],
            reconv_time=metrics["reconv_time"] if learned else None,
            reconverged=metrics["reconverged"] if learned else None,
            metrics=dict(metrics),
        )


# -- execution ------------------------------------------------------------------------


def run_trial(
    scenario: Union[str, ScenarioSpec],
    protocol: Union[str, ProtocolSpec],
    trial: int = 0,
    *,
    scale: Union[str, ExperimentScale, None] = None,
    params: Optional[ParamOverrides] = None,
    loss: Optional[float] = None,
    crash: Optional[float] = None,
    duration: Optional[float] = None,
) -> TrialResult:
    """Run one seeded trial of one protocol in one scenario.

    Args:
        scenario: built-in scenario name or a full
            :class:`~repro.scenario.schema.ScenarioSpec`.
        protocol: registered protocol name, alias or spec.
        trial: trial index (the per-repetition seed input).
        scale: sizing preset name or an
            :class:`~repro.experiments.runner.ExperimentScale`
            (name-based scenarios only).
        params: per-protocol parameter overrides,
            e.g. ``{"gossip": {"rounds": 4}}``.
        loss / crash / duration: base-environment overrides.
    """
    proto = resolve_protocol(protocol)
    if isinstance(scenario, ScenarioSpec):
        spec = scenario
    else:
        spec = build_scenario(str(scenario), _scale(scale))
    spec = spec.with_overrides(loss=loss, crash=crash, duration=duration)
    metrics = run_scenario_trial(spec, proto.name, int(trial), params=params)
    return TrialResult.from_metrics(spec.name, proto.name, int(trial), metrics)


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    protocols: Optional[Sequence[Union[str, ProtocolSpec]]] = None,
    *,
    scale: Union[str, ExperimentScale, None] = None,
    trials: Optional[int] = None,
    backend: BackendArg = None,
    params: Optional[ParamOverrides] = None,
    n: Optional[int] = None,
    loss: Optional[float] = None,
    crash: Optional[float] = None,
    duration: Optional[float] = None,
) -> ComparisonResult:
    """Compare protocols on one scenario; returns a typed comparison.

    Args:
        scenario: built-in scenario name, or a full
            :class:`~repro.scenario.schema.ScenarioSpec` (runs serially
            in-process: worker processes rebuild trials by scenario
            *name*, so custom spec objects cannot fan out).
        protocols: protocol subset (default: the registry's default
            comparison set); names, aliases and specs all resolve.
        scale: sizing preset ("quick" / "default" / "full") or a custom
            :class:`~repro.experiments.runner.ExperimentScale`.
        trials: seeded trials per protocol (default: scale-derived).
        backend: execution backend — a spec string (``"serial"``,
            ``"process:8"``, ``"shard:8"``, optional ``+cache[=DIR]``
            suffix) or an :class:`ExecutionBackend` instance.
            Name-based scenarios only.
        params: per-protocol parameter overrides, keyed by protocol
            name or alias, e.g. ``{"two-phase": {"rounds": 40}}``.
        n / loss / crash / duration: scenario overrides (``n`` only for
            name-based scenarios — the builder re-sizes the topology).
    """
    resolved = tuple(
        resolve_protocol(p).name for p in (protocols or default_protocols())
    )
    scale_obj = _scale(scale)
    count = scenario_trials(scale_obj, trials)
    campaign = Campaign(backend=backend)

    if isinstance(scenario, ScenarioSpec):
        if campaign.backend.workers > 1:
            raise ValidationError(
                "a custom ScenarioSpec runs serially (backend='serial'): "
                "campaign workers rebuild trials from the scenario *name*; "
                "register the scenario or run by name to fan out"
            )
        if n is not None:
            raise ValidationError(
                "n only applies to name-based scenarios (the builder "
                "re-sizes the topology); resize the spec's TopologySpec "
                "instead"
            )
        if campaign.cache is not None:
            raise ValidationError(
                "a custom ScenarioSpec runs without the on-disk cache "
                "(cache keys are built from name-based campaign specs); "
                "run by name to cache"
            )
        spec = scenario.with_overrides(
            loss=loss, crash=crash, duration=duration
        )
        rows = []
        for name in resolved:
            chunk = [
                run_scenario_trial(spec, name, trial, params=params)
                for trial in range(count)
            ]
            rows.append(protocol_row(name, chunk))
        return ComparisonResult(
            scenario=spec.name,
            description=spec.description,
            scale=scale_obj.name,
            trials=count,
            rows=tuple(rows),
        )

    combo: Dict[str, object] = {}
    if trials is not None:
        combo["trials"] = count
    for key, value in (("n", n), ("loss", loss), ("crash", crash),
                       ("duration", duration)):
        if value is not None:
            combo[key] = value
    for proto_key, overrides in (params or {}).items():
        name = resolve_protocol(proto_key).name
        for param, value in overrides.items():
            combo[f"{name}.{param}"] = value

    return scenario_reports(
        str(scenario),
        [combo],
        protocols=resolved,
        scale=scale_obj,
        campaign=campaign,
    )[0]


def compare(
    protocols: Sequence[Union[str, ProtocolSpec]],
    scenario: Union[str, ScenarioSpec] = "partition-heal",
    **kwargs: object,
) -> ComparisonResult:
    """Protocols-first spelling of :func:`run_scenario`."""
    return run_scenario(scenario, protocols, **kwargs)


# -- experiment surface ---------------------------------------------------------------


def list_experiments() -> List[ExperimentSpec]:
    """All registered experiment specs (built-ins + discovered plugins)."""
    return experiment_specs()


def get_experiment(name: Union[str, ExperimentSpec]) -> ExperimentSpec:
    """Resolve an experiment name or alias; raises with a did-you-mean hint."""
    return resolve_experiment(name)


def run_experiment(
    experiment: Union[str, ExperimentSpec],
    *,
    scale: Union[str, ExperimentScale, None] = None,
    params: Optional[Dict[str, object]] = None,
    backend: BackendArg = None,
    store: Union[bool, str, ResultStore, None] = None,
    rng_ledger: bool = False,
) -> ResultSet:
    """Run one registered experiment; returns its typed result set.

    Args:
        experiment: registered experiment name, alias or spec.
        scale: sizing preset name ("quick" / "default" / "full") or an
            :class:`~repro.experiments.runner.ExperimentScale`.
        params: axis overrides, e.g. ``{"connectivity": (2, 4),
            "trials": 4}`` — see ``get_experiment(name).sweep_keys()``.
        backend: execution backend — a spec string (``"serial"``,
            ``"process:8"``, ``"shard:8"``, optional ``+cache[=DIR]``
            suffix) or an :class:`ExecutionBackend` instance; the
            result is bit-identical whichever backend runs it.
        store: where to append the result — None/False = do not persist,
            True = the default results store, a string = that JSONL
            path, or a :class:`~repro.results.ResultStore`.  When
            stored, the returned result carries its ``run_id``.
        rng_ledger: record per-labelled-stream RNG draw counts into the
            result's provenance (``provenance.rng_ledger``).  Metric
            values are bit-identical with or without the ledger; see
            :class:`~repro.util.rng.DrawLedger`.

    The returned :class:`~repro.results.ResultSet` renders the exact
    table the ``repro <experiment>`` commands print, carries full provenance
    (scale, params, seed policy, package version, git state, schema
    version), and diffs against other runs via :func:`diff_results`.
    """
    result, result_store = run_in_campaign(
        Campaign(backend=backend, rng_ledger=rng_ledger),
        experiment,
        scale=scale,
        params=params,
        store=store,
    )
    if result_store is not None:
        result = result_store.append(result)
    return result


def run_in_campaign(
    campaign: Campaign,
    experiment: Union[str, ExperimentSpec],
    *,
    scale: Union[str, ExperimentScale, None] = None,
    params: Optional[Dict[str, object]] = None,
    store: Union[bool, str, ResultStore, None] = None,
) -> Tuple[ResultSet, Optional[ResultStore]]:
    """What :func:`run_experiment` is built on, on a caller-built campaign.

    ``repro experiments run`` builds the :class:`Campaign` itself (it
    prints the executed / cache-hit counters afterwards) and calls this.
    Returns the result *before* it is stored, with the probed store:
    appending is the caller's, so the CLI can still print a computed
    table when the append fails.
    """
    spec = resolve_experiment(experiment)
    # validate params before any filesystem side effects: a typo'd axis
    # must not leave a freshly created store file behind
    params_obj = spec.make_params(params)
    with probed_store(store) as result_store:
        result = spec.run(
            scale=_scale(scale), params=params_obj, campaign=campaign
        )
    return result, result_store


# -- results surface ------------------------------------------------------------------


def _store(
    store: Union[bool, str, ResultStore, None],
) -> Optional[ResultStore]:
    if store is None or store is False:
        return None
    if store is True:
        return ResultStore()
    if isinstance(store, ResultStore):
        return store
    return ResultStore(str(store))


@contextmanager
def probed_store(
    store: Union[bool, str, ResultStore, None],
) -> Iterator[Optional[ResultStore]]:
    """Resolve ``store`` and probe it around a run that will append to it.

    An unwritable store path must fail here, not after the trials
    already burned; a run that raises after the probe (value-level
    validation, a trial's own failure) removes the empty file the probe
    left behind.
    """
    result_store = _store(store)
    if result_store is not None:
        result_store.check_writable()
    try:
        yield result_store
    except Exception:
        if result_store is not None:
            result_store.discard_probe_residue()
        raise


def load_results(
    *,
    store: Union[bool, str, ResultStore, None] = True,
    experiment: Optional[str] = None,
    scale: Optional[str] = None,
    run_id: Optional[str] = None,
    since: Optional[str] = None,
    until: Optional[str] = None,
    last: Optional[int] = None,
) -> List[ResultSet]:
    """Query stored experiment runs (see :meth:`ResultStore.query`).

    ``experiment`` accepts registry aliases; an unresolvable name is
    used verbatim (stored runs may come from plugins not currently
    installed).
    """
    result_store = _store(store)
    if result_store is None:
        raise ValidationError("load_results needs a store (path or True)")
    if experiment is not None:
        try:
            experiment = resolve_experiment(experiment).name
        except ValidationError:
            pass
    return result_store.query(
        experiment=experiment,
        scale=scale,
        run_id=run_id,
        since=since,
        until=until,
        last=last,
    )


def diff_results(
    a: Union[ResultSet, str],
    b: Union[ResultSet, str],
    tolerance: float = 0.0,
    *,
    store: Union[bool, str, ResultStore, None] = True,
) -> ResultDiff:
    """Compare two runs cell-by-cell; the run-to-run regression check.

    Args:
        a / b: :class:`~repro.results.ResultSet` objects, or run ids
            looked up in ``store``.
        tolerance: maximum allowed absolute per-cell drift (0.0 demands
            bit-identical numbers — the determinism gate).

    Returns:
        A :class:`~repro.results.ResultDiff`; ``diff.clean`` is True
        when the runs agree within tolerance.
    """
    result_store = _store(store)
    return diff_result_sets(
        resolve_result(a, result_store),
        resolve_result(b, result_store),
        tolerance=tolerance,
    )


# -- static analysis surface ----------------------------------------------------------


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Sequence[str]] = None,
) -> "List[Violation]":
    """Run the determinism lint rules (D001-D005) over files or trees.

    Args:
        paths: files and/or directories; directories are walked for
            ``.py`` files.
        select: optional subset of rule codes to run (default: all).

    Returns:
        Sorted :class:`~repro.analysis.rules.Violation` records; empty
        means the tree honours the determinism contract.  ``repro lint``
        is the CLI wrapper over this function (exit 1 on violations).
    """
    from repro.analysis.lint import lint_paths as _lint_paths

    return _lint_paths(paths, select=select)
