"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro list
    python -m repro figure1
    python -m repro table1
    python -m repro figure4a --scale quick
    python -m repro figure5b --scale default --out results/
    python -m repro figure6 --scale full
    python -m repro demo                     # 30-second end-to-end demo

    # the experiment registry + durable results store
    python -m repro experiments list
    python -m repro experiments describe figure4a
    python -m repro experiments run figure4a --scale quick --backend process:4
    python -m repro results show
    python -m repro results show figure4a-0001-1a2b3c4d
    python -m repro results export --format csv --out results.csv
    python -m repro results diff --experiment figure4a   # latest two runs

    # parallel + cached + resumable campaigns over the same experiments
    python -m repro campaign figure4a --backend process:4 --scale quick
    python -m repro campaign figure6 --sweep topology=tree --sweep size=24,48
    python -m repro campaign figure4b --sweep loss=0.01,0.05 --sweep connectivity=2,4

    # declarative dynamic-environment scenarios (repro.scenario)
    python -m repro scenario list
    python -m repro scenario describe partition-heal
    python -m repro scenario run partition-heal --backend shard:4 --scale quick
    python -m repro scenario run wan-brownout --protocols adaptive,optimal,gossip
    python -m repro scenario run burst-storm --sweep gossip.rounds=4,8

    # generated + adversarial scenarios (repro.scenario.generate/adversarial)
    python -m repro scenario generate --seed 7 --count 3
    python -m repro scenario run gen:7:1 --scale quick
    python -m repro scenario hunt --budget 200 --scale quick
    python -m repro scenario hunt --budget 50 --promote worst-partition

    # the protocol registry (built-ins + plugins)
    python -m repro protocols list
    python -m repro protocols describe two-phase
    python -m repro --version

Every experiment command — the legacy per-figure spellings, ``campaign``
and ``experiments run`` — dispatches through the experiment registry
(:mod:`repro.experiments.registry`), so built-ins and plugin experiments
share one execution path: trials compile to campaign specs, fan out over
worker processes, persist in the on-disk trial cache, and aggregate into
typed :class:`~repro.results.ResultSet` records.  ``experiments run``
additionally appends each run to the results store
(``.repro-results.jsonl`` by default), which is what ``repro results
show/export/diff`` query — ``diff`` is the run-to-run regression gate.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro.errors import ReproError, ValidationError
from repro.exec import backend_specs, parse_backend
from repro.experiments.campaign import Campaign, parse_sweeps
from repro.experiments.registry import (
    ExperimentSpec,
    experiment_names,
    experiment_specs,
    resolve_experiment,
)
from repro.experiments.report import ExperimentRecord, ReportWriter
from repro.experiments.runner import current_scale
from repro.protocols.registry import (
    DeployContext,
    GossipProtocolParams,
    default_protocols,
    protocol_names,
    protocol_specs,
    resolve_protocol,
)
from repro.results.schema import ResultSet, diff_result_sets
from repro.results.store import ResultStore, default_store_path
from repro.scenario.registry import (
    build_scenario,
    scenario_names,
    scenario_trials,
)
from repro.scenario.run import SCENARIO_SWEEP_KEYS, scenario_reports
from repro.util.cache import TrialCache, default_cache_dir
from repro.util.tables import render_table


def _run_demo() -> int:
    """A self-contained optimal-vs-gossip comparison (quickstart-sized).

    Deploys both stacks through the protocol registry — the same
    ``factory(ctx)`` path scenario trials and the public API use.
    """
    from repro import (
        BroadcastMonitor,
        Configuration,
        MessageCategory,
        Network,
        RandomSource,
        Simulator,
        k_regular,
    )

    graph = k_regular(30, 6)
    config = Configuration.uniform(graph, loss=0.03)
    results = {}
    for label, params in (
        ("optimal", None),
        ("gossip", GossipProtocolParams(rounds=4)),
    ):
        sim = Simulator()
        network = Network(sim, config, RandomSource("cli-demo", label))
        monitor = BroadcastMonitor(graph.n)
        ctx = DeployContext(
            network=network, monitor=monitor, k_target=0.99, params=params
        )
        nodes = resolve_protocol(label).deploy(ctx)
        network.start()
        mid = nodes[0].broadcast("demo")
        sim.run(until=10.0)
        results[label] = (
            network.stats.sent(MessageCategory.DATA),
            monitor.delivery_ratio(mid),
        )
    print("30 processes, connectivity 6, L=0.03, K=0.99")
    for label, (messages, ratio) in results.items():
        print(f"  {label:8s}: {messages:4d} data messages, delivery {ratio:.3f}")
    advantage = results["gossip"][0] / max(results["optimal"][0], 1)
    print(f"  gossip/optimal message ratio: {advantage:.2f}x")
    return 0


def _add_campaign_options(cmd: argparse.ArgumentParser, sweep_help: str) -> None:
    """The shared option block of the campaign-backed subcommands."""
    cmd.add_argument(
        "--scale",
        choices=["quick", "default", "full"],
        default=None,
        help="experiment size preset (default: REPRO_BENCH_SCALE or 'default')",
    )
    cmd.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help=(
            "execution backend: serial, process[:N], shard[:N[:S]] — "
            "see 'repro backends list' (default: process with all CPUs)"
        ),
    )
    cmd.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help=sweep_help,
    )
    cmd.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"trial cache directory (default: $REPRO_CACHE_DIR or {default_cache_dir()!r})",
    )
    cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk trial cache",
    )
    cmd.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write text/JSON artefacts to DIR",
    )


def _add_store_option(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--store",
        metavar="FILE",
        default=None,
        help=(
            "results store path (default: $REPRO_RESULTS or "
            f"{default_store_path()!r})"
        ),
    )


def _version_string() -> str:
    """Package version from installed metadata, source-tree fallback."""
    from repro.api import version

    return version()


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the experiments of 'An Adaptive Algorithm for "
            "Efficient Message Diffusion in Unreliable Environments' "
            "(DSN 2004)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_version_string()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    sub.add_parser("demo", help="30-second optimal-vs-gossip demo")

    prot = sub.add_parser(
        "protocols",
        help="registered diffusion protocols (list/describe)",
        description=(
            "Inspect the protocol registry: built-in protocol stacks "
            "plus any plugins discovered through the 'repro.protocols' "
            "entry-point group or the REPRO_PROTOCOLS environment "
            "variable."
        ),
    )
    prot_sub = prot.add_subparsers(dest="protocols_command", required=True)
    prot_sub.add_parser(
        "list", help="list registered protocols with capability flags"
    )
    prot_desc = prot_sub.add_parser(
        "describe", help="print one protocol's spec (params, flags, aliases)"
    )
    prot_desc.add_argument("name", metavar="PROTOCOL")

    exps = sub.add_parser(
        "experiments",
        help="the experiment registry (list/describe/run)",
        description=(
            "Inspect and run registered experiments: the paper's "
            "figures and tables plus any plugins discovered through "
            "the 'repro.experiments' entry-point group or the "
            "REPRO_EXPERIMENTS environment variable.  'run' executes "
            "through the campaign engine (parallel, cached, "
            "bit-identical to serial) and appends the typed result to "
            "the results store for 'repro results show/export/diff'."
        ),
    )
    exps_sub = exps.add_subparsers(dest="experiments_command", required=True)
    exps_sub.add_parser(
        "list", help="list registered experiments with artefacts and axes"
    )
    exps_desc = exps_sub.add_parser(
        "describe", help="print one experiment's spec (axes, aliases)"
    )
    exps_desc.add_argument("name", metavar="EXPERIMENT")
    exps_run = exps_sub.add_parser(
        "run", help="run one experiment through the registry"
    )
    exps_run.add_argument("name", metavar="EXPERIMENT")
    _add_campaign_options(
        exps_run,
        sweep_help=(
            "override one experiment axis; repeatable "
            "(see 'repro experiments describe <name>' for the axes)"
        ),
    )
    exps_run.add_argument(
        "--rng-ledger",
        action="store_true",
        help=(
            "record per-stream RNG draw counts into the result's "
            "provenance (metric values are unaffected)"
        ),
    )
    _add_store_option(exps_run)
    exps_run.add_argument(
        "--no-store",
        action="store_true",
        help="do not append the result to the results store",
    )

    res = sub.add_parser(
        "results",
        help="the results store (show/export/diff)",
        description=(
            "Query the durable results store: every 'repro experiments "
            "run' appends one typed, provenance-stamped record.  'diff' "
            "compares two runs cell-by-cell with a numeric tolerance — "
            "the run-to-run regression gate."
        ),
    )
    res_sub = res.add_subparsers(dest="results_command", required=True)
    res_show = res_sub.add_parser(
        "show", help="list stored runs, or print one run's table"
    )
    res_show.add_argument(
        "run_id", nargs="?", default=None, metavar="RUN_ID",
        help="print this run in full (default: list all runs)",
    )
    res_show.add_argument("--experiment", default=None, metavar="NAME")
    res_show.add_argument("--last", type=int, default=None, metavar="N")
    _add_store_option(res_show)
    res_export = res_sub.add_parser(
        "export", help="export stored runs as CSV or JSON"
    )
    res_export.add_argument("--experiment", default=None, metavar="NAME")
    res_export.add_argument(
        "--format", choices=["csv", "json"], default="csv", dest="fmt"
    )
    res_export.add_argument(
        "--out", default=None, metavar="FILE",
        help="write to FILE (default: stdout)",
    )
    _add_store_option(res_export)
    res_diff = res_sub.add_parser(
        "diff", help="compare two runs cell-by-cell (regression check)"
    )
    res_diff.add_argument(
        "runs", nargs="*", metavar="RUN_ID",
        help="two run ids (or none with --experiment: its latest two runs)",
    )
    res_diff.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="diff the latest two stored runs of this experiment",
    )
    res_diff.add_argument(
        "--tolerance", type=float, default=0.0, metavar="T",
        help="max allowed per-cell absolute drift (default: 0 = bit-identical)",
    )
    _add_store_option(res_diff)

    camp = sub.add_parser(
        "campaign",
        help="run a simulated experiment in parallel with result caching",
        description=(
            "Run one of the simulated experiments as a campaign: trials "
            "fan out across worker processes and completed trials are "
            "cached on disk, so re-runs and interrupted sweeps resume "
            "for free.  Output is bit-identical to the serial command."
        ),
    )
    camp.add_argument("experiment", choices=experiment_names(simulated=True))
    _add_campaign_options(
        camp,
        sweep_help=(
            "override one sweep axis; repeatable (e.g. --sweep "
            "connectivity=2,4,8 --sweep loss=0.01,0.05 --sweep topology=tree)"
        ),
    )
    camp.add_argument(
        "--rng-ledger",
        action="store_true",
        help=(
            "record per-stream RNG draw counts into the result's "
            "provenance (metric values are unaffected)"
        ),
    )

    backends = sub.add_parser(
        "backends",
        help="campaign execution backends (list)",
        description=(
            "Inspect the registered execution backends.  A backend spec "
            "is NAME[:ARG[:ARG]] with an optional '+cache[=DIR]' suffix "
            "attaching the shared trial cache; pass it to --backend on "
            "campaign-backed commands or backend= in repro.api.  Every "
            "backend produces bit-identical results."
        ),
    )
    backends_sub = backends.add_subparsers(
        dest="backends_command", required=True
    )
    backends_sub.add_parser("list", help="list backends and spec syntax")

    scen = sub.add_parser(
        "scenario",
        help="declarative dynamic-environment scenarios (list/describe/run)",
        description=(
            "Run named dynamic-environment scenarios: a topology, a base "
            "failure configuration, a deterministic dynamics timeline "
            "(partitions, brownouts, churn, crash bursts) and a workload, "
            "compared across protocols.  Trials run through the campaign "
            "engine: parallel, cached, bit-identical to serial."
        ),
    )
    scen_sub = scen.add_subparsers(dest="scenario_command", required=True)
    scen_sub.add_parser("list", help="list built-in scenarios")
    desc = scen_sub.add_parser("describe", help="print one scenario's spec")
    desc.add_argument("name", metavar="SCENARIO")
    desc.add_argument(
        "--scale", choices=["quick", "default", "full"], default=None
    )
    run = scen_sub.add_parser(
        "run", help="run one scenario across protocols"
    )
    run.add_argument("name", metavar="SCENARIO")
    run.add_argument(
        "--protocols",
        default=",".join(default_protocols()),
        metavar="P1,P2,...",
        help=(
            "comma-separated protocol subset (registered: "
            + ", ".join(protocol_names())
            + "; aliases accepted — see 'repro protocols list')"
        ),
    )
    _add_campaign_options(
        run,
        sweep_help=(
            "override one axis; repeatable; keys: "
            + ", ".join(SCENARIO_SWEEP_KEYS)
            + " plus per-protocol params as protocol.param "
            "(e.g. gossip.rounds=4,8 — see 'repro protocols describe'); "
            "multiple values print one table per combination"
        ),
    )
    run.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help=(
            "append the comparison table to the results store "
            "(default path when FILE is omitted) for zero-drift re-run "
            "diffs via 'repro results diff'"
        ),
    )

    gen_cmd = scen_sub.add_parser(
        "generate",
        help="print seeded generated scenarios",
        description=(
            "Sample scenarios from the seeded generator: every spec is a "
            "pure function of (seed, scale, index), valid by "
            "construction, and runnable as gen:<seed>:<index>."
        ),
    )
    gen_cmd.add_argument("--seed", default="0", metavar="SEED")
    gen_cmd.add_argument("--count", type=int, default=5, metavar="N")
    gen_cmd.add_argument(
        "--start", type=int, default=0, metavar="INDEX",
        help="first generator index (default 0)",
    )
    gen_cmd.add_argument(
        "--scale", choices=["quick", "default", "full"], default=None
    )
    gen_cmd.add_argument(
        "--json", action="store_true",
        help="print canonical JSON, one spec per line",
    )
    gen_cmd.add_argument(
        "--out", metavar="DIR", default=None,
        help="write one <name>.json file per spec to DIR",
    )

    hunt_cmd = scen_sub.add_parser(
        "hunt",
        help="adversarial search for worst-case adaptive-vs-oracle regret",
        description=(
            "Fan a budget of generated scenarios through the campaign "
            "runner, score each by adaptive-vs-oracle regret, keep the "
            "top-K worst and shrink each find's timeline to a minimal "
            "counterexample.  Bit-identical for a pinned seed on any "
            "--backend."
        ),
    )
    hunt_cmd.add_argument("--seed", default="0", metavar="SEED")
    hunt_cmd.add_argument(
        "--budget", type=int, default=50, metavar="N",
        help="generated scenarios to evaluate (default 50)",
    )
    hunt_cmd.add_argument(
        "--top", type=int, default=5, metavar="K",
        help="frontier size (default 5)",
    )
    hunt_cmd.add_argument(
        "--trials", type=int, default=None, metavar="N",
        help="trials per (scenario, protocol) cell (default: scale preset)",
    )
    hunt_cmd.add_argument(
        "--protocol", default="adaptive", help="protocol under test"
    )
    hunt_cmd.add_argument(
        "--oracle", default="optimal", help="reference protocol"
    )
    hunt_cmd.add_argument(
        "--min-regret", type=float, default=0.0, metavar="R",
        help="drop frontier entries below this regret",
    )
    hunt_cmd.add_argument(
        "--no-shrink", action="store_true",
        help="skip counterexample minimization",
    )
    hunt_cmd.add_argument(
        "--promote", metavar="NAME", default=None,
        help="promote the rank-1 minimized find into the scenario registry",
    )
    hunt_cmd.add_argument(
        "--scale", choices=["quick", "default", "full"], default=None
    )
    hunt_cmd.add_argument(
        "--backend", default=None, metavar="SPEC",
        help=(
            "execution backend: serial, process[:N], shard[:N[:S]] — "
            "see 'repro backends list' (default: process with all CPUs)"
        ),
    )
    hunt_cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="trial cache directory",
    )
    hunt_cmd.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk trial cache",
    )
    hunt_cmd.add_argument(
        "--out", metavar="DIR", default=None,
        help="write the full hunt JSON artefact to DIR",
    )
    hunt_cmd.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help=(
            "append the frontier to the results store (default path "
            "when FILE is omitted)"
        ),
    )

    lint_cmd = sub.add_parser(
        "lint",
        help="determinism static analysis (rules D001-D005)",
        description=(
            "Check Python sources against the determinism contract: no "
            "wall-clock/entropy calls or ad-hoc RNGs in the simulation "
            "subsystems, no unsorted set iteration feeding "
            "order-sensitive state, metrics-transparent monitors, "
            "frozen *Params dataclasses and __slots__ on sim hot-path "
            "classes.  Violations print as 'file:line: DXXX message' "
            "and exit 1; suppress a reviewed line in place with "
            "'# repro: noqa-det[DXXX]'."
        ),
    )
    lint_cmd.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files and/or directories to lint (e.g. src/repro)",
    )
    lint_cmd.add_argument(
        "--select",
        default=None,
        metavar="D001,D002,...",
        help="comma-separated subset of rule codes to run (default: all)",
    )
    lint_cmd.add_argument(
        "--explain",
        action="store_true",
        help="print the rule table and exit",
    )

    # legacy per-experiment spellings, one subcommand per registered
    # experiment (delegating to the registry), added after every fixed
    # subcommand: an experiment whose name collides with one (a plugin
    # named "campaign") must not take down the parser — it stays
    # reachable via 'experiments run'
    for spec in experiment_specs():
        if spec.name in sub.choices:
            continue
        cmd = sub.add_parser(spec.name, help=spec.description)
        cmd.add_argument(
            "--scale",
            choices=["quick", "default", "full"],
            default=None,
            help="experiment size preset (default: REPRO_BENCH_SCALE or 'default')",
        )
        cmd.add_argument(
            "--out",
            metavar="DIR",
            default=None,
            help="also write text/JSON artefacts to DIR",
        )
    return parser


def _campaign_setup(args: argparse.Namespace) -> Campaign:
    """Shared --backend/--cache-dir/--no-cache handling of the
    campaign-backed subcommands: a ``+cache[=DIR]`` backend suffix names
    the cache, ``--cache-dir`` (or its default) applies without one, and
    neither option may contradict the suffix."""
    backend = parse_backend(args.backend or "process")
    cache = backend.cache
    if cache is None:
        cache = None if args.no_cache else TrialCache(args.cache_dir)
    elif args.no_cache or (
        args.cache_dir is not None
        and os.path.realpath(args.cache_dir) != os.path.realpath(cache.directory)
    ):
        given = "--no-cache" if args.no_cache else f"--cache-dir {args.cache_dir!r}"
        raise ValidationError(
            f"{given} contradicts --backend {args.backend!r}, which "
            f"attaches the cache {cache.directory!r}"
        )
    return Campaign(
        backend=backend,
        cache=cache,
        rng_ledger=getattr(args, "rng_ledger", False),
    )


def _campaign_summary(campaign: Campaign) -> str:
    cache = campaign.cache
    return (
        f"campaign: {campaign.executed} trials executed, "
        f"{campaign.cached} cache hits "
        f"(backend={campaign.backend.describe()}, "
        f"cache={cache.directory if cache else 'off'})"
    )


def _write_result_artefacts(
    result: ResultSet,
    spec: ExperimentSpec,
    out_dir: str,
    metadata: Optional[Dict[str, object]] = None,
) -> None:
    """``--out`` artefacts for one registry-run experiment.

    Figure-shaped results keep the legacy ReportWriter layout
    (``<name>.txt`` / ``<name>.json`` with the series data); flat tables
    (Table 1) keep their historical text artefact.
    """
    if result.x_label is not None:
        writer = ReportWriter(out_dir)
        writer.add(ExperimentRecord.from_result_set(result, spec, metadata))
        return
    os.makedirs(out_dir, exist_ok=True)
    stem = "table_1" if spec.name == "table1" else spec.name
    with open(os.path.join(out_dir, f"{stem}.txt"), "w") as fh:
        fh.write(result.render() + "\n")


def _run_registry_experiment(args: argparse.Namespace) -> int:
    """Legacy ``repro figure4a``-style commands, through the registry."""
    scale = current_scale(args.scale)
    spec = resolve_experiment(args.command)
    result = spec.run(scale=scale)
    print(result.render())
    if args.out:
        _write_result_artefacts(result, spec, args.out)
        if result.x_label is not None:
            print(f"\nartefacts written to {args.out}/")
    return 0


def _run_campaign(args: argparse.Namespace) -> int:
    scale = current_scale(args.scale)
    try:
        spec = resolve_experiment(args.experiment)
        campaign = _campaign_setup(args)
        sweeps = parse_sweeps(args.sweep)
        result = spec.run(scale=scale, params=sweeps, campaign=campaign)
    except ValueError as exc:
        # ValidationError and the builders' ValueErrors (bad variant,
        # bad topology, bad worker count) all surface as clean usage errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    print(f"\n{_campaign_summary(campaign)}")
    if campaign.rng_ledger:
        print(
            f"rng ledger: {len(campaign.rng_draws)} streams, "
            f"{sum(campaign.rng_draws.values())} draws "
            "(recorded in provenance)"
        )
    if args.out:
        _write_result_artefacts(
            result,
            spec,
            args.out,
            metadata={
                "workers": campaign.workers,
                "trials_executed": campaign.executed,
                "cache_hits": campaign.cached,
                "cache_dir": (
                    campaign.cache.directory if campaign.cache else None
                ),
                "sweeps": args.sweep,
            },
        )
        print(f"artefacts written to {args.out}/")
    return 0


def _print_experiment_table() -> None:
    """One line per registered experiment: name, artefact, axes."""
    specs = experiment_specs()
    rows = []
    for spec in specs:
        rows.append(
            [
                spec.name,
                spec.artefact or "-",
                ", ".join(spec.aliases) or "-",
                ", ".join(spec.sweep_keys()) or "-",
            ]
        )
    print(
        render_table(
            ["experiment", "artefact", "aliases", "sweep axes"], rows
        )
    )


def _run_experiments(args: argparse.Namespace) -> int:
    """``repro experiments list|describe|run``."""
    if args.experiments_command == "list":
        _print_experiment_table()
        print(
            "\n  'repro experiments describe <name>' for the axes; "
            "'repro experiments run <name>' executes through the "
            "campaign engine and stores the typed result; plugins "
            "register via the 'repro.experiments' entry-point group "
            "or REPRO_EXPERIMENTS"
        )
        return 0
    if args.experiments_command == "describe":
        try:
            spec = resolve_experiment(args.name)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{spec.name} — {spec.description}")
        print(f"  artefact:     {spec.artefact or '(none)'}")
        print(f"  aliases:      {', '.join(spec.aliases) or '(none)'}")
        print(f"  execution:    {'simulated' if spec.simulated else 'analytic'}"
              " (campaign-backed either way)")
        rows = spec.param_fields()
        if not rows:
            print("  axes:         (none)")
        else:
            print("  axes:         (sweep as --sweep <axis>=v1,v2)")
            width = max(len(name) for name, _, _ in rows)
            for name, type_name, _ in rows:
                print(f"    {name:<{width}}  {type_name}")
        return 0

    # run
    scale = current_scale(args.scale)
    store: Optional[ResultStore] = None
    try:
        spec = resolve_experiment(args.name)
        campaign = _campaign_setup(args)
        # validate the sweeps before touching the filesystem: a typo'd
        # --sweep key must not leave a freshly created store file behind
        params = spec.make_params(parse_sweeps(args.sweep))
        # probe the store before running: an unwritable --store path
        # must fail here, not after the trials already burned
        store = (
            None if args.no_store else ResultStore(args.store).check_writable()
        )
        result = spec.run(scale=scale, params=params, campaign=campaign)
    except (ValueError, OSError, ReproError) as exc:
        if store is not None:
            # value-level validation (connectivity<n) and a trial's own
            # failure fire inside spec.run, after the probe — clean up
            # an empty store file
            store.discard_probe_residue()
        if not isinstance(exc, (ValueError, OSError)):
            raise  # a trial's ReproError: main() maps it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store_error: Optional[Exception] = None
    if store is not None:
        try:
            result = store.append(result)
        except (OSError, ValueError) as exc:
            store_error = exc  # never discard a computed table over this
    print(result.render())
    print(f"\n{_campaign_summary(campaign)}")
    if campaign.rng_ledger:
        print(
            f"rng ledger: {len(campaign.rng_draws)} streams, "
            f"{sum(campaign.rng_draws.values())} draws "
            "(recorded in provenance)"
        )
    if store is not None and store_error is None:
        print(f"stored as {result.run_id} in {store.path}")
    if args.out:
        _write_result_artefacts(
            result,
            spec,
            args.out,
            metadata={
                "workers": campaign.workers,
                "trials_executed": campaign.executed,
                "cache_hits": campaign.cached,
                "sweeps": args.sweep,
            },
        )
        print(f"artefacts written to {args.out}/")
    if store_error is not None:
        print(
            f"error: result not stored in {store.path}: {store_error}",
            file=sys.stderr,
        )
        return 1
    return 0


def _canonical_experiment(name: Optional[str]) -> Optional[str]:
    """Resolve an experiment filter through the registry when possible.

    Stored runs may come from plugins that are not installed right now,
    so an unresolvable name falls back to the raw string instead of
    erroring — the query then simply matches the stored name.
    """
    if name is None:
        return None
    try:
        return resolve_experiment(name).name
    except ValidationError:
        return name


def _run_results(args: argparse.Namespace) -> int:
    """``repro results show|export|diff`` (all read-only on the store)."""
    try:
        return _run_results_inner(args, ResultStore(args.store))
    except OSError as exc:
        # unreadable store path / unwritable --out: usage error, not a
        # traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run_results_inner(args: argparse.Namespace, store: ResultStore) -> int:
    if args.results_command == "show":
        if args.run_id:
            try:
                result = store.get(args.run_id)
            except ValidationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(result.render())
            prov = result.provenance
            if prov is not None:
                print(
                    f"\nrun {result.run_id}: {prov.experiment} "
                    f"({prov.artefact or 'no artefact'}), "
                    f"scale {prov.scale or '?'}"
                )
                if prov.params:
                    params = ", ".join(
                        f"{k}={v}" for k, v in sorted(prov.params.items())
                    )
                    print(f"  params:   {params}")
                print(f"  seed:     {prov.seed}")
                print(
                    f"  version:  repro {prov.repro_version} "
                    f"(schema v{prov.schema_version}"
                    + (f", git {prov.git}" if prov.git else "")
                    + ")"
                )
                if prov.created_at:
                    print(f"  created:  {prov.created_at}")
            return 0
        try:
            results = store.query(
                experiment=_canonical_experiment(args.experiment),
                last=args.last,
            )
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not results:
            print(f"no stored runs in {store.path}")
            return 0
        rows = []
        for result in results:
            prov = result.provenance
            rows.append(
                [
                    result.run_id or "-",
                    result.experiment,
                    prov.scale if prov else "-",
                    len(result.rows),
                    (prov.created_at if prov else None) or "-",
                ]
            )
        print(
            render_table(
                ["run id", "experiment", "scale", "rows", "created (UTC)"],
                rows,
            )
        )
        print(f"\n{len(results)} run(s) in {store.path}")
        return 0

    if args.results_command == "export":
        experiment = _canonical_experiment(args.experiment)
        text = (
            store.export_csv(experiment=experiment)
            if args.fmt == "csv"
            else store.export_json(experiment=experiment)
        )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
            print(f"exported to {args.out}")
        else:
            print(text, end="" if text.endswith("\n") else "\n")
        return 0

    # diff
    try:
        if args.runs and len(args.runs) == 2:
            a, b = (store.get(run_id) for run_id in args.runs)
        elif not args.runs and args.experiment:
            latest = store.latest(
                experiment=_canonical_experiment(args.experiment), count=2
            )
            if len(latest) < 2:
                raise ValidationError(
                    f"need two stored runs of {args.experiment!r} to diff, "
                    f"found {len(latest)} in {store.path}"
                )
            a, b = latest
        else:
            raise ValidationError(
                "results diff takes exactly two RUN_IDs, or --experiment "
                "NAME to diff its latest two runs"
            )
        diff = diff_result_sets(a, b, tolerance=args.tolerance)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(diff.render())
    return 0 if diff.clean else 1


def _run_list() -> int:
    """``repro list``: experiments plus the non-experiment subcommands."""
    print("experiments:")
    specs = experiment_specs()
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        print(f"  {spec.name:<{width}}  {spec.description}")
    print(
        "\nexperiments list|describe|run  the experiment registry "
        "(typed results, stored + diffable)"
    )
    _print_experiment_table()
    print(
        "\ncampaign <experiment>  parallel cached run of any simulated "
        "experiment above"
    )
    simulated = [spec for spec in specs if spec.simulated]
    sweep_width = max(len(spec.name) for spec in simulated)
    for spec in simulated:
        print(
            f"  {spec.name:<{sweep_width}}  --sweep "
            f"{', '.join(spec.sweep_keys())}"
        )
    print(
        "\nresults show|export|diff  the durable results store "
        "(provenance, CSV/JSON export, regression diff)"
    )
    print(
        "\nscenario list|describe|run  dynamic-environment scenarios "
        "(protocol comparisons under stress)"
    )
    print(f"  built-ins: {', '.join(scenario_names())}")
    from repro.scenario.registry import promoted_names, scenarios_dir

    promoted = promoted_names()
    if promoted:
        print(
            f"  promoted ({scenarios_dir()}/): {', '.join(promoted)}"
        )
    print(
        f"  run --sweep keys: {', '.join(SCENARIO_SWEEP_KEYS)} "
        "+ protocol.param (e.g. gossip.rounds)"
    )
    print(f"  run --protocols:  {', '.join(protocol_names())}")
    print(
        "\nprotocols list|describe  registered protocols "
        "(capability flags, params, plugins)"
    )
    _print_protocol_table()
    print("\ndemo  30-second optimal-vs-gossip demo")
    return 0


def _print_protocol_table() -> None:
    """One line per registered protocol: name, capability flags, summary."""
    specs = protocol_specs()
    name_width = max(len(spec.name) for spec in specs)
    for spec in specs:
        flags = ",".join(spec.capabilities()) or "-"
        print(f"  {spec.name:<{name_width}}  [{flags}]  {spec.description}")


def _run_protocols(args: argparse.Namespace) -> int:
    """``repro protocols list`` / ``repro protocols describe NAME``."""
    if args.protocols_command == "list":
        _print_protocol_table()
        print(
            "\n  'repro protocols describe <name>' for params and aliases; "
            "plugins register via the 'repro.protocols' entry-point group "
            "or REPRO_PROTOCOLS"
        )
        return 0
    try:
        spec = resolve_protocol(args.name)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{spec.name} — {spec.description}")
    print(f"  aliases:      {', '.join(spec.aliases) or '(none)'}")
    print(f"  capabilities: {', '.join(spec.capabilities()) or '(none)'}")
    if spec.default_compare:
        print("  comparison:   in the default 'scenario run' set")
    else:
        print("  comparison:   opt-in via --protocols")
    rows = spec.param_fields()
    if not rows:
        print("  params:       (none)")
    else:
        print("  params:       (sweep as "
              f"{spec.name}.<param>=v1,v2 or override via the API)")
        width = max(len(name) for name, _, _ in rows)
        for name, type_name, default in rows:
            print(f"    {name:<{width}}  {type_name:<7} default {default!r}")
    factory = spec.factory
    module = getattr(factory, "__module__", None)
    if module:
        print(f"  factory:      {module}.{getattr(factory, '__qualname__', '?')}")
    return 0


def _integer_sweep_value(key: str, value) -> int:
    """Sweep values for the integer axes must be whole numbers.

    ``--sweep trials=2.9`` silently running 2 trials would change the
    user's request without saying so; every other malformed sweep errors,
    so these do too.
    """
    number = float(value)
    if number != int(number):
        raise ValidationError(
            f"--sweep {key} takes integer values, got {value!r}"
        )
    return int(number)


def _scenario_sweep_combos(sweeps: Dict[str, List]) -> List[Dict]:
    """Cartesian product of sweep values → one override dict per combo."""
    combos: List[Dict] = [{}]
    for key, values in sweeps.items():
        combos = [
            {**combo, key: value} for combo in combos for value in values
        ]
    return combos


def _run_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        from repro.scenario.registry import promoted_names, scenarios_dir

        scale = current_scale(None)
        promoted = promoted_names()
        width = max(len(n) for n in scenario_names() + promoted)
        for name in scenario_names():
            spec = build_scenario(name, scale)
            print(f"  {name:<{width}}  built-in  {spec.description}")
        for name in promoted:
            spec = build_scenario(name, scale)
            print(f"  {name:<{width}}  promoted  {spec.description}")
        if promoted:
            print(f"\n  promoted scenarios load from {scenarios_dir()}/")
        print(
            f"\n  {scenario_trials(scale)} trials/protocol at "
            f"{scale.name} scale; 'repro scenario describe <name>' for "
            "the full spec; generated scenarios run as gen:<seed>:<index>"
        )
        return 0
    scale = current_scale(args.scale)
    if args.scenario_command == "generate":
        return _run_scenario_generate(args, scale)
    if args.scenario_command == "hunt":
        return _run_scenario_hunt(args, scale)
    if args.scenario_command == "describe":
        try:
            print(build_scenario(args.name, scale).describe())
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    # run
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    try:
        if not protocols:
            raise ValidationError(
                "--protocols needs at least one protocol; choose from "
                + ", ".join(protocol_names())
            )
        campaign = _campaign_setup(args)
        sweeps = parse_sweeps(args.sweep)
        for key in sweeps:
            if "." in key:
                # dotted per-protocol parameter keys ("gossip.rounds")
                # validate against the registry; values keep their parsed
                # type (the param dataclass coerces them)
                from repro.protocols.registry import parse_param_key

                parse_param_key(key)
            elif key not in SCENARIO_SWEEP_KEYS:
                raise ValidationError(
                    f"scenario runs do not sweep {key!r}; supported keys: "
                    + ", ".join(SCENARIO_SWEEP_KEYS)
                    + ", plus protocol.param (e.g. gossip.rounds)"
                )
        combos = [
            {k: (v if "." in k
                 else _integer_sweep_value(k, v) if k in ("n", "trials")
                 else float(v))
             for k, v in combo.items()}
            for combo in _scenario_sweep_combos(sweeps)
        ]
        # all combinations batch through ONE campaign run: the worker
        # pool spins up once and combos overlap instead of barriering
        reports = scenario_reports(
            args.name,
            combos,
            protocols=protocols,
            scale=scale,
            campaign=campaign,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for index, report in enumerate(reports):
        if index:
            print()
        print(report.render())
    print(f"\n{_campaign_summary(campaign)}")
    if args.out:
        for report in reports:
            report.write(args.out)
        print(f"artefacts written to {args.out}/")
    if args.store is not None:
        try:
            store = ResultStore(args.store or None)
            run_ids = [
                store.append(report.to_result_set()).run_id
                for report in reports
            ]
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"stored as {', '.join(run_ids)} ({store.path})")
    return 0


def _run_scenario_generate(args: argparse.Namespace, scale) -> int:
    """``repro scenario generate``: sample and print/write seeded specs."""
    import json as _json

    from repro.scenario.generate import ScenarioGenerator
    from repro.scenario.trial import canonical_spec_json

    try:
        specs = ScenarioGenerator(args.seed, scale).specs(
            args.count, start=args.start
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for spec in specs:
            stem = spec.name.replace(":", "-")
            path = os.path.join(args.out, f"{stem}.json")
            with open(path, "w", encoding="utf-8") as fh:
                _json.dump(spec.to_json(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(f"{len(specs)} specs written to {args.out}/")
    elif args.json:
        for spec in specs:
            print(canonical_spec_json(spec))
    else:
        for index, spec in enumerate(specs):
            if index:
                print()
            print(spec.describe())
    return 0


def _run_scenario_hunt(args: argparse.Namespace, scale) -> int:
    """``repro scenario hunt``: adversarial worst-case regret search."""
    import json as _json

    from repro.scenario.adversarial import hunt
    from repro.scenario.registry import promote_scenario

    store = ResultStore(args.store or None) if args.store is not None else None
    try:
        campaign = _campaign_setup(args)
        if store is not None:
            store.check_writable()
        result = hunt(
            args.seed,
            args.budget,
            scale=scale,
            top=args.top,
            trials=args.trials,
            protocol=args.protocol,
            oracle=args.oracle,
            min_regret=args.min_regret,
            shrink=not args.no_shrink,
            campaign=campaign,
        )
    except ValueError as exc:
        if store is not None:
            store.discard_probe_residue()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.render())
    print(f"\n{_campaign_summary(campaign)}")
    if store is not None:
        stored = store.append(result.to_result_set())
        print(f"stored as {stored.run_id} ({store.path})")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(
            args.out,
            f"hunt_{result.seed}_{result.scale}_b{result.budget}.json",
        )
        with open(path, "w", encoding="utf-8") as fh:
            _json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"hunt artefact written to {path}")
    if args.promote:
        if not result.finds:
            print(
                "error: nothing to promote (no finds cleared --min-regret)",
                file=sys.stderr,
            )
            return 2
        try:
            path = promote_scenario(result.finds[0].minimized, args.promote)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"promoted rank-1 find to {path} "
            f"(run it with: repro scenario run {args.promote})"
        )
    return 0


def _run_backends(args: argparse.Namespace) -> int:
    """``repro backends list`` — registered execution backends."""
    rows = [
        [info.name, info.syntax, info.description]
        for info in backend_specs()
    ]
    print(render_table(["backend", "spec syntax", "description"], rows))
    print(
        "\npass a spec to --backend (CLI) or backend= (repro.api); "
        "append '+cache[=DIR]' to attach the shared trial cache"
    )
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    """``repro lint PATH...`` — the determinism static-analysis gate."""
    from repro.analysis.lint import format_report, lint_paths
    from repro.analysis.rules import rule_table

    if args.explain:
        width = max(len(code) for code, _ in rule_table())
        for code, summary in rule_table():
            print(f"{code:<{width}}  {summary}")
        print(
            "\nsuppress a reviewed line in place with "
            "'# repro: noqa-det[DXXX]' (comma-separate multiple codes)"
        )
        return 0
    if not args.paths:
        print("error: lint needs at least one PATH", file=sys.stderr)
        return 2
    select = (
        None if args.select is None else [c for c in args.select.split(",")]
    )
    try:
        violations = lint_paths(args.paths, select=select)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report, exit_code = format_report(violations)
    print(report, file=sys.stderr if exit_code else sys.stdout)
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # a typed failure inside a trial (unattainable K, no convergence
        # before the deadline, ...), possibly re-raised from a worker
        # process: one line on stderr, never a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _run_list()
    if args.command == "demo":
        return _run_demo()
    if args.command == "protocols":
        return _run_protocols(args)
    if args.command == "experiments":
        return _run_experiments(args)
    if args.command == "results":
        return _run_results(args)
    if args.command == "campaign":
        return _run_campaign(args)
    if args.command == "scenario":
        return _run_scenario(args)
    if args.command == "backends":
        return _run_backends(args)
    if args.command == "lint":
        return _run_lint(args)
    return _run_registry_experiment(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
