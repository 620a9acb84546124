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

    # parallel + cached + resumable runs, with per-axis sweeps
    python -m repro experiments run figure4a --backend process:4 --no-store
    python -m repro experiments run figure6 --sweep topology=tree --sweep size=24,48
    python -m repro experiments run figure4b --sweep loss=0.01,0.05 --sweep connectivity=2,4

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

This module is the argparse table plus printing; behaviour lives in
:mod:`repro.api` and the packages under it.  There is one way to run an
experiment: ``experiments run`` hands the :class:`Campaign` it built from
``--backend/--cache-dir/--no-cache`` to the function
:func:`repro.api.run_experiment` is built on, and the short ``repro
<experiment>`` spelling is the same handler with ``--backend serial
--no-cache --no-store`` fixed by its parser row.  Trials compile to
campaign specs, fan out over worker processes, persist in the on-disk
trial cache, and aggregate into typed :class:`~repro.results.ResultSet`
records; a stored run lands in the results store
(``.repro-results.jsonl`` by default), which is what ``repro results
show/export/diff`` query — ``diff`` is the run-to-run regression gate.

There is one place a failure becomes an exit code: :func:`main`.
Handlers raise; they do not print ``error:`` lines or return 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro import api
from repro.errors import ReproError, ValidationError
from repro.exec import backend_specs, parse_backend
from repro.experiments.campaign import Campaign, parse_sweeps
from repro.experiments.registry import experiment_specs, resolve_experiment
from repro.experiments.runner import current_scale
from repro.protocols.registry import (
    DeployContext,
    GossipProtocolParams,
    default_protocols,
    protocol_names,
    protocol_specs,
    resolve_protocol,
)
from repro.results.schema import ResultSet
from repro.results.store import (
    ResultStore,
    default_store_path,
    results_csv,
    results_json,
)
from repro.scenario.adversarial import hunt
from repro.scenario.generate import ScenarioGenerator
from repro.scenario.registry import (
    build_scenario,
    promote_scenario,
    promoted_names,
    scenario_names,
    scenario_trials,
    scenarios_dir,
)
from repro.scenario.run import (
    SCENARIO_SWEEP_KEYS,
    scenario_reports,
    sweep_combos,
)
from repro.scenario.trial import canonical_spec_json
from repro.util.cache import TrialCache, default_cache_dir
from repro.util.tables import render_table


def _run_demo(args: argparse.Namespace) -> int:
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


def _option_parents() -> Dict[str, argparse.ArgumentParser]:
    """The option blocks several subcommands share, as argparse parents."""
    parents = {
        name: argparse.ArgumentParser(add_help=False)
        for name in ("scale", "execution", "artefacts", "store", "store_opt")
    }
    parents["scale"].add_argument(
        "--scale",
        choices=["quick", "default", "full"],
        default=None,
        help="experiment size preset (default: REPRO_BENCH_SCALE or 'default')",
    )
    execution = parents["execution"]
    execution.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help=(
            "execution backend: serial, process[:N], shard[:N[:S]] — "
            "see 'repro backends list' (default: process with all CPUs)"
        ),
    )
    execution.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"trial cache directory (default: $REPRO_CACHE_DIR or {default_cache_dir()!r})",
    )
    execution.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk trial cache",
    )
    parents["artefacts"].add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write text/JSON artefacts to DIR",
    )
    parents["store"].add_argument(
        "--store",
        metavar="FILE",
        default=None,
        help=(
            "results store path (default: $REPRO_RESULTS or "
            f"{default_store_path()!r})"
        ),
    )
    parents["store_opt"].add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help=(
            "append the result to the results store (default path when "
            "FILE is omitted) for zero-drift re-run diffs via 'repro "
            "results diff'"
        ),
    )
    return parents


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
        version=f"%(prog)s {api.version()}",
    )
    shared = _option_parents()
    sub = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name: str, handler, parents=(), **kwargs):
        """One table row: a subcommand and the handler it dispatches to."""
        cmd = group.add_parser(
            name, parents=[shared[key] for key in parents], **kwargs
        )
        cmd.set_defaults(handler=handler)
        return cmd

    leaf(sub, "list", _run_list, help="list available experiments")
    leaf(sub, "demo", _run_demo, help="30-second optimal-vs-gossip demo")

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
    leaf(
        prot_sub, "list", _protocols_list,
        help="list registered protocols with capability flags",
    )
    leaf(
        prot_sub, "describe", _protocols_describe,
        help="print one protocol's spec (params, flags, aliases)",
    ).add_argument("name", metavar="PROTOCOL")

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
    leaf(
        exps_sub, "list", _experiments_list,
        help="list registered experiments with artefacts and axes",
    )
    leaf(
        exps_sub, "describe", _experiments_describe,
        help="print one experiment's spec (axes, aliases)",
    ).add_argument("name", metavar="EXPERIMENT")
    exps_run = leaf(
        exps_sub, "run", _run_experiment,
        parents=("scale", "execution", "artefacts", "store"),
        help="run one experiment through the registry",
    )
    exps_run.add_argument("name", metavar="EXPERIMENT")
    exps_run.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help=(
            "override one experiment axis; repeatable (e.g. --sweep "
            "connectivity=2,4,8 --sweep loss=0.01,0.05; see 'repro "
            "experiments describe <name>' for the axes)"
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
    exps_run.add_argument(
        "--no-store",
        action="store_true",
        help="do not append the result to the results store",
    )
    exps_run.set_defaults(short=False)

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
    res_show = leaf(
        res_sub, "show", _results_show, parents=("store",),
        help="list stored runs, or print one run's table",
    )
    res_show.add_argument(
        "run_id", nargs="?", default=None, metavar="RUN_ID",
        help="print this run in full (default: list all runs)",
    )
    res_show.add_argument("--experiment", default=None, metavar="NAME")
    res_show.add_argument("--last", type=int, default=None, metavar="N")
    res_export = leaf(
        res_sub, "export", _results_export, parents=("store",),
        help="export stored runs as CSV or JSON",
    )
    res_export.add_argument("--experiment", default=None, metavar="NAME")
    res_export.add_argument(
        "--format", choices=["csv", "json"], default="csv", dest="fmt"
    )
    res_export.add_argument(
        "--out", default=None, metavar="FILE",
        help="write to FILE (default: stdout)",
    )
    res_diff = leaf(
        res_sub, "diff", _results_diff, parents=("store",),
        help="compare two runs cell-by-cell (regression check)",
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
    leaf(
        backends_sub, "list", _run_backends,
        help="list backends and spec syntax",
    )

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
    leaf(scen_sub, "list", _scenario_list, help="list built-in scenarios")
    leaf(
        scen_sub, "describe", _scenario_describe, parents=("scale",),
        help="print one scenario's spec",
    ).add_argument("name", metavar="SCENARIO")
    run = leaf(
        scen_sub, "run", _scenario_run,
        parents=("scale", "execution", "artefacts", "store_opt"),
        help="run one scenario across protocols",
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
    run.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help=(
            "override one axis; repeatable; keys: "
            + ", ".join(SCENARIO_SWEEP_KEYS)
            + " plus per-protocol params as protocol.param "
            "(e.g. gossip.rounds=4,8 — see 'repro protocols describe'); "
            "multiple values print one table per combination"
        ),
    )

    gen_cmd = leaf(
        scen_sub, "generate", _scenario_generate, parents=("scale",),
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
        "--json", action="store_true",
        help="print canonical JSON, one spec per line",
    )
    gen_cmd.add_argument(
        "--out", metavar="DIR", default=None,
        help="write one <name>.json file per spec to DIR",
    )

    hunt_cmd = leaf(
        scen_sub, "hunt", _scenario_hunt,
        parents=("scale", "execution", "store_opt"),
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
        "--out", metavar="DIR", default=None,
        help="write the full hunt JSON artefact to DIR",
    )

    lint_cmd = leaf(
        sub, "lint", _run_lint,
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

    # the short spelling, one row per registered experiment: the same
    # handler as 'experiments run' with --backend serial --no-cache
    # --no-store fixed (the README's side-effect-free quickstart form).
    # Added after every fixed subcommand: an experiment whose name
    # collides with one (a plugin named "results") must not take down
    # the parser — it stays reachable via 'experiments run'
    for spec in experiment_specs():
        if spec.name in sub.choices:
            continue
        leaf(
            sub, spec.name, _run_experiment, parents=("scale", "artefacts"),
            help=spec.description,
        ).set_defaults(
            name=spec.name, short=True, sweep=[], rng_ledger=False,
            backend="serial", cache_dir=None, no_cache=True,
            store=None, no_store=True,
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


def _write_json(path: str, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_result_artefacts(
    name: str,
    result: ResultSet,
    out_dir: str,
    campaign: Optional[Campaign] = None,
) -> None:
    """``--out`` artefacts for one experiment run: ``<name>.txt`` holds
    the printed table, ``<name>.json`` the result set (``ResultSet.to_json``)
    plus, given the ``campaign``, its counters under ``"campaign"``."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.txt"), "w") as fh:
        fh.write(result.render() + "\n")
    payload = result.to_json()
    if campaign is not None:
        payload["campaign"] = {
            "workers": campaign.backend.workers,
            "trials_executed": campaign.executed,
            "cache_hits": campaign.cached,
        }
    _write_json(os.path.join(out_dir, f"{name}.json"), payload)


def _run_experiment(args: argparse.Namespace) -> int:
    """``repro experiments run NAME`` and the short ``repro NAME``.

    The short spelling prints the bare table: no campaign summary, and
    artefacts without the campaign counters.
    """
    spec = resolve_experiment(args.name)
    campaign = _campaign_setup(args)
    result, store = api.run_in_campaign(
        campaign,
        spec,
        scale=args.scale,
        params=parse_sweeps(args.sweep),
        store=False if args.no_store else (args.store or True),
    )
    store_error: Optional[Exception] = None
    if store is not None:
        try:
            result = store.append(result)
        except (OSError, ValueError) as exc:
            store_error = exc  # never discard a computed table over this
    print(result.render())
    if args.short:
        if args.out:
            _write_result_artefacts(spec.name, result, args.out)
            print(f"\nartefacts written to {args.out}/")
        return 0
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
        _write_result_artefacts(spec.name, result, args.out, campaign)
        print(f"artefacts written to {args.out}/")
    if store_error is not None:
        print(
            f"error: result not stored in {store.path}: {store_error}",
            file=sys.stderr,
        )
        return 1
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


def _experiments_list(args: argparse.Namespace) -> int:
    _print_experiment_table()
    print(
        "\n  'repro experiments describe <name>' for the axes; "
        "'repro experiments run <name>' executes through the "
        "campaign engine and stores the typed result; plugins "
        "register via the 'repro.experiments' entry-point group "
        "or REPRO_EXPERIMENTS"
    )
    return 0


def _experiments_describe(args: argparse.Namespace) -> int:
    spec = resolve_experiment(args.name)
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


def _results_show(args: argparse.Namespace) -> int:
    """``repro results show [RUN_ID]`` (read-only on the store)."""
    store = ResultStore(args.store)
    if args.run_id:
        result = store.get(args.run_id)
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
    results = api.load_results(
        store=store, experiment=args.experiment, last=args.last
    )
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


def _results_export(args: argparse.Namespace) -> int:
    results = api.load_results(
        store=ResultStore(args.store), experiment=args.experiment
    )
    text = results_csv(results) if args.fmt == "csv" else results_json(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"exported to {args.out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def _results_diff(args: argparse.Namespace) -> int:
    """``repro results diff``: exit 1 on drift beyond ``--tolerance``."""
    store = ResultStore(args.store)
    if len(args.runs) == 2:
        pair = args.runs
    elif not args.runs and args.experiment:
        pair = api.load_results(store=store, experiment=args.experiment, last=2)
        if len(pair) < 2:
            raise ValidationError(
                f"need two stored runs of {args.experiment!r} to diff, "
                f"found {len(pair)} in {store.path}"
            )
    else:
        raise ValidationError(
            "results diff takes exactly two RUN_IDs, or --experiment "
            "NAME to diff its latest two runs"
        )
    diff = api.diff_results(*pair, tolerance=args.tolerance, store=store)
    print(diff.render())
    return 0 if diff.clean else 1


def _run_list(args: argparse.Namespace) -> int:
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
        "\nresults show|export|diff  the durable results store "
        "(provenance, CSV/JSON export, regression diff)"
    )
    print(
        "\nscenario list|describe|run  dynamic-environment scenarios "
        "(protocol comparisons under stress)"
    )
    print(f"  built-ins: {', '.join(scenario_names())}")
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


def _protocols_list(args: argparse.Namespace) -> int:
    _print_protocol_table()
    print(
        "\n  'repro protocols describe <name>' for params and aliases; "
        "plugins register via the 'repro.protocols' entry-point group "
        "or REPRO_PROTOCOLS"
    )
    return 0


def _protocols_describe(args: argparse.Namespace) -> int:
    spec = resolve_protocol(args.name)
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


def _scenario_list(args: argparse.Namespace) -> int:
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


def _scenario_describe(args: argparse.Namespace) -> int:
    print(build_scenario(args.name, current_scale(args.scale)).describe())
    return 0


def _scenario_run(args: argparse.Namespace) -> int:
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    if not protocols:
        raise ValidationError(
            "--protocols needs at least one protocol; choose from "
            + ", ".join(protocol_names())
        )
    campaign = _campaign_setup(args)
    # all combinations batch through ONE campaign run: the worker
    # pool spins up once and combos overlap instead of barriering
    reports = scenario_reports(
        args.name,
        sweep_combos(parse_sweeps(args.sweep)),
        protocols=protocols,
        scale=current_scale(args.scale),
        campaign=campaign,
    )
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
        store = ResultStore(args.store or None)
        run_ids = [
            store.append(report.to_result_set()).run_id for report in reports
        ]
        print(f"stored as {', '.join(run_ids)} ({store.path})")
    return 0


def _scenario_generate(args: argparse.Namespace) -> int:
    """``repro scenario generate``: sample and print/write seeded specs."""
    specs = ScenarioGenerator(args.seed, current_scale(args.scale)).specs(
        args.count, start=args.start
    )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for spec in specs:
            stem = spec.name.replace(":", "-")
            _write_json(os.path.join(args.out, f"{stem}.json"), spec.to_json())
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


def _scenario_hunt(args: argparse.Namespace) -> int:
    """``repro scenario hunt``: adversarial worst-case regret search."""
    campaign = _campaign_setup(args)
    wanted = False if args.store is None else (args.store or True)
    with api.probed_store(wanted) as store:
        result = hunt(
            args.seed,
            args.budget,
            scale=current_scale(args.scale),
            top=args.top,
            trials=args.trials,
            protocol=args.protocol,
            oracle=args.oracle,
            min_regret=args.min_regret,
            shrink=not args.no_shrink,
            campaign=campaign,
        )
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
        _write_json(path, result.to_json())
        print(f"hunt artefact written to {path}")
    if args.promote:
        if not result.finds:
            raise ValidationError(
                "nothing to promote (no finds cleared --min-regret)"
            )
        path = promote_scenario(result.finds[0].minimized, args.promote)
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
    from repro.analysis.lint import format_report
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
        raise ValidationError("lint needs at least one PATH")
    select = None if args.select is None else args.select.split(",")
    violations = api.lint_paths(args.paths, select=select)
    report, exit_code = format_report(violations)
    print(report, file=sys.stderr if exit_code else sys.stdout)
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    """Parse, dispatch, and map a failure to an exit code — the only
    place that happens.

    A usage or filesystem error (``ValidationError`` / ``OSError``)
    prints ``error: <msg>``; any other typed failure — one raised inside
    a trial (unattainable K, no convergence before the deadline, ...),
    possibly re-raised from a worker process — prints ``error: <Type>:
    <msg>``.  Both are one line on stderr and exit 2, never a traceback;
    anything else is a bug and stays a traceback.
    """
    args = make_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, OSError) as exc:
        usage = isinstance(exc, (ValidationError, OSError))
        message = str(exc) if usage else f"{type(exc).__name__}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
