"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main, make_parser
from repro.experiments.campaign import TrialSpec
from repro.experiments.registry import (
    ExperimentSpec,
    register_experiment,
    unregister_experiment,
)
from repro.results.schema import ResultSet


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["figure99"])

    def test_scale_choices(self):
        args = make_parser().parse_args(["figure1", "--scale", "quick"])
        assert args.scale == "quick"
        with pytest.raises(SystemExit):
            make_parser().parse_args(["figure1", "--scale", "giant"])

    def test_bench_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_help_and_list_name_no_removed_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bench" not in out
        assert "--workers" not in out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "figure6" in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out
        assert "0.875" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "0.36" in out

    def test_table1_with_out(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        assert "artefacts written to" in capsys.readouterr().out
        assert (tmp_path / "table1.txt").exists()
        data = json.loads((tmp_path / "table1.json").read_text())
        assert data["experiment"] == "table1"
        assert data["x_label"] is None
        assert "campaign" not in data  # the short form prints no counters

    def test_figure1_with_out(self, tmp_path, capsys):
        assert main(["figure1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "figure1.json").exists()
        data = json.loads((tmp_path / "figure1.json").read_text())
        assert data["experiment"] == "figure1"
        assert data["columns"] == ["alpha", "L=0.01", "L=0.001", "L=0.0001"]

    @pytest.mark.slow
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        assert capsys.readouterr().out == (
            "30 processes, connectivity 6, L=0.03, K=0.99\n"
            "  optimal :   77 data messages, delivery 1.000\n"
            "  gossip  :  129 data messages, delivery 1.000\n"
            "  gossip/optimal message ratio: 1.68x\n"
        )

    @pytest.mark.slow
    def test_heterogeneous_quick(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
        assert main(["heterogeneous", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneous" in out


class TestCampaignCommand:
    """The campaign-engine options of ``experiments run ... --no-store``
    (what the removed ``repro campaign`` spelling was)."""

    def test_parser_accepts_run_options(self):
        args = make_parser().parse_args(
            ["experiments", "run", "figure4a", "--backend", "process:4",
             "--scale", "quick", "--no-store"]
        )  # fmt: skip
        assert args.command == "experiments"
        assert args.name == "figure4a"
        assert args.backend == "process:4"

    def test_campaign_spelling_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["campaign", "figure4a"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'campaign'" in capsys.readouterr().err
        assert main(["list"]) == 0
        assert "campaign <experiment>" not in capsys.readouterr().out

    def test_bad_sweep_key_errors(self, tmp_path, capsys):
        rc = main(
            [
                "experiments",
                "run",
                "figure4a",
                "--no-store",
                "--scale",
                "quick",
                "--cache-dir",
                str(tmp_path),
                "--sweep",
                "topology=ring",
            ]
        )
        assert rc == 2
        assert "does not sweep" in capsys.readouterr().err

    def test_malformed_sweep_errors(self, tmp_path, capsys):
        rc = main(
            [
                "experiments",
                "run",
                "figure4a",
                "--no-store",
                "--cache-dir",
                str(tmp_path),
                "--sweep",
                "loss",
            ]
        )
        assert rc == 2
        assert "sweep spec" in capsys.readouterr().err

    def test_campaign_runs_and_caches(self, tmp_path, capsys):
        argv = [
            "experiments",
            "run",
            "figure4b",
            "--no-store",
            "--scale",
            "quick",
            "--backend",
            "serial",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--sweep",
            "connectivity=2",
            "--sweep",
            "loss=0.05",
            "--sweep",
            "trials=2",
            "--out",
            str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "L=0.05" in out
        assert "campaign:" in out
        first_table = out.split("campaign:")[0]
        assert (tmp_path / "out" / "figure4b.json").exists()
        data = json.loads((tmp_path / "out" / "figure4b.json").read_text())
        assert data["campaign"]["trials_executed"] > 0

        # second invocation: everything comes from the cache
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "0 trials executed" in out
        assert out.split("campaign:")[0] == first_table

    def test_out_of_range_connectivity_sweep_errors(self, capsys):
        rc = main(
            [
                "experiments",
                "run",
                "figure4a",
                "--no-store",
                "--scale",
                "quick",
                "--no-cache",
                "--sweep",
                "connectivity=16",  # quick scale has n=16
            ]
        )
        assert rc == 2
        assert "must be below n=16" in capsys.readouterr().err

    def test_figure6_trials_sweep_is_exact(self, capsys):
        rc = main(
            [
                "experiments",
                "run",
                "figure6",
                "--no-store",
                "--scale",
                "quick",
                "--no-cache",
                "--sweep",
                "trials=2",
                "--sweep",
                "size=10",
                "--sweep",
                "topology=ring",
            ]
        )
        assert rc == 0
        # one (topology, size) cell x exactly the 2 swept trials — not
        # rescaled through scale.convergence_trials()
        assert "2 trials executed" in capsys.readouterr().out

    def test_bad_topology_value_errors(self, capsys):
        rc = main(
            ["experiments", "run", "figure6", "--no-store", "--no-cache",
             "--sweep", "topology=torus"]
        )  # fmt: skip
        assert rc == 2
        assert "ring" in capsys.readouterr().err

    def test_workers_zero_errors(self, capsys):
        rc = main(
            ["experiments", "run", "figure4a", "--no-store", "--no-cache",
             "--backend", "process:0"]
        )  # fmt: skip
        assert rc == 2
        assert "workers" in capsys.readouterr().err

    def test_campaign_no_cache(self, tmp_path, capsys):
        argv = [
            "experiments",
            "run",
            "figure4b",
            "--no-store",
            "--scale",
            "quick",
            "--no-cache",
            "--sweep",
            "connectivity=2",
            "--sweep",
            "loss=0.05",
            "--sweep",
            "trials=2",
        ]
        assert main(argv) == 0
        assert "cache=off" in capsys.readouterr().out




class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()


class TestProtocolsCommand:
    def test_list_shows_builtins_with_flags(self, capsys):
        assert main(["protocols", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("adaptive", "optimal", "gossip", "flooding", "two-phase"):
            assert name in out
        assert "plans,learns" in out
        assert "needs_rng" in out

    def test_describe_shows_params_and_aliases(self, capsys):
        assert main(["protocols", "describe", "gossip"]) == 0
        out = capsys.readouterr().out
        assert "rounds" in out
        assert "reference" in out  # the alias
        assert "needs_calibration" in out

    def test_describe_resolves_aliases(self, capsys):
        assert main(["protocols", "describe", "twophase"]) == 0
        assert "two-phase" in capsys.readouterr().out

    def test_describe_unknown_suggests(self, capsys):
        assert main(["protocols", "describe", "gosip"]) == 2
        err = capsys.readouterr().err
        assert "unknown protocol" in err
        assert "did you mean 'gossip'" in err

    def test_top_level_list_mentions_protocols(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "protocols list|describe" in out
        assert "two-phase" in out


class TestExperimentsCommand:
    def test_list_shows_artefacts_and_axes(self, capsys):
        assert main(["experiments", "list"]) == 0
        out = capsys.readouterr().out
        assert "figure4a" in out
        assert "Figure 4(a)" in out
        assert "connectivity" in out
        assert "fig4a" in out  # alias column

    def test_describe_shows_axes_and_aliases(self, capsys):
        assert main(["experiments", "describe", "figure6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "topology" in out
        assert "fig6" in out
        assert "simulated" in out

    def test_describe_resolves_aliases(self, capsys):
        assert main(["experiments", "describe", "tab1"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_describe_unknown_suggests(self, capsys):
        assert main(["experiments", "describe", "figur1"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "did you mean" in err

    def test_run_stores_result(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        argv = [
            "experiments", "run", "figure1",
            "--no-cache", "--backend", "serial", "--store", store,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "stored as figure1-0001-" in out
        assert os.path.exists(store)

    def test_run_no_store(self, tmp_path, capsys):
        argv = [
            "experiments", "run", "table1", "--no-cache", "--no-store",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "stored as" not in out
        assert "0.36" in out

    def test_run_unknown_sweep_key_errors(self, capsys):
        rc = main(
            [
                "experiments", "run", "figure1", "--no-cache", "--no-store",
                "--sweep", "topology=ring",
            ]
        )
        assert rc == 2
        assert "does not sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,sweep",
        [
            ("figure4a", "crash=0.03,0.03"),
            ("figure1", "alpha=1,1,2"),
            ("kvstore", "protocol=flooding,flooding"),
            ("membership", "view_size=8,8"),
        ],
    )
    def test_run_repeated_grid_value_errors(self, capsys, name, sweep):
        rc = main(
            [
                "experiments", "run", name, "--scale", "quick", "--no-cache",
                "--no-store", "--sweep", sweep,
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "lists" in captured.err and "more than once" in captured.err

    @pytest.mark.parametrize("name", ["figure4a", "figure5b", "heterogeneous"])
    def test_run_with_no_connectivity_below_n_errors(self, capsys, name):
        rc = main(
            [
                "experiments", "run", name, "--scale", "quick", "--no-cache",
                "--no-store", "--sweep", "n=2",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "fits below n=2" in captured.err

    def test_bad_sweep_leaves_no_store_behind(self, tmp_path, capsys):
        store = tmp_path / "new" / "results.jsonl"
        rc = main(
            [
                "experiments", "run", "figure1", "--no-cache",
                "--store", str(store),
                "--sweep", "bogus=1",
            ]
        )
        assert rc == 2
        assert not store.exists()
        assert not store.parent.exists()

    def test_bad_sweep_value_leaves_no_store_behind(self, tmp_path, capsys):
        # value-level validation fires inside the run (connectivity<n);
        # the already-probed empty store must be cleaned up again
        store = tmp_path / "new" / "results.jsonl"
        rc = main(
            [
                "experiments", "run", "figure4a", "--no-cache",
                "--scale", "quick",
                "--store", str(store),
                "--sweep", "connectivity=99",
            ]
        )
        assert rc == 2
        assert "must be below n=" in capsys.readouterr().err
        assert not store.exists()
        assert not store.parent.exists()

    def test_run_matches_legacy_command(self, tmp_path, capsys):
        assert main(["figure1"]) == 0
        legacy = capsys.readouterr().out
        assert main(
            ["experiments", "run", "figure1", "--no-cache", "--no-store"]
        ) == 0
        registry_out = capsys.readouterr().out
        assert registry_out.split("\ncampaign:")[0].rstrip("\n") == \
            legacy.rstrip("\n")


class TestResultsCommand:
    def _store_two_runs(self, tmp_path):
        store = str(tmp_path / "results.jsonl")
        argv = [
            "experiments", "run", "figure1",
            "--no-cache", "--store", store,
        ]
        assert main(argv) == 0
        assert main(argv) == 0
        return store

    def test_show_lists_runs(self, tmp_path, capsys):
        store = self._store_two_runs(tmp_path)
        capsys.readouterr()
        assert main(["results", "show", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "figure1-0001-" in out
        assert "figure1-0002-" in out
        assert "2 run(s)" in out

    def test_show_single_run_prints_provenance(self, tmp_path, capsys):
        store = self._store_two_runs(tmp_path)
        capsys.readouterr()
        assert main(["results", "show", "--store", store]) == 0
        run_id = [
            token
            for token in capsys.readouterr().out.split()
            if token.startswith("figure1-0001-")
        ][0]
        assert main(["results", "show", run_id, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "seed:" in out
        assert "schema v1" in out

    def test_show_unknown_run_errors(self, tmp_path, capsys):
        store = self._store_two_runs(tmp_path)
        capsys.readouterr()
        assert main(["results", "show", "nope", "--store", store]) == 2
        assert "no run" in capsys.readouterr().err

    def test_show_empty_store(self, tmp_path, capsys):
        store = str(tmp_path / "empty.jsonl")
        assert main(["results", "show", "--store", store]) == 0
        assert "no stored runs" in capsys.readouterr().out

    def test_diff_latest_two_zero_drift(self, tmp_path, capsys):
        store = self._store_two_runs(tmp_path)
        capsys.readouterr()
        rc = main(
            ["results", "diff", "--experiment", "figure1", "--store", store]
        )
        assert rc == 0
        assert "zero drift" in capsys.readouterr().out

    def test_diff_reports_drift_with_exit_1(self, tmp_path, capsys):
        import json

        store = self._store_two_runs(tmp_path)
        # perturb the second stored run's first data cell
        lines = open(store).read().splitlines()
        record = json.loads(lines[1])
        record["rows"][0][1] = record["rows"][0][1] + 1.0
        lines[1] = json.dumps(record)
        with open(store, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = main(
            ["results", "diff", "--experiment", "figure1", "--store", store]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "drifted" in out
        # a generous tolerance accepts the same pair
        rc = main(
            [
                "results", "diff", "--experiment", "figure1",
                "--store", store, "--tolerance", "2.0",
            ]
        )
        assert rc == 0

    def test_diff_by_run_ids(self, tmp_path, capsys):
        store = self._store_two_runs(tmp_path)
        capsys.readouterr()
        assert main(["results", "show", "--store", store]) == 0
        tokens = capsys.readouterr().out.split()
        ids = [t for t in tokens if t.startswith("figure1-00")]
        rc = main(["results", "diff", ids[0], ids[1], "--store", store])
        assert rc == 0

    def test_diff_without_selection_errors(self, tmp_path, capsys):
        store = str(tmp_path / "empty.jsonl")
        assert main(["results", "diff", "--store", store]) == 2
        assert "exactly two" in capsys.readouterr().err

    def test_diff_needs_two_runs(self, tmp_path, capsys):
        store = str(tmp_path / "one.jsonl")
        assert main(
            ["experiments", "run", "table1", "--no-cache", "--store", store]
        ) == 0
        capsys.readouterr()
        rc = main(
            ["results", "diff", "--experiment", "table1", "--store", store]
        )
        assert rc == 2
        assert "need two stored runs" in capsys.readouterr().err

    def test_export_csv(self, tmp_path, capsys):
        store = self._store_two_runs(tmp_path)
        out_file = str(tmp_path / "export.csv")
        capsys.readouterr()
        assert main(
            [
                "results", "export", "--store", store,
                "--format", "csv", "--out", out_file,
            ]
        ) == 0
        text = open(out_file).read()
        assert text.startswith("run_id,experiment,scale,alpha")
        assert "figure1-0001-" in text

    def test_export_json_to_stdout(self, tmp_path, capsys):
        import json

        store = self._store_two_runs(tmp_path)
        capsys.readouterr()
        assert main(
            ["results", "export", "--store", store, "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2

    def test_top_level_list_mentions_experiments_and_results(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "experiments list|describe|run" in out
        assert "results show|export|diff" in out
        assert "Figure 4(a)" in out


class TestScenarioProtocolSweeps:
    def test_run_accepts_alias_and_param_sweep(self, tmp_path, capsys):
        rc = main(
            [
                "scenario", "run", "partition-heal",
                "--scale", "quick",
                "--no-cache",
                "--protocols", "flood",
                "--sweep", "trials=1",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "flooding" in out  # canonical name in the table

    def test_run_gossip_param_sweep(self, capsys):
        rc = main(
            [
                "scenario", "run", "partition-heal",
                "--scale", "quick",
                "--no-cache",
                "--protocols", "gossip",
                "--sweep", "gossip.rounds=1",
                "--sweep", "trials=1",
            ]
        )
        assert rc == 0
        assert "gossip.rounds=1" in capsys.readouterr().out

    def test_unknown_param_key_errors(self, capsys):
        rc = main(
            [
                "scenario", "run", "partition-heal", "--no-cache",
                "--sweep", "gossip.bogus=1",
            ]
        )
        assert rc == 2
        assert "no parameter" in capsys.readouterr().err

    def test_param_sweep_for_absent_protocol_errors(self, capsys):
        rc = main(
            [
                "scenario", "run", "partition-heal", "--no-cache",
                "--protocols", "flooding",
                "--sweep", "gossip.rounds=2",
            ]
        )
        assert rc == 2
        assert "not in this run" in capsys.readouterr().err

    def test_unknown_protocol_suggests(self, capsys):
        rc = main(
            [
                "scenario", "run", "partition-heal", "--no-cache",
                "--protocols", "gosip",
            ]
        )
        assert rc == 2
        assert "did you mean 'gossip'" in capsys.readouterr().err


@pytest.fixture
def failing_experiment():
    """A registered experiment whose two trials raise CalibrationError:
    gossip calibration over links that lose every message."""

    def cells(ctx):
        return [
            (
                tag,
                [
                    TrialSpec.make(
                        "repro.experiments.figure4:gossip_phase1_task",
                        n=4,
                        connectivity=2,
                        crash=0.0,
                        loss=1.0,
                        k_target=0.9,
                        trials=5,
                        seed_tag=tag,
                    )
                ],
            )
            for tag in ("a", "b")
        ]

    register_experiment(
        ExperimentSpec(
            name="cal-fail",
            description="every trial fails to calibrate",
            cells=cells,
            fold=lambda ctx, cells: ResultSet.from_rows(
                "cal-fail", "t", ["v"], [[0.0]]
            ),
        )
    )
    yield "cal-fail"
    unregister_experiment("cal-fail")


@pytest.fixture
def shadowing_experiments():
    """Experiments named like the fixed subcommands ``lint``/``backends``."""
    names = ("lint", "backends")
    for name in names:
        register_experiment(
            ExperimentSpec(
                name=name,
                description=f"plugin shadowing '{name}'",
                cells=lambda ctx: [],
                fold=lambda ctx, cells, name=name: ResultSet.from_rows(
                    name, "shadow plugin", ["v"], [[1.0]]
                ),
            )
        )
    yield names
    for name in names:
        unregister_experiment(name)


class TestExperimentShadowingSubcommand:
    """A plugin named like a fixed subcommand never breaks the parser."""

    def test_other_commands_still_run(self, shadowing_experiments, capsys):
        assert main(["protocols", "list"]) == 0

    def test_help_builds(self, shadowing_experiments, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0

    def test_fixed_subcommand_wins(self, shadowing_experiments, capsys):
        assert main(["lint", "--explain"]) == 0
        assert "D001" in capsys.readouterr().out

    def test_plugin_reachable_through_experiments_run(
        self, shadowing_experiments, capsys
    ):
        rc = main(
            [
                "experiments", "run", "lint", "--no-cache", "--no-store",
                "--backend", "serial",
            ]
        )
        assert rc == 0
        assert "shadow plugin" in capsys.readouterr().out


class TestTrialErrorsExitCleanly:
    """A ReproError raised inside a trial is a one-line error, exit 2."""

    @staticmethod
    def check(capsys, rc):
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: CalibrationError: gossip did not reach K=0.9 within 64 rounds"
        )
        assert "reached 0 of 1 trials run at rounds=64" in lines[0]

    @pytest.mark.parametrize("backend", ["serial", "process:2"])
    def test_experiments_run(self, failing_experiment, backend, tmp_path, capsys):
        store = tmp_path / "sub" / "results.jsonl"
        rc = main(
            [
                "experiments", "run", failing_experiment, "--no-cache",
                "--backend", backend, "--store", str(store),
            ]
        )
        self.check(capsys, rc)
        # the writability probe's empty file does not outlive the failure
        assert not store.parent.exists()

    def test_legacy_experiment_command(self, failing_experiment, capsys):
        self.check(capsys, main([failing_experiment]))

    def test_causal_order_violation_in_a_kv_trial(self, monkeypatch, capsys):
        """The replica's apply guard is a ReproError too: forced to fail,
        it leaves ``experiments run kvstore`` in one line, not a traceback."""
        from repro.errors import ReproError
        from repro.kvstore.replica import CausalOrderError, KVReplica

        assert issubclass(CausalOrderError, ReproError)
        assert issubclass(CausalOrderError, RuntimeError)  # old except sites hold
        monkeypatch.setattr(KVReplica, "_ready", lambda self, write: False)
        rc = main(
            [
                "experiments", "run", "kvstore", "--scale", "quick",
                "--no-cache", "--no-store", "--backend", "serial",
                "--sweep", "protocol=gossip", "--sweep", "scenario=hot-key-storm",
                "--sweep", "trials=1", "--sweep", "ops=16",
            ]
        )  # fmt: skip
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: CausalOrderError: replica ")
        assert "before its dependencies" in line


class TestBackendCacheSuffix:
    """``--backend NAME+cache=DIR`` names the cache the run really uses."""

    ARGV = [
        "experiments", "run", "figure4a", "--scale", "quick", "--no-store",
        "--sweep", "connectivity=2", "--sweep", "crash=0.01",
        "--sweep", "trials=2",
    ]

    def test_suffix_directory_is_used_and_reported(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        named = tmp_path / "named"
        argv = self.ARGV + ["--backend", f"serial+cache={named}"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"3 trials executed, 0 cache hits (backend=serial, cache={named})" in out
        assert len(list(named.glob("*.json"))) == 3
        assert not (tmp_path / ".repro-cache").exists()

        assert main(argv) == 0
        assert "0 trials executed, 3 cache hits" in capsys.readouterr().out

    def test_agreeing_cache_dir_is_accepted(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = self.ARGV + [
            "--backend", f"serial+cache={tmp_path / 'c'}", "--cache-dir", "c",
        ]
        assert main(argv) == 0
        assert f"cache={tmp_path / 'c'})" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra,named",
        [(["--cache-dir", "other"], "'other'"), (["--no-cache"], "--no-cache")],
    )
    def test_contradicting_options_exit_2(
        self, tmp_path, monkeypatch, capsys, extra, named
    ):
        monkeypatch.chdir(tmp_path)
        spec = f"serial+cache={tmp_path / 'c'}"
        assert main(self.ARGV + ["--backend", spec] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ")
        assert named in line and repr(spec) in line and str(tmp_path / "c") in line
        assert not list((tmp_path / "c").glob("*.json"))


class TestOneRunPath:
    """The short ``repro <experiment>`` spelling is ``experiments run``
    with ``--backend serial --no-cache --no-store`` fixed."""

    def test_short_spelling_prints_the_same_table(self, capsys):
        assert main(["figure4a", "--scale", "quick"]) == 0
        short = capsys.readouterr().out
        assert main(
            ["experiments", "run", "figure4a", "--scale", "quick",
             "--backend", "serial", "--no-cache", "--no-store"]
        ) == 0  # fmt: skip
        table, _, summary = capsys.readouterr().out.partition("\ncampaign:")
        assert table == short
        assert "(backend=serial, cache=off)" in summary

    def test_short_spelling_is_a_parser_row(self):
        args = make_parser().parse_args(["figure4a", "--scale", "quick"])
        run = make_parser().parse_args(
            ["experiments", "run", "figure4a", "--scale", "quick",
             "--backend", "serial", "--no-cache", "--no-store"]
        )  # fmt: skip
        assert args.handler is run.handler
        for option in ("name", "scale", "backend", "cache_dir", "no_cache",
                       "sweep", "rng_ledger", "store", "no_store", "out"):
            assert getattr(args, option) == getattr(run, option), option


# (command, the options that name a path it writes to)
WRITERS = {
    "experiments-run": (
        ["experiments", "run", "figure1", "--backend", "serial"],
        {"--cache-dir": ["--no-store"], "--out": ["--no-cache", "--no-store"],
         "--store": ["--no-cache"]},
    ),
    "scenario-run": (
        ["scenario", "run", "partition-heal", "--scale", "quick",
         "--backend", "serial", "--protocols", "flooding", "--sweep", "trials=1"],
        {"--cache-dir": [], "--out": ["--no-cache"], "--store": ["--no-cache"]},
    ),
    "scenario-hunt": (
        ["scenario", "hunt", "--scale", "quick", "--backend", "serial",
         "--budget", "1", "--trials", "1", "--no-shrink",
         "--protocol", "flooding", "--oracle", "gossip"],
        {"--cache-dir": [], "--out": ["--no-cache"], "--store": ["--no-cache"]},
    ),
    "scenario-generate": (
        ["scenario", "generate", "--scale", "quick", "--count", "1"],
        {"--out": []},
    ),
    "short-spelling": (["figure1"], {"--out": []}),
}  # fmt: skip


@pytest.mark.parametrize(
    "command,option",
    [(name, option) for name, (_, options) in WRITERS.items() for option in options],
)
def test_unwritable_path_is_one_error_line_and_exit_2(
    command, option, tmp_path, monkeypatch, capsys
):
    """Every path-taking option of every writing command fails the same
    way: exit 2, one ``error: `` line on stderr, never a traceback."""
    monkeypatch.chdir(tmp_path)  # a default cache/store must land here
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    argv, options = WRITERS[command]
    target = blocker / "sub" / "x"
    rc = main(argv + options[option] + [option, str(target)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    assert str(blocker) in line
    assert blocker.read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]  # no residue


@pytest.mark.parametrize(
    "name,sweep,param",
    [
        ("figure4a", "crash=inf", "crash"),
        ("figure4a", "crash=-inf", "crash"),
        ("figure4a", "crash=1e400", "crash"),
        ("figure4b", "loss=inf", "loss"),
        ("heterogeneous", "loss=inf", "mean_loss"),
        ("figure6", "loss=inf", "loss"),
        ("figure5a", "crash=inf", "crash"),
    ],
)
def test_non_finite_sweep_value_is_one_error_line_and_exit_2(
    name, sweep, param, capsys
):
    """An infinite probability cannot form a JSON cache key: the spec
    refuses it as a usage error instead of ``content_key`` raising."""
    rc = main(
        [
            "experiments", "run", name, "--scale", "quick", "--no-store",
            "--no-cache", "--backend", "serial", "--sweep", sweep,
        ]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.splitlines() == [
        f"error: trial param {param} is not finite"
    ]


def test_plugin_raising_at_import_is_skipped_by_the_cli_and_its_workers(tmp_path):
    """A ``REPRO_EXPERIMENTS`` module that raises at import costs one
    warning on stderr: listing exits 0 without a traceback, and a
    ``process:2`` run completes although every spawned worker inherits
    the variable and re-runs discovery."""
    import subprocess
    import sys

    import repro

    (tmp_path / "exploding_plugin.py").write_text(
        "raise RuntimeError('boom at import')\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, str(tmp_path)]),
        REPRO_EXPERIMENTS="exploding_plugin:SPEC",
    )

    def repro_cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=240, cwd=tmp_path, env=env,
        )  # fmt: skip

    listing = repro_cli("experiments", "list")
    assert listing.returncode == 0, listing.stderr
    assert "figure4a" in listing.stdout
    assert "skipping experiment plugin 'exploding_plugin:SPEC'" in listing.stderr
    assert "boom at import" in listing.stderr
    assert "Traceback" not in listing.stderr

    run = repro_cli(
        "experiments", "run", "figure1", "--backend", "process:2",
        "--no-cache", "--no-store",
    )  # fmt: skip
    assert run.returncode == 0, run.stderr
    assert "30 trials executed" in run.stdout
    assert "backend=shard:2" in run.stdout
    assert "Traceback" not in run.stderr


#: The smallest sweeps that run each registered experiment in seconds
#: (figure5a times out at plain quick scale).
SMALL_SWEEPS = {
    "figure1": ["loss=0.01", "alpha=1,2"],
    "table1": ["intervals=2"],
    "figure4a": ["crash=0.03", "connectivity=2", "trials=2"],
    "figure4b": ["loss=0.03", "connectivity=2", "trials=2"],
    "figure5a": ["crash=0.0", "connectivity=2", "trials=1"],
    "figure5b": ["loss=0.0", "connectivity=2", "trials=1"],
    "figure6": ["size=10", "topology=ring", "trials=1"],
    "membership": [
        "scenario=partition-heal", "policy=head:rand:pushpull",
        "view_size=8", "trials=1",
    ],
    "kvstore": [
        "scenario=hot-key-storm", "protocol=gossip", "ops=16", "trials=1",
    ],
    "heterogeneous": ["connectivity=2", "trials=2"],
}  # fmt: skip


def _small_run(name, *options):
    argv = ["experiments", "run", name, "--scale", "quick", *options]
    for sweep in SMALL_SWEEPS[name]:
        argv += ["--sweep", sweep]
    return argv


def test_small_sweeps_cover_every_registered_experiment():
    from repro.experiments.registry import experiment_names

    assert set(SMALL_SWEEPS) == set(experiment_names())


@pytest.mark.parametrize("name", sorted(SMALL_SWEEPS))
def test_out_writes_the_printed_table_and_the_stored_result(name, tmp_path, capsys):
    """``--out DIR`` writes ``<name>.txt`` (the printed table) and
    ``<name>.json`` (the ResultSet, as the store holds it)."""
    import repro.api as api

    store = str(tmp_path / "runs.jsonl")
    argv = _small_run(
        name, "--backend", "serial", "--no-cache", "--store", store,
        "--out", str(tmp_path / "art"),
    )  # fmt: skip
    assert main(argv) == 0
    printed = capsys.readouterr().out.partition("\ncampaign:")[0]
    assert (tmp_path / "art" / f"{name}.txt").read_text() == printed
    payload = json.loads((tmp_path / "art" / f"{name}.json").read_text())
    assert payload["campaign"]["trials_executed"] > 0
    artefact = ResultSet.from_json(payload)
    assert artefact.render() + "\n" == printed
    assert artefact.run_id is not None
    assert api.diff_results(artefact, artefact.run_id, store=store).clean


@pytest.mark.parametrize(
    "name,metric",
    [
        ("figure1", "ratio"),
        ("table1", "after"),
        ("figure5a", "messages_per_link"),
        ("figure5b", "messages_per_link"),
        ("figure6", "messages_per_link"),
        ("membership", "view_clustering"),
        ("kvstore", "kv_buffer_max"),
    ],
)
def test_an_entry_lacking_a_read_metric_is_recomputed(
    name, metric, tmp_path, capsys
):
    """Every cell declares the metrics its fold reads, so a cache entry
    without one is a miss: recomputed and rewritten, not a ``KeyError``
    from the fold."""
    from repro.util.cache import TrialCache

    argv = _small_run(
        name, "--backend", "serial", "--cache-dir", str(tmp_path), "--no-store"
    )
    assert main(argv) == 0
    table = capsys.readouterr().out.partition("campaign:")[0]
    cache = TrialCache(str(tmp_path))
    key = next(iter(cache.keys()))
    path = os.path.join(cache.directory, f"{key}.json")
    with open(path) as fh:
        entry = json.load(fh)
    good = dict(entry["result"])
    del entry["result"][metric]
    with open(path, "w") as fh:
        json.dump(entry, fh)

    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.partition("campaign:")[0] == table
    assert "campaign: 1 trials executed" in captured.out
    assert cache.get(key) == good
