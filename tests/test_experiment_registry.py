"""Tests for the experiment registry (repro.experiments.registry).

Covers spec registration/resolution/aliases, did-you-mean errors, typed
axis params (coercion, unknown keys, single-vs-multi value axes), the
uniform build/aggregate execution path (bit-identical to the legacy
table builders), provenance stamping, the api surface (run_experiment /
load_results / diff_results with a store), and plugin discovery
(entry points + REPRO_EXPERIMENTS).  The registry mechanics themselves
(normalisation, collisions, lazy discovery, plugin atomicity) are tested
once, generically, in ``test_registry.py``.
"""

import dataclasses
import sys
import textwrap

import pytest

import repro.api as api
from repro.errors import UnknownExperimentError, ValidationError
from repro.experiments import registry as reg
from repro.experiments.campaign import Campaign, TrialSpec
from repro.experiments.figure1 import figure1_aggregate, figure1_build
from repro.experiments.figure4 import figure4_aggregate, figure4_build
from repro.experiments.registry import (
    ExperimentSpec,
    Figure4aParams,
    HeterogeneousParams,
    Table1Params,
    discover_plugins,
    experiment_names,
    register_experiment,
    resolve_experiment,
    run_experiment,
    unregister_experiment,
)
from repro.experiments.runner import current_scale, scaled
from repro.experiments.table1 import table1_aggregate, table1_build
from repro.results.schema import SCHEMA_VERSION, ResultSet

TINY = scaled(
    current_scale("quick"),
    n=10,
    connectivities=(2,),
    trials=2,
    calibration_trials=6,
    k_target=0.9,
)


def _dummy_spec(name="test-exp", **kwargs):
    return ExperimentSpec(
        name=name,
        description="test experiment",
        build=lambda ctx: [],
        aggregate=lambda ctx, results: ResultSet.from_rows(
            name, "test", ["v"], [[1.0]]
        ),
        **kwargs,
    )


class TestBuiltins:
    def test_all_paper_artefacts_registered(self):
        assert experiment_names() == (
            "figure1",
            "table1",
            "figure4a",
            "figure4b",
            "figure5a",
            "figure5b",
            "figure6",
            "membership",
            "kvstore",
            "heterogeneous",
        )

    def test_simulated_filter(self):
        simulated = experiment_names(simulated=True)
        assert "figure1" not in simulated
        assert "table1" not in simulated
        assert "figure4a" in simulated
        assert set(experiment_names(simulated=False)) == {"figure1", "table1"}

    def test_artefact_ids(self):
        assert resolve_experiment("figure4a").artefact == "Figure 4(a)"
        assert resolve_experiment("table1").artefact == "Table 1"

    def test_alias_resolution(self):
        assert resolve_experiment("fig4a").name == "figure4a"
        assert resolve_experiment("FIG6").name == "figure6"
        assert resolve_experiment("het").name == "heterogeneous"
        assert resolve_experiment("hetero").name == "heterogeneous"

    def test_spec_passthrough(self):
        spec = resolve_experiment("figure1")
        assert resolve_experiment(spec) is spec

    def test_unknown_experiment_suggests_closest(self):
        with pytest.raises(UnknownExperimentError) as exc_info:
            resolve_experiment("figure4")
        assert "unknown experiment" in str(exc_info.value)
        assert "did you mean" in str(exc_info.value)
        assert exc_info.value.suggestion in ("figure4a", "figure4b", "fig4a", "fig4b")

    def test_sweep_keys(self):
        assert resolve_experiment("figure4a").sweep_keys() == (
            "connectivity", "crash", "n", "trials"
        )
        assert resolve_experiment("figure6").sweep_keys() == (
            "size", "topology", "loss", "trials"
        )


class TestRegistration:
    def test_register_and_unregister(self, clean_registry):
        register_experiment(_dummy_spec(aliases=("texp",)))
        assert resolve_experiment("texp").name == "test-exp"
        unregister_experiment("test-exp")
        with pytest.raises(UnknownExperimentError):
            resolve_experiment("texp")

    def test_duplicate_name_rejected(self, clean_registry):
        register_experiment(_dummy_spec())
        with pytest.raises(ValidationError, match="already registered"):
            register_experiment(_dummy_spec())

    def test_replace_swaps(self, clean_registry):
        register_experiment(_dummy_spec())
        replacement = _dummy_spec()
        assert (
            register_experiment(replacement, replace=True) is replacement
        )
        assert resolve_experiment("test-exp") is replacement

    def test_replace_keeps_registration_order(self, clean_registry):
        # re-registering a built-in must not move it in `experiments list`
        names = experiment_names()
        register_experiment(resolve_experiment("figure1"), replace=True)
        register_experiment(
            dataclasses.replace(resolve_experiment("figure4a"), aliases=()),
            replace=True,
        )
        assert experiment_names() == names
        assert experiment_names(simulated=False) == ("figure1", "table1")

    def test_alias_collision_with_builtin_rejected(self, clean_registry):
        with pytest.raises(ValidationError, match="already registered"):
            register_experiment(_dummy_spec(aliases=("figure1",)))

    def test_non_spec_rejected(self):
        with pytest.raises(ValidationError, match="ExperimentSpec"):
            register_experiment(object())


class TestParams:
    def test_sweep_lists_coerce(self):
        spec = resolve_experiment("figure4a")
        params = spec.make_params(
            {"connectivity": [2, 4], "crash": ["0.03"], "trials": [4]}
        )
        assert params == Figure4aParams(
            connectivity=(2, 4), crash=(0.03,), trials=4
        )

    def test_scalar_values_coerce(self):
        spec = resolve_experiment("figure4a")
        params = spec.make_params({"connectivity": 2, "n": 12})
        assert params.connectivity == (2,)
        assert params.n == 12

    def test_instance_passthrough(self):
        spec = resolve_experiment("figure4a")
        params = Figure4aParams(trials=3)
        assert spec.make_params(params) is params

    def test_unknown_axis_errors_with_supported_keys(self):
        spec = resolve_experiment("figure4a")
        with pytest.raises(ValidationError, match="does not sweep"):
            spec.make_params({"topology": ["ring"]})

    def test_unknown_axis_suggests(self):
        spec = resolve_experiment("figure4a")
        with pytest.raises(ValidationError, match="did you mean 'trials'"):
            spec.make_params({"trails": [2]})

    def test_single_value_axis_rejects_lists(self):
        spec = resolve_experiment("figure4a")
        with pytest.raises(ValidationError, match="exactly one value"):
            spec.make_params({"n": [10, 20]})
        spec = resolve_experiment("heterogeneous")
        with pytest.raises(ValidationError, match="exactly one value"):
            spec.make_params({"loss": [0.01, 0.05]})

    def test_bad_integer_value_errors(self):
        spec = resolve_experiment("figure4a")
        with pytest.raises(ValidationError, match="integer"):
            spec.make_params({"trials": [2.5]})

    @pytest.mark.skipif(
        sys.version_info < (3, 10), reason="PEP 604 unions need 3.10+"
    )
    def test_pep604_optional_axes_coerce(self, clean_registry):
        # a plugin params dataclass using `int | None` style must coerce
        # sweep strings exactly like typing.Optional fields
        from dataclasses import make_dataclass, field as dc_field

        params_type = make_dataclass(
            "Pep604Params",
            [("n", eval("int | None"), dc_field(default=None))],
            frozen=True,
        )
        register_experiment(_dummy_spec(params_type=params_type))
        params = resolve_experiment("test-exp").make_params({"n": ["4"]})
        assert params.n == 4

    def test_trials_below_one_rejected(self):
        with pytest.raises(ValidationError, match="must be positive"):
            Figure4aParams(trials=0)
        with pytest.raises(ValidationError, match="must be positive"):
            HeterogeneousParams(trials=-1)

    @pytest.mark.parametrize("trials", [1.5, True, float("nan")])
    def test_fractional_and_bool_trials_rejected(self, trials):
        with pytest.raises(ValidationError, match="swept trials must be an int"):
            Figure4aParams(trials=trials)

    @pytest.mark.parametrize("intervals", [2.5, True, 1, float("inf")])
    def test_table1_intervals_rejected(self, intervals):
        with pytest.raises(ValidationError, match="intervals must be"):
            Table1Params(intervals=intervals)

    def test_connectivity_above_n_rejected_at_build(self):
        with pytest.raises(ValidationError, match="must be below n=10"):
            run_experiment(
                "figure4a", scale=TINY, params={"connectivity": [16]}
            )


class TestRunExperiment:
    """A registry run equals its module's build/aggregate pair composed
    on a plain campaign: the hooks add provenance and nothing else."""

    def test_figure1_bit_identical_to_table_builder(self):
        result = run_experiment("figure1")
        expected = figure1_aggregate(Campaign().run(figure1_build()))
        assert result.rows == expected.rows
        assert result.render() == expected.render()

    def test_table1_bit_identical_to_renderer(self):
        result = run_experiment("table1")
        expected = table1_aggregate(Campaign().run(table1_build()))
        assert result.render() == expected.render()
        assert result.x_label is None

    def test_figure4a_bit_identical_to_table_builder(self):
        params = {"crash": [0.03]}
        result = run_experiment("figure4a", scale=TINY, params=params)
        campaign = Campaign()
        phase1, specs = figure4_build("crash", TINY, campaign, values=(0.03,))
        expected = figure4_aggregate(
            "crash", TINY, phase1, campaign.run(specs), values=(0.03,)
        )
        assert result.rows == expected.rows
        assert result.render() == expected.render()

    def test_provenance_stamped(self):
        result = run_experiment(
            "figure1", scale=current_scale("quick"), params={"alpha": [1, 2]}
        )
        prov = result.provenance
        assert prov.experiment == "figure1"
        assert prov.artefact == "Figure 1"
        assert prov.scale == "quick"
        assert prov.params == {"alpha": [1.0, 2.0]}
        assert prov.schema_version == SCHEMA_VERSION
        assert prov.repro_version

    def test_alias_runs_canonical(self):
        result = run_experiment("tab1")
        assert result.experiment == "table1"

    def test_campaign_counters_and_cache(self, tmp_path):
        from repro.util.cache import TrialCache

        campaign = Campaign(cache=TrialCache(str(tmp_path)))
        first = run_experiment("figure1", campaign=campaign)
        executed = campaign.executed
        assert executed > 0
        rerun = Campaign(cache=TrialCache(str(tmp_path)))
        second = run_experiment("figure1", campaign=rerun)
        assert rerun.executed == 0
        assert rerun.cached == executed
        assert second.render() == first.render()

    def test_spec_run_equivalent(self):
        spec = resolve_experiment("figure1")
        assert spec.run().render() == run_experiment("figure1").render()


class TestApiSurface:
    def test_list_and_get(self):
        names = [spec.name for spec in api.list_experiments()]
        assert "figure4a" in names
        assert api.get_experiment("fig4a").name == "figure4a"

    def test_run_experiment_scale_string(self):
        result = api.run_experiment("figure1", scale="quick")
        assert result.provenance.scale == "quick"

    def test_store_round_trip_and_zero_drift(self, tmp_path):
        store_path = str(tmp_path / "results.jsonl")
        first = api.run_experiment("figure1", store=store_path)
        second = api.run_experiment("figure1", store=store_path)
        assert first.run_id and second.run_id
        assert first.run_id != second.run_id
        stored = api.load_results(store=store_path, experiment="fig1")
        assert [r.run_id for r in stored] == [first.run_id, second.run_id]
        diff = api.diff_results(
            first.run_id, second.run_id, store=store_path
        )
        assert diff.clean
        assert diff.tolerance == 0.0

    def test_diff_in_memory_results(self):
        a = api.run_experiment("table1")
        b = api.run_experiment("table1")
        assert api.diff_results(a, b, store=None).clean

    def test_load_results_requires_store(self):
        with pytest.raises(ValidationError, match="store"):
            api.load_results(store=None)

    def test_diff_by_run_id_requires_store(self):
        # never fall back to the default store the caller opted out of
        with pytest.raises(ValidationError, match="needs a results store"):
            api.diff_results("a-0001-xx", "b-0001-xx", store=None)

    def test_run_experiment_probes_store_before_running(self, tmp_path,
                                                        clean_registry):
        # the writability probe must fire before build/trials run
        ran = []

        def build(ctx):
            ran.append(True)
            return []

        register_experiment(
            ExperimentSpec(
                name="probe-exp",
                description="",
                build=build,
                aggregate=lambda ctx, results: ResultSet.from_rows(
                    "probe-exp", "t", ["v"], [[0.0]]
                ),
            )
        )
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(OSError):
            api.run_experiment(
                "probe-exp", store=str(blocker / "x" / "r.jsonl")
            )
        assert ran == []  # probe failed before any work happened

    def test_exports_from_repro_namespace(self):
        import repro

        assert repro.run_experiment is api.run_experiment
        assert repro.ResultStore is api.ResultStore
        assert repro.ExperimentSpec is api.ExperimentSpec


PLUGIN_MODULE = textwrap.dedent(
    """
    from repro.experiments.registry import ExperimentSpec
    from repro.results.schema import ResultSet

    SPEC = ExperimentSpec(
        name="dummy-exp",
        description="dummy plugin experiment",
        artefact="Plugin Figure",
        aliases=("dexp",),
        build=lambda ctx: [],
        aggregate=lambda ctx, results: ResultSet.from_rows(
            "dummy-exp", "dummy", ["v"], [[42.0]]
        ),
    )
    """
)


@pytest.fixture
def plugin_on_path(tmp_path, monkeypatch):
    """A test-local plugin module (plus dist-info) importable from sys.path."""
    (tmp_path / "dummy_exp_plugin.py").write_text(PLUGIN_MODULE)
    dist_info = tmp_path / "dummy_exp-0.1.dist-info"
    dist_info.mkdir()
    (dist_info / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: dummy-exp\nVersion: 0.1\n"
    )
    (dist_info / "entry_points.txt").write_text(
        "[repro.experiments]\ndummy = dummy_exp_plugin:SPEC\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    yield tmp_path
    sys.modules.pop("dummy_exp_plugin", None)


class TestPluginDiscovery:
    def test_entry_point_discovery(self, clean_registry, plugin_on_path):
        registered = discover_plugins(force=True)
        assert "dummy-exp" in registered
        assert resolve_experiment("dexp").name == "dummy-exp"
        result = run_experiment("dummy-exp")
        assert result.rows[0].get("v") == 42.0
        assert result.provenance.artefact == "Plugin Figure"

    def test_discovery_is_idempotent(self, clean_registry, plugin_on_path):
        discover_plugins(force=True)
        assert discover_plugins(force=True) == []  # already present: kept

    def test_env_var_discovery(self, clean_registry, plugin_on_path,
                               monkeypatch):
        module = plugin_on_path / "env_exp_plugin.py"
        module.write_text(
            PLUGIN_MODULE.replace("dummy-exp", "env-exp").replace(
                '"dexp"', '"eexp"'
            )
        )
        monkeypatch.setenv(reg.PLUGIN_ENV, "env_exp_plugin:SPEC")
        try:
            registered = discover_plugins(force=True)
        finally:
            sys.modules.pop("env_exp_plugin", None)
        assert "env-exp" in registered
        assert resolve_experiment("eexp").name == "env-exp"

    def test_broken_env_plugin_warns_and_continues(self, clean_registry,
                                                   monkeypatch):
        monkeypatch.setenv(reg.PLUGIN_ENV, "no_such_module_xyz:SPEC")
        with pytest.warns(UserWarning, match="skipping experiment plugin"):
            discover_plugins(force=True)
        assert "figure4a" in experiment_names()  # registry still intact

    def test_two_spec_plugin_registers_all_or_nothing(self, clean_registry,
                                                      tmp_path, monkeypatch):
        # the second spec's alias collides with a built-in: the plugin is
        # skipped whole, its first spec must not stay behind
        monkeypatch.syspath_prepend(str(tmp_path))
        (tmp_path / "pair_exp_plugin.py").write_text(
            PLUGIN_MODULE.replace("dummy-exp", "pair-first").replace(
                '"dexp"', '"pair1"'
            )
            + "import dataclasses\n"
            + "SPECS = [SPEC, dataclasses.replace("
            + 'SPEC, name="pair-second", aliases=("fig1",))]\n'
        )
        monkeypatch.setenv(reg.PLUGIN_ENV, "pair_exp_plugin:SPECS")
        before = experiment_names()
        try:
            with pytest.warns(UserWarning, match="skipping experiment plugin"):
                assert discover_plugins(force=True) == []
        finally:
            sys.modules.pop("pair_exp_plugin", None)
        assert experiment_names() == before
        assert resolve_experiment("fig1").name == "figure1"
        for name in ("pair-first", "pair1", "pair-second"):
            with pytest.raises(UnknownExperimentError):
                resolve_experiment(name)


class TestCliIntegration:
    def test_reserved_name_plugin_does_not_break_parser(self, clean_registry):
        # a plugin experiment named like a fixed subcommand must not
        # crash make_parser; it stays reachable via 'experiments run'
        from repro.cli import make_parser

        register_experiment(_dummy_spec(name="results"))
        parser = make_parser()
        args = parser.parse_args(["results", "show", "--last", "1"])
        assert args.results_command == "show"  # the fixed subcommand won
        assert resolve_experiment("results").description == "test experiment"

    def test_unwritable_store_path_fails_before_running(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        rc = main(
            [
                "experiments", "run", "table1", "--no-cache",
                "--store", str(blocker / "sub" / "results.jsonl"),
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestExperimentContext:
    def test_build_sees_materialised_params(self, clean_registry):
        seen = {}

        def build(ctx):
            seen["params"] = ctx.params
            seen["scale"] = ctx.scale
            return []

        register_experiment(
            ExperimentSpec(
                name="ctx-exp",
                description="",
                params_type=Figure4aParams,
                build=build,
                aggregate=lambda ctx, results: ResultSet.from_rows(
                    "ctx-exp", "t", ["v"], [[0.0]]
                ),
            )
        )
        run_experiment("ctx-exp", scale=TINY)
        assert seen["params"] == Figure4aParams()
        assert seen["scale"] is TINY

    def test_build_may_run_prephases_through_campaign(self, clean_registry):
        def build(ctx):
            pre = ctx.campaign.run(
                [TrialSpec.make(
                    "repro.experiments.figure1:two_path_ratio_task",
                    loss=0.01,
                    alpha=4.0,
                )]
            )
            assert pre[0]["ratio"] < 1.0
            return []

        register_experiment(
            ExperimentSpec(
                name="pre-exp",
                description="",
                build=build,
                aggregate=lambda ctx, results: ResultSet.from_rows(
                    "pre-exp", "t", ["v"], [[0.0]]
                ),
            )
        )
        campaign = Campaign()
        run_experiment("pre-exp", campaign=campaign)
        assert campaign.executed == 1
