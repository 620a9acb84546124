"""Tests for the public facade (repro.api)."""

import dataclasses

import pytest

from repro import api
from repro.errors import UnknownProtocolError, ValidationError
from repro.experiments.runner import current_scale
from repro.protocols.flooding import FloodingBroadcast
from repro.protocols.registry import ProtocolSpec

QUICK = current_scale("quick")


class TestProtocolSurface:
    def test_list_protocols_returns_specs(self):
        specs = api.list_protocols()
        assert all(isinstance(spec, ProtocolSpec) for spec in specs)
        assert {spec.name for spec in specs} >= {
            "adaptive", "optimal", "gossip", "flooding", "two-phase"
        }

    def test_get_protocol_resolves_aliases(self):
        assert api.get_protocol("oracle").name == "optimal"

    def test_get_protocol_unknown_suggests(self):
        with pytest.raises(UnknownProtocolError, match="did you mean"):
            api.get_protocol("adaptiv")

    def test_register_protocol_through_api(self, clean_registry):
        spec = api.register_protocol(
            ProtocolSpec(
                name="api-flood",
                factory=lambda ctx: [
                    FloodingBroadcast(p, ctx.network, ctx.monitor, ctx.k_target)
                    for p in ctx.processes
                ],
            )
        )
        assert api.get_protocol("api-flood") is spec

    def test_top_level_reexports(self):
        import repro

        assert repro.get_protocol is api.get_protocol
        assert repro.run_scenario is api.run_scenario
        assert repro.compare is api.compare

    def test_version_is_a_version_string(self):
        assert api.version()[0].isdigit()


class TestScenarioSurface:
    def test_list_scenarios(self):
        assert "partition-heal" in api.list_scenarios()

    def test_get_scenario_scale_spellings(self):
        by_name = api.get_scenario("partition-heal", "quick")
        by_obj = api.get_scenario("partition-heal", QUICK)
        assert by_name == by_obj


class TestRunTrial:
    def test_typed_result(self):
        result = api.run_trial("partition-heal", "flooding", scale="quick")
        assert isinstance(result, api.TrialResult)
        assert result.scenario == "partition-heal"
        assert result.protocol == "flooding"
        assert 0.0 <= result.delivery_ratio <= 1.0
        assert result.reconv_time is None  # no learned knowledge
        assert result.metrics["data_messages"] == result.data_messages

    def test_alias_and_spec_inputs(self):
        by_alias = api.run_trial("partition-heal", "flood", scale="quick")
        spec = api.get_scenario("partition-heal", "quick")
        by_spec = api.run_trial(spec, api.get_protocol("flooding"))
        assert by_alias == by_spec

    def test_learning_protocol_reports_reconv(self):
        result = api.run_trial("partition-heal", "adaptive", scale="quick")
        assert result.reconverged is not None
        assert result.reconv_time is not None

    def test_environment_overrides(self):
        clean = api.run_trial("partition-heal", "flooding", scale="quick")
        lossy = api.run_trial(
            "partition-heal", "flooding", scale="quick", loss=0.4
        )
        assert lossy.delivery_ratio < clean.delivery_ratio


class TestRunScenario:
    def test_comparison_result(self):
        result = api.run_scenario(
            "partition-heal",
            protocols=("optimal", "flooding"),
            scale="quick",
            trials=1,
        )
        assert isinstance(result, api.ComparisonResult)
        assert [row.protocol for row in result.rows] == [
            "optimal", "flooding"
        ]
        assert "partition-heal" in result.render()
        assert result.row("flood").protocol == "flooding"
        with pytest.raises(ValidationError, match="not part of this"):
            result.row("gossip")

    def test_compare_is_protocols_first(self):
        direct = api.run_scenario(
            "partition-heal", ("flooding",), scale="quick", trials=1
        )
        flipped = api.compare(
            ("flooding",), "partition-heal", scale="quick", trials=1
        )
        assert direct == flipped

    def test_params_flow_through(self):
        tight = api.run_scenario(
            "partition-heal",
            ("gossip",),
            scale="quick",
            trials=1,
            params={"gossip": {"rounds": 1}},
        )
        loose = api.run_scenario(
            "partition-heal", ("gossip",), scale="quick", trials=1
        )
        assert tight.row("gossip").data_messages < (
            loose.row("gossip").data_messages
        )

    def test_custom_scenario_spec_runs_serially(self):
        spec = api.get_scenario("partition-heal", "quick")
        custom = dataclasses.replace(spec, name="my-variant")
        result = api.run_scenario(custom, ("flooding",), trials=1,
                                  scale="quick")
        assert result.scenario == "my-variant"
        assert len(result.rows) == 1

    def test_custom_spec_rejects_workers(self):
        spec = api.get_scenario("partition-heal", "quick")
        with pytest.raises(ValidationError, match="serially"):
            api.run_scenario(spec, ("flooding",), backend="process:2", trials=1)

    def test_custom_spec_rejects_n(self):
        spec = api.get_scenario("partition-heal", "quick")
        with pytest.raises(ValidationError, match="name-based"):
            api.run_scenario(spec, ("flooding",), n=16, trials=1)

    @pytest.mark.parametrize("trials", [2.5, float("nan"), True, 0])
    @pytest.mark.parametrize("by_name", [True, False], ids=["name", "spec"])
    def test_bad_trials_rejected_on_both_paths(self, trials, by_name):
        scenario = (
            "partition-heal" if by_name
            else api.get_scenario("partition-heal", "quick")
        )  # fmt: skip
        with pytest.raises(ValidationError, match="trials must be"):
            api.run_scenario(
                scenario, ("flooding",), trials=trials, scale="quick",
                backend="serial",
            )  # fmt: skip

    def test_registered_protocol_compares_against_builtins(
        self, clean_registry
    ):
        api.register_protocol(
            ProtocolSpec(
                name="my-flood",
                factory=lambda ctx: [
                    FloodingBroadcast(p, ctx.network, ctx.monitor, ctx.k_target)
                    for p in ctx.processes
                ],
            )
        )
        result = api.compare(
            ["my-flood", "flooding"],
            scenario="partition-heal",
            scale="quick",
            trials=1,
        )
        assert {row.protocol for row in result.rows} == {
            "my-flood", "flooding"
        }

    def test_json_round_trip(self):
        result = api.run_scenario(
            "partition-heal", ("flooding",), scale="quick", trials=1
        )
        payload = result.to_json()
        assert payload["scenario"] == "partition-heal"
        assert payload["rows"][0]["protocol"] == "flooding"

    def test_custom_spec_rejects_cache(self):
        spec = api.get_scenario("partition-heal", "quick")
        with pytest.raises(ValidationError, match="cache"):
            api.run_scenario(
                spec, ("flooding",), backend="serial+cache", trials=1
            )
