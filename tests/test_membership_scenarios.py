"""Integration + acceptance tests for the partial-view protocol family.

The ISSUE 7 acceptance criteria, pinned as tests:

* all three ``*-pv`` protocols resolve through the registry and run every
  built-in scenario at quick scale;
* membership trials are bit-identical across serial and parallel
  campaign execution (``workers=1`` vs ``workers=4``);
* the ``membership`` experiment appends view-quality rows to the
  ResultStore with full provenance;
* a ``churn-storm`` soak with 2,000 processes and 500 join/leave events
  completes under the :class:`InvariantMonitor` with zero violations.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import UnknownScenarioError, ValidationError
from repro.experiments.campaign import Campaign, TrialSpec
from repro.experiments.registry import resolve_experiment
from repro.experiments.runner import current_scale, scaled
from repro.membership.sampler import MembershipParams
from repro.membership.service import PeerSamplingService
from repro.protocols.registry import (
    default_protocols,
    parse_param_key,
    protocol_names,
    resolve_protocol,
)
from repro.results.store import ResultStore
from repro.scenario.registry import build_scenario, scenario_names
from repro.scenario.trial import MEMBERSHIP_TRIAL_FN, run_scenario_trial
from repro.sim.dynamics import DynamicsDriver
from repro.sim.engine import Simulator
from repro.sim.monitors import InvariantMonitor
from repro.sim.network import Network, NetworkOptions
from repro.util.rng import RandomSource

PV_PROTOCOLS = ("gossip-pv", "flooding-pv", "adaptive-pv")


class TestRegistryIntegration:
    def test_pv_protocols_registered_with_aliases(self):
        for name in PV_PROTOCOLS:
            spec = resolve_protocol(name)
            assert spec.name == name
            assert spec.needs_rng
            base = name.replace("-pv", "")
            assert resolve_protocol(f"pv-{base}").name == name

    def test_pv_protocols_are_opt_in_for_comparisons(self):
        defaults = default_protocols()
        for name in PV_PROTOCOLS:
            assert name in protocol_names()
            assert name not in defaults

    def test_membership_knobs_sweep_through_dotted_keys(self):
        for name in PV_PROTOCOLS:
            for knob in ("view_size", "peer_selection", "propagation"):
                spec, param = parse_param_key(f"{name}.{knob}")
                assert spec.name == name and param == knob
        # protocol-specific knobs survive the dataclass inheritance
        parse_param_key("gossip-pv.rounds")
        parse_param_key("adaptive-pv.delta")
        with pytest.raises(ValidationError):
            parse_param_key("gossip-pv.view_sise")

    def test_param_overrides_reach_the_samplers(self):
        spec = build_scenario("churn-mill", current_scale("quick"))
        tight = run_scenario_trial(
            spec,
            "gossip-pv",
            0,
            params={"gossip-pv": {"view_size": 2, "propagation": "push"}},
            view_quality=True,
        )
        wide = run_scenario_trial(spec, "gossip-pv", 0, view_quality=True)
        # a 2-entry push-only view concentrates fewer in-edges than the
        # default 8-entry pushpull view on the same seeded trial
        assert tight["view_indegree_mean"] < wide["view_indegree_mean"]


class TestScenarioMatrix:
    @pytest.mark.parametrize("scenario", scenario_names())
    @pytest.mark.parametrize("protocol", PV_PROTOCOLS)
    def test_every_builtin_scenario_runs(self, scenario, protocol):
        spec = build_scenario(scenario, current_scale("quick"))
        metrics = run_scenario_trial(spec, protocol, trial=0)
        assert 0.0 <= metrics["delivery_ratio"] <= 1.0
        assert metrics["total_messages"] > 0

    def test_view_quality_metrics_present(self):
        spec = build_scenario("partition-heal", current_scale("quick"))
        metrics = run_scenario_trial(spec, "gossip-pv", 0, view_quality=True)
        for key in (
            "view_indegree_mean",
            "view_indegree_p99",
            "view_indegree_max",
            "view_staleness",
            "view_clustering",
            "view_partition_recovery",
            "view_polls",
        ):
            assert key in metrics
        assert metrics["view_polls"] > 0

    def test_view_quality_requires_a_sampled_protocol(self):
        spec = build_scenario("churn-mill", current_scale("quick"))
        with pytest.raises(ValidationError):
            run_scenario_trial(spec, "gossip", 0, view_quality=True)

    def test_scenario_typo_gets_suggestion(self):
        with pytest.raises(UnknownScenarioError) as err:
            build_scenario("churn-strom", current_scale("quick"))
        assert err.value.suggestion == "churn-storm"
        assert "did you mean" in str(err.value)


def _membership_specs(trials=2):
    payload = json.dumps(
        {"gossip-pv": {"view_size": 4, "exchange_period": 5.0}}, sort_keys=True
    )
    return [
        TrialSpec.make(
            MEMBERSHIP_TRIAL_FN,
            scenario="churn-mill",
            protocol="gossip-pv",
            scale="quick",
            trial=trial,
            params=payload,
        )
        for trial in range(trials)
    ]


class TestCampaignDeterminism:
    def test_serial_and_parallel_runs_are_bit_identical(self):
        specs = _membership_specs()
        serial = Campaign().run(specs)
        parallel = Campaign(backend="process:4").run(specs)
        assert serial == parallel

    def test_reruns_are_bit_identical(self):
        specs = _membership_specs()
        assert Campaign().run(specs) == Campaign().run(specs)


class TestMembershipExperiment:
    def test_result_rows_reach_the_store_with_provenance(self, tmp_path):
        result = resolve_experiment("membership").run(
            scale=current_scale("quick"),
            params={
                "scenario": ["partition-heal"],
                "policy": ["head:rand:pushpull"],
                "view_size": [8],
                "trials": 2,
            },
            campaign=Campaign(),
        )
        assert result.columns == (
            "scenario",
            "policy",
            "view_size",
            "delivery",
            "indegree_mean",
            "indegree_p99",
            "indegree_max",
            "staleness",
            "clustering",
            "recovery_s",
        )
        [row] = result.rows
        cells = dict(row.cells)
        assert cells["scenario"] == "partition-heal"
        assert 0.0 <= cells["delivery"] <= 1.0
        assert cells["indegree_p99"] >= 0.0
        # partition-heal has a Heal event, so recovery must be observed
        assert cells["recovery_s"] is not None and cells["recovery_s"] >= 0.0

        store = ResultStore(str(tmp_path / "results.jsonl"))
        stored = store.append(result)
        assert stored.run_id is not None
        loaded = store.get(stored.run_id)
        assert loaded.provenance.experiment == "membership"
        assert loaded.rows == result.rows

    def test_bad_policy_triple_is_rejected(self):
        with pytest.raises(ValidationError, match="did you mean"):
            resolve_experiment("membership").run(
                scale=current_scale("quick"),
                params={"policy": ["head:rnd:pushpull"], "trials": 1},
                campaign=Campaign(),
            )


class TestChurnStormAcceptance:
    def test_2000_process_churn_soak_is_invariant_clean(self):
        """2,000 processes, 500 join/leave events, zero violations."""
        spec = build_scenario(
            "churn-storm", scaled(current_scale("quick"), n=2000)
        )
        assert spec.topology.n >= 2000
        churn_events = len(spec.timeline)
        assert churn_events >= 500

        graph, tiers = spec.topology.build_with_tiers()
        config = spec.environment.base_configuration(graph, tiers)
        sim = Simulator()
        root = RandomSource("membership-acceptance", spec.name)
        network = Network(
            sim,
            config,
            root.child("net"),
            options=NetworkOptions(
                crash_model=spec.environment.crash_model,
                markov_mean_down_ticks=spec.environment.mean_down_ticks,
            ),
        )
        # a long exchange period keeps the soak fast while every process
        # still completes multiple exchange rounds within the duration
        params = MembershipParams(view_size=8, exchange_period=20.0)
        services = [
            PeerSamplingService(p, network, params, rng=root)
            for p in graph.processes
        ]
        driver = DynamicsDriver(
            network, spec.timeline, name=spec.name, tiers=tiers
        )
        driver.install()
        invariants = InvariantMonitor(
            sim, network, event_times=[e.at for e in spec.timeline]
        )
        network.start()
        sim.run(until=spec.duration)  # any violation raises from inside

        assert invariants.records_checked > 0
        assert len(driver.applied_events) == churn_events
        assert all(len(s.sampler) > 0 for s in services)
