"""Integration + acceptance tests for the ``kvstore`` experiment.

The ISSUE 8 acceptance criteria, pinned as tests:

* the ``kvstore`` experiment runs every registered broadcast protocol
  (including the partial-view family) over the default three scenarios
  at quick scale and appends staleness/visibility/buffer rows with full
  provenance to the ResultStore;
* KV trials are bit-identical across serial and parallel campaign
  execution (``workers=1`` vs ``workers=4``) and across re-runs;
* a 50-generated-scenario smoke runs invariant-clean — the causal
  layer raises :class:`CausalOrderError` from inside the run on any
  ordering violation, the :class:`InvariantMonitor` on any structural
  one, so completion *is* the assertion;
* the ``hot-key-storm`` scenario is registered, invariant-clean and
  surge-bearing.
"""

from __future__ import annotations

import pytest

from repro.experiments.campaign import Campaign, TrialSpec
from repro.experiments.registry import resolve_experiment
from repro.experiments.runner import current_scale
from repro.kvstore.trial import KV_TRIAL_FN, kv_trial_task, run_kv_trial
from repro.kvstore.workload import KVWorkloadParams
from repro.protocols.registry import protocol_names
from repro.results.store import ResultStore
from repro.scenario.generate import ScenarioGenerator
from repro.scenario.registry import build_scenario, scenario_names
from repro.util import jsonio

PV_PROTOCOLS = ("gossip-pv", "flooding-pv", "adaptive-pv")
SMOKE_SCENARIOS = 50


class TestHotKeyStormScenario:
    def test_registered_with_surge_and_partition(self):
        assert "hot-key-storm" in scenario_names()
        spec = build_scenario("hot-key-storm", current_scale("quick"))
        assert spec.workload.surge_at is not None
        kinds = {type(event).__name__ for event in spec.timeline}
        assert kinds == {"Partition", "Heal"}

    def test_trial_reports_the_kv_metric_family(self):
        spec = build_scenario("hot-key-storm", current_scale("quick"))
        metrics = run_kv_trial(spec, "gossip", trial=0)
        for key in (
            "delivery_ratio",
            "data_messages",
            "control_messages",
            "heartbeat_messages",
            "kv_ops",
            "kv_reads",
            "kv_writes",
            "kv_stale_reads",
            "kv_staleness_versions",
            "kv_staleness_seconds",
            "kv_visibility_p50",
            "kv_visibility_p99",
            "kv_buffer_mean",
            "kv_buffer_max",
            "kv_convergence_time",
            "kv_polls",
        ):
            assert key in metrics, key
        assert metrics["kv_ops"] > 0 and metrics["kv_polls"] > 0
        assert 0.0 <= metrics["delivery_ratio"] <= 1.0
        assert 0.0 <= metrics["kv_stale_reads"] <= 1.0

    def test_trial_is_bit_identical_across_reruns(self):
        spec = build_scenario("hot-key-storm", current_scale("quick"))
        assert run_kv_trial(spec, "gossip", 0) == run_kv_trial(spec, "gossip", 0)

    def test_schedule_is_protocol_independent(self):
        """Every protocol row faces the same client operation count."""
        spec = build_scenario("hot-key-storm", current_scale("quick"))
        gossip = run_kv_trial(spec, "gossip", 0)
        flooding = run_kv_trial(spec, "flooding", 0)
        assert gossip["kv_ops"] == flooding["kv_ops"]
        assert gossip["kv_writes"] == flooding["kv_writes"]


def _kv_specs(trials=2):
    payload = jsonio.dumps(jsonio.encode(KVWorkloadParams(ops=16, surge_ops=4)))
    return [
        TrialSpec.make(
            KV_TRIAL_FN,
            scenario="hot-key-storm",
            protocol="gossip",
            scale="quick",
            trial=trial,
            workload=payload,
        )
        for trial in range(trials)
    ]


class TestCampaignDeterminism:
    def test_serial_and_parallel_runs_are_bit_identical(self):
        specs = _kv_specs()
        serial = Campaign().run(specs)
        parallel = Campaign(backend="process:4").run(specs)
        assert serial == parallel

    def test_reruns_are_bit_identical(self):
        specs = _kv_specs()
        assert Campaign().run(specs) == Campaign().run(specs)

    def test_task_rebuilds_the_trial_from_scalars(self):
        payload = jsonio.dumps(jsonio.encode(KVWorkloadParams(ops=16, surge_ops=4)))
        direct = run_kv_trial(
            build_scenario("hot-key-storm", current_scale("quick")),
            "gossip",
            1,
            workload=KVWorkloadParams(ops=16, surge_ops=4),
        )
        rebuilt = kv_trial_task(
            scenario="hot-key-storm",
            protocol="gossip",
            scale="quick",
            trial=1,
            workload=payload,
        )
        assert direct == rebuilt


class TestKVStoreExperiment:
    def test_every_protocol_over_three_scenarios_with_provenance(self, tmp_path):
        """The headline acceptance run: full protocol grid, rows stored."""
        result = resolve_experiment("kvstore").run(
            scale=current_scale("quick"),
            params={"trials": 1, "ops": 16},
            campaign=Campaign(),
        )
        from repro.experiments.kvstore import DEFAULT_SCENARIOS, KV_COLUMNS

        assert result.columns == KV_COLUMNS
        assert len(result.rows) == len(DEFAULT_SCENARIOS) * len(protocol_names())
        cells = [dict(row.cells) for row in result.rows]
        covered = {(c["scenario"], c["protocol"]) for c in cells}
        for scenario in DEFAULT_SCENARIOS:
            for protocol in protocol_names():
                assert (scenario, protocol) in covered
        assert set(PV_PROTOCOLS) <= {c["protocol"] for c in cells}
        for cell in cells:
            assert 0.0 <= cell["delivery"] <= 1.0
            assert 0.0 <= cell["stale_reads"] <= 1.0
            assert cell["buffer_max"] >= 0.0
            assert cell["data_msgs"] >= 0.0 and cell["control_msgs"] >= 0.0

        store = ResultStore(str(tmp_path / "results.jsonl"))
        stored = store.append(result)
        assert stored.run_id is not None
        loaded = store.get(stored.run_id)
        assert loaded.provenance.experiment == "kvstore"
        assert loaded.rows == result.rows

    def test_workload_mix_axes_widen_the_grid(self):
        result = resolve_experiment("kvstore").run(
            scale=current_scale("quick"),
            params={
                "scenario": ["hot-key-storm"],
                "protocol": ["gossip"],
                "zipf_s": [0.8, 1.1],
                "write_ratio": [0.1, 0.5],
                "trials": 1,
                "ops": 16,
            },
            campaign=Campaign(),
        )
        assert len(result.rows) == 4
        mixes = {
            (dict(r.cells)["zipf_s"], dict(r.cells)["write_ratio"])
            for r in result.rows
        }
        assert mixes == {(0.8, 0.1), (0.8, 0.5), (1.1, 0.1), (1.1, 0.5)}

    def test_unknown_axis_is_rejected_with_suggestion(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError, match="did you mean 'zipf_s'"):
            resolve_experiment("kvstore").run(
                scale=current_scale("quick"),
                params={"kvstore.zipff_s": [0.8], "trials": 1},
                campaign=Campaign(),
            )


class TestGeneratedScenarioSmoke:
    def test_no_causal_violation_over_generated_scenarios(self):
        """50 generated scenarios, invariant- and causal-order-clean."""
        generator = ScenarioGenerator("kv-smoke", current_scale("quick"))
        workload = KVWorkloadParams(ops=12, surge_ops=4)
        total_records = 0
        for spec in generator.specs(SMOKE_SCENARIOS):
            metrics = run_kv_trial(
                spec, "gossip", 0, workload=workload, invariants=True
            )
            # a schedule can legitimately draw zero writes (write_ratio
            # is a probability); traffic is only guaranteed when it wrote
            if metrics["kv_writes"] > 0:
                assert metrics["invariant_records"] > 0, spec.name
            assert metrics["kv_ops"] > 0, spec.name
            total_records += metrics["invariant_records"]
        assert total_records > SMOKE_SCENARIOS
