"""Tests for the protocol registry (repro.protocols.registry).

Covers the new public protocol surface: spec registration round-trips,
alias resolution, did-you-mean errors, typed parameter
building/coercion, capability-flag-driven instrumentation in scenario
trials, plugin discovery (entry points + REPRO_PROTOCOLS), and the
pre/post-refactor bit-identity regression pin.  The registry mechanics
themselves (normalisation, collisions, lazy discovery, plugin atomicity)
are tested once, generically, in ``test_registry.py``.
"""

import dataclasses
import sys
import textwrap

import pytest

from repro.errors import UnknownProtocolError, ValidationError
from repro.experiments.campaign import Campaign
from repro.experiments.runner import current_scale
from repro.protocols import registry as reg
from repro.protocols.flooding import FloodingBroadcast
from repro.protocols.registry import (
    DeployContext,
    GossipProtocolParams,
    ProtocolSpec,
    default_protocols,
    discover_plugins,
    protocol_names,
    protocol_specs,
    register_protocol,
    resolve_protocol,
    unregister_protocol,
)
from repro.scenario.registry import build_scenario
from repro.scenario.run import scenario_report
from repro.scenario.trial import run_scenario_trial
from repro.sim.engine import Simulator
from repro.sim.monitors import BroadcastMonitor
from repro.sim.network import Network
from repro.topology.configuration import Configuration
from repro.topology.generators import ring
from repro.util.rng import RandomSource

QUICK = current_scale("quick")


def _flood_spec(name="test-flood", **kwargs):
    return ProtocolSpec(
        name=name,
        factory=lambda ctx: [
            FloodingBroadcast(p, ctx.network, ctx.monitor, ctx.k_target)
            for p in ctx.processes
        ],
        description="test flood",
        **kwargs,
    )


def _small_ctx():
    graph = ring(6)
    config = Configuration.uniform(graph, loss=0.0)
    sim = Simulator()
    network = Network(sim, config, RandomSource("registry-test"))
    return DeployContext(
        network=network, monitor=BroadcastMonitor(graph.n), k_target=0.9
    )


class TestBuiltins:
    def test_five_builtins_in_order(self):
        assert protocol_names()[:5] == (
            "adaptive", "optimal", "gossip", "flooding", "two-phase"
        )

    def test_default_compare_excludes_two_phase(self):
        defaults = default_protocols()
        assert "two-phase" not in defaults
        assert set(defaults) >= {"adaptive", "optimal", "gossip", "flooding"}

    def test_capability_flags(self):
        assert resolve_protocol("adaptive").capabilities() == (
            "plans", "learns"
        )
        assert resolve_protocol("optimal").plans
        assert not resolve_protocol("optimal").learns
        assert resolve_protocol("gossip").needs_calibration
        assert resolve_protocol("two-phase").needs_rng
        assert resolve_protocol("flooding").capabilities() == ()

    def test_alias_resolution(self):
        assert resolve_protocol("twophase").name == "two-phase"
        assert resolve_protocol("two_phase").name == "two-phase"
        assert resolve_protocol("TWO-PHASE").name == "two-phase"
        assert resolve_protocol("oracle").name == "optimal"
        assert resolve_protocol("flood").name == "flooding"

    def test_spec_passthrough(self):
        spec = resolve_protocol("gossip")
        assert resolve_protocol(spec) is spec

    def test_unknown_protocol_suggests_closest(self):
        with pytest.raises(UnknownProtocolError) as exc_info:
            resolve_protocol("gosip")
        assert "unknown protocol" in str(exc_info.value)
        assert "did you mean 'gossip'" in str(exc_info.value)
        assert exc_info.value.suggestion == "gossip"

    def test_unknown_protocol_far_from_everything(self):
        with pytest.raises(UnknownProtocolError) as exc_info:
            resolve_protocol("zzzzqqqq")
        assert exc_info.value.suggestion is None


class TestRegistration:
    def test_round_trip_register_list_get_deploy(self, clean_registry):
        spec = register_protocol(_flood_spec(aliases=("tf",)))
        assert "test-flood" in protocol_names()
        assert resolve_protocol("tf") is spec
        assert spec in protocol_specs()
        ctx = _small_ctx()
        nodes = spec.deploy(ctx)
        assert len(nodes) == 6
        ctx.network.start()
        mid = nodes[0].broadcast("hello")
        ctx.network.sim.run(until=5.0)
        assert ctx.monitor.delivery_ratio(mid) == 1.0

    def test_duplicate_name_rejected(self, clean_registry):
        register_protocol(_flood_spec())
        with pytest.raises(ValidationError, match="already registered"):
            register_protocol(_flood_spec())

    def test_alias_collision_rejected(self, clean_registry):
        with pytest.raises(ValidationError, match="already registered"):
            register_protocol(_flood_spec(name="mine", aliases=("gossip",)))

    def test_replace_swaps_spec(self, clean_registry):
        register_protocol(_flood_spec(aliases=("old-alias",)))
        replacement = register_protocol(
            _flood_spec(aliases=("new-alias",)), replace=True
        )
        assert resolve_protocol("test-flood") is replacement
        assert resolve_protocol("new-alias") is replacement
        with pytest.raises(UnknownProtocolError):
            resolve_protocol("old-alias")

    def test_replace_keeps_registration_order(self, clean_registry):
        # re-registering a built-in must not move it: protocol_names(),
        # default_protocols() and the scenario-run row order follow it
        names, defaults = protocol_names(), default_protocols()
        register_protocol(resolve_protocol("adaptive"), replace=True)
        register_protocol(
            dataclasses.replace(resolve_protocol("gossip"), aliases=()),
            replace=True,
        )
        assert protocol_names() == names
        assert default_protocols() == defaults
        assert [spec.name for spec in protocol_specs()] == list(names)

    def test_unregister_removes_aliases(self, clean_registry):
        register_protocol(_flood_spec(aliases=("tf",)))
        unregister_protocol("test-flood")
        for name in ("test-flood", "tf"):
            with pytest.raises(UnknownProtocolError):
                resolve_protocol(name)

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            register_protocol(_flood_spec(name="  "))

    def test_non_spec_rejected(self):
        with pytest.raises(ValidationError, match="ProtocolSpec"):
            register_protocol("gossip")


class TestParams:
    def test_defaults(self):
        params = resolve_protocol("gossip").make_params()
        assert params == GossipProtocolParams()

    def test_scenario_defaults_gossip(self):
        spec = build_scenario("partition-heal", QUICK)
        params = resolve_protocol("gossip").make_params(scenario=spec)
        assert params.rounds == spec.gossip_rounds

    def test_scenario_defaults_adaptive_uses_scenario_knowledge(self):
        spec = build_scenario("partition-heal", QUICK)
        params = resolve_protocol("adaptive").make_params(scenario=spec)
        assert params.intervals == reg.SCENARIO_KNOWLEDGE.intervals
        assert params.delta == reg.SCENARIO_KNOWLEDGE.delta

    def test_two_phase_rounds_derived_from_duration(self):
        # the historical hidden coupling, now an explicit documented
        # default: rounds = max(1, duration / gossip_period)
        spec = build_scenario("partition-heal", QUICK)
        params = resolve_protocol("two-phase").make_params(scenario=spec)
        assert params.gossip_period == 2.0
        assert params.rounds == max(1, int(spec.duration / 2.0))

    def test_two_phase_rounds_override_wins(self):
        spec = build_scenario("partition-heal", QUICK)
        params = resolve_protocol("two-phase").make_params(
            scenario=spec, overrides={"rounds": 3}
        )
        assert params.rounds == 3
        assert params.gossip_period == 2.0  # scenario default kept

    def test_override_coercion(self):
        proto = resolve_protocol("gossip")
        params = proto.make_params(overrides={"rounds": "7", "fanout": 2.0})
        assert params.rounds == 7 and params.fanout == 2

    def test_fractional_int_override_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            resolve_protocol("gossip").make_params(overrides={"rounds": 2.5})

    def test_unknown_param_suggests_closest(self):
        with pytest.raises(ValidationError, match="did you mean 'rounds'"):
            resolve_protocol("gossip").make_params(overrides={"round": 3})

    def test_param_values_validated_by_dataclass(self):
        with pytest.raises(ValidationError):
            resolve_protocol("gossip").make_params(overrides={"rounds": 0})

    def test_parse_param_key(self):
        spec, param = reg.parse_param_key("twophase.rounds")
        assert spec.name == "two-phase" and param == "rounds"
        with pytest.raises(ValidationError, match="no parameter"):
            reg.parse_param_key("gossip.bogus")
        with pytest.raises(UnknownProtocolError):
            reg.parse_param_key("nope.rounds")

    def test_parameterless_protocol_rejects_overrides(self, clean_registry):
        spec = register_protocol(_flood_spec())
        with pytest.raises(ValidationError, match="no parameters"):
            spec.make_params(overrides={"ttl": 1})

    def test_needs_rng_enforced_at_deploy(self):
        ctx = _small_ctx()  # no rng
        with pytest.raises(ValidationError, match="needs a seeded rng"):
            resolve_protocol("two-phase").deploy(ctx)

    def test_param_fields_for_describe(self):
        rows = resolve_protocol("gossip").param_fields()
        assert [row[0] for row in rows] == ["rounds", "step_period", "fanout"]
        assert rows[2][1] == "int?"  # Optional[int]


class TestCapabilityDrivenTrials:
    def test_learning_protocol_under_new_name_arms_watcher(
        self, clean_registry
    ):
        # the re-convergence watcher keys off the `learns` flag, not off
        # the literal name "adaptive": re-register the adaptive factory
        # under a fresh name and the metrics must still include reconv
        adaptive = resolve_protocol("adaptive")
        register_protocol(
            ProtocolSpec(
                name="my-learner",
                factory=adaptive.factory,
                params_type=adaptive.params_type,
                plans=True,
                learns=True,
                scenario_defaults=adaptive.scenario_defaults,
            )
        )
        spec = build_scenario("partition-heal", QUICK)
        metrics = run_scenario_trial(spec, "my-learner", 0)
        assert metrics["reconverged"] >= 0.0
        assert metrics["reconv_time"] >= 0.0

    def test_non_learning_protocol_reports_no_reconv(self, clean_registry):
        register_protocol(_flood_spec(name="my-flood"))
        spec = build_scenario("partition-heal", QUICK)
        metrics = run_scenario_trial(spec, "my-flood", 0)
        assert metrics["reconverged"] == -1.0
        assert metrics["reconv_time"] == -1.0

    def test_alias_is_exact_synonym_for_seeding(self):
        spec = build_scenario("partition-heal", QUICK)
        assert run_scenario_trial(spec, "flood", 0) == run_scenario_trial(
            spec, "flooding", 0
        )

    def test_param_overrides_flow_into_trial(self):
        spec = build_scenario("partition-heal", QUICK)
        base = run_scenario_trial(spec, "gossip", 0)
        tight = run_scenario_trial(
            spec, "gossip", 0, params={"gossip": {"rounds": 1}}
        )
        assert tight["data_messages"] < base["data_messages"]


class TestRegressionPin:
    def test_partition_heal_rows_bit_identical_to_pre_registry(self):
        """Pinned pre-refactor values (seed: quick scale, trials=2).

        Captured from the if-chain implementation immediately before the
        registry refactor; any drift means protocol deployment, seeding
        or parameter defaults changed behaviour.
        """
        report = scenario_report(
            "partition-heal",
            protocols=("adaptive", "gossip"),
            scale=QUICK,
            trials=2,
            campaign=Campaign(),
        )
        assert [row.to_row() for row in report.rows] == [
            {
                "protocol": "adaptive",
                "delivery_ratio": 0.875,
                "data_messages": 117.0,
                "total_messages": 44853.0,
                "reconv_time": 482.5,
                "reconverged": 1.0,
            },
            {
                "protocol": "gossip",
                "delivery_ratio": 0.875,
                "data_messages": 197.5,
                "total_messages": 355.0,
                "reconv_time": None,
                "reconverged": None,
            },
        ]


PLUGIN_MODULE = textwrap.dedent(
    """
    from repro.protocols.flooding import FloodingBroadcast
    from repro.protocols.registry import ProtocolSpec

    SPEC = ProtocolSpec(
        name="dummy-proto",
        factory=lambda ctx: [
            FloodingBroadcast(p, ctx.network, ctx.monitor, ctx.k_target)
            for p in ctx.processes
        ],
        description="dummy plugin protocol",
        aliases=("dummy",),
    )
    """
)


@pytest.fixture
def plugin_on_path(tmp_path, monkeypatch):
    """A test-local plugin module (plus dist-info) importable from sys.path."""
    (tmp_path / "dummy_proto_plugin.py").write_text(PLUGIN_MODULE)
    dist_info = tmp_path / "dummy_proto-0.1.dist-info"
    dist_info.mkdir()
    (dist_info / "METADATA").write_text(
        "Metadata-Version: 2.1\nName: dummy-proto\nVersion: 0.1\n"
    )
    (dist_info / "entry_points.txt").write_text(
        "[repro.protocols]\ndummy = dummy_proto_plugin:SPEC\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    yield tmp_path
    sys.modules.pop("dummy_proto_plugin", None)


class TestPluginDiscovery:
    def test_entry_point_discovery(self, clean_registry, plugin_on_path):
        registered = discover_plugins(force=True)
        assert "dummy-proto" in registered
        assert resolve_protocol("dummy").name == "dummy-proto"

    def test_discovery_is_idempotent(self, clean_registry, plugin_on_path):
        discover_plugins(force=True)
        assert discover_plugins(force=True) == []  # already present: kept

    def test_env_var_discovery(self, clean_registry, plugin_on_path,
                               monkeypatch):
        module = plugin_on_path / "env_proto_plugin.py"
        module.write_text(
            PLUGIN_MODULE.replace("dummy-proto", "env-proto").replace(
                '"dummy"', '"envp"'
            )
        )
        monkeypatch.setenv(reg.PLUGIN_ENV, "env_proto_plugin:SPEC")
        try:
            registered = discover_plugins(force=True)
        finally:
            sys.modules.pop("env_proto_plugin", None)
        assert "env-proto" in registered
        assert resolve_protocol("envp").name == "env-proto"

    def test_broken_env_plugin_warns_and_continues(self, clean_registry,
                                                   monkeypatch):
        monkeypatch.setenv(reg.PLUGIN_ENV, "no_such_module_xyz:SPEC")
        with pytest.warns(UserWarning, match="skipping protocol plugin"):
            discover_plugins(force=True)
        assert "gossip" in protocol_names()  # registry still intact

    def test_two_spec_plugin_registers_all_or_nothing(self, clean_registry,
                                                      tmp_path, monkeypatch):
        # the second spec's alias collides with a built-in: the plugin is
        # skipped whole, its first spec must not stay behind
        monkeypatch.syspath_prepend(str(tmp_path))
        (tmp_path / "pair_proto_plugin.py").write_text(
            PLUGIN_MODULE.replace("dummy-proto", "pair-first").replace(
                '"dummy"', '"pair1"'
            )
            + "import dataclasses\n"
            + "SPECS = [SPEC, dataclasses.replace("
            + 'SPEC, name="pair-second", aliases=("oracle",))]\n'
        )
        monkeypatch.setenv(reg.PLUGIN_ENV, "pair_proto_plugin:SPECS")
        before = protocol_names()
        try:
            with pytest.warns(UserWarning, match="skipping protocol plugin"):
                assert discover_plugins(force=True) == []
        finally:
            sys.modules.pop("pair_proto_plugin", None)
        assert protocol_names() == before
        assert resolve_protocol("oracle").name == "optimal"
        for name in ("pair-first", "pair1", "pair-second"):
            with pytest.raises(UnknownProtocolError):
                resolve_protocol(name)


class TestReviewRegressions:
    def test_param_sweep_leaves_other_protocols_cache_keys_alone(self):
        # a gossip.rounds sweep must not perturb flooding's campaign
        # specs: same content keys as a sweep-free run, so dedup and
        # warm caches keep working for the untargeted protocol
        from repro.scenario.run import compile_specs

        plain = compile_specs("partition-heal", ("flooding",), "quick", 2)
        swept = compile_specs(
            "partition-heal", ("gossip", "flooding"), "quick", 2,
            params={"gossip": {"rounds": 4}},
        )
        assert [s.key() for s in swept[2:]] == [s.key() for s in plain]
        assert all("params" in s.kwargs() for s in swept[:2])

    def test_replace_with_stolen_alias_evicts_old_owner(self, clean_registry):
        register_protocol(_flood_spec(name="victim"))
        thief = register_protocol(
            _flood_spec(name="thief", aliases=("victim",)), replace=True
        )
        assert resolve_protocol("victim") is thief
        assert "victim" not in protocol_names()  # no orphan left behind

    def test_deploy_does_not_write_params_back_into_context(self):
        # deploy() defaults missing params on a *copy*: a caller-held ctx
        # must not come back holding another protocol's params object
        ctx = _small_ctx()
        resolve_protocol("gossip").deploy(ctx)
        assert ctx.params is None
