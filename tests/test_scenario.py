"""Tests for the scenario subsystem: schema, dynamics, registry, campaign.

Covers the determinism contract (timeline events through the engine's
``(time, priority, seq)`` ordering; parallel == serial tables), the
partition-heal re-convergence regression (``(Lambda_k, C_k)`` re-tracks
``(G, C)`` after the environment stabilises), and MarkovCrashModel
recovery notifications (Event 4) driven through scripted burst toggles.
"""

import json
import math
import re

import pytest

from repro.analysis.convergence import ConvergenceCriterion, views_converged
from repro.analysis.optimality import verify_adaptiveness
from repro.cli import main
from repro.core.adaptive import AdaptiveBroadcast, AdaptiveParameters
from repro.errors import ValidationError
from repro.experiments.campaign import Campaign
from repro.experiments.runner import current_scale, scaled
from repro.scenario import (
    BurstToggle,
    Heal,
    LinkDegrade,
    Partition,
    ProcessJoin,
    ProcessLeave,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_scenario,
    scenario_names,
)
from repro.scenario.run import scenario_reports
from repro.scenario.schema import EnvironmentSpec, TimelineEvent
from repro.scenario.trial import SCENARIO_KNOWLEDGE, run_scenario_trial
from repro.sim.crash import IidCrashModel, MarkovCrashModel
from repro.sim.dynamics import DynamicsDriver
from repro.sim.monitors import BroadcastMonitor
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular, ring
from repro.types import Link
from repro.util import jsonio
from tests.conftest import build_network

QUICK = current_scale("quick")


# -- schema ---------------------------------------------------------------------------


class TestSchema:
    def test_every_builtin_round_trips_through_json(self):
        for name in scenario_names():
            spec = build_scenario(name, QUICK)
            payload = json.loads(json.dumps(jsonio.encode(spec)))
            rebuilt = jsonio.decode(ScenarioSpec, payload, "scenario")
            assert rebuilt == spec

    def test_event_round_trip_preserves_links(self):
        event = LinkDegrade(at=5.0, loss=0.4, links=((0, 1), (2, 3)))
        payload = json.loads(json.dumps(jsonio.encode(event)))
        rebuilt = jsonio.decode_value("timeline", TimelineEvent, payload)
        assert rebuilt == event

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ValidationError):
            jsonio.decode_value(
                "timeline", TimelineEvent, {"kind": "meteor-strike", "at": 1.0}
            )

    def test_timeline_beyond_duration_rejected(self):
        with pytest.raises(ValidationError):
            ScenarioSpec(
                name="x",
                description="",
                topology=TopologySpec(kind="ring", n=5),
                timeline=(Heal(at=100.0),),
                duration=50.0,
            )

    def test_duration_override_cannot_truncate_timeline(self):
        spec = build_scenario("partition-heal", QUICK)
        with pytest.raises(ValidationError):
            spec.with_overrides(duration=10.0)

    def test_unknown_topology_kind_rejected(self):
        with pytest.raises(ValidationError):
            TopologySpec(kind="moebius", n=8)

    def test_events_validate_their_fields(self):
        with pytest.raises(ValidationError):
            LinkDegrade(at=10.0, loss=1.5)
        with pytest.raises(ValidationError):
            LinkDegrade(at=-1.0, loss=0.5)
        with pytest.raises(ValidationError):
            Partition(at=5.0, fraction=1.0)
        with pytest.raises(ValidationError):
            BurstToggle(at=5.0, model="typo")
        with pytest.raises(ValidationError):
            ProcessLeave(at=5.0, process=-1)

    def test_bad_crash_model_kind_does_not_poison_the_network(self):
        # an invalid set_crash_model call must fail without retiring the
        # live model or corrupting options for later reconfigurations
        graph = ring(4)
        config = Configuration.uniform(graph, crash=0.1)
        network = build_network(config, "poison")
        with pytest.raises(ValidationError):
            network.set_crash_model("bogus")
        network.replace_configuration(config.with_crash({0: 0.2}))  # still fine
        assert isinstance(network.crash_model, IidCrashModel)

    def test_grid_topology_builds_exactly_n(self):
        for n in (10, 12, 16, 7):  # 7 is prime -> 1 x 7 path
            graph = TopologySpec(kind="grid", n=n).build_with_tiers()[0]
            assert graph.n == n
            assert graph.is_connected()

    @pytest.mark.parametrize(
        "part, field, value",
        [
            ("workload", "count", 2.5),
            ("workload", "count", True),
            ("workload", "surge_count", 1.5),
            ("workload", "start", float("nan")),
            ("workload", "start", float("inf")),
            ("burst-toggle", "mean_down_ticks", float("nan")),
            ("burst-toggle", "mean_down_ticks", float("inf")),
            ("burst-toggle", "mean_down_ticks", 0.5),
        ],
    )
    def test_scenario_json_rejects_malformed_numbers(self, part, field, value):
        # e.g. a hand-edited promoted .repro-scenarios/*.json
        payload = jsonio.encode(build_scenario("partition-heal", QUICK))
        if part == "workload":
            payload["workload"][field] = value
        else:
            payload["timeline"].append(
                {"kind": part, "at": 1.0, "model": "markov", field: value}
            )
        with pytest.raises(ValidationError, match=field):
            jsonio.decode(ScenarioSpec, payload, "scenario")

    @pytest.mark.parametrize("value", [float("nan"), 0.5, -1.0, 0.0, True])
    def test_environment_mean_down_ticks_is_validated(self, value):
        """Checked at spec construction, before any trial fans out; a NaN
        used to reach the Markov model and silently disable crashes."""
        payload = json.loads(
            json.dumps(jsonio.encode(build_scenario("partition-heal", QUICK)))
        )
        payload["environment"]["mean_down_ticks"] = value
        with pytest.raises(ValidationError, match="mean_down_ticks"):
            jsonio.decode(ScenarioSpec, payload, "scenario")
        with pytest.raises(ValidationError, match="mean_down_ticks"):
            EnvironmentSpec(crash_model="markov", mean_down_ticks=value)

    def test_workload_surge_times(self):
        wl = WorkloadSpec(period=10.0, start=5.0, count=2, surge_at=7.0,
                          surge_count=3)
        assert wl.broadcast_times() == [5.0, 7.0, 8.0, 9.0, 15.0]

    @pytest.mark.parametrize("surge_at", [-50.0, -0.5, math.nan, math.inf])
    def test_workload_surge_at_must_be_a_time_of_the_run(self, surge_at):
        """A surge before t = 0 (or at no time) would queue broadcasts the
        simulator refuses, and ``nan`` would sort into the schedule."""
        with pytest.raises(ValidationError, match="surge_at must be >= 0"):
            WorkloadSpec(surge_at=surge_at, surge_count=2)

    def test_workload_surge_at_zero_is_accepted(self):
        wl = WorkloadSpec(start=5.0, count=1, surge_at=0.0, surge_count=2)
        assert wl.broadcast_times() == [0.0, 1.0, 5.0]


class TestRegistry:
    def test_ten_builtins(self):
        assert len(scenario_names()) == 10
        assert "churn-storm" in scenario_names()
        assert "hot-key-storm" in scenario_names()

    def test_every_builtin_builds_at_every_scale(self):
        for name in scenario_names():
            for preset in ("quick", "default", "full"):
                spec = build_scenario(name, current_scale(preset))
                assert spec.name == name
                assert spec.last_event_time <= spec.duration
                graph = spec.topology.build_with_tiers()[0]
                assert graph.is_connected()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError):
            build_scenario("volcano")

    def test_describe_mentions_timeline(self):
        text = build_scenario("partition-heal", QUICK).describe()
        assert "partition" in text
        assert "heal" in text


# -- the dynamics driver ---------------------------------------------------------------


class TestDynamicsDriver:
    def test_events_apply_at_their_times(self):
        graph = ring(6)
        config = Configuration.uniform(graph, loss=0.01)
        network = build_network(config, "dyn")
        driver = DynamicsDriver(
            network,
            [LinkDegrade(at=10.0, loss=0.5, links=((0, 1),)), Heal(at=20.0)],
        )
        driver.install()
        network.sim.run(until=9.0)
        assert network.config.loss_probability(Link.of(0, 1)) == 0.01
        network.sim.run(until=15.0)
        assert network.config.loss_probability(Link.of(0, 1)) == 0.5
        network.sim.run(until=25.0)
        assert network.config == config
        assert [kind for _, kind in driver.applied_events] == [
            "LinkDegrade",
            "Heal",
        ]

    def test_partition_cuts_and_heal_restores(self):
        graph = k_regular(8, 4)
        config = Configuration.uniform(graph, loss=0.02)
        network = build_network(config, "part")
        driver = DynamicsDriver(
            network, [Partition(at=5.0, fraction=0.5), Heal(at=9.0)]
        )
        driver.install()
        network.sim.run(until=6.0)
        cut = driver.cut_links(0.5)
        assert cut  # the split severs something
        for link in cut:
            assert network.config.loss_probability(link) == 1.0
        # non-cut links keep their base loss
        uncut = [link for link in graph.links if link not in set(cut)]
        assert all(network.config.loss_probability(link) == 0.02 for link in uncut)
        network.sim.run(until=10.0)
        assert network.config == config

    def test_process_leave_and_join(self):
        graph = ring(5)
        config = Configuration.reliable(graph)
        network = build_network(config, "churn")
        driver = DynamicsDriver(
            network,
            [ProcessLeave(at=1.0, process=2), ProcessJoin(at=2.0, process=2)],
        )
        driver.install()
        network.sim.run(until=1.5)
        for q in graph.neighbors(2):
            assert network.config.loss_probability(Link.of(2, q)) == 1.0
        assert network.send(2, 1, "x") is False
        network.sim.run(until=2.5)
        assert network.config == config

    def test_selection_is_scenario_deterministic(self):
        graph = k_regular(10, 4)
        config = Configuration.reliable(graph)
        picks = []
        for seed in (1, 2):  # different trial seeds, same scenario name
            network = build_network(config, seed)
            driver = DynamicsDriver(network, [], name="pick-test")
            driver._event_index = 0
            picks.append(driver.select_links("random", fraction=0.3))
        assert picks[0] == picks[1]

    def test_install_twice_rejected(self):
        network = build_network(Configuration.reliable(ring(4)), "twice")
        driver = DynamicsDriver(network, [])
        driver.install()
        with pytest.raises(ValidationError):
            driver.install()

    def test_mid_run_markov_model_does_not_replay_the_past(self):
        """A BurstToggle'd Markov model starts all-up *at that instant*.

        Regression: the rebuilt model used to advance from tick 0 on its
        first consultation, firing retroactive crash/recovery callbacks
        stamped before `now`.
        """
        graph = ring(4)
        config = Configuration.uniform(graph, crash=0.3)
        network = build_network(config, "no-replay")
        monitor = BroadcastMonitor(graph.n)
        nodes = [
            AdaptiveBroadcast(
                p, network, monitor, 0.95,
                AdaptiveParameters(knowledge=SCENARIO_KNOWLEDGE),
            )
            for p in graph.processes
        ]
        stamps = []
        for node in nodes:
            original = node.handle_crash

            def wrapped(when, original=original):
                stamps.append(when)
                original(when)

            node.handle_crash = wrapped
        DynamicsDriver(
            network, [BurstToggle(at=100.0, model="markov")]
        ).install()
        network.start()
        network.sim.run(until=150.0)
        assert all(when >= 100.0 for when in stamps), stamps

    def test_no_process_stranded_down_across_a_toggle(self):
        """Swapping the crash model must recover mid-sojourn processes.

        Regression: a process down under a Markov model when BurstToggle
        switched back to iid kept its down flag forever — never sending,
        receiving or firing timers again.
        """
        graph = ring(6)
        config = Configuration.uniform(graph, crash=0.45)
        network = build_network(
            config, "stranded", crash_model="markov",
            markov_mean_down_ticks=20.0,
        )
        monitor = BroadcastMonitor(graph.n)
        nodes = [
            AdaptiveBroadcast(
                p, network, monitor, 0.95,
                AdaptiveParameters(knowledge=SCENARIO_KNOWLEDGE),
            )
            for p in graph.processes
        ]
        was_down = [False]

        def probe() -> None:
            if any(node.is_down for node in nodes):
                was_down[0] = True
            if network.sim.now < 119.0:
                network.sim.schedule(1.0, probe, name="probe")

        DynamicsDriver(
            network, [BurstToggle(at=120.0, model="iid")]
        ).install()
        network.sim.schedule(1.0, probe, name="probe")
        network.start()
        network.sim.run(until=300.0)
        # with P=0.45 and 20-tick sojourns someone was certainly down...
        assert was_down[0]
        # ...but nobody stays down once the burst model is gone
        assert all(not node.is_down for node in nodes)

    def test_heal_reverts_burst_toggle(self):
        graph = ring(4)
        config = Configuration.uniform(graph, crash=0.2)
        network = build_network(config, "heal-toggle")
        driver = DynamicsDriver(
            network,
            [BurstToggle(at=2.0, model="markov"), Heal(at=5.0)],
        )
        driver.install()
        network.sim.run(until=3.0)
        assert isinstance(network.crash_model, MarkovCrashModel)
        network.sim.run(until=6.0)
        assert isinstance(network.crash_model, IidCrashModel)
        assert network.config == config

    def test_burst_toggle_switches_crash_model(self):
        graph = ring(5)
        config = Configuration.uniform(graph, crash=0.2)
        network = build_network(config, "toggle")
        driver = DynamicsDriver(
            network,
            [
                BurstToggle(at=2.0, model="markov", mean_down_ticks=4.0),
                BurstToggle(at=6.0, model="iid"),
            ],
        )
        driver.install()
        assert isinstance(network.crash_model, IidCrashModel)
        network.sim.run(until=3.0)
        assert isinstance(network.crash_model, MarkovCrashModel)
        network.sim.run(until=7.0)
        assert isinstance(network.crash_model, IidCrashModel)


# -- Event 4 under scripted burst toggles (satellite) ----------------------------------


class TestMarkovRecoveryViaDriver:
    def test_recovery_notifications_reach_the_knowledge_activity(self):
        """BurstToggle -> MarkovCrashModel -> handle_recovery -> Event 4.

        While the model is in burst mode, recoveries must surface as
        ``on_recovery(down_ticks)`` notifications (Algorithm 4, Event 4)
        and push the recovering process's self-reliability belief down.
        """
        graph = ring(5)
        config = Configuration.uniform(graph, crash=0.3)
        network = build_network(config, "ev4")
        monitor = BroadcastMonitor(graph.n)
        nodes = [
            AdaptiveBroadcast(
                p, network, monitor, 0.95,
                AdaptiveParameters(knowledge=SCENARIO_KNOWLEDGE),
            )
            for p in graph.processes
        ]
        recoveries = []
        for node in nodes:
            original = node.on_recovery

            def wrapped(ticks, pid=node.pid, original=original):
                recoveries.append((pid, ticks))
                original(ticks)

            node.on_recovery = wrapped
        driver = DynamicsDriver(
            network,
            [
                BurstToggle(at=10.0, model="markov", mean_down_ticks=4.0),
                BurstToggle(at=160.0, model="iid"),
            ],
        )
        driver.install()
        network.start()
        network.sim.run(until=200.0)

        assert recoveries, "burst mode produced no Event-4 notifications"
        assert all(ticks >= 1 for _, ticks in recoveries)
        # every notification happened inside the burst window
        assert isinstance(network.crash_model, IidCrashModel)
        # Event 4 fed the Bayesian self-estimate: a process that went
        # down believes itself less reliable than a pristine prior
        pid = recoveries[0][0]
        assert nodes[pid].view.crash_probability(pid) > 0.05

    def test_iid_model_produces_no_burst_notifications(self):
        graph = ring(4)
        config = Configuration.uniform(graph, crash=0.3)
        network = build_network(config, "no-burst")
        monitor = BroadcastMonitor(graph.n)
        nodes = [
            AdaptiveBroadcast(
                p, network, monitor, 0.95,
                AdaptiveParameters(knowledge=SCENARIO_KNOWLEDGE),
            )
            for p in graph.processes
        ]
        seen = []
        for node in nodes:
            node.on_recovery = lambda ticks, _s=seen: _s.append(ticks)
        network.start()
        network.sim.run(until=100.0)
        assert seen == []


# -- partition-heal re-convergence regression (satellite) ------------------------------


@pytest.mark.slow
class TestPartitionHealReconvergence:
    def test_lambda_c_retracks_g_c(self):
        """After the partition heals, ``(Lambda_k, C_k)`` re-tracks ``(G, C)``.

        The regression: estimates of the cut links must spike during the
        partition, fall back afterwards, the global point-convergence
        predicate must hold again, and the re-learned plan must match the
        optimal plan of the restored environment (Definition 2).
        """
        scale = scaled(QUICK, n=8)
        spec = build_scenario("partition-heal", scale)
        graph, tiers = spec.topology.build_with_tiers()
        config = spec.environment.base_configuration(graph, tiers)
        network = build_network(config, "reconv")
        monitor = BroadcastMonitor(graph.n)
        nodes = [
            AdaptiveBroadcast(
                p, network, monitor, spec.k_target,
                AdaptiveParameters(knowledge=SCENARIO_KNOWLEDGE),
            )
            for p in graph.processes
        ]
        driver = DynamicsDriver(network, spec.timeline, name=spec.name)
        driver.install()
        network.start()

        cut = driver.cut_links(0.5)
        probe = cut[0]
        owner = nodes[probe.u]

        # a settled pre-partition plan to compare re-convergence against
        network.sim.run(until=115.0)
        sig_before = nodes[0].plan_signature()
        assert len(sig_before[0]) == graph.n - 1  # spans every process

        # mid-partition: the cut link looks terrible to its endpoint and
        # the plan visibly departs from the settled one
        network.sim.run(until=175.0)
        assert owner.view.loss_probability(probe) > 0.3
        assert nodes[0].plan_signature() != sig_before

        # after the heal + a stability window: estimates fall back and
        # the global convergence predicate holds against the true (G, C)
        network.sim.run(until=spec.duration)
        assert owner.view.loss_probability(probe) < 0.15
        criterion = ConvergenceCriterion(
            mode="point", point_tolerance=spec.reconv_tolerance
        )
        views = [node.view for node in nodes]
        assert views_converged(views, network.config, criterion)

        # the re-learned plan costs what the optimal plan costs
        # (Definition 2 compares message counts; equally-reliable links
        # may tie-break into a different but equally-good tree)
        check = verify_adaptiveness(
            graph, network.config, nodes[0].view, root=0,
            k_target=spec.k_target, count_tolerance=3,
        )
        gap = abs(check["adaptive_messages"] - check["optimal_messages"])
        assert gap <= 3, check

        # the settled plan spans everything again and costs what the
        # verified adaptive plan costs (plan_signature is root-0's view)
        sig_after = nodes[0].plan_signature()
        assert len(sig_after[0]) == graph.n - 1
        assert sum(m for _, m in sig_after[1]) == check["adaptive_messages"]

        # and a fresh broadcast through the re-learned plan reaches all
        mid = nodes[0].broadcast("after-heal")
        network.sim.run(until=network.sim.now + 10.0)
        assert monitor.delivery_count(mid) == graph.n

    def test_trial_metrics_report_reconvergence(self):
        scale = scaled(QUICK, n=8)
        spec = build_scenario("partition-heal", scale)
        result = run_scenario_trial(spec, "adaptive", 0)
        assert result["reconverged"] == 1.0
        assert 0.0 < result["reconv_time"] <= spec.duration
        assert result["delivery_ratio"] > 0.5


# -- campaign + CLI integration --------------------------------------------------------


class TestScenarioCampaign:
    def test_parallel_equals_serial(self, tmp_path):
        kwargs = dict(protocols=("optimal", "gossip", "flooding"), scale=QUICK)
        [serial] = scenario_reports(
            "rolling-restart", [{"trials": 2}], campaign=Campaign(), **kwargs
        )
        [parallel] = scenario_reports(
            "rolling-restart",
            [{"trials": 2}],
            campaign=Campaign(backend="process:2"),
            **kwargs,
        )
        assert parallel.render() == serial.render()
        assert jsonio.encode(parallel) == jsonio.encode(serial)

    def test_cache_resume_executes_nothing(self, tmp_path):
        from repro.util.cache import TrialCache

        kwargs = dict(protocols=("optimal", "flooding"), scale=QUICK)
        first = Campaign(cache=TrialCache(str(tmp_path)))
        scenario_reports("churn-mill", [{"trials": 2}], campaign=first, **kwargs)
        assert first.executed > 0
        second = Campaign(cache=TrialCache(str(tmp_path)))
        [report] = scenario_reports(
            "churn-mill", [{"trials": 2}], campaign=second, **kwargs
        )
        assert second.executed == 0
        assert second.cached == first.executed
        assert "churn-mill" in report.render()

    def test_custom_scaled_n_reaches_the_workers(self):
        # a scaled(..., n=...) scale must produce the same trials as the
        # explicit n override — not silently fall back to the preset n
        [custom] = scenario_reports(
            "partition-heal", [{"trials": 1}], protocols=("flooding",),
            scale=scaled(QUICK, n=6), campaign=Campaign(),
        )
        [explicit] = scenario_reports(
            "partition-heal", [{"trials": 1, "n": 6}], protocols=("flooding",),
            scale=QUICK, campaign=Campaign(),
        )
        [preset] = scenario_reports(
            "partition-heal", [{"trials": 1}], protocols=("flooding",),
            scale=QUICK, campaign=Campaign(),
        )
        assert custom.rows == explicit.rows
        assert custom.rows != preset.rows

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValidationError):
            scenario_reports(
                "partition-heal", [{}], protocols=("carrier-pigeon",), scale=QUICK
            )

    @pytest.mark.parametrize(
        "combo,expected",
        [
            ({"los": 0.1}, "do not sweep 'los'.*n, trials, loss, crash, duration"
                           ".*did you mean 'loss'"),
            ({"trials": 2.9}, "--sweep trials takes integer values, got 2.9"),
            ({"trials": math.nan}, "--sweep trials takes integer values, got nan"),
            ({"loss": "lots"}, "--sweep loss takes numeric values, got 'lots'"),
        ],
        ids=["unknown-key", "fractional-trials", "nan-trials", "non-numeric"],
    )  # fmt: skip
    def test_bad_sweep_is_rejected_before_any_trial(self, combo, expected):
        """The API path checks what the CLI checks: a typo'd key must not
        reach the trial function as a keyword."""
        campaign = Campaign()
        kwargs = dict(protocols=("flooding",), scale=QUICK, campaign=campaign)
        with pytest.raises(ValidationError, match=expected):
            scenario_reports("partition-heal", [{"trials": 1}, combo], **kwargs)
        with pytest.raises(ValidationError, match=expected):
            scenario_reports("partition-heal", [combo], **kwargs)
        assert (campaign.executed, campaign.cached) == (0, 0)


class TestScenarioCli:
    def test_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_describe(self, capsys):
        assert main(["scenario", "describe", "wan-brownout"]) == 0
        out = capsys.readouterr().out
        assert "two_tier" in out
        assert "link-degrade" in out

    def test_describe_unknown_errors(self, capsys):
        assert main(["scenario", "describe", "volcano"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_bad_sweep_key_errors(self, capsys):
        rc = main(
            [
                "scenario", "run", "partition-heal", "--no-cache",
                "--sweep", "topology=ring",
            ]
        )
        assert rc == 2
        assert "do not sweep" in capsys.readouterr().err

    def test_run_zero_trials_errors(self, capsys):
        rc = main(
            [
                "scenario", "run", "partition-heal", "--no-cache",
                "--sweep", "trials=0",
            ]
        )
        assert rc == 2
        assert "trials must be positive, got 0" in capsys.readouterr().err

    def test_run_uncapped_n_errors(self, capsys):
        # builders cap the system size; a clamped sweep must refuse
        # rather than mislabel the table
        rc = main(
            [
                "scenario", "run", "partition-heal", "--no-cache",
                "--sweep", "n=100",
            ]
        )
        assert rc == 2
        assert "cannot run at n=100" in capsys.readouterr().err

    def test_run_bad_protocol_errors(self, capsys):
        rc = main(
            [
                "scenario", "run", "partition-heal", "--no-cache",
                "--protocols", "adaptive,smoke-signals",
            ]
        )
        assert rc == 2
        assert "unknown protocol" in capsys.readouterr().err

    def test_run_cheap_protocols(self, tmp_path, capsys):
        rc = main(
            [
                "scenario", "run", "flash-crowd",
                "--scale", "quick",
                "--backend", "serial",
                "--no-cache",
                "--protocols", "optimal,gossip,flooding",
                "--sweep", "trials=1",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "flash-crowd" in out
        assert "campaign:" in out
        written = list(tmp_path.glob("scenario_flash-crowd*.json"))
        assert written
        data = json.loads(written[0].read_text())
        assert len(data["rows"]) == 3

    def test_trials_sweep_writes_distinct_artefacts(self, tmp_path, capsys):
        rc = main(
            [
                "scenario", "run", "churn-mill",
                "--scale", "quick",
                "--no-cache",
                "--protocols", "optimal,flooding",
                "--sweep", "trials=1,2",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert len(list(tmp_path.glob("scenario_churn-mill*.json"))) == 2


# -- the acceptance smoke: every built-in, >= 3 protocols ------------------------------


@pytest.mark.slow
class TestEveryScenarioSmoke:
    @pytest.mark.parametrize("name", scenario_names())
    def test_quick_scale_three_protocols(self, name):
        [report] = scenario_reports(
            name,
            [{"trials": 1}],
            protocols=("adaptive", "optimal", "gossip"),
            scale=QUICK,
            campaign=Campaign(),
        )
        assert len(report.rows) == 3
        for row in report.rows:
            assert 0.0 <= row.delivery_ratio <= 1.0
            assert row.total_messages > 0.0
        adaptive = report.rows[0]
        assert adaptive.protocol == "adaptive"
        assert adaptive.reconv_time is not None
        text = report.render()
        assert name in text


# -- timeline/duration boundary (regression) -------------------------------------------


class TestDurationBoundary:
    """An event at exactly ``duration`` used to be silently dropped by the
    inclusive engine run; the schema now rejects it consistently."""

    def _spec(self, at: float, duration: float) -> ScenarioSpec:
        return ScenarioSpec(
            name="boundary",
            description="",
            topology=TopologySpec(kind="ring", n=5),
            timeline=(Heal(at=at),),
            duration=duration,
        )

    def test_event_exactly_at_duration_rejected(self):
        with pytest.raises(ValidationError, match="strictly before"):
            self._spec(at=50.0, duration=50.0)

    def test_event_strictly_before_duration_accepted(self):
        spec = self._spec(at=49.999, duration=50.0)
        assert spec.last_event_time == 49.999

    def test_override_to_exactly_last_event_time_rejected(self):
        spec = self._spec(at=20.0, duration=50.0)
        with pytest.raises(ValidationError):
            spec.with_overrides(duration=20.0)
        assert spec.with_overrides(duration=25.0).duration == 25.0


# -- generated names + promoted registry -----------------------------------------------


class TestGeneratedAndPromoted:
    def test_gen_name_resolves_through_registry(self):
        from repro.scenario.generate import ScenarioGenerator

        direct = ScenarioGenerator("reg", QUICK).generate(4)
        via_registry = build_scenario("gen:reg:4", QUICK)
        assert via_registry == direct

    def test_malformed_gen_names_rejected(self):
        for bad in ("gen:", "gen:seed", "gen:seed:x", "gen:bad seed:1",
                    "gen:s:-1"):
            with pytest.raises(ValidationError):
                build_scenario(bad, QUICK)

    def test_promote_and_load_round_trip(self, tmp_path, monkeypatch):
        from repro.scenario import promote_scenario, promoted_names
        from repro.scenario.generate import ScenarioGenerator

        spec = ScenarioGenerator("promo", QUICK).generate(1)
        path = promote_scenario(spec, "nasty-corner", directory=str(tmp_path))
        assert path.endswith("nasty-corner.json")
        assert promoted_names(str(tmp_path)) == ["nasty-corner"]
        monkeypatch.setenv("REPRO_SCENARIOS_DIR", str(tmp_path))
        loaded = build_scenario("nasty-corner", QUICK)
        assert loaded.name == "nasty-corner"
        assert loaded.timeline == spec.timeline
        assert loaded.topology == spec.topology

    def test_promote_rejects_builtin_and_bad_names(self, tmp_path):
        from repro.scenario import promote_scenario
        from repro.scenario.generate import ScenarioGenerator

        spec = ScenarioGenerator("promo", QUICK).generate(1)
        with pytest.raises(ValidationError):
            promote_scenario(spec, "partition-heal", directory=str(tmp_path))
        with pytest.raises(ValidationError):
            promote_scenario(spec, "../escape", directory=str(tmp_path))

    def test_promoted_name_mismatch_rejected(self, tmp_path, monkeypatch):
        from repro.scenario import promote_scenario
        from repro.scenario.generate import ScenarioGenerator

        spec = ScenarioGenerator("promo", QUICK).generate(1)
        path = promote_scenario(spec, "honest", directory=str(tmp_path))
        payload = json.loads(open(path).read())
        payload["name"] = "liar"
        with open(str(tmp_path / "honest.json"), "w") as fh:
            json.dump(payload, fh)
        monkeypatch.setenv("REPRO_SCENARIOS_DIR", str(tmp_path))
        with pytest.raises(ValidationError, match="declares name"):
            build_scenario("honest", QUICK)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda p: p["topology"].update(degre=4),
                "unknown topology field 'degre'.*did you mean 'degree'",
            ),
            (lambda p: p["topology"].update(n="16"), "topology n must be an int"),
            (
                lambda p: p["timeline"][0].update(fractoin=0.5),
                "unknown partition event field 'fractoin'",
            ),
            (lambda p: p["topology"].update(degree=0), "topology degree must be"),
            (
                lambda p: p["topology"].update(clusters=True),
                "topology clusters must be an int",
            ),
            (
                lambda p: p.update(topology=16),
                "expected a JSON object of TopologySpec fields",
            ),
            (lambda p: p.pop("topology"), "missing scenario field 'topology'"),
            (
                lambda p: p["environment"].update(los=0.1),
                "unknown environment field 'los'.*did you mean 'loss'",
            ),
            (
                lambda p: p["workload"].update(perod=60.0),
                "unknown workload field 'perod'",
            ),
            (
                lambda p: p.update(durration=700.0),
                "unknown scenario field 'durration'",
            ),
            (
                lambda p: p.update(duration="long"),
                "scenario duration must be a number",
            ),
            (lambda p: p.update(timeline=5), "timeline must be a JSON list"),
            (
                lambda p: p["timeline"].__setitem__(0, "partition"),
                "expected a JSON object for a timeline event",
            ),
            (
                lambda p: p["timeline"].__setitem__(0, {"kind": "heal"}),
                "missing heal event field 'at'",
            ),
            (
                lambda p: p["timeline"][0].update(kind="partiton"),
                "unknown timeline event kind 'partiton'",
            ),
            # an edit returning text replaces the file's contents
            (lambda p: json.dumps(p)[:-9], "hand-edited.json: malformed JSON: "),
            (
                lambda p: json.dumps(p)[:-1] + ', "duration": 5.0}',
                "malformed JSON: duplicate key 'duration'",
            ),
            (
                lambda p: p["topology"].update(beta=math.nan),
                "malformed JSON: non-finite number NaN",
            ),
            (
                lambda p: p["workload"].update(surge_at=math.nan),
                "malformed JSON: non-finite number NaN",
            ),
            (
                lambda p: p["workload"].update(surge_at=math.inf),
                "malformed JSON: non-finite number Infinity",
            ),
            (
                lambda p: json.dumps(p).replace(
                    '"surge_at": null', '"surge_at": 1e400'
                ),
                "malformed JSON: number 1e400 overflows a float",
            ),
            (
                lambda p: p["workload"].update(surge_at=-50.0, surge_count=2),
                r"surge_at must be >= 0 and finite, got -50\.0",
            ),
            (
                lambda p: p.update(gossip_rounds=2.5),
                "scenario gossip_rounds takes integer values, got 2.5",
            ),
            (
                lambda p: p["timeline"].append(
                    {"kind": "process-leave", "at": 1.0, "process": 1.5}
                ),
                "process-leave event process takes integer values, got 1.5",
            ),
            (
                lambda p: p["timeline"].append(
                    {"kind": "crash-burst", "at": 1.0, "crash": 0.5,
                     "processes": ["a"]}
                ),
                "crash-burst event processes takes integer values, got 'a'",
            ),
            (
                lambda p: p["timeline"].append(
                    {"kind": "link-degrade", "at": 1.0, "loss": 0.5,
                     "links": [[0, 1, 2]]}
                ),
                r"link-degrade event links entries must hold 2 values, "
                r"got \[0, 1, 2\]",
            ),
            (
                lambda p: p["timeline"].append({"kind": "heal", "at": "5"}),
                "heal event at must be a number, got str",
            ),
        ],
        ids=[
            "unknown-topology-key",
            "string-n",
            "unknown-event-key",
            "zero-degree",
            "bool-clusters",
            "non-object-topology",
            "missing-topology",
            "unknown-environment-key",
            "unknown-workload-key",
            "unknown-scenario-key",
            "string-duration",
            "non-list-timeline",
            "non-object-event",
            "missing-event-field",
            "unknown-event-kind",
            "truncated",
            "duplicate-duration",
            "nan-beta",
            "nan-surge-at",
            "infinite-surge-at",
            "overflowing-surge-at",
            "negative-surge-at",
            "fractional-gossip-rounds",
            "fractional-leave-process",
            "string-burst-process",
            "three-ended-link",
            "string-heal-time",
        ],
    )
    def test_malformed_promoted_file_is_a_usage_error(
        self, edit, message, tmp_path, monkeypatch, capsys
    ):
        from repro.scenario import promote_scenario

        spec = build_scenario("partition-heal", QUICK)
        path = promote_scenario(spec, "hand-edited", directory=str(tmp_path))
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["timeline"][0]["kind"] == "partition"
        text = edit(payload)
        with open(path, "w") as fh:
            fh.write(text if isinstance(text, str) else json.dumps(payload))
        monkeypatch.setenv("REPRO_SCENARIOS_DIR", str(tmp_path))
        assert main(["scenario", "describe", "hand-edited"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(re.findall("^error: ", err, re.M)) == 1
        assert re.search(message, err)
        assert "Traceback" not in err


# -- adversarial search units ----------------------------------------------------------


class TestAdversarialUnits:
    def test_regret_is_delivery_gap_plus_capped_overhead(self):
        from repro.scenario.adversarial import MESSAGE_WEIGHT, regret_score

        adaptive = {"delivery_ratio": 0.4, "total_messages": 900.0}
        oracle = {"delivery_ratio": 0.9, "total_messages": 300.0}
        # gap 0.5, overhead (900-300)/300 = 2 capped at 1
        assert regret_score(adaptive, oracle) == pytest.approx(
            0.5 + MESSAGE_WEIGHT
        )

    def test_regret_never_negative_and_never_overhead_dominated(self):
        from repro.scenario.adversarial import regret_score

        better = {"delivery_ratio": 0.95, "total_messages": 100.0}
        worse_oracle = {"delivery_ratio": 0.2, "total_messages": 5.0}
        score = regret_score(better, worse_oracle)
        # adaptive beats the oracle on delivery: only the (capped)
        # overhead tiebreaker remains
        assert 0.0 <= score <= 0.1

    def test_shrink_candidates_drop_one_event_each_plus_duration(self):
        from repro.scenario.adversarial import (
            _shrink_candidates,
            _tightened_duration,
        )

        spec = build_scenario("partition-heal", QUICK)
        candidates = _shrink_candidates(spec)
        drop_one = [c for c in candidates if len(c.timeline) ==
                    len(spec.timeline) - 1]
        assert len(drop_one) == len(spec.timeline)
        tight = _tightened_duration(spec)
        if tight < spec.duration - 1e-9:
            assert candidates[-1].duration == tight
        for candidate in candidates:
            assert candidate.duration > candidate.last_event_time

    def test_hunt_serial_matches_parallel_bit_for_bit(self):
        from repro.scenario.adversarial import hunt

        serial = hunt(
            seed="unit", budget=3, scale=QUICK, top=2, trials=1,
            shrink=False, campaign=Campaign(),
        )
        parallel = hunt(
            seed="unit", budget=3, scale=QUICK, top=2, trials=1,
            shrink=False, campaign=Campaign(backend="process:2"),
        )
        assert json.dumps(jsonio.encode(serial), sort_keys=True) == json.dumps(
            jsonio.encode(parallel), sort_keys=True
        )
        assert len(serial.finds) <= 2
        for find in serial.finds:
            assert find.regret >= 0.0
            assert find.spec.name.startswith("gen:unit:")

    def test_hunt_result_round_trips_and_renders(self):
        from repro.scenario.adversarial import hunt

        result = hunt(
            seed="unit2", budget=2, scale=QUICK, top=1, trials=1,
            shrink=False, campaign=Campaign(),
        )
        payload = json.dumps(jsonio.encode(result))
        parsed = json.loads(payload)
        assert parsed["seed"] == "unit2"
        assert parsed["budget"] == 2
        text = result.render()
        assert "regret" in text
        assert "gen:unit2:" in text
