"""Unit tests for the reference gossip baseline (Section 5)."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.protocols.gossip as gossip
from repro.errors import CalibrationError, ValidationError
from repro.experiments.campaign import Campaign
from repro.experiments.registry import ExperimentContext, resolve_experiment
from repro.experiments.runner import current_scale
from repro.protocols.gossip import (
    GossipBroadcast,
    GossipData,
    GossipParameters,
    calibrate_rounds,
    run_gossip_trial,
)
from repro.protocols.partial_view import GossipPVBroadcast, GossipPVParams
from repro.sim.monitors import BroadcastMonitor
from repro.sim.trace import MessageCategory
from repro.topology.configuration import Configuration
from repro.topology.generators import k_regular, line, ring
from repro.util.rng import RandomSource
from tests.conftest import build_network


def deploy(config, rounds=4, seed=0, fanout=None):
    network = build_network(config, seed)
    monitor = BroadcastMonitor(config.graph.n)
    params = GossipParameters(rounds=rounds, fanout=fanout)
    procs = [
        GossipBroadcast(p, network, monitor, 0.99, params)
        for p in config.graph.processes
    ]
    network.start()
    return network, monitor, procs


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GossipParameters(rounds=0)
        with pytest.raises(ValidationError):
            GossipParameters(step_period=0.0)
        with pytest.raises(ValidationError):
            GossipParameters(fanout=0)


class TestReliableNetwork:
    def test_full_delivery(self):
        network, monitor, procs = deploy(Configuration.reliable(ring(8)))
        mid = procs[0].broadcast("m")
        network.sim.run(until=10.0)
        assert monitor.fully_delivered(mid)

    def test_acks_suppress_retransmission(self):
        """On a reliable network, traffic stops once everyone acked."""
        network, monitor, procs = deploy(
            Configuration.reliable(ring(6)), rounds=50
        )
        procs[0].broadcast("m")
        network.sim.run(until=10.0)
        sent_at_10 = network.stats.sent(MessageCategory.DATA)
        network.sim.run(until=30.0)
        assert network.stats.sent(MessageCategory.DATA) == sent_at_10

    def test_no_forward_back_to_source(self):
        """Rule (a): p never forwards m back to who it received it from."""
        network, monitor, procs = deploy(Configuration.reliable(line(3)))
        procs[0].broadcast("m")
        network.sim.run(until=1.5)
        # process 1 received from 0; at its first step it forwards only to 2
        from repro.types import Link

        assert network.stats.sent_on(Link.of(1, 2)) >= 1

    def test_acks_are_counted_separately(self):
        network, monitor, procs = deploy(Configuration.reliable(ring(5)))
        procs[0].broadcast("m")
        network.sim.run(until=10.0)
        assert network.stats.sent(MessageCategory.ACK) > 0
        assert network.stats.sent(MessageCategory.DATA) > 0

    def test_fanout_caps_targets(self):
        g = k_regular(10, 6)
        network, monitor, procs = deploy(
            Configuration.reliable(g), rounds=1, fanout=2
        )
        procs[0].broadcast("m")
        network.sim.run(until=0.5)
        assert network.stats.sent(MessageCategory.DATA) == 2


class TestLossyNetwork:
    def test_retransmits_until_acked(self):
        """With a very lossy link, the sender keeps retrying each round."""
        config = Configuration.uniform(line(2), loss=0.8)
        network, monitor, procs = deploy(config, rounds=10, seed=3)
        procs[0].broadcast("m")
        network.sim.run(until=15.0)
        assert network.stats.sent(MessageCategory.DATA) >= 3

    def test_round_budget_limits_traffic(self):
        config = Configuration.uniform(line(2), loss=1.0)
        network, monitor, procs = deploy(config, rounds=3, seed=3)
        procs[0].broadcast("m")
        network.sim.run(until=30.0)
        # origin forwards once at broadcast + per periodic step, 3 rounds total
        assert network.stats.sent(MessageCategory.DATA) == 3

    def test_more_rounds_more_reliable(self):
        config = Configuration.uniform(ring(8), loss=0.4)

        def reach_rate(rounds):
            reached = 0
            for seed in range(40):
                outcome = run_gossip_trial(
                    lambda seed=seed: build_network(config, ("gr", rounds, seed)),
                    rounds=rounds,
                )
                reached += outcome["reached"]
            return reached / 40

        assert reach_rate(8) >= reach_rate(1)


# -- stepping: a step visits the broadcasts with rounds left, nothing else -------------


class CountingDict(dict):
    """A dict that counts the values its ``values()`` hands out."""

    visits = 0

    def values(self):
        for value in super().values():
            self.visits += 1
            yield value


def recording_process(kind, rounds):
    """Process 0 of an unstarted 10-process deployment; its sends are
    recorded as ``(receiver, mid, category)`` instead of transmitted."""
    network = build_network(Configuration.reliable(k_regular(10, 4)), "step")
    monitor = BroadcastMonitor(10)
    if kind == "gossip":
        proc = GossipBroadcast(0, network, monitor, 0.99, GossipParameters(rounds))
    else:
        proc = GossipPVBroadcast(
            0, network, monitor, 0.99, GossipPVParams(rounds=rounds),
            rng=RandomSource("step-pv", 0),
        )  # fmt: skip
    sent = []
    proc.send = lambda q, message, category: sent.append((q, message.mid, category))
    return proc, sent


def rescanning_step(proc):
    """The step loop as it was: every state ever seen, live or not."""
    for state in proc._states.values():
        if state.rounds_left > 0:
            proc._forward(state)


@pytest.mark.parametrize("kind", ["gossip", "gossip-pv"])
class TestStepVisitsOnlyLiveBroadcasts:
    ROUNDS = 3

    def twins(self, kind):
        """The process under test and its twin stepped by the old loop,
        held to the same sends and the same live count at every check."""
        proc, sent = recording_process(kind, self.ROUNDS)
        twin, twin_sent = recording_process(kind, self.ROUNDS)

        def receive(mids):
            for proc_ in (proc, twin):
                for i, mid in enumerate(mids):
                    sender = proc_.neighbors[i % len(proc_.neighbors)]
                    proc_.on_message(sender, GossipData(mid, "x"))

        def check():
            assert sent == twin_sent
            # dict.values: the check itself must not count as a visit
            live = sum(s.rounds_left > 0 for s in dict.values(proc._states))
            assert len(proc._active) == live
            assert all(s.rounds_left > 0 for s in dict.values(proc._active))
            if kind == "gossip":
                assert proc.active_broadcasts() == live
            return live

        return proc, twin, sent, receive, check

    def test_two_live_of_fifty_seen(self, kind):
        proc, twin, sent, receive, check = self.twins(kind)
        receive([(7, n) for n in range(48)])
        assert check() == 48
        for _ in range(self.ROUNDS):
            proc._step()
            rescanning_step(twin)
            check()
        assert check() == 0 and len(proc._states) == 48
        receive([(8, 0)])
        own = proc.broadcast("own")  # forwards at once: one round spent
        assert twin.broadcast("own") == own
        assert check() == 2 and len(proc._states) == 50

        proc._states, proc._active = CountingDict(proc._states), CountingDict(proc._active)
        forwarded = []
        forward = proc._forward
        proc._forward = lambda state: (forwarded.append(state.message.mid), forward(state))
        before = len(sent)
        proc._step()
        rescanning_step(twin)
        assert forwarded == [(8, 0), own]  # arrival order
        assert proc._states.visits + proc._active.visits == 2  # not 50
        assert {mid for _, mid, _ in sent[before:]} == {(8, 0), own}
        # rounds left: (8, 0) 2 -> 1 -> 0, the own broadcast 1 -> 0
        while check():
            proc._step()
            rescanning_step(twin)
        proc._step()  # nothing live: nothing visited
        assert proc._states.visits + proc._active.visits == 2 + 2 + 1

    def test_a_one_round_broadcast_is_never_live(self, kind):
        proc, sent = recording_process(kind, rounds=1)
        proc.broadcast("m")
        assert sent and not proc._active and len(proc._states) == 1
        del sent[:]
        proc._step()
        assert sent == []


@pytest.mark.parametrize(
    "kind, events, groups, instants",
    [("gossip", 62_596, 1, 240), ("gossip-pv", 79_723, 2, 264)],
)
class TestPinnedTickWork:
    """The tick work of the ``churn-storm`` n=250 quick trial 100, exactly.

    Its 250 step chains fire at each of 240 instants: 60,000 ticks, all
    executed events, as they were when each tick was its own heap entry
    (``events`` is the count from before tick groups).  The chains of an
    instant share one tick group, so a group is pushed once when it is
    created and once per instant it fires at (gossip-pv adds a second
    group, its membership exchanges).  A step chain is parked while its
    process has no live broadcast, so ``_step`` runs on 2,998 of the
    60,000 ticks: the steps that forward something.
    """

    def test_counts(self, kind, events, groups, instants, monkeypatch):
        import heapq
        import types

        import repro.sim.engine as engine
        from repro.experiments.runner import scaled
        from repro.scenario.registry import build_scenario
        from repro.scenario.trial import run_scenario_trial

        counts = {"events": 0, "pushes": 0, "steps": 0, "live": 0}
        fired = set()

        def heappush(queue, entry):
            counts["pushes"] += entry[3].__class__ is engine._TickGroup
            heapq.heappush(queue, entry)

        monkeypatch.setattr(
            engine,
            "heapq",
            types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop),
        )
        fire = engine.Simulator._fire

        def counting_fire(sim, group, budget):
            fired.add((group.time, group.period))
            return fire(sim, group, budget)

        monkeypatch.setattr(engine.Simulator, "_fire", counting_fire)
        run = engine.Simulator.run

        def counting_run(sim, *args, **kwargs):
            before = sim.executed_events
            try:
                return run(sim, *args, **kwargs)
            finally:
                counts["events"] += sim.executed_events - before

        monkeypatch.setattr(engine.Simulator, "run", counting_run)
        cls = GossipBroadcast if kind == "gossip" else GossipPVBroadcast
        step = cls._step

        def counting_step(proc):
            counts["steps"] += 1
            counts["live"] += bool(proc._active)
            step(proc)

        monkeypatch.setattr(cls, "_step", counting_step)

        spec = build_scenario("churn-storm", scaled(current_scale("quick"), n=250))
        run_scenario_trial(spec, kind, 100)

        assert counts["events"] == events
        assert len(fired) == instants
        assert counts["pushes"] == groups + instants
        # only steps with a live broadcast run
        assert counts["steps"] == counts["live"] == 2_998


class TestRunGossipTrial:
    def test_outcome_fields(self):
        config = Configuration.reliable(ring(5))
        outcome = run_gossip_trial(
            lambda: build_network(config, 1), rounds=3
        )
        assert outcome["reached"] == 1.0
        assert outcome["delivery_ratio"] == 1.0
        assert outcome["data_messages"] > 0
        assert outcome["ack_messages"] > 0

    def test_deterministic_per_factory_seed(self):
        config = Configuration.uniform(ring(6), loss=0.3)
        a = run_gossip_trial(lambda: build_network(config, 9), rounds=3)
        b = run_gossip_trial(lambda: build_network(config, 9), rounds=3)
        assert a == b


class TestCalibration:
    def test_reliable_network_needs_one_round(self):
        config = Configuration.reliable(ring(6))
        rounds = calibrate_rounds(
            lambda t: build_network(config, ("cal", t)),
            k_target=0.9,
            trials=10,
        )
        assert rounds == 1

    def test_lossy_needs_more_rounds(self):
        config = Configuration.uniform(ring(6), loss=0.3)
        rounds = calibrate_rounds(
            lambda t: build_network(config, ("cal2", t)),
            k_target=0.9,
            trials=20,
        )
        assert rounds > 1

    def test_impossible_target_raises(self):
        config = Configuration.uniform(line(2), loss=1.0)
        with pytest.raises(CalibrationError):
            calibrate_rounds(
                lambda t: build_network(config, ("cal3", t)),
                k_target=0.9,
                trials=5,
                max_rounds=6,
            )

    def test_invalid_k(self):
        config = Configuration.reliable(ring(4))
        with pytest.raises(ValidationError):
            calibrate_rounds(lambda t: build_network(config, t), k_target=1.5)

    def test_invalid_max_rounds(self):
        config = Configuration.reliable(ring(4))
        for bad in (0, -1, 2.5):
            with pytest.raises(ValidationError, match="max_rounds"):
                calibrate_rounds(
                    lambda t: build_network(config, t),
                    k_target=0.9,
                    max_rounds=bad,
                )

    def test_real_probes_stop_at_their_verdict(self):
        """Unmocked: a reliable ring passes rounds=1 at its 9th hit of 10;
        a dead link loses every probe at its first miss."""
        built = []

        def factory(config, tag):
            def make(t):
                built.append(t)
                return build_network(config, (tag, t))

            return make

        reliable = Configuration.reliable(ring(6))
        assert calibrate_rounds(factory(reliable, "seq"), 0.9, trials=10) == 1
        assert built == list(range(9))
        del built[:]
        dead = Configuration.uniform(line(2), loss=1.0)
        with pytest.raises(CalibrationError):
            calibrate_rounds(factory(dead, "seq2"), 0.9, trials=5, max_rounds=6)
        assert built == [0] * 6


# -- sequential calibration: scripted outcomes ----------------------------------------


class ScriptedTrials:
    """Stand-in for ``run_gossip_trial`` reading ``reached`` from a table.

    ``table[rounds][trial]`` is the scripted outcome; budgets missing
    from the table never reach.  ``calls`` logs ``(rounds, trial)`` in
    call order, the trial index being what the ``make_network`` factory
    handed to :func:`calibrate_rounds` was called with.
    """

    def __init__(self, table):
        self.table = table
        self.calls = []

    def make_network(self, t):
        return t

    def run_gossip_trial(self, make_network, rounds, **kwargs):
        t = make_network()
        self.calls.append((rounds, t))
        row = self.table.get(rounds)
        return {"reached": 1.0 if row is not None and row[t] else 0.0}

    def calibrate(self, fn, k_target, trials, max_rounds=64):
        """Run ``fn`` against this script; returns ``(result, calls)``
        where ``result`` is the budget or the string ``"CalibrationError"``."""
        self.calls = []
        with mock.patch.object(gossip, "run_gossip_trial", self.run_gossip_trial):
            try:
                result = fn(self.make_network, k_target, trials, max_rounds)
            except CalibrationError:
                result = "CalibrationError"
        return result, self.calls


def misses(trials, *missed):
    """A probe's outcome row: every trial reaches except ``missed``."""
    return [t not in missed for t in range(trials)]


def exhaustive_ladder(max_rounds):
    """Budgets 1..8, 10, 12, ... below ``max_rounds``, then ``max_rounds``."""
    steps = [*range(1, 9), *range(10, max_rounds, 2)]
    return [r for r in steps if r < max_rounds] + [max_rounds]


def calibrate_rounds_exhaustive(make_network, k_target, trials, max_rounds=64):
    """The pre-sequential loop, kept as the reference: every probe runs
    the full batch and is judged once, at its end."""
    for rounds in exhaustive_ladder(max_rounds):
        reached = 0
        for t in range(trials):
            outcome = gossip.run_gossip_trial(
                lambda t=t: make_network(t),
                rounds=rounds,
                origin=0,
                k_target=k_target,
                fanout=None,
            )
            reached += int(outcome["reached"])
        if reached / trials >= k_target:
            return rounds
    raise CalibrationError("exhausted")


@st.composite
def calibration_cases(draw):
    trials = draw(st.integers(1, 40))
    k_target = draw(
        st.one_of(
            st.sampled_from([0.9, 0.95, 0.99, 0.9999]),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        )
    )
    max_rounds = draw(st.integers(1, 13))
    # rows sit near the pass/lose boundary: a handful of misses, or noise
    row = st.one_of(
        st.sets(st.integers(0, trials - 1), max_size=4).map(
            lambda missed: misses(trials, *missed)
        ),
        st.lists(st.booleans(), min_size=trials, max_size=trials),
    )
    table = {
        rounds: draw(row) for rounds in exhaustive_ladder(max_rounds)
    }
    return trials, k_target, max_rounds, table


class TestSequentialCalibration:
    @settings(max_examples=300, deadline=None)
    @given(calibration_cases())
    def test_same_verdict_as_exhaustive(self, case):
        trials, k_target, max_rounds, table = case
        script = ScriptedTrials(table)
        want, full = script.calibrate(
            calibrate_rounds_exhaustive, k_target, trials, max_rounds
        )
        got, run = script.calibrate(
            calibrate_rounds, k_target, trials, max_rounds
        )
        assert got == want
        # only trials are skipped: the same probes in the same order,
        # each a gap-free prefix 0..j of the exhaustive run's indices
        probes = list(dict.fromkeys(r for r, _ in full))
        assert list(dict.fromkeys(r for r, _ in run)) == probes
        assert [r for r, _ in run] == sorted(r for r, _ in run)
        for rounds in probes:
            indices = [t for r, t in run if r == rounds]
            assert indices == list(range(len(indices)))

    def test_float_edge_99_of_100_passes(self):
        """0.99 * 100 is 99.00000000000001, but 99 / 100 >= 0.99 holds:
        99 hits pass, and the probe stops at the 99th."""
        script = ScriptedTrials({1: misses(100, 99)})
        got, calls = script.calibrate(calibrate_rounds, 0.99, 100)
        assert got == 1
        assert calls == [(1, t) for t in range(99)]

    def test_float_edge_early_miss_still_passes(self):
        script = ScriptedTrials({1: misses(100, 3)})
        got, calls = script.calibrate(calibrate_rounds, 0.99, 100)
        assert got == 1
        assert calls == [(1, t) for t in range(100)]

    def test_quick_scale_stopping_points(self):
        """K=0.95 over 20 trials: lost at the 2nd miss, won at the 19th hit."""
        script = ScriptedTrials(
            {
                1: misses(20, 0, 1),
                2: misses(20, 3, 7),
                3: misses(20, 5),
                4: misses(20),
            }
        )
        got, calls = script.calibrate(calibrate_rounds, 0.95, 20)
        assert got == 3
        assert calls == (
            [(1, 0), (1, 1)]
            + [(2, t) for t in range(8)]
            + [(3, t) for t in range(20)]
        )
        script.table[3] = misses(20, 5, 6)
        got, calls = script.calibrate(calibrate_rounds, 0.95, 20)
        assert got == 4
        assert calls[-19:] == [(4, t) for t in range(19)]
        assert len(calls) == 2 + 8 + 7 + 19

    def test_paper_scale_loses_at_first_miss(self):
        """K=0.9999 over 200 trials tolerates no miss at all."""
        script = ScriptedTrials({1: misses(200, 17), 2: misses(200)})
        got, calls = script.calibrate(calibrate_rounds, 0.9999, 200)
        assert got == 2
        assert calls == [(1, t) for t in range(18)] + [
            (2, t) for t in range(200)
        ]


class TestProbeLadder:
    @staticmethod
    def probed(max_rounds):
        """Budgets tried, in order, when no trial ever reaches."""
        got, calls = ScriptedTrials({}).calibrate(
            calibrate_rounds, 0.9, 1, max_rounds
        )
        assert got == "CalibrationError"
        return [rounds for rounds, _ in calls]

    def test_default_ladder_unchanged(self):
        assert self.probed(64) == list(range(1, 9)) + list(range(10, 65, 2))

    @pytest.mark.parametrize("max_rounds", [1, 5, 8, 9, 10, 11, 63])
    def test_ends_on_max_rounds(self, max_rounds):
        ladder = self.probed(max_rounds)
        assert ladder == exhaustive_ladder(max_rounds)
        assert ladder[-1] == max_rounds
        assert ladder == sorted(set(ladder))

    def test_odd_max_rounds_is_probed(self):
        """max_rounds=9 used to probe 8, jump to 10 and give up."""
        script = ScriptedTrials({9: misses(10)})
        got, calls = script.calibrate(calibrate_rounds, 0.9, 10, max_rounds=9)
        assert got == 9
        # K=0.9 over 10 trials: a probe is lost at its 2nd miss
        lost = [r for r in range(1, 9) for _ in range(2)]
        assert [r for r, _ in calls] == lost + [9] * 9

    def test_error_reports_last_probe_tally(self):
        script = ScriptedTrials({9: misses(10, 2, 4)})
        with mock.patch.object(
            gossip, "run_gossip_trial", script.run_gossip_trial
        ):
            with pytest.raises(CalibrationError) as exc_info:
                calibrate_rounds(
                    script.make_network, 0.9, trials=10, max_rounds=9
                )
        message = str(exc_info.value)
        assert "K=0.9 within 9 rounds" in message
        assert "reached 3 of 5 trials run at rounds=9" in message


# -- calibrated budgets of the quick-scale figures (regression) ------------------------

#: ``rounds`` of every quick-scale calibration point, computed with the
#: exhaustive loop (the commit before calibration became sequential).
QUICK_CALIBRATED_ROUNDS = {
    "figure4a k=2 P=0.01": 6,
    "figure4a k=4 P=0.01": 2,
    "figure4a k=6 P=0.01": 1,
    "figure4a k=2 P=0.03": 7,
    "figure4a k=4 P=0.03": 3,
    "figure4a k=6 P=0.03": 1,
    "figure4a k=2 P=0.05": 7,
    "figure4a k=4 P=0.05": 3,
    "figure4a k=6 P=0.05": 1,
    "figure4a k=2 P=0.07": 8,
    "figure4a k=4 P=0.07": 3,
    "figure4a k=6 P=0.07": 2,
    "figure4b k=2 L=0.01": 6,
    "figure4b k=4 L=0.01": 2,
    "figure4b k=6 L=0.01": 1,
    "figure4b k=2 L=0.03": 7,
    "figure4b k=4 L=0.03": 3,
    "figure4b k=6 L=0.03": 1,
    "figure4b k=2 L=0.05": 7,
    "figure4b k=4 L=0.05": 2,
    "figure4b k=6 L=0.05": 1,
    "figure4b k=2 L=0.07": 7,
    "figure4b k=4 L=0.07": 3,
    "figure4b k=6 L=0.07": 1,
    "heterogeneous k=2 uniform": 7,
    "heterogeneous k=2 hetero": 6,
    "heterogeneous k=4 uniform": 3,
    "heterogeneous k=4 hetero": 2,
    "heterogeneous k=6 uniform": 1,
    "heterogeneous k=6 hetero": 1,
}


class _CalibrationRecorder(Campaign):
    """Serial campaign remembering the budget of every spec it runs (the
    ``cells`` hooks run the calibrations and return the rest)."""

    def __init__(self):
        super().__init__()
        self.calibrated = []

    def run(self, specs):
        results = super().run(specs)
        self.calibrated += [
            (spec.kwargs(), int(result["rounds"]))
            for spec, result in zip(specs, results)
        ]
        return results


@pytest.fixture(scope="module")
def quick_calibrated_rounds():
    scale = current_scale("quick")
    found = {}
    for name, axis, prefix in (
        ("figure4a", "crash", "P="),
        ("figure4b", "loss", "L="),
        ("heterogeneous", "mode", ""),
    ):
        spec = resolve_experiment(name)
        recorder = _CalibrationRecorder()
        spec.cells(ExperimentContext(scale, recorder, spec.make_params()))
        for kwargs, rounds in recorder.calibrated:
            point = f"{name} k={kwargs['connectivity']} {prefix}{kwargs[axis]}"
            found[point] = rounds
    return found


class TestQuickCalibratedRounds:
    def test_covers_every_point(self, quick_calibrated_rounds):
        assert sorted(quick_calibrated_rounds) == sorted(QUICK_CALIBRATED_ROUNDS)

    @pytest.mark.parametrize("point", sorted(QUICK_CALIBRATED_ROUNDS))
    def test_rounds(self, quick_calibrated_rounds, point):
        assert quick_calibrated_rounds[point] == QUICK_CALIBRATED_ROUNDS[point]
