"""Tests for the campaign subsystem (parallel execution, cache, resume)."""

import json
import os
import sys
from collections import Counter

import pytest

from repro.errors import ConvergenceTimeoutError, ValidationError
from repro.experiments.campaign import (
    Campaign,
    TrialSpec,
    execute_spec,
    parse_sweep,
    parse_sweeps,
)
from repro.experiments.figure5 import CONVERGENCE_FN
from repro.experiments.registry import run_experiment
from repro.experiments.runner import QUICK, scaled
from repro.topology.configuration import Configuration
from repro.util.cache import TrialCache, content_key

TINY = scaled(
    QUICK,
    n=10,
    connectivities=(2, 4),
    trials=3,
    calibration_trials=10,
    convergence_deadline=1200.0,
    figure6_sizes=(10, 14),
    k_target=0.9,
)


def _convergence_spec(trial: int, deadline: float = 1200.0) -> TrialSpec:
    return TrialSpec.make(
        CONVERGENCE_FN,
        n=8,
        connectivity=2,
        crash=0.0,
        loss=0.0,
        deadline=deadline,
        trial=trial,
    )


#: Valid JSON under "result" that no trial ever writes (trials store a
#: dict of numbers) — each used to reach the aggregate hooks as a "hit".
WRONG_SHAPE_PAYLOADS = ([1, 2], 3, {"messages": "x"}, "s")


def _overwrite_entry(cache: TrialCache, key: str, payload: object) -> str:
    path = os.path.join(cache.directory, f"{key}.json")
    with open(path, "w") as fh:
        json.dump({"result": payload}, fh)
    return path


class TestTrialSpec:
    def test_key_is_stable_and_order_insensitive(self):
        a = TrialSpec.make("m.mod:fn", x=1, y=2.5)
        b = TrialSpec.make("m.mod:fn", y=2.5, x=1)
        assert a == b
        assert a.key() == b.key()
        assert len(a.key()) == 64

    def test_key_differs_by_params_and_fn(self):
        a = TrialSpec.make("m.mod:fn", x=1)
        assert a.key() != TrialSpec.make("m.mod:fn", x=2).key()
        assert a.key() != TrialSpec.make("m.mod:gn", x=1).key()

    def test_rejects_bad_fn_and_params(self):
        with pytest.raises(ValidationError):
            TrialSpec.make("no_colon_here", x=1)
        with pytest.raises(ValidationError):
            TrialSpec.make("m:fn", x=[1, 2])
        with pytest.raises(ValidationError):
            TrialSpec.make("m:fn", x=float("nan"))

    def test_resolve_and_execute(self):
        spec = _convergence_spec(0)
        result = execute_spec(spec)
        assert result["messages_per_link"] > 0

    def test_resolve_unknown_function(self):
        spec = TrialSpec.make("repro.experiments.figure5:nope", x=1)
        with pytest.raises(ValidationError):
            spec.resolve()


class TestTrialCache:
    def test_roundtrip(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        key = content_key({"a": 1})
        assert cache.get(key) is None
        cache.put(key, {"m": 3.0})
        assert cache.get(key) == {"m": 3.0}
        assert key in cache
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        key = content_key({"a": 1})
        with open(os.path.join(str(tmp_path), f"{key}.json"), "w") as fh:
            fh.write("{not json")
        assert cache.get(key) is None

    @pytest.mark.parametrize("payload", WRONG_SHAPE_PAYLOADS)
    def test_wrong_shape_entry_is_a_miss(self, tmp_path, payload):
        cache = TrialCache(str(tmp_path))
        key = content_key({"a": 1})
        _overwrite_entry(cache, key, payload)
        assert key in cache
        assert cache.get(key) is None

    def test_number_payloads_are_hits(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        key = content_key({"a": 1})
        for payload in ({}, {"m": 1}, {"m": float("inf"), "rng.x": 3.0}):
            cache.put(key, payload)
            assert cache.get(key) == payload

    def test_clear(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        for i in range(3):
            cache.put(content_key({"i": i}), {"v": float(i)})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_content_key_rejects_nan(self):
        with pytest.raises(ValueError):
            content_key({"x": float("nan")})


class TestCampaignExecution:
    def test_serial_results_in_order(self):
        campaign = Campaign()
        specs = [_convergence_spec(t) for t in range(3)]
        results = campaign.run(specs)
        assert len(results) == 3
        assert campaign.executed == 3
        # determinism: same specs, same values
        again = Campaign().run(specs)
        assert results == again

    def test_duplicates_execute_once(self):
        campaign = Campaign()
        spec = _convergence_spec(0)
        results = campaign.run([spec, spec, spec])
        assert campaign.executed == 1
        assert results[0] == results[1] == results[2]

    def test_parallel_matches_serial(self):
        specs = [_convergence_spec(t) for t in range(4)]
        serial = Campaign().run(specs)
        parallel = Campaign(backend="process:2").run(specs)
        assert serial == parallel

    def test_workers_validated(self):
        with pytest.raises(ValidationError):
            Campaign(backend="process:0")

    def test_aggregate_orders_fold(self):
        stats = Campaign.aggregate(
            [{"v": 1.0}, {"v": 2.0}, {"v": 3.0}], "v"
        )
        assert stats.count == 3
        assert stats.mean == 2.0


class TestCampaignCache:
    def test_cache_hit_skips_execution(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        specs = [_convergence_spec(t) for t in range(2)]
        first = Campaign(cache=cache)
        results1 = first.run(specs)
        assert first.executed == 2
        assert first.cached == 0

        second = Campaign(cache=cache)
        results2 = second.run(specs)
        assert second.executed == 0
        assert second.cached == 2
        assert results1 == results2

    def test_interrupted_campaign_resumes(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        good = [_convergence_spec(t) for t in range(2)]
        # a trial that fails mid-campaign: impossible deadline -> timeout
        bad = _convergence_spec(2, deadline=4.0)

        interrupted = Campaign(cache=cache)
        with pytest.raises(ConvergenceTimeoutError):
            interrupted.run(good + [bad] + [_convergence_spec(3)])
        # everything that finished before the crash is on disk
        assert interrupted.executed == 2
        assert len(cache) == 2

        resumed = Campaign(cache=cache)
        results = resumed.run(good + [_convergence_spec(3)])
        assert resumed.cached == 2
        assert resumed.executed == 1
        assert len(results) == 3

    @pytest.mark.parametrize("payload", WRONG_SHAPE_PAYLOADS)
    def test_wrong_shape_entry_is_recomputed_and_rewritten(
        self, tmp_path, payload
    ):
        cache = TrialCache(str(tmp_path))
        specs = [_convergence_spec(t) for t in range(2)]
        reference = Campaign(cache=cache).run(specs)
        path = _overwrite_entry(cache, specs[1].key(), payload)

        repaired = Campaign(cache=cache)
        assert repaired.run(specs) == reference
        assert (repaired.cached, repaired.executed) == (1, 1)
        with open(path) as fh:
            assert json.load(fh)["result"] == reference[1]

    @pytest.mark.parametrize("backend", ["serial", "shard:2"])
    @pytest.mark.parametrize("payload", WRONG_SHAPE_PAYLOADS)
    def test_cli_repairs_a_wrong_shape_entry(
        self, tmp_path, capsys, payload, backend
    ):
        from repro.cli import main

        argv = [
            "experiments", "run", "table1", "--scale", "quick",
            "--cache-dir", str(tmp_path), "--no-store", "--backend", backend,
        ]
        assert main(argv) == 0
        table = capsys.readouterr().out.split("campaign:")[0]
        cache = TrialCache(str(tmp_path))
        key = next(iter(cache.keys()))
        good = cache.get(key)
        _overwrite_entry(cache, key, payload)

        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.split("campaign:")[0] == table
        assert "1 trials executed, 4 cache hits" in captured.out
        assert captured.err == ""
        assert cache.get(key) == good

    def test_cache_is_spec_keyed(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        campaign = Campaign(cache=cache)
        campaign.run([_convergence_spec(0)])
        # different params -> different key -> still executes
        campaign.run([_convergence_spec(1)])
        assert campaign.executed == 2


def figure4b(campaign=None, scale=TINY):
    return run_experiment(
        "figure4b", scale=scale, params={"loss": [0.05]}, campaign=campaign
    )


class TestFigureCampaigns:
    """The acceptance-criteria behaviours at test scale."""

    def test_parallel_figure4_identical_to_serial(self):
        serial = figure4b()
        campaign = Campaign(backend="process:2")
        parallel = figure4b(campaign)
        assert serial.render() == parallel.render()
        assert campaign.executed > 0

    def test_figure4_rerun_hits_cache(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        first = Campaign(cache=cache)
        table1 = figure4b(first)
        assert first.executed > 0

        second = Campaign(cache=cache)
        table2 = figure4b(second)
        assert second.executed == 0
        assert second.cached == first.executed
        assert table1.render() == table2.render()


class TestSweepParsing:
    def test_parse_single(self):
        key, values = parse_sweep("connectivity=2,4,8")
        assert key == "connectivity"
        assert values == [2, 4, 8]

    def test_parse_mixed_types(self):
        assert parse_sweep("loss=0.01,0.05")[1] == [0.01, 0.05]
        assert parse_sweep("topology=ring,tree")[1] == ["ring", "tree"]

    def test_parse_rejects_malformed(self):
        for bad in ("", "loss", "=1,2", "loss=", "loss=,"):
            with pytest.raises(ValidationError):
                parse_sweep(bad)

    def test_parse_sweeps_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            parse_sweeps(["loss=0.1", "loss=0.2"])

    def test_parse_sweeps_mapping(self):
        sweeps = parse_sweeps(["loss=0.1", "connectivity=2"])
        assert sweeps == {"loss": [0.1], "connectivity": [2]}


# -- a cached re-run does no analytic work (PR 21) ----------------------------------

#: (experiment, small quick-scale sweep, phase-1 specs the sweep yields)
PHASED = [
    ("figure4a", {"crash": (0.01, 0.05), "connectivity": (2, 4), "trials": 3}, 4),
    ("figure4b", {"loss": (0.01, 0.05), "connectivity": (2, 4), "trials": 3}, 4),
    ("heterogeneous", {"connectivity": (2, 4), "trials": 3}, 4),
]
PHASED_TRIALS = 3

#: the names the analytic side of a Figure 4 point goes through, as
#: module globals (perf/trace.py counts the first three the same way)
ANALYTIC_GLOBALS = ("maximum_reliability_tree", "optimize", "reach", "k_regular")


@pytest.fixture
def work(monkeypatch):
    """Machine-independent work counters, by rebinding module globals."""
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro"):
            continue
        for name in ANALYTIC_GLOBALS:
            fn = vars(module).get(name)
            if getattr(fn, "__name__", None) == name:
                monkeypatch.setattr(module, name, counting(name, fn))
    for name in ("uniform", "random_uniform"):
        fn = getattr(Configuration, name).__func__
        monkeypatch.setattr(
            Configuration, name, classmethod(counting(f"Configuration.{name}", fn))
        )
    return counts


class _Recorder(Campaign):
    """A campaign remembering each batch of specs it ran."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.batches = []

    def run(self, specs):
        self.batches.append(list(specs))
        return super().run(specs)


def _run(name, params, backend):
    from repro import api

    return api.run_experiment(name, scale="quick", params=params, backend=backend)


@pytest.mark.parametrize("name,params,points", PHASED)
class TestCachedRunDoesNoAnalyticWork:
    def test_fully_cached_run_builds_nothing(
        self, tmp_path, work, name, params, points
    ):
        backend = f"serial+cache={tmp_path}"
        cold = _run(name, params, backend)
        entries = len(TrialCache(str(tmp_path)))
        assert entries == points * (1 + PHASED_TRIALS)
        # (ii) the optimal plan is built once per phase-1 spec, cold
        assert work["maximum_reliability_tree"] == points
        assert work["optimize"] == points

        work.clear()
        resumed = _run(name, params, backend)
        # (i) nothing analytic on a resume, and nothing written
        assert dict(work) == {}
        assert len(TrialCache(str(tmp_path))) == entries
        assert resumed.rows == cold.rows

    def test_rows_equal_on_every_path(self, tmp_path, name, params, points):
        from repro.experiments.registry import resolve_experiment

        cold = _run(name, params, f"serial+cache={tmp_path}")
        assert _run(name, params, "process:2").rows == cold.rows
        # (iii) without a cache phase 1 still runs once: build hands its
        # results to aggregate instead of aggregate re-deriving them
        bare = Campaign()
        result = resolve_experiment(name).run(
            scale=QUICK, params=params, campaign=bare
        )
        assert result.rows == cold.rows
        assert bare.executed == points * (1 + PHASED_TRIALS)
        assert bare.cached == 0

    def test_entry_under_the_old_task_name_is_not_consulted(
        self, tmp_path, monkeypatch, name, params, points
    ):
        from repro.experiments.registry import resolve_experiment

        spec = resolve_experiment(name)
        cache = TrialCache(str(tmp_path))
        first = _Recorder(cache=cache)
        cold = spec.run(scale=QUICK, params=params, campaign=first)
        phase1, measurements = first.batches
        assert len(phase1) == points

        # what a cache written before the rename holds: the same phase-1
        # params under the old function name, a budget and nothing else
        old_keys = set()
        for new in phase1:
            old = TrialSpec.make(
                new.fn.replace("phase1", "calibration"), **new.kwargs()
            )
            assert old.fn != new.fn
            cache.put(old.key(), {"rounds": 1.0})
            old_keys.add(old.key())
            os.unlink(os.path.join(cache.directory, f"{new.key()}.json"))

        asked = []
        get = TrialCache.get
        monkeypatch.setattr(
            TrialCache, "get", lambda self, key: asked.append(key) or get(self, key)
        )
        second = Campaign(cache=cache)
        warm = spec.run(scale=QUICK, params=params, campaign=second)
        assert warm.rows == cold.rows
        assert not old_keys & set(asked)
        assert (second.executed, second.cached) == (points, len(measurements))


@pytest.mark.parametrize("backend", ["serial", "shard:2"])
@pytest.mark.parametrize(
    "phase,lacking", [("phase1", "optimal_messages"), ("measurement", "messages")]
)
@pytest.mark.parametrize("name", ["figure4a", "heterogeneous"])
def test_cli_repairs_an_entry_lacking_its_metric(
    tmp_path, capsys, name, phase, lacking, backend
):
    """Right shape, wrong keys: a miss that is recomputed, not a KeyError."""
    from repro.cli import main

    argv = [
        "experiments", "run", name, "--scale", "quick", "--no-store",
        "--sweep", "connectivity=2", "--sweep", "trials=2",
        "--backend", f"{backend}+cache={tmp_path}",
    ]
    assert main(argv) == 0
    table = capsys.readouterr().out.split("campaign:")[0]
    cache = TrialCache(str(tmp_path))
    for key in cache.keys():
        path = os.path.join(cache.directory, f"{key}.json")
        with open(path) as fh:
            entry = json.load(fh)
        if phase in entry["context"]["fn"]:
            break
    good = dict(entry["result"])
    del entry["result"][lacking]
    entry["result"]["messages" if lacking != "messages" else "rounds"] = 1.0
    with open(path, "w") as fh:
        json.dump(entry, fh)

    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.split("campaign:")[0] == table
    assert "campaign: 1 trials executed" in captured.out
    assert cache.get(key) == good


def test_aggregates_reference_no_analytic_name():
    """One code path: the folds cannot rebuild what phase 1 computed."""
    from repro.experiments import figure4, heterogeneous

    banned = {
        "optimal_messages", "_uniform_config", "_build_config",
        "k_regular", "Configuration",
    }
    for fn in (
        figure4.figure4_aggregate,
        heterogeneous.heterogeneity_aggregate,
        heterogeneous._aggregate_point,
    ):
        assert not banned & set(fn.__code__.co_names), fn.__name__
    assert not hasattr(figure4, "reference_messages")


def test_figure4_point_is_one_point_of_the_grid():
    grid = figure4b()
    xs = grid.column("connectivity (links/process)")
    for connectivity, ratio in zip(xs, grid.column("L=0.05")):
        point = figure4b(scale=scaled(TINY, connectivities=(int(connectivity),)))
        assert point.column("L=0.05") == [ratio]
