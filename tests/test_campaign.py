"""Tests for the campaign subsystem (parallel execution, cache, resume)."""

import functools
import json
import math
import os
import sys
import types
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConvergenceTimeoutError, ValidationError
from repro.experiments.campaign import (
    Campaign,
    TrialSpec,
    execute_spec,
    parse_sweep,
    parse_sweeps,
)
from repro.experiments.figure5 import CONVERGENCE_FN
from repro.experiments.registry import (
    experiment_specs,
    resolve_experiment,
    run_experiment,
)
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


class _Whole(int):
    pass


class _Real(float):
    pass


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

    @pytest.mark.parametrize(
        "value", [float("inf"), float("-inf"), float("nan"), 1e400]
    )
    def test_rejects_non_finite_param(self, value):
        with pytest.raises(ValidationError, match="trial param x is not finite"):
            TrialSpec.make("m:fn", x=value)

    def test_rejects_non_finite_float_subclass(self):
        with pytest.raises(ValidationError, match="not finite"):
            TrialSpec.make("m:fn", x=_Real("inf"))

    @pytest.mark.parametrize(
        "value",
        [0, -3, 2**70, 0.5, -0.0, "", "ring\u00e9", True, False, None,
         _Whole(7), _Real(0.25)],
    )
    def test_accepts_json_scalars_and_their_subclasses(self, value):
        assert TrialSpec.make("m:fn", x=value).params == (("x", value),)

    @pytest.mark.parametrize(
        "value", [[1], (1,), {"a": 1}, b"x", 1j, object(), frozenset()]
    )
    def test_rejects_non_scalars(self, value):
        with pytest.raises(ValidationError, match="not a JSON-able scalar"):
            TrialSpec.make("m:fn", x=value)

    def test_key_is_derived_once_and_kept_outside_the_fields(self, monkeypatch):
        import dataclasses
        import pickle

        import repro.experiments.campaign as campaign_module

        calls = []
        monkeypatch.setattr(
            campaign_module,
            "content_key",
            lambda payload: calls.append(payload) or content_key(payload),
        )
        keyed = TrialSpec.make("m.mod:fn", x=1, y=2.5)
        fresh = TrialSpec.make("m.mod:fn", x=1, y=2.5)
        key = keyed.key()
        assert keyed.key() == key and len(calls) == 1
        assert (keyed == fresh, hash(keyed), repr(keyed)) == (
            True, hash(fresh), repr(fresh)
        )
        other = dataclasses.replace(keyed, params=(("x", 2), ("y", 2.5)))
        assert other.key() == TrialSpec.make("m.mod:fn", x=2, y=2.5).key()
        assert other.key() != key and len(calls) == 3
        # a shard worker receives the key with the spec
        shipped = pickle.loads(pickle.dumps(keyed))
        assert shipped == keyed and shipped.key() == key and len(calls) == 3

        # a cell's specs are keyed as they are built, without content_key
        cell = TrialSpec.trials("m.mod:fn", (), 2, x=1, y=2.5)
        assert [spec.key() for spec in cell] == [
            TrialSpec.make("m.mod:fn", trial=t, x=1, y=2.5).key() for t in (0, 1)
        ]
        assert len(calls) == 5  # the two make twins only
        twin = TrialSpec.make("m.mod:fn", trial=1, x=1, y=2.5)
        assert (cell[1] == twin, hash(cell[1]), repr(cell[1])) == (
            True, hash(twin), repr(twin)
        )
        moved = dataclasses.replace(cell[1], params=(("trial", 1), ("x", 2)))
        assert moved.key() == TrialSpec.make("m.mod:fn", trial=1, x=2).key()
        assert len(calls) == 7
        shipped = pickle.loads(pickle.dumps(cell[1]))
        assert shipped.key() == cell[1].key() and len(calls) == 7

    def test_reads_given_as_a_string_is_refused(self):
        # tuple("messages") was eight one-letter metrics: every entry missed
        with pytest.raises(ValidationError, match="sequence of metric names"):
            TrialSpec.make("m:f", "messages", x=1)
        assert TrialSpec.make("m:f", ["messages"], x=1).reads == ("messages",)

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
        # an infinite value is a miss: see
        # test_cache_put_never_writes_what_get_refuses
        for payload in ({}, {"m": 1}, {"m": 1e308, "rng.x": 3.0}):
            cache.put(key, payload)
            assert cache.get(key) == payload

    def test_entry_past_one_read_buffer_still_hits(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        key = content_key({"a": 1})
        cache.put(key, {"m": 2.0}, context={"note": "x" * 20000})
        assert os.path.getsize(os.path.join(str(tmp_path), f"{key}.json")) > 16384
        assert cache.get(key) == {"m": 2.0}

    def test_small_hit_takes_one_read(self, tmp_path, monkeypatch):
        cache = TrialCache(str(tmp_path))
        key = content_key({"a": 1})
        cache.put(key, {"m": 2.0}, context={"fn": "m:f"})
        reads = []
        real_read = os.read
        monkeypatch.setattr(
            os, "read", lambda fd, n: reads.append(n) or real_read(fd, n)
        )
        assert cache.get(key) == {"m": 2.0}
        assert len(reads) == 1

    def test_clear(self, tmp_path):
        cache = TrialCache(str(tmp_path))
        for i in range(3):
            cache.put(content_key({"i": i}), {"v": float(i)})
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_content_key_rejects_nan(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                content_key({"x": value})


#: Keys computed by the release that wrote today's ``.repro-cache``
#: entries: a change to the key derivation must keep every one of them.
LITERAL_KEYS = [
    (
        ("repro.experiments.figure4:figure4_trial",),
        {"n": 16, "connectivity": 4, "crash": 0.03, "trial": 2},
        "9b1187ca28d906a2066715571d6c7001f3326c2b77f02db28b2b8478664f1ea0",
    ),
    (
        ("m.mod:fn",),
        {"flag": True, "off": False, "none": None, "x": 0.1, "y": -7},
        "5b9de78f5789e537b7554aabe80057fe91f3f70f92dfe6b1c8f4a540d5d530d2",
    ),
    (
        ("repro.experiments.figure5:convergence_trial",),
        {
            "seed_tag": "ring\u00e9\u2013\u00fc",
            "loss": 1e-05,
            "big": 10**20,
            "deadline": 1200.0,
        },
        "b69b1a12ed149e598c3cc1dcf8ad4bb657eba03a6fe1b1b78f85621ab58f0b90",
    ),
    (
        ("m:fn",),
        {},
        "1f89fe07a51e4b9266ae4a69ef4f5b527fd13df87b4df1e3b25419e98551f424",
    ),
]


class TestCacheKeysStayCompatible:
    @pytest.mark.parametrize(
        "fn,params,key",
        LITERAL_KEYS,
        ids=["figure4-trial", "bool-none-float-int", "non-ascii-seed-tag", "empty"],
    )
    def test_literal_key(self, fn, params, key):
        import repro

        assert repro.__version__ == "1.0.0"  # the version these keys fold in
        assert TrialSpec.make(*fn, **params).key() == key

    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(), children, max_size=4),
            max_leaves=12,
        )
    )
    def test_content_key_is_sha256_of_canonical_dumps(self, payload):
        import hashlib

        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
        expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert content_key(payload) == expected


def _entry(result: object) -> bytes:
    return json.dumps({"result": result}).encode("utf-8")


#: (raw bytes at the entry path, or a sentinel) -> what get() returns;
#: the verdicts are those of ``json.loads`` on the file's bytes, except
#: that non-finite numbers and duplicate keys are misses.
GET_VERDICTS = {
    "missing": (None, None),
    "directory": ("dir", None),
    "empty": (b"", None),
    "truncated": (b'{"result": {"m": 1.0', None),
    "non-utf8": (b'{"result": {"m": 1.0}, "x": "\xff\xfe"}', None),
    "non-dict": (b"[1, 2]", None),
    "non-dict-result": (_entry([1.0]), None),
    "bool-result": (_entry({"m": True}), None),
    "hit": (_entry({"m": 1.5, "n": 2}), {"m": 1.5, "n": 2}),
    "larger-than-one-read": (
        _entry({f"m{i:05d}": i + 0.5 for i in range(8000)}),
        {f"m{i:05d}": i + 0.5 for i in range(8000)},
    ),
    "utf8-bom": (b"\xef\xbb\xbf" + _entry({"m": 1.5}), {"m": 1.5}),
    "utf16": (
        json.dumps({"result": {"m": 1.5}}).encode("utf-16"),
        {"m": 1.5},
    ),
    "utf16-le": (
        json.dumps({"result": {"m": 1.5}}).encode("utf-16-le"),
        {"m": 1.5},
    ),
    # not real numbers, or not one value per key
    "nan": (b'{"result": {"x": NaN}}', None),
    "overflow": (b'{"result": {"x": 1e400}}', None),
    "minus-infinity": (b'{"result": {"x": -Infinity}}', None),
    "duplicate-result-key": (b'{"result": {"x": 1.0, "x": 2.0}}', None),
    "duplicate-top-key": (b'{"result": {"x": 1.0}, "result": {"x": 2.0}}', None),
}


@pytest.mark.parametrize("case", sorted(GET_VERDICTS))
def test_cache_get_verdict(tmp_path, monkeypatch, case):
    """Every entry keeps its hit-or-miss verdict, and every descriptor
    ``get`` opens is closed again, on the hit and on every miss path."""
    raw, expected = GET_VERDICTS[case]
    cache = TrialCache(str(tmp_path))
    key = content_key({"case": case})
    path = os.path.join(str(tmp_path), f"{key}.json")
    if raw == "dir":
        os.mkdir(path)
    elif raw is not None:
        with open(path, "wb") as fh:
            fh.write(raw)
    opened, closed = [], []
    real_open, real_close = os.open, os.close
    monkeypatch.setattr(
        os, "open", lambda *args: opened.append(real_open(*args)) or opened[-1]
    )
    monkeypatch.setattr(os, "close", lambda fd: closed.append(fd) or real_close(fd))
    assert cache.get(key) == expected
    monkeypatch.undo()
    assert sorted(opened) == sorted(closed)
    if case == "larger-than-one-read":
        from repro.util import cache as cache_module

        assert len(raw) > 4 * cache_module._READ_SIZE


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cache_put_never_writes_what_get_refuses(tmp_path, value):
    cache = TrialCache(str(tmp_path))
    key = content_key({"value": repr(value)})
    cache.put(key, {"m": value})
    assert key not in cache and cache.get(key) is None


def test_cache_put_bytes_are_unchanged(tmp_path):
    cache = TrialCache(str(tmp_path))
    key = content_key({"bytes": 1})
    context = {"fn": "m:f", "params": {"seed_tag": "ü", "n": 2}}
    cache.put(key, {"m": 1.5, "k": 2}, context=context)
    with open(os.path.join(str(tmp_path), f"{key}.json"), "rb") as fh:
        raw = fh.read()
    entry = {"result": {"m": 1.5, "k": 2}, "context": context}
    assert raw == json.dumps(entry, sort_keys=True).encode("utf-8")
    assert cache.get(key) == {"m": 1.5, "k": 2}


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


class TestPinnedShellWorkCounts:
    """The campaign shell's work on a pinned figure4a sweep, counted exactly.

    The sweep is 2 points x (1 phase-1 spec + 4 trials) = 10 specs.  Each
    phase-1 spec derives its key once from the full payload
    (``content_key``); each point's 4 trials are one cell, whose payload
    :meth:`TrialSpec.trials` renders once for all 4 keys.  The specs keep
    their keys, the campaign reads each entry once, and the backend that
    executes a spec writes it once; a shard worker re-reads the entries
    of its shard (its predecessor may have died after writing them), so
    a cold sharded run reads twice.  A resumed run reads each entry once
    and writes nothing.
    """

    PARAMS = {"crash": (0.03,), "connectivity": (2, 4), "trials": 4}

    @pytest.fixture
    def shell_calls(self, monkeypatch):
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and (
                vars(module).get("content_key") is content_key
            ):
                monkeypatch.setattr(
                    module, "content_key", counting("content_key", content_key)
                )
        for name in ("get", "put"):
            monkeypatch.setattr(
                TrialCache, name, counting(name, getattr(TrialCache, name))
            )
        trials = TrialSpec.trials.__func__

        def cell(cls, fn, reads, count, **params):
            counts["cells"] += 1
            counts["cell_trials"] += count
            return trials(cls, fn, reads, count, **params)

        monkeypatch.setattr(TrialSpec, "trials", classmethod(cell))
        return counts

    def _run(self, tmp_path, backend):
        from repro.exec import SerialBackend, ShardQueueBackend
        from repro.experiments.registry import resolve_experiment

        backends = {
            "serial": SerialBackend,
            "shard:1": lambda: ShardQueueBackend(workers=1, inline=True),
        }
        campaign = Campaign(
            cache=TrialCache(str(tmp_path)), backend=backends[backend]()
        )
        result = resolve_experiment("figure4a").run(
            scale=QUICK, params=self.PARAMS, campaign=campaign
        )
        return campaign, result

    @pytest.mark.parametrize(
        "backend,cold_gets", [("serial", 10), ("shard:1", 20)]
    )
    def test_cold_then_resumed(self, tmp_path, shell_calls, backend, cold_gets):
        cold, cold_result = self._run(tmp_path, backend)
        assert (cold.executed, cold.cached) == (10, 0)
        assert dict(shell_calls) == {
            "content_key": 2, "cells": 2, "cell_trials": 8,
            "get": cold_gets, "put": 10,
        }

        for resume_backend in ("serial", "shard:1"):
            shell_calls.clear()
            resumed, result = self._run(tmp_path, resume_backend)
            assert (resumed.executed, resumed.cached) == (0, 10)
            assert dict(shell_calls) == {
                "content_key": 2, "cells": 2, "cell_trials": 8, "get": 10,
            }
            assert result.rows == cold_result.rows


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


def _code_names(fn, seen=None):
    """Every global or attribute name ``fn``'s code (and its nested
    comprehensions') reads, and those of the experiment-module helpers
    it calls."""
    if seen is None:
        seen = set()
    while isinstance(fn, functools.partial):
        fn = fn.func
    if fn in seen:
        return set()
    seen.add(fn)
    names = set()
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    for name in list(names):
        helper = fn.__globals__.get(name)
        if isinstance(helper, types.FunctionType) and helper.__module__.startswith(
            "repro.experiments."
        ):
            names |= _code_names(helper, seen)
    return names


@pytest.mark.parametrize("name", [spec.name for spec in experiment_specs()])
def test_folds_reference_no_grid_or_analytic_name(name):
    """One code path: a fold reads each cell's results beside its
    coordinates, so it cannot re-derive the grid its cells walked or
    rebuild what phase 1 computed."""
    from repro.experiments import figure4

    banned = {
        "point_grid", "_cell_grid", "_points", "scenario_trials",
        "sized_scale", "_sized_scale", "variant_axes",
        "optimal_messages", "_uniform_config", "_build_config",
        "k_regular", "Configuration",
    }
    names = _code_names(resolve_experiment(name).fold)
    assert not banned & names, sorted(banned & names)
    assert not hasattr(figure4, "reference_messages")


def test_figure4_point_is_one_point_of_the_grid():
    grid = figure4b()
    xs = grid.column("connectivity (links/process)")
    for connectivity, ratio in zip(xs, grid.column("L=0.05")):
        point = figure4b(scale=scaled(TINY, connectivities=(int(connectivity),)))
        assert point.column("L=0.05") == [ratio]
