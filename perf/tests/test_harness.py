"""Tests of the benchmark harness: ``python -m pytest perf/tests -q``."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
if importlib.util.find_spec("repro") is None:
    sys.path.insert(1, os.path.join(ROOT, "src"))

from perf import harness, trace  # noqa: E402
from perf.workloads import BUILDERS, Plan, Slot, kv_causal  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)


def test_pass_seconds_is_the_sum_of_slot_floors():
    passes = [[1.0, 10.0, 5.0], [3.0, 12.0, None], [2.0, 11.0, None]]
    assert harness.slot_floors(passes) == [1.0, 10.0, 5.0]
    assert harness.pass_seconds(passes) == 16.0
    # a slot that never succeeded contributes nothing
    assert harness.slot_floors([[1.0, None], [2.0, None]]) == [1.0]


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    hundred = [float(i) for i in range(1, 101)]
    assert harness.percentile(hundred, 0.9) == 90.0
    with pytest.raises(ValueError, match="ten are needed"):
        harness.percentile(hundred, 0.91)
    with pytest.raises(ValueError):
        harness.percentile(hundred[:18], 0.9)


def test_the_number_of_timed_passes_is_fixed_by_workload_and_seconds():
    # never by a clock: a floor over more samples reads lower
    assert {w: harness.timed_passes(w, 16) for w in BUILDERS} == {
        "adaptive-scenario": 11,
        "transport-scale": 7,
        "figure-cold": 5,
        "campaign-resume": 18,
        "kv-causal": 4,
    }
    assert harness.timed_passes("campaign-resume", 0.0) == harness.MIN_TIMED_PASSES


def test_self_time_subtracts_direct_children_only():
    # span 0 [0, 10] > span 1 [1, 7] > span 2 [2, 4]; span 3 [8, 9] under 0
    start = np.array([0.0, 1.0, 2.0, 8.0])
    end = np.array([10.0, 7.0, 4.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = trace.self_times(start, end, parent)
    assert own.tolist() == [3.0, 4.0, 2.0, 1.0]
    assert own.sum() == 10.0  # self times partition the root span


def test_tracer_records_nesting_and_generator_resumptions():
    tracer = trace.Tracer()

    def inner():
        return 1

    def produce():
        yield inner_traced()
        yield inner_traced()

    inner_traced = tracer.traced(inner, "layer.b", "inner")
    produce_traced = tracer.traced_generator(produce, "layer.a", "produce")
    with tracer.slot(0, "slot"):
        assert list(produce_traced()) == [1, 1]
    table = {(r["layer"], r["name"]): r for r in tracer.label_table()}
    assert table[("layer.b", "inner")]["spans"] == 2
    assert table[("layer.a", "produce")]["spans"] == 3  # two items + the end
    total = sum(r["self_s"] for r in table.values())
    assert total == pytest.approx(table[(trace.SLOT_LAYER, "slot")]["total_s"])


def _static_targets():
    targets = []
    for _, module, cls, attrs in trace.CLASS_TARGETS:
        owner = getattr(importlib.import_module(module), cls)
        targets += [(owner, attr) for attr in attrs]
    for _, module, attr in trace.FUNCTION_TARGETS:
        targets.append((importlib.import_module(module), attr))
    return targets


def test_install_then_uninstall_restores_every_attribute():
    importlib.import_module("repro.api")
    targets = _static_targets()
    before = [inspect.getattr_static(owner, attr) for owner, attr in targets]
    tracer = trace.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        for (owner, attr), original in zip(targets, before):
            assert inspect.getattr_static(owner, attr) is not original
        # a function imported by name elsewhere is rebound there too
        from repro.exec import serial

        assert serial.execute_spec is importlib.import_module(
            "repro.experiments.campaign"
        ).execute_spec
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(targets, before):
        assert inspect.getattr_static(owner, attr) is original
    assert len(patched) > len(targets)  # protocol hooks and specials as well
    for owner, attr, original in patched:
        if original is trace._INHERITED:
            assert attr not in vars(owner)
        else:
            assert inspect.getattr_static(owner, attr) is original


def test_a_raising_slot_is_counted_and_the_run_continues():
    def boom():
        raise RuntimeError("boom")

    plan = Plan(
        [
            Slot("ok", lambda: {"delivery_ratio": 1.0}),
            Slot("raises", boom),
            Slot("nan", lambda: {"delivery_ratio": float("nan")}),
            Slot("out-of-range", lambda: {"delivery_ratio": 1.5}),
            Slot("last", lambda: {"x": 2.0}),
        ]
    )
    record = harness.run_pass(plan)
    assert record.failed == 3
    assert [d is None for d in record.durations] == [False, True, True, True, False]
    assert "raises: raised RuntimeError: boom" in record.failures
    summary = harness.summarize("synthetic", 2, plan, [record, harness.run_pass(plan)])
    assert summary["attempted"] == 10 and summary["failed"] == 6
    assert summary["digest_ok"] == 1  # failing the same way twice is stable


def test_digest_mismatch_names_the_slot_and_does_not_raise():
    values = iter([1.0, 2.0])
    plan = Plan([Slot("drifts", lambda: {"x": next(values)})])
    passes = [harness.run_pass(plan), harness.run_pass(plan)]
    summary = harness.summarize("synthetic", 2, plan, passes)
    assert summary["digest_ok"] == 0
    assert "slot drifts" in summary["digest_problems"][0]


def test_default_seed_is_held_to_the_pin_under_any_numeric_stack(monkeypatch):
    plan = Plan([Slot("only", lambda: {"x": 1.0})])
    record = harness.run_pass(plan)
    pin = {
        "digest": harness.combined_digest(record.digests),
        "trials_per_pass": 1,
        "slot_digests": [record.digests[0][:12]],
    }
    pins = {"stack": {"python": "0", "numpy": "0"}, "workloads": {"synthetic": pin}}
    monkeypatch.setattr(harness, "load_pins", lambda: pins)
    assert harness.summarize("synthetic", 1, plan, [record])["digest_ok"] == 1
    pin["digest"], pin["slot_digests"] = "0" * 64, ["0" * 12]
    summary = harness.summarize("synthetic", 1, plan, [record])
    assert summary["digest_ok"] == 0
    assert "slots ['only']" in summary["digest_problems"][0]
    monkeypatch.setattr(harness, "load_pins", dict)
    assert harness.summarize("synthetic", 1, plan, [record])["digest_ok"] == 0


def test_traced_and_untraced_kv_pass_give_the_same_digest(tmp_path):
    plan = kv_causal(seed=2, tmp=str(tmp_path), ops=24, indices=1)
    plain = harness.run_pass(plan)
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = harness.run_pass(plan, tracer)
    finally:
        tracer.uninstall()
    assert plain.failed == traced.failed == 0
    assert plain.digests == traced.digests
    metrics = trace.layer_metrics(tracer)
    assert metrics["kvstore.replica.puts"] > 0
    assert metrics["scenario.trial.trials"] == len(plan.slots)
    assert metrics["trace.unattributed_frac"] < 0.15


def test_manifest_declares_what_the_harness_emits():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(BUILDERS)
    emitted = set(trace.layer_metrics(trace.Tracer()))
    emitted |= {"util.cache.bytes", "results.store.bytes", "trace.overhead_ratio"}
    emitted |= {metric for metric, _ in harness.PROBE_BACKENDS}
    assert {m["name"] for m in MANIFEST["per_layer"]} == emitted
