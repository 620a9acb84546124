"""Property-based tests of the seeded scenario generator.

The generator is itself the strategy source: Hypothesis supplies
``(seed, index)`` coordinates and the properties assert the generator's
contract at every coordinate — specs are valid by construction,
round-trip JSON bit-identically, and replay deterministically (both at
the spec level and through :class:`~repro.sim.dynamics.DynamicsDriver`).
The same specs, and KV workload payloads, are the seeds of a JSON fuzz
target: one mutation anywhere in the text either still decodes or is a
:class:`~repro.errors.ValidationError`, never another exception.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, replace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.errors import ValidationError  # noqa: E402
from repro.experiments.runner import current_scale  # noqa: E402
from repro.kvstore.workload import KVWorkloadParams, decode_workload  # noqa: E402
from repro.scenario.generate import (  # noqa: E402
    ScenarioGenerator,
    check_generator_seed,
    generated_name,
    parse_generated_name,
)
from repro.scenario.registry import (  # noqa: E402
    MAX_SCENARIO_N,
    _load_promoted,
    build_scenario,
)
from repro.scenario.schema import ScenarioSpec  # noqa: E402
from repro.scenario.trial import canonical_spec_json  # noqa: E402
from repro.sim.dynamics import DynamicsDriver  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.network import Network, NetworkOptions  # noqa: E402
from repro.util import jsonio  # noqa: E402
from repro.util.rng import RandomSource  # noqa: E402

SEEDS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=8
)
INDICES = st.integers(min_value=0, max_value=2_000)
SCALES = st.sampled_from(["quick", "default", "full"])


def _canonical(spec: ScenarioSpec) -> str:
    return json.dumps(jsonio.encode(spec), sort_keys=True)


@given(seed=SEEDS, index=INDICES, scale=SCALES)
@settings(max_examples=60)
def test_generated_specs_validate_and_stay_in_envelope(seed, index, scale):
    """Every generated spec constructs (validators ran) and its sampled
    parameters sit inside the documented envelopes."""
    spec = ScenarioGenerator(seed, current_scale(scale)).generate(index)
    assert isinstance(spec, ScenarioSpec)
    assert spec.name == generated_name(seed, index)
    assert 6 <= spec.topology.n <= MAX_SCENARIO_N + 8  # two_tier rounding
    assert spec.duration > 0.0
    assert len(spec.timeline) <= 5
    previous = -1.0
    for event in spec.timeline:
        assert previous < event.at < spec.duration
        previous = event.at
    # the workload's regular broadcasts land strictly inside the run
    regular = [
        t for t in spec.workload.broadcast_times()
        if spec.workload.surge_at is None or t < spec.workload.surge_at
    ]
    assert all(0.0 <= t < spec.duration for t in regular)
    # the topology actually constructs
    graph = spec.topology.build_with_tiers()[0]
    assert graph.n == spec.topology.n


@given(seed=SEEDS, index=INDICES, scale=SCALES)
@settings(max_examples=60)
def test_generated_specs_round_trip_json_bit_identically(seed, index, scale):
    spec = ScenarioGenerator(seed, current_scale(scale)).generate(index)
    encoded = _canonical(spec)
    rebuilt = jsonio.decode(ScenarioSpec, json.loads(encoded), "scenario")
    assert rebuilt == spec
    assert _canonical(rebuilt) == encoded


@given(seed=SEEDS, index=INDICES, scale=SCALES)
@settings(max_examples=40)
def test_generation_is_deterministic_and_registry_addressable(
    seed, index, scale
):
    scale_obj = current_scale(scale)
    first = ScenarioGenerator(seed, scale_obj).generate(index)
    second = ScenarioGenerator(seed, scale_obj).generate(index)
    assert _canonical(first) == _canonical(second)
    # gen:<seed>:<index> resolves through the registry to the same spec
    via_registry = build_scenario(generated_name(seed, index), scale_obj)
    assert _canonical(via_registry) == _canonical(first)
    assert parse_generated_name(first.name) == (seed, index)


def _applied_events(spec: ScenarioSpec):
    """Install the spec's timeline on a fresh network and run it dry.

    No protocol stack: the driver's applied-event log is a property of
    (spec, seed) alone and must replay identically.
    """
    graph, tiers = spec.topology.build_with_tiers()
    config = spec.environment.base_configuration(graph, tiers)
    sim = Simulator()
    rng = RandomSource("generator-replay", spec.name)
    options = NetworkOptions(
        crash_model=spec.environment.crash_model,
        markov_mean_down_ticks=spec.environment.mean_down_ticks,
    )
    network = Network(sim, config, rng, options=options)
    driver = DynamicsDriver(network, spec.timeline, name=spec.name, tiers=tiers)
    driver.install()
    sim.run(until=spec.duration)
    return list(driver.applied_events)


@given(seed=SEEDS, index=st.integers(min_value=0, max_value=100))
@settings(max_examples=15, deadline=None)
def test_dynamics_replay_is_deterministic(seed, index):
    """Two DynamicsDriver runs of one generated spec apply the exact
    same event sequence at the exact same times."""
    spec = ScenarioGenerator(seed, current_scale("quick")).generate(index)
    first = _applied_events(spec)
    second = _applied_events(spec)
    assert first == second
    assert len(first) == len(spec.timeline)
    assert [time for time, _ in first] == [e.at for e in spec.timeline]


@given(st.text(max_size=6))
def test_seed_validation_is_total(seed):
    """Any string either validates as a seed or raises ValidationError —
    never a crash, and validated seeds build parseable names."""
    try:
        check_generator_seed(seed)
    except ValidationError:
        return
    name = generated_name(seed, 3)
    assert parse_generated_name(name) == (seed, 3)


def test_specs_batch_matches_individual_generation():
    generator = ScenarioGenerator("batch", current_scale("quick"))
    batch = generator.specs(5, start=2)
    assert [s.name for s in batch] == [
        f"gen:batch:{i}" for i in range(2, 7)
    ]
    for offset, spec in enumerate(batch):
        assert _canonical(spec) == _canonical(generator.generate(2 + offset))


# -- the spec JSON fuzz target --------------------------------------------------------

_MUTATIONS = (
    "drop",
    "unknown",
    "string",
    "bool",
    "list",
    "null",
    "NaN",
    "Infinity",
    "1e400",
    "duplicate",
    "truncate",
)
_TOKENS = {
    "string": '"x"',
    "bool": "true",
    "list": "[1]",
    "null": "null",
    "NaN": "NaN",
    "Infinity": "Infinity",
    "1e400": "1e400",
}
_SENTINEL = "\u2603 mutated \u2603"


def _nodes(node, path=()):
    """``(path, node)`` for every value of a JSON tree, root first."""
    yield path, node
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _mutate(text: str, data) -> str:
    """One drawn mutation of JSON ``text`` at one drawn path."""
    mutation = data.draw(st.sampled_from(_MUTATIONS), label="mutation")
    if mutation == "truncate":
        return text[: data.draw(st.integers(0, len(text) - 1), label="cut")]
    payload = json.loads(text)
    nodes = list(_nodes(payload))
    if mutation == "unknown":
        objects = [node for _, node in nodes if isinstance(node, dict)]
        data.draw(st.sampled_from(objects), label="object")["zz_unknown"] = 1
        return json.dumps(payload)
    members = [path for path, _ in nodes if path and isinstance(path[-1], str)]
    anywhere = [path for path, _ in nodes if path]
    path = data.draw(
        st.sampled_from(members if mutation in ("drop", "duplicate") else anywhere),
        label="path",
    )
    parent = payload
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if mutation == "drop":
        del parent[key]
        return json.dumps(payload)
    original = json.dumps(parent[key])
    token = _TOKENS.get(mutation) or f"{original}, {json.dumps(key)}: {original}"
    parent[key] = _SENTINEL
    return json.dumps(payload).replace(json.dumps(_SENTINEL), token)


def _load_text(directory: str, text: str):
    """Read ``text`` as the promoted scenario file ``fuzz.json``."""
    with open(os.path.join(directory, "fuzz.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return _load_promoted("fuzz", directory)


@given(seed=SEEDS, index=INDICES, data=st.data())
@settings(max_examples=200)
def test_mutated_spec_json_decodes_or_is_a_validation_error(seed, index, data):
    """A promoted file one edit away from a generated spec either loads,
    and its canonical JSON loads back to an equal spec, or is refused
    with a ValidationError (the CLI's exit 2)."""
    spec = ScenarioGenerator(seed, current_scale("quick")).generate(index)
    text = _mutate(canonical_spec_json(replace(spec, name="fuzz")), data)
    with tempfile.TemporaryDirectory() as directory:
        try:
            decoded = _load_text(directory, text)
        except ValidationError:
            return
        assert _load_text(directory, canonical_spec_json(decoded)) == decoded


WORKLOADS = st.builds(
    KVWorkloadParams,
    keys=st.integers(1, 64),
    zipf_s=st.floats(0.0, 3.0),
    write_ratio=st.floats(0.0, 1.0),
    ops=st.integers(1, 500),
    regions=st.integers(1, 4),
    surge_ops=st.integers(0, 32),
    surge_zipf_s=st.floats(0.0, 3.0),
)


def _workload_json(params: KVWorkloadParams) -> str:
    return json.dumps(asdict(params), sort_keys=True, separators=(",", ":"))


@given(params=WORKLOADS, data=st.data())
@settings(max_examples=200)
def test_mutated_workload_payload_decodes_or_is_a_validation_error(params, data):
    text = _mutate(_workload_json(params), data)
    try:
        decoded = decode_workload(text)
    except ValidationError:
        return
    assert decode_workload(_workload_json(decoded)) == decoded
