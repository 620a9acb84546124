"""``TrialSpec.trials`` builds what ``TrialSpec.make`` builds, key for key.

A cell's trials share everything but ``trial``, so ``trials`` renders the
canonical key payload once and hashes each trial index onto the shared
text before it.  The properties here hold it to the one-spec-per-trial
form on generated parameters; the fixture holds the experiments to the
keys their existing cache entries are stored under.

``tests/fixtures/trial_keys_v1.json`` holds the ordered keys each
experiment that builds its trials with ``trials`` makes at quick scale
from fixed inputs (:func:`site_specs`; the two-phase experiments get a
stub campaign returning fixed phase-1 results).  It was written by
commit 16be708, the last one to build and key each trial alone, from a
checkout of that commit with this file copied in::

    PYTHONPATH=src python tests/test_trial_keys.py > tests/fixtures/trial_keys_v1.json
"""

import json
import os
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.experiments.campaign import TrialSpec
from repro.util.cache import content_key

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "trial_keys_v1.json")

FN = "repro.experiments.figure4:figure4_trial"

#: Names that sort either side of ``trial`` and close to it, and names
#: whose rendering holds the text the key split looks for.
NAMES = st.one_of(
    st.sampled_from(
        [
            *("a", "n", "tri", "triak", "triam", "trial_", "trials", "u", "workload"),
            *('a"trial', 'z"trial', ',"trial":0', '{"trial":', "\\", "é"),
        ]
    ),
    st.text(min_size=1, max_size=6),
).filter(lambda name: name not in ("trial", "fn", "reads", "count", "cls"))

VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.sampled_from([-0.0, 5e-324, 1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(['"trial":0', ',"trial":0}', '{"trial":1', '"', "\\", "ringé–"]),
    st.text(max_size=8),
)

PARAMS = st.dictionaries(NAMES, VALUES, max_size=5)
READS = st.lists(st.sampled_from(["messages", "rounds", "trial"]), max_size=2).map(
    tuple
)


def _made(fn, reads, count, params):
    return [TrialSpec.make(fn, reads, trial=t, **params) for t in range(count)]


def _outcome(call):
    """The exception ``call`` raises as (type, message), or None."""
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return None


@given(params=PARAMS, reads=READS, count=st.integers(0, 5))
def test_trials_are_the_specs_make_builds(params, reads, count):
    import repro

    specs = TrialSpec.trials(FN, reads, count, **params)
    made = _made(FN, reads, count, params)
    assert [repr(spec) for spec in specs] == [repr(spec) for spec in made]
    assert [spec.reads for spec in specs] == [spec.reads for spec in made]
    for spec, twin in zip(specs, made):
        assert spec == twin and hash(spec) == hash(twin)
        # keyed as built, and equal to the hash of the full payload
        assert "_key" in vars(spec)
        payload = {"fn": FN, "params": twin.kwargs(), "code": repro.__version__}
        assert spec.key() == twin.key() == content_key(payload)
    assert len({spec.key() for spec in specs}) == count


BAD_PARAMS = [
    {"x": float("nan")},
    {"x": float("inf")},
    {"x": [1, 2]},
    {"x": {"a": 1}},
    {"trial": 1},
]


@pytest.mark.parametrize("bad", BAD_PARAMS, ids=["nan", "inf", "list", "dict", "trial"])
@given(params=PARAMS, count=st.integers(1, 5))
def test_bad_params_fail_as_make_fails(bad, params, count):
    params = {**params, **bad}
    want = _outcome(lambda: _made(FN, (), count, params))
    assert want is not None
    assert _outcome(lambda: TrialSpec.trials(FN, (), count, **params)) == want


@pytest.mark.parametrize(
    "fn,reads",
    [("no_colon", ()), (FN, "messages")],
    ids=["fn-without-colon", "reads-as-a-string"],
)
def test_bad_fn_and_reads_fail_as_make_fails(fn, reads):
    want = _outcome(lambda: TrialSpec.make(fn, reads, trial=0, x=1))
    assert want is not None and want[0] is ValidationError
    assert _outcome(lambda: TrialSpec.trials(fn, reads, 2, x=1)) == want


def test_negative_count_is_refused():
    with pytest.raises(ValidationError, match="trial count must be >= 0, got -1"):
        TrialSpec.trials(FN, (), -1, x=1)


class _StubCampaign:
    """Fixed phase-1 results, one per spec, in submission order."""

    def run(self, specs):
        return [
            {"rounds": float(3 + i), "optimal_messages": 100.0}
            for i in range(len(specs))
        ]


def site_specs():
    """Each converted experiment's quick-scale specs from fixed inputs."""
    from repro.experiments import figure4
    from repro.experiments.registry import (
        ExperimentContext,
        Figure4bParams,
        resolve_experiment,
    )
    from repro.experiments.runner import QUICK

    def specs(cells):
        return [spec for _, cell in cells for spec in cell]

    def registered(name):
        spec = resolve_experiment(name)
        ctx = ExperimentContext(QUICK, _StubCampaign(), spec.make_params())
        return specs(spec.cells(ctx))

    names = (
        "figure4a",
        "heterogeneous",
        "figure5a",
        "figure5b",
        "figure6",
        "kvstore",
        "membership",
    )
    return {
        **{name: registered(name) for name in names},
        "figure4b": specs(
            figure4.cells(
                "loss",
                ExperimentContext(QUICK, _StubCampaign(), Figure4bParams()),
                count_acks=True,
            )
        ),
    }


def render_site_keys() -> str:
    keys = {
        name: [spec.key() for spec in specs] for name, specs in site_specs().items()
    }
    return json.dumps(keys, indent=1, sort_keys=True) + "\n"


def test_experiments_keep_their_trial_keys():
    with open(FIXTURE, encoding="utf-8") as fh:
        assert render_site_keys() == fh.read()


if __name__ == "__main__":
    sys.stdout.write(render_site_keys())
