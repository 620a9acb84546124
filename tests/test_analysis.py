"""Determinism static analysis (repro.analysis lint) + RNG draw ledger.

Covers the two halves of the determinism-enforcement pass:

* the AST lint engine — golden findings over the fixture corpus
  (``tests/fixtures/lint``), per-rule behaviour, ``noqa-det``
  suppression, CLI exit codes, and the shipped-tree-is-clean gate;
* the runtime draw ledger — unit semantics of :class:`DrawLedger` /
  :func:`ledger_scope`, campaign integration, provenance round-trips,
  workers-1-vs-4 bit-identity, and ``diff`` attribution of a drifted
  stream.
"""

import json
import os
from dataclasses import replace

import pytest

import repro.api as api
from repro.analysis.lint import format_report, lint_paths, lint_source
from repro.analysis.rules import RULE_CODES, rule_table, subsystem_of
from repro.cli import main
from repro.experiments.campaign import Campaign, TrialSpec
from repro.results import Provenance, diff_result_sets
from repro.util import jsonio
from repro.util.rng import DrawLedger, RandomSource, ledger_scope

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")


def _golden_findings():
    with open(os.path.join(FIXTURES, "expected.txt")) as fh:
        return sorted(line.strip() for line in fh if line.strip())


def _actual_findings():
    found = []
    for violation in lint_paths([FIXTURES]):
        rel = os.path.relpath(violation.path, FIXTURES)
        found.append(f"{rel}:{violation.line}:{violation.code}")
    return sorted(found)


class TestFixtureCorpus:
    def test_golden_findings(self):
        """The corpus reports exactly the pinned file:line:code findings."""
        assert _actual_findings() == _golden_findings()

    def test_every_rule_represented(self):
        codes = {line.rsplit(":", 1)[1] for line in _golden_findings()}
        assert codes == set(RULE_CODES)

    def test_messages_name_the_rule_and_location(self):
        for violation in lint_paths([FIXTURES]):
            line = violation.format()
            assert f":{violation.line}: {violation.code} " in line
            assert violation.message


class TestShippedTreeClean:
    def test_src_repro_is_clean(self):
        """The shipped tree honours its own determinism contract."""
        src = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
        assert lint_paths([os.path.normpath(src)]) == []


class TestRules:
    def test_d001_wall_clock_in_subsystem(self):
        src = "import time\n\ndef f():\n    return time.time()\n"
        (v,) = lint_source(src, "repro/sim/x.py")
        assert (v.line, v.code) == (4, "D001")
        assert lint_source(src, "repro/results/x.py") == []

    def test_d001_module_level_random(self):
        src = "import random\n\ndef f():\n    return random.gauss(0, 1)\n"
        (v,) = lint_source(src, "repro/protocols/x.py")
        assert v.code == "D001"

    def test_d001_strftime_arg_sensitivity(self):
        bare = "import time\nx = time.strftime('%H')\n"
        explicit = "import time\n\ndef f(t):\n    return time.strftime('%H', t)\n"
        assert [v.code for v in lint_source(bare, "repro/sim/x.py")] == ["D001"]
        assert lint_source(explicit, "repro/sim/x.py") == []

    def test_d001_import_alias_resolution(self):
        src = "from time import time as wall\n\ndef f():\n    return wall()\n"
        (v,) = lint_source(src, "repro/kvstore/x.py")
        assert v.code == "D001"

    def test_d002_sorted_and_folds_are_clean(self):
        src = (
            "def f():\n"
            "    s = {3, 1}\n"
            "    for x in sorted(s):\n"
            "        yield x\n"
            "    return sum(x for x in s), len(s), max(s)\n"
        )
        assert lint_source(src, "any.py") == []

    def test_d002_set_literal_loop(self):
        src = "def f(out):\n    for x in {1, 2}:\n        out.append(x)\n"
        (v,) = lint_source(src, "any.py")
        assert (v.line, v.code) == (2, "D002")

    def test_d002_tracks_local_bindings(self):
        src = (
            "def f(items, out):\n"
            "    chosen = set(items)\n"
            "    pruned = chosen - {None}\n"
            "    return list(pruned)\n"
        )
        (v,) = lint_source(src, "any.py")
        assert (v.line, v.code) == (4, "D002")

    def test_d002_reassigned_names_not_flagged(self):
        src = (
            "def f(items):\n"
            "    xs = set(items)\n"
            "    xs = sorted(xs)\n"
            "    return list(xs)\n"
        )
        assert lint_source(src, "any.py") == []

    def test_d003_adhoc_rng(self):
        src = "import random\nr = random.Random(0)\n"
        (v,) = lint_source(src, "repro/scenario/x.py")
        assert v.code == "D003"
        assert lint_source(src, "tools/x.py") == []

    def test_d003_numpy_direct(self):
        src = "import numpy as np\ng = np.random.default_rng(1)\n"
        (v,) = lint_source(src, "repro/membership/x.py")
        assert v.code == "D003"

    def test_d004_monitor_send_and_draw(self):
        src = (
            "class FooMonitor:\n"
            "    def go(self, node, rng):\n"
            "        node.broadcast('x')\n"
            "        return rng.choice([1, 2])\n"
        )
        codes = [(v.line, v.code) for v in lint_source(src, "any.py")]
        assert codes == [(3, "D004"), (4, "D004")]

    def test_d004_applies_to_subclasses_by_base(self):
        src = (
            "class Derived(KVMetricsMonitor):\n"
            "    def go(self, source):\n"
            "        return source.integer(10)\n"
        )
        (v,) = lint_source(src, "any.py")
        assert v.code == "D004"

    def test_d004_passive_observer_clean(self):
        src = (
            "class QuietMonitor:\n"
            "    def on_deliver(self, message):\n"
            "        self.count = self.count + 1\n"
        )
        assert lint_source(src, "any.py") == []

    def test_d005_unfrozen_params(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class RunParams:\n"
            "    n: int = 1\n"
        )
        (v,) = lint_source(src, "tools/x.py")
        assert v.code == "D005"

    def test_d005_frozen_params_clean(self):
        src = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class RunParams:\n"
            "    n: int = 1\n"
        )
        assert lint_source(src, "tools/x.py") == []

    def test_d005_sim_slots(self):
        src = "class Hot:\n    pass\n"
        (v,) = lint_source(src, "repro/sim/x.py")
        assert v.code == "D005"
        assert lint_source(src, "repro/kvstore/x.py") == []

    def test_d005_exception_and_dataclass_exempt(self):
        src = (
            "from dataclasses import dataclass\n"
            "class SimError(Exception):\n"
            "    pass\n"
            "@dataclass(frozen=True)\n"
            "class Options:\n"
            "    n: int = 1\n"
        )
        assert lint_source(src, "repro/sim/x.py") == []

    def test_syntax_error_reports_d000(self):
        (v,) = lint_source("def f(:\n", "broken.py")
        assert v.code == "D000"

    def test_select_filters_rules(self):
        src = (
            "import time\n"
            "def f():\n"
            "    s = {1, 2}\n"
            "    return time.time(), list(s)\n"
        )
        all_codes = {v.code for v in lint_source(src, "repro/sim/x.py")}
        assert all_codes == {"D001", "D002"}
        only = lint_source(src, "repro/sim/x.py", select=["D002"])
        assert {v.code for v in only} == {"D002"}
        with pytest.raises(ValueError):
            lint_source(src, "repro/sim/x.py", select=["D999"])


class TestNoqa:
    def test_suppression_on_line(self):
        src = "import time\nx = time.time()  # repro: noqa-det[D001]\n"
        assert lint_source(src, "repro/sim/x.py") == []

    def test_wrong_code_does_not_suppress(self):
        src = "import time\nx = time.time()  # repro: noqa-det[D002]\n"
        (v,) = lint_source(src, "repro/sim/x.py")
        assert v.code == "D001"

    def test_multiple_codes(self):
        src = (
            "import time\n"
            "def f():\n"
            "    s = {1}\n"
            "    return time.time(), list(s)  # repro: noqa-det[D001, D002]\n"
        )
        assert lint_source(src, "repro/sim/x.py") == []


class TestSubsystemDetection:
    def test_source_tree_and_installed_layouts(self):
        assert subsystem_of("src/repro/sim/engine.py") == "sim"
        assert subsystem_of("/x/site-packages/repro/kvstore/replica.py") == "kvstore"
        assert subsystem_of("tests/fixtures/lint/repro/scenario/a.py") == "scenario"
        assert subsystem_of("src/repro/results/schema.py") is None
        assert subsystem_of("src/other/sim/engine.py") is None


class TestLintCLI:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", "src/repro"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fixture_corpus_exits_one_with_findings(self, capsys):
        assert main(["lint", FIXTURES]) == 1
        err = capsys.readouterr().err
        for line in _golden_findings():
            rel, lineno, code = line.rsplit(":", 2)
            assert f"{os.path.join(FIXTURES, rel)}:{lineno}: {code} " in err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_select_exits_two(self, capsys):
        assert main(["lint", "--select", "D999", "src/repro"]) == 2
        assert "D999" in capsys.readouterr().err

    def test_explain_lists_rules(self, capsys):
        assert main(["lint", "--explain"]) == 0
        out = capsys.readouterr().out
        for code, _summary in rule_table():
            assert code in out
        assert "noqa-det" in out

    def test_api_lint_paths_matches_engine(self):
        assert [v.format() for v in api.lint_paths([FIXTURES])] == [
            v.format() for v in lint_paths([FIXTURES])
        ]

    def test_format_report_shapes(self):
        report, code = format_report([])
        assert code == 0 and "clean" in report
        violations = lint_paths([FIXTURES])
        report, code = format_report(violations)
        assert code == 1
        assert report.splitlines()[0] == violations[0].format()


class TestDrawLedger:
    def test_records_per_stream_draw_units(self):
        ledger = DrawLedger()
        with ledger_scope(ledger):
            root = RandomSource("unit-test")
            root.random()
            child = root.child("net", 3)
            child.random_array(5)
            child.bernoulli(0.5)
            child.bernoulli(0.0)  # shortcut: draws nothing
            root.child("pick").sample([1, 2, 3, 4], 2)
            root.child("pick").shuffled([1, 2, 3])
        assert ledger.as_dict() == {
            "unit-test": 1,
            "unit-test/net/3": 6,
            "unit-test/pick": 5,
        }
        assert ledger.total == 12

    def test_buffered_counts_consumed_draws(self):
        ledger = DrawLedger()
        with ledger_scope(ledger):
            stream = RandomSource("buf").child("loss")
            buffered = stream.buffered(block=4)
            for _ in range(6):
                buffered.next()
        assert ledger.as_dict() == {"buf/loss": 6}

    def test_values_identical_with_and_without_ledger(self):
        bare = [RandomSource("same", 1).child("a").random() for _ in range(1)]
        with ledger_scope(DrawLedger()):
            led = [RandomSource("same", 1).child("a").random() for _ in range(1)]
        assert bare == led

    def test_outside_scope_not_recorded(self):
        ledger = DrawLedger()
        outside = RandomSource("outside")
        with ledger_scope(ledger):
            outside.random()
        assert ledger.as_dict() == {}

    def test_scope_does_not_nest(self):
        with ledger_scope(DrawLedger()):
            with pytest.raises(RuntimeError):
                with ledger_scope(DrawLedger()):
                    pass

    def test_scope_resets_on_exception(self):
        with pytest.raises(ValueError):
            with ledger_scope(DrawLedger()):
                raise ValueError("boom")
        ledger = DrawLedger()
        with ledger_scope(ledger):
            RandomSource("after").random()
        assert ledger.total == 1


def _trial_spec(trial: int = 0, **overrides) -> TrialSpec:
    """A small real trial (figure5 convergence) for campaign tests."""
    from repro.experiments.figure5 import CONVERGENCE_FN

    params = dict(
        n=8, connectivity=2, crash=0.0, loss=0.02, deadline=2400.0, trial=trial
    )
    params.update(overrides)
    return TrialSpec.make(CONVERGENCE_FN, **params)


class TestCampaignLedger:
    def test_campaign_collects_and_strips_rng_keys(self):
        campaign = Campaign(rng_ledger=True)
        results = campaign.run([_trial_spec(0), _trial_spec(1)])
        assert all(
            not key.startswith("rng.") for result in results for key in result
        )
        assert campaign.rng_draws
        assert all(
            isinstance(count, int) and count > 0
            for count in campaign.rng_draws.values()
        )

    def test_metrics_identical_to_unledgered_run(self):
        (plain,) = Campaign().run([_trial_spec(2)])
        (ledgered,) = Campaign(rng_ledger=True).run([_trial_spec(2)])
        assert plain == ledgered

    def test_draw_counts_deterministic(self):
        first = Campaign(rng_ledger=True)
        first.run([_trial_spec(0)])
        second = Campaign(rng_ledger=True)
        second.run([_trial_spec(0)])
        assert first.rng_draws == second.rng_draws

    def test_ledger_changes_cache_key_only(self):
        assert _trial_spec(0).key() != _trial_spec(0, rng_ledger=True).key()


class TestLedgerProvenance:
    PARAMS = {"crash": [0.05], "connectivity": [2], "trials": [2]}

    def _run(self, backend: str = "serial", **kwargs):
        return api.run_experiment(
            "figure4a",
            scale="quick",
            params=self.PARAMS,
            backend=backend,
            **kwargs,
        )

    def test_workers_1_vs_4_bit_identical(self):
        one = self._run(rng_ledger=True)
        four = self._run("process:4", rng_ledger=True)
        assert one.provenance.rng_ledger is not None
        assert one.provenance.rng_ledger == four.provenance.rng_ledger
        assert one.rows == four.rows
        assert diff_result_sets(one, four).clean

    def test_ledger_off_by_default_and_metrics_unchanged(self):
        plain = self._run()
        ledgered = self._run(rng_ledger=True)
        assert plain.provenance.rng_ledger is None
        assert plain.rows == ledgered.rows

    def test_provenance_json_round_trip(self):
        ledgered = self._run(rng_ledger=True)
        payload = jsonio.encode(ledgered.provenance)
        assert payload["rng_ledger"] == dict(ledgered.provenance.rng_ledger)
        back = jsonio.decode(
            Provenance, json.loads(json.dumps(payload)), "provenance"
        )
        assert back.rng_ledger == ledgered.provenance.rng_ledger

        plain = self._run()
        assert "rng_ledger" not in jsonio.encode(plain.provenance)
        rebuilt = jsonio.decode(
            Provenance, jsonio.encode(plain.provenance), "provenance"
        )
        assert rebuilt.rng_ledger is None

    def test_diff_attributes_drift_to_stream(self):
        base = self._run(rng_ledger=True)
        stream = next(iter(base.provenance.rng_ledger))
        tampered = replace(
            base,
            provenance=replace(
                base.provenance,
                rng_ledger={**base.provenance.rng_ledger, stream: 1},
            ),
        )
        diff = diff_result_sets(base, tampered)
        assert not diff.clean
        assert any(stream in note for note in diff.ledger)
        assert "rng-ledger" in diff.render()

    def test_one_sided_ledger_is_not_a_mismatch(self):
        plain = self._run()
        ledgered = self._run(rng_ledger=True)
        assert diff_result_sets(plain, ledgered).clean
