"""Tests for the results layer (repro.results).

Covers the typed schema (ResultSet/ResultRow/Provenance round-trips,
figure-shaped construction from curves, CSV export), the append-only JSONL store
(atomic appends, torn-write tolerance, query filters, exports) and the
cell-by-cell diff with its tolerance semantics.
"""

import json
import math
import subprocess

import pytest

from repro.errors import ValidationError
from repro.results.schema import (
    SCHEMA_VERSION,
    Provenance,
    ResultRow,
    ResultSet,
    _git_describe,
    diff_result_sets,
)
from repro.results.store import ResultStore, default_store_path
from repro.util.tables import render_table


def _sample(experiment="demo", y=2.5):
    return ResultSet.from_rows(
        experiment,
        "demo table",
        ["x", "left", "right"],
        [[1.0, y, "a"], [2.0, None, "b"]],
        x_label="x",
    )


class TestResultSet:
    def test_round_trip_through_json(self):
        rs = _sample()
        prov = Provenance.capture("demo", artefact="Demo", scale="quick",
                                  params={"trials": 3})
        from dataclasses import replace

        rs = replace(rs, provenance=prov, run_id="demo-0001-abc")
        clone = ResultSet.from_json(json.loads(json.dumps(rs.to_json())))
        assert clone == rs

    def test_from_curves_builds_the_figure_grid(self):
        rs = ResultSet.from_curves(
            "fig",
            "fig",
            "alpha",
            [("L=0.01", {2: 0.9, 1: 1}), ("L=0.001", {1.0: 1.0})],
        )
        assert rs.x_label == "alpha"
        assert rs.columns == ("alpha", "L=0.01", "L=0.001")
        # sorted float x, float y, and a None gap where L=0.001 has no x=2
        assert [row.values() for row in rs.rows] == [
            (1.0, 1.0, 1.0),
            (2.0, 0.9, None),
        ]
        assert all(type(x) is float for x in rs.column("alpha"))
        assert rs.render() == render_table(
            ["alpha", "L=0.01", "L=0.001"],
            [[1.0, 1.0, 1.0], [2.0, 0.9, None]],
            title="fig",
        )

    def test_column_access(self):
        rs = _sample()
        assert rs.column("left") == [2.5, None]
        assert rs.rows[0].get("right") == "a"
        with pytest.raises(ValidationError, match="no column"):
            rs.column("bogus")
        with pytest.raises(ValidationError, match="no column"):
            rs.rows[0].get("bogus")

    def test_row_column_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ResultSet(
                experiment="x",
                title="x",
                columns=("a",),
                rows=(ResultRow.make(["b"], [1.0]),),
            )

    def test_non_scalar_cell_rejected(self):
        with pytest.raises(ValidationError, match="cells must be"):
            ResultSet.from_rows("x", "x", ["a"], [[[1, 2]]])

    def test_csv_export(self):
        text = _sample().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "x,left,right"
        assert lines[1] == "1.0,2.5,a"
        assert lines[2] == "2.0,,b"

    def test_provenance_defaults(self):
        prov = Provenance.capture("demo")
        assert prov.schema_version == SCHEMA_VERSION
        assert prov.seed.startswith("derived")
        assert prov.repro_version
        assert prov.created_at is not None


class TestResultStore:
    def test_append_stamps_run_id_and_round_trips(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        stored = store.append(_sample())
        assert stored.run_id.startswith("demo-0001-")
        loaded = store.load()
        assert len(loaded) == 1
        assert loaded[0] == stored

    def test_sequential_run_ids(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        first = store.append(_sample())
        second = store.append(_sample())
        assert first.run_id != second.run_id
        assert second.run_id.startswith("demo-0002-")
        # identical payloads share the content digest suffix
        assert first.run_id.split("-")[-1] == second.run_id.split("-")[-1]

    def test_truncated_last_line_skipped_with_warning(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        store = ResultStore(path)
        kept = store.append(_sample())
        store.append(_sample(y=9.9))
        # simulate a crash mid-append: tear the last line in half
        with open(path, "r+", encoding="utf-8") as fh:
            content = fh.read()
            fh.seek(0)
            fh.truncate()
            fh.write(content[: len(content) - len(content.split("\n")[1]) // 2 - 1])
        with pytest.warns(UserWarning, match="torn write"):
            loaded = store.load()
        assert [r.run_id for r in loaded] == [kept.run_id]
        # the store keeps working: a fresh append lands after the tear
        again = store.append(_sample(y=1.23))
        with pytest.warns(UserWarning, match="torn write"):
            assert [r.run_id for r in store.load()] == [
                kept.run_id, again.run_id
            ]

    def test_nan_and_inf_cells_append_and_round_trip(self, tmp_path):
        # a non-converging figure 5 run reports inf; NaN diffs clean —
        # the store must accept both, not crash on the content digest
        store = ResultStore(str(tmp_path / "r.jsonl"))
        rs = ResultSet.from_rows(
            "nn", "nn", ["x", "y"],
            [[1.0, float("nan")], [2.0, float("inf")]],
        )
        stored = store.append(rs)
        loaded = store.load()[0]
        assert math.isnan(loaded.rows[0].get("y"))
        assert math.isinf(loaded.rows[1].get("y"))
        assert diff_result_sets(stored, loaded).clean

    def test_discard_probe_residue(self, tmp_path):
        path = tmp_path / "sub" / "r.jsonl"
        store = ResultStore(str(path))
        store.check_writable()
        assert path.exists()
        store.discard_probe_residue()
        assert not path.exists()
        assert not path.parent.exists()
        # never deletes a store holding data
        store2 = ResultStore(str(tmp_path / "keep.jsonl"))
        store2.append(_sample())
        store2.discard_probe_residue()
        assert len(store2.load()) == 1

    def test_sequence_survives_pruned_lines(self, tmp_path):
        # the docstring invites shell pruning; a re-run after deleting
        # line 1 must not re-mint a surviving record's run_id
        path = str(tmp_path / "r.jsonl")
        store = ResultStore(path)
        store.append(_sample())
        second = store.append(_sample())
        lines = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write(lines[1] + "\n")  # prune the first run
        third = store.append(_sample())
        assert third.run_id != second.run_id
        ids = [r.run_id for r in store.load()]
        assert len(set(ids)) == len(ids) == 2

    def test_newer_schema_records_skipped(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        store = ResultStore(path)
        store.append(_sample())
        payload = _sample().to_json()
        payload["provenance"] = Provenance.capture("demo").to_json()
        payload["provenance"]["schema_version"] = SCHEMA_VERSION + 1
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(payload) + "\n")
        with pytest.warns(UserWarning, match="newer schema"):
            assert len(store.load()) == 1

    def test_shape_damaged_records_skipped_not_crash(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        store = ResultStore(path)
        kept = store.append(_sample())
        with open(path, "a", encoding="utf-8") as fh:
            # valid JSON, wrong shapes: provenance not a dict, missing
            # columns/rows, non-numeric schema_version
            fh.write('{"experiment": "x", "provenance": "v2"}\n')
            fh.write('{"experiment": "x", "provenance": {}}\n')
            fh.write(
                '{"experiment": "x", '
                '"provenance": {"schema_version": "newest"}}\n'
            )
        with pytest.warns(UserWarning):
            loaded = store.load()
        assert [r.run_id for r in loaded] == [kept.run_id]

    def test_git_provenance_is_source_tree_not_cwd(self, tmp_path,
                                                   monkeypatch):
        _git_describe.cache_clear()
        from_repo = Provenance.capture("demo").git
        monkeypatch.chdir(tmp_path)  # not a git repository
        _git_describe.cache_clear()  # describe again, from the new CWD
        assert Provenance.capture("demo").git == from_repo

    def test_query_filters(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        from dataclasses import replace

        for experiment, scale in (
            ("figure1", "quick"), ("figure1", "full"), ("figure6", "quick"),
        ):
            rs = _sample(experiment=experiment)
            rs = replace(
                rs,
                provenance=Provenance.capture(experiment, scale=scale),
            )
            store.append(rs)
        assert len(store.query(experiment="figure1")) == 2
        assert len(store.query(scale="quick")) == 2
        assert len(store.query(experiment="figure1", scale="full")) == 1
        assert len(store.query(last=1)) == 1
        assert store.query(last=1)[0].experiment == "figure6"
        with pytest.raises(ValidationError):
            store.query(last=0)

    def test_get_unknown_run_lists_known(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        stored = store.append(_sample())
        assert store.get(stored.run_id) == stored
        with pytest.raises(ValidationError, match=stored.run_id):
            store.get("nope")

    def test_since_until(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        from dataclasses import replace

        for stamp in ("2026-01-01T00:00:00Z", "2026-06-01T00:00:00Z"):
            rs = replace(
                _sample(),
                provenance=replace(
                    Provenance.capture("demo"), created_at=stamp
                ),
            )
            store.append(rs)
        assert len(store.query(since="2026-03-01")) == 1
        assert len(store.query(until="2026-03-01")) == 1
        assert len(store.query(since="2025-01-01", until="2027-01-01")) == 2

    def test_export_csv_prefixes_provenance(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        from dataclasses import replace

        stored = store.append(
            replace(
                _sample(),
                provenance=Provenance.capture("demo", scale="quick"),
            )
        )
        text = store.export_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "run_id,experiment,scale,x,left,right"
        assert lines[1].startswith(f"{stored.run_id},demo,quick,1.0,2.5,a")

    def test_export_json_is_loadable(self, tmp_path):
        store = ResultStore(str(tmp_path / "r.jsonl"))
        store.append(_sample())
        payload = json.loads(store.export_json())
        assert len(payload) == 1
        assert payload[0]["experiment"] == "demo"

    def test_default_path_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path / "env.jsonl"))
        assert default_store_path() == str(tmp_path / "env.jsonl")
        assert ResultStore().path == str(tmp_path / "env.jsonl")

    def test_missing_file_is_empty(self, tmp_path):
        store = ResultStore(str(tmp_path / "absent.jsonl"))
        assert store.load() == []
        assert len(store) == 0

    def test_construction_has_no_filesystem_side_effects(self, tmp_path):
        path = tmp_path / "sub" / "dir" / "r.jsonl"
        store = ResultStore(str(path))
        assert not path.parent.exists()  # reads must not mkdir
        assert store.load() == []
        assert not path.parent.exists()
        store.check_writable()
        assert path.exists()

    def test_check_writable_fails_fast(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(OSError):
            ResultStore(str(blocker / "x" / "r.jsonl")).check_writable()


class TestGitDescribedOncePerProcess:
    """``Provenance.git`` costs one subprocess per process, not per capture."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        # the memo is process-wide: reset it so test order does not matter
        _git_describe.cache_clear()
        yield
        _git_describe.cache_clear()

    @pytest.fixture
    def spawns(self, monkeypatch):
        """Replace ``subprocess.run`` with a counter that answers v9-test."""
        calls = []

        def fake_run(argv, **kwargs):
            calls.append(argv)
            return subprocess.CompletedProcess(argv, 0, "v9-test\n", "")

        monkeypatch.setattr(subprocess, "run", fake_run)
        return calls

    def test_five_captures_spawn_one_subprocess(self, spawns, monkeypatch):
        stamps = iter(f"2026-01-01T00:00:0{i}Z" for i in range(5))
        monkeypatch.setattr(
            "repro.results.schema._utc_now", lambda: next(stamps)
        )
        captured = [
            Provenance.capture("demo", params={"i": i}) for i in range(5)
        ]
        assert len(spawns) == 1
        assert spawns[0][:2] == ["git", "describe"]
        assert [p.git for p in captured] == ["v9-test"] * 5
        # everything else is still stamped per capture
        assert [p.created_at for p in captured] == [
            f"2026-01-01T00:00:0{i}Z" for i in range(5)
        ]
        assert [p.params for p in captured] == [{"i": i} for i in range(5)]

    def test_three_api_runs_spawn_one_subprocess(self, spawns, tmp_path):
        import repro.api as api

        store = str(tmp_path / "runs.jsonl")
        runs = [
            api.run_experiment("table1", scale="quick", store=store)
            for _ in range(3)
        ]
        assert len(spawns) == 1
        assert [r.provenance.git for r in runs] == ["v9-test"] * 3
        assert all(r.provenance.created_at for r in runs)
        stored = ResultStore(store).load()
        assert [r.provenance.git for r in stored] == ["v9-test"] * 3

    @pytest.mark.parametrize(
        "failure",
        [
            OSError("no git on PATH"),
            subprocess.TimeoutExpired(cmd="git", timeout=5),
        ],
    )
    def test_failure_is_memoised_and_never_retried(self, monkeypatch, failure):
        calls = []

        def failing_run(argv, **kwargs):
            calls.append(argv)
            raise failure

        monkeypatch.setattr(subprocess, "run", failing_run)
        assert [Provenance.capture("demo").git for _ in range(3)] == [None] * 3
        assert len(calls) == 1

    def test_nonzero_exit_is_memoised_as_none(self, monkeypatch):
        calls = []

        def not_a_checkout(argv, **kwargs):
            calls.append(argv)
            return subprocess.CompletedProcess(argv, 128, "", "fatal: ...")

        monkeypatch.setattr(subprocess, "run", not_a_checkout)
        assert [Provenance.capture("demo").git for _ in range(2)] == [None] * 2
        assert len(calls) == 1


class TestDiff:
    def test_identical_runs_diff_clean(self):
        diff = diff_result_sets(_sample(), _sample())
        assert diff.clean
        assert diff.max_drift == 0.0
        assert "zero drift" in diff.render()

    def test_provenance_never_participates(self):
        from dataclasses import replace

        a = replace(
            _sample(),
            provenance=Provenance.capture("demo", scale="quick"),
            run_id="demo-0001-aa",
        )
        b = replace(
            _sample(),
            provenance=replace(
                Provenance.capture("demo", scale="quick"),
                created_at="1999-01-01T00:00:00Z",
                git="other",
            ),
            run_id="demo-0002-bb",
        )
        assert diff_result_sets(a, b).clean

    def test_tolerance_semantics(self):
        a, b = _sample(y=2.5), _sample(y=2.55)
        assert not diff_result_sets(a, b, tolerance=0.01).clean
        assert diff_result_sets(a, b, tolerance=0.1).clean
        drift = diff_result_sets(a, b, tolerance=0.01).drifts[0]
        assert drift.column == "left"
        assert drift.drift == pytest.approx(0.05)

    def test_zero_tolerance_is_exact(self):
        a, b = _sample(y=1.0), _sample(y=1.0 + 1e-15)
        assert not diff_result_sets(a, b).clean
        assert diff_result_sets(a, b).max_drift > 0.0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValidationError):
            diff_result_sets(_sample(), _sample(), tolerance=-0.1)

    def test_structural_mismatches_reported(self):
        other_experiment = _sample(experiment="other")
        diff = diff_result_sets(_sample(), other_experiment)
        assert not diff.clean
        assert any("experiments differ" in s for s in diff.structural)

        fewer_rows = ResultSet.from_rows(
            "demo", "demo table", ["x", "left", "right"], [[1.0, 2.5, "a"]]
        )
        diff = diff_result_sets(_sample(), fewer_rows)
        assert any("row counts differ" in s for s in diff.structural)

        other_columns = ResultSet.from_rows(
            "demo", "demo table", ["x", "mid"], [[1.0, 2.5], [2.0, 1.0]]
        )
        diff = diff_result_sets(_sample(), other_columns)
        assert any("columns differ" in s for s in diff.structural)
        # shared columns still compare over the common rows
        assert diff.cells == 2

    def test_none_vs_value_is_infinite_drift(self):
        a = _sample()
        b = ResultSet.from_rows(
            "demo",
            "demo table",
            ["x", "left", "right"],
            [[1.0, 2.5, "a"], [2.0, 7.0, "b"]],
        )
        diff = diff_result_sets(a, b, tolerance=100.0)
        assert not diff.clean
        assert math.isinf(diff.max_drift)

    def test_string_mismatch_reported(self):
        b = ResultSet.from_rows(
            "demo",
            "demo table",
            ["x", "left", "right"],
            [[1.0, 2.5, "a"], [2.0, None, "ZZZ"]],
        )
        diff = diff_result_sets(_sample(), b, tolerance=1e9)
        assert len(diff.drifts) == 1
        assert diff.drifts[0].column == "right"

    def test_nan_cells_agree(self):
        a = ResultSet.from_rows("n", "n", ["v"], [[float("nan")]])
        b = ResultSet.from_rows("n", "n", ["v"], [[float("nan")]])
        assert diff_result_sets(a, b).clean

    def test_render_lists_drifts(self):
        diff = diff_result_sets(_sample(y=1.0), _sample(y=2.0))
        text = diff.render()
        assert "drift" in text
        assert "1/6 cells drifted" in text
