"""Append-only JSONL store of experiment :class:`ResultSet` records.

One line per run.  The format is deliberately boring:

* **append-only** — a run is one ``json.dumps`` line written with a
  single ``write`` on an ``O_APPEND`` descriptor and fsynced (under an
  advisory ``flock`` where available, so concurrent appends also get
  distinct sequence numbers), and a crash can at worst truncate the
  final line;
* **torn-write tolerant** — readers skip an undecodable trailing (or
  any malformed) line with a warning instead of crashing, so a store
  survives the exact failure its own append discipline permits;
* **greppable** — plain JSON lines, safe to inspect, filter or prune
  with standard shell tools.

Every appended run gets a ``run_id`` (``<experiment>-<seq>-<digest>``:
a monotone sequence number plus a content digest of the payload), which
is what ``repro results show/diff`` address runs by.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import Dict, List, Optional, Union

from repro.errors import ValidationError
from repro.results.schema import SCHEMA_VERSION, ResultSet
from repro.util.cache import content_key

#: Environment variable overriding the default store path.
STORE_PATH_ENV = "REPRO_RESULTS"

#: Default store file (relative to the current working directory).
DEFAULT_STORE_PATH = ".repro-results.jsonl"


def default_store_path() -> str:
    """Resolve the store path (env ``REPRO_RESULTS`` > default)."""
    return os.environ.get(STORE_PATH_ENV, DEFAULT_STORE_PATH)


def _digestable(value):
    """A content-key-safe stand-in for one result cell.

    ``content_key`` canonicalises with ``allow_nan=False``, but result
    cells may legitimately hold NaN/inf (a non-converging figure 5 run
    reports ``inf``); hash their reprs instead of crashing the append.
    """
    import math

    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


class ResultStore:
    """Durable, queryable collection of experiment runs.

    Example:
        >>> import tempfile, os
        >>> from repro.results.schema import ResultSet
        >>> store = ResultStore(os.path.join(tempfile.mkdtemp(), "r.jsonl"))
        >>> rs = ResultSet.from_rows("demo", "demo", ["x", "y"], [[1.0, 2.0]])
        >>> stored = store.append(rs)
        >>> store.query(experiment="demo")[0].rows == rs.rows
        True
    """

    def __init__(self, path: Optional[str] = None) -> None:
        # no filesystem side effects here: read-only commands must not
        # create directories, and a bad path should fail on use (or via
        # check_writable), not on construction
        self._path = path or default_store_path()

    @property
    def path(self) -> str:
        return self._path

    def check_writable(self) -> "ResultStore":
        """Fail fast (OSError) if appends to this store cannot succeed.

        Creates the parent directory and opens the file for append —
        callers about to spend real compute (``repro experiments run``)
        use this so an unwritable ``--store`` path errors *before* the
        trials burn, not after.
        """
        self._prepare_parent()
        os.close(os.open(self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644))
        return self

    def _prepare_parent(self) -> None:
        parent = os.path.dirname(self._path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def discard_probe_residue(self) -> None:
        """Undo a :meth:`check_writable` probe whose run later aborted.

        Removes the store file only if it is empty (no run was ever
        recorded) along with any now-empty parent directories the probe
        created — a failed run must not litter the filesystem.
        """
        try:
            if os.path.exists(self._path) and os.path.getsize(self._path) == 0:
                os.unlink(self._path)
                parent = os.path.dirname(self._path)
                if parent:
                    os.removedirs(parent)
        except OSError:
            pass  # parent shared with other files, or already gone

    # -- writing ----------------------------------------------------------------------

    def append(self, result: ResultSet) -> ResultSet:
        """Persist one run; returns the result stamped with its ``run_id``.

        The line is serialised fully before the file is touched and
        written with one ``os.write`` on an append-mode descriptor, so
        a crash mid-append can only ever truncate the last line — which
        readers skip — never corrupt earlier runs.  An advisory
        ``flock`` (where the platform has one) serialises the
        sequence-number read against concurrent appenders, so two
        processes sharing a store never mint the same ``run_id``.
        """
        from dataclasses import replace

        payload = result.to_json()
        digest = content_key(
            {
                "rows": [
                    [_digestable(value) for value in row]
                    for row in payload["rows"]
                ],
                "columns": payload["columns"],
            }
        )[:8]
        self._prepare_parent()
        fd = os.open(
            self._path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            self._lock(fd)
            sequence = self._next_sequence()
            stamped = replace(
                result, run_id=f"{result.experiment}-{sequence:04d}-{digest}"
            )
            line = json.dumps(stamped.to_json(), sort_keys=True) + "\n"
            if self._missing_trailing_newline(fd):
                # an earlier append was torn mid-line; start on a fresh
                # line so the new record never merges into the corrupt
                # tail (the tail counts as a line, keeping ids unique)
                line = "\n" + line
            os.write(fd, line.encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)  # releases the flock
        return stamped

    @staticmethod
    def _lock(fd: int) -> None:
        try:
            import fcntl

            fcntl.flock(fd, fcntl.LOCK_EX)
        except (ImportError, OSError):
            pass  # no advisory locking on this platform/filesystem

    def _next_sequence(self) -> int:
        """One past the highest sequence already minted in the file.

        A raw line scan (regex, no JSON parsing) so appends stay cheap.
        Taking ``max(existing sequences, line count)`` keeps ids unique
        even after earlier lines were shell-pruned — a bare line count
        would re-mint a surviving record's sequence number.
        """
        import re

        pattern = re.compile(rb'"run_id":\s*"[^"]*-(\d+)-[0-9a-f]+"')
        highest = 0
        lines = 0
        try:
            with open(self._path, "rb") as fh:
                for line in fh:
                    lines += 1
                    match = pattern.search(line)
                    if match:
                        highest = max(highest, int(match.group(1)))
        except OSError:
            pass
        return max(highest, lines) + 1

    @staticmethod
    def _missing_trailing_newline(fd: int) -> bool:
        if os.lseek(fd, 0, os.SEEK_END) == 0:
            return False
        os.lseek(fd, -1, os.SEEK_END)
        return os.read(fd, 1) != b"\n"

    # -- reading ----------------------------------------------------------------------

    def _raw_records(self, warn: bool = True) -> List[Dict]:
        if not os.path.exists(self._path):
            return []
        records: List[Dict] = []
        with open(self._path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    if warn:
                        warnings.warn(
                            f"skipping corrupt record at {self._path}:"
                            f"{number} (torn write?)",
                            stacklevel=3,
                        )
                    continue
                if not isinstance(payload, dict):
                    if warn:
                        warnings.warn(
                            f"skipping non-object record at {self._path}:"
                            f"{number}",
                            stacklevel=3,
                        )
                    continue
                try:
                    provenance = payload.get("provenance") or {}
                    schema = int(
                        provenance.get("schema_version", SCHEMA_VERSION)
                    )
                except (AttributeError, TypeError, ValueError):
                    if warn:
                        warnings.warn(
                            f"skipping malformed record at {self._path}:"
                            f"{number}",
                            stacklevel=3,
                        )
                    continue
                if schema > SCHEMA_VERSION:
                    if warn:
                        warnings.warn(
                            f"skipping record at {self._path}:{number} "
                            f"written by a newer schema ({schema} > "
                            f"{SCHEMA_VERSION})",
                            stacklevel=3,
                        )
                    continue
                records.append(payload)
        return records

    def load(self) -> List[ResultSet]:
        """Every readable run, in append order.

        A record that parses as JSON but no longer has a ResultSet's
        shape (the docstring invites shell-tool editing) is skipped
        with a warning like any other damaged line — readers never
        crash on store contents.
        """
        results: List[ResultSet] = []
        for payload in self._raw_records():
            try:
                results.append(ResultSet.from_json(payload))
            except Exception:  # noqa: BLE001 — damaged records degrade, not crash
                warnings.warn(
                    f"skipping record with unexpected shape in {self._path} "
                    f"(run_id {payload.get('run_id')!r})",
                    stacklevel=2,
                )
        return results

    def __len__(self) -> int:
        return len(self._raw_records(warn=False))

    def query(
        self,
        experiment: Optional[str] = None,
        scale: Optional[str] = None,
        run_id: Optional[str] = None,
        since: Optional[str] = None,
        until: Optional[str] = None,
        last: Optional[int] = None,
    ) -> List[ResultSet]:
        """Filter stored runs; all criteria are ANDed, order preserved.

        Args:
            experiment: canonical experiment name (resolve aliases with
                the experiment registry before querying).
            scale: provenance scale preset name.
            run_id: exact run id.
            since / until: ISO-8601 bounds on ``provenance.created_at``
                (inclusive; lexicographic comparison is chronological
                for the store's UTC timestamps).
            last: keep only the N most recent matches.
        """
        results = self.load()
        if experiment is not None:
            results = [r for r in results if r.experiment == experiment]
        if scale is not None:
            results = [
                r
                for r in results
                if r.provenance is not None and r.provenance.scale == scale
            ]
        if run_id is not None:
            results = [r for r in results if r.run_id == run_id]
        if since is not None:
            results = [
                r
                for r in results
                if r.provenance is not None
                and r.provenance.created_at is not None
                and r.provenance.created_at >= since
            ]
        if until is not None:
            results = [
                r
                for r in results
                if r.provenance is not None
                and r.provenance.created_at is not None
                and r.provenance.created_at <= until
            ]
        if last is not None:
            if last < 1:
                raise ValidationError(f"last must be >= 1, got {last}")
            results = results[-last:]
        return results

    def get(self, run_id: str) -> ResultSet:
        """The run with this exact id; raises with the known ids on a miss."""
        results = self.load()
        for result in results:
            if result.run_id == run_id:
                return result
        known = [r.run_id for r in results if r.run_id]
        raise ValidationError(
            f"no run {run_id!r} in {self._path} "
            f"(known: {', '.join(known[-10:]) or 'none'})"
        )

    def latest(
        self, experiment: Optional[str] = None, count: int = 1
    ) -> List[ResultSet]:
        """The ``count`` most recent runs (optionally of one experiment)."""
        return self.query(experiment=experiment, last=count)

    # -- exporting --------------------------------------------------------------------

    def export_json(self, experiment: Optional[str] = None) -> str:
        """:func:`results_json` of the matching runs."""
        return results_json(self.query(experiment=experiment))

    def export_csv(self, experiment: Optional[str] = None) -> str:
        """:func:`results_csv` of the matching runs."""
        return results_csv(self.query(experiment=experiment))


def results_json(results: List[ResultSet]) -> str:
    """Runs as a JSON array (full records, provenance included)."""
    return json.dumps([r.to_json() for r in results], indent=2, sort_keys=True)


def results_csv(results: List[ResultSet]) -> str:
    """Runs as one flat CSV.

    Each data row is prefixed with ``run_id``, ``experiment`` and
    ``scale`` so rows from different runs stay distinguishable; the
    data columns are the union of the runs' columns (gaps stay empty),
    which keeps mixed-experiment exports loadable.
    """
    import csv
    import io

    data_columns: List[str] = []
    for result in results:
        for column in result.columns:
            if column not in data_columns:
                data_columns.append(column)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["run_id", "experiment", "scale"] + data_columns)
    for result in results:
        scale = result.provenance.scale if result.provenance else ""
        for row in result.rows:
            cells = row.as_dict()
            writer.writerow(
                [result.run_id or "", result.experiment, scale]
                + [
                    "" if cells.get(c) is None else cells.get(c)
                    for c in data_columns
                ]
            )
    return out.getvalue()


DiffSource = Union[ResultSet, str]


def resolve_result(
    source: DiffSource, store: Optional[ResultStore] = None
) -> ResultSet:
    """A :class:`ResultSet` as-is, or a run id looked up in ``store``.

    A run-id string with no store is an error — silently reading the
    default store a caller explicitly opted out of could diff against
    unintended data.
    """
    if isinstance(source, ResultSet):
        return source
    if store is None:
        raise ValidationError(
            f"resolving run id {str(source)!r} needs a results store; "
            "pass store=True, a path, or a ResultStore"
        )
    return store.get(str(source))
