"""Typed experiment results: :class:`ResultSet` rows with provenance.

Every registered experiment (see :mod:`repro.experiments.registry`)
aggregates its campaign trials into a :class:`ResultSet` — an ordered,
column-named table of scalar cells plus a :class:`Provenance` record
capturing *how* the numbers were produced: experiment and paper
artefact, scale preset, parameter overrides, the seed-derivation policy,
package version, a best-effort ``git describe`` of the working tree, and
the results schema version.

Result sets are durable data, not rendered text: they round-trip
losslessly through JSON (the :class:`~repro.results.store.ResultStore`
persists them as JSONL), export to CSV, and diff cell-by-cell with a
numeric tolerance — which is what makes run-to-run regression checks
(``repro results diff``) possible at all.

:meth:`ResultSet.render` feeds the columns and rows to
:func:`repro.util.tables.render_table`, so a stored result prints
exactly the table its run printed.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ValidationError
from repro.util import jsonio
from repro.util.tables import render_table

#: Version of the on-disk result schema.  Bump when the JSON layout of
#: :class:`ResultSet`/:class:`Provenance` changes incompatibly; the
#: store refuses to silently mix schema generations (readers warn and
#: skip newer-schema records instead of misinterpreting them).
SCHEMA_VERSION = 1

#: The scalar types a result cell may hold.
Cell = Union[float, int, str, None]

#: Seed-derivation policy marker recorded in provenance: every built-in
#: experiment derives all trial seeds deterministically from the
#: (experiment, scale, params) triple, so the triple *is* the seed.
DERIVED_SEED_POLICY = "derived:experiment-scale-params"


@functools.lru_cache(maxsize=None)
def _git_describe() -> Optional[str]:
    """Best-effort ``git describe`` of the *repro source tree*.

    Runs in the package's own directory — never the process CWD, which
    may be some unrelated repository whose commit would then be stamped
    into provenance.  Installed (non-checkout) packages yield None.

    Computed once per process: the code a process runs is the code it
    imported, so the first answer (``None`` included) is the truthful
    one for every later capture, and a sweep of N runs forks once.
    """
    import repro

    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(repro.__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _utc_now() -> str:
    import time

    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass(frozen=True)
class Provenance:
    """How a :class:`ResultSet` was produced.

    Attributes:
        experiment: canonical experiment name (``figure4a``).
        artefact: the paper artefact the experiment regenerates
            (``"Figure 4(a)"``).
        scale: sizing preset name the run used.
        params: experiment parameter overrides, JSON-able.
        seed: seed-derivation policy (:data:`DERIVED_SEED_POLICY` for
            all built-ins — trial seeds are pure functions of the
            parameterisation, never wall-clock entropy).
        repro_version: the package version that computed the numbers.
        schema_version: results schema generation (:data:`SCHEMA_VERSION`).
        git: best-effort ``git describe`` of the source tree, or None.
        created_at: UTC ISO-8601 timestamp (ignored by ``diff``).
        rng_ledger: optional per-labelled-stream RNG draw counts from a
            campaign run with the draw ledger enabled (``--rng-ledger``);
            None when the run was unledgered.  ``diff`` compares ledgers
            when both sides carry one, attributing a drift to the exact
            stream whose draw count diverged.
        execution: optional execution-backend record (backend name,
            worker count, per-shard attempts and executed-vs-cached
            counts) from a sharded campaign; None for serial runs.
            Purely informational — ``diff`` never compares it,
            because any backend must produce bit-identical rows.
    """

    experiment: str
    artefact: str = ""
    scale: str = ""
    params: Mapping[str, object] = field(default_factory=dict)
    seed: str = DERIVED_SEED_POLICY
    repro_version: str = ""
    schema_version: int = SCHEMA_VERSION
    git: Optional[str] = None
    created_at: Optional[str] = None
    # only ledgered runs carry the key, and only sharded runs the backend
    # record, so other provenance JSON stays byte-identical to earlier builds
    rng_ledger: Optional[Mapping[str, int]] = field(
        default=None, metadata=jsonio.OMIT_NONE
    )
    execution: Optional[Mapping[str, object]] = field(
        default=None, metadata=jsonio.OMIT_NONE
    )

    @classmethod
    def capture(
        cls,
        experiment: str,
        artefact: str = "",
        scale: str = "",
        params: Optional[Mapping[str, object]] = None,
        rng_ledger: Optional[Mapping[str, int]] = None,
        execution: Optional[Mapping[str, object]] = None,
    ) -> "Provenance":
        """Build a provenance record stamped with the ambient environment."""
        from repro import __version__

        return cls(
            experiment=experiment,
            artefact=artefact,
            scale=scale,
            params=dict(params or {}),
            repro_version=__version__,
            git=_git_describe(),
            created_at=_utc_now(),
            rng_ledger=(
                None
                if rng_ledger is None
                else {key: int(rng_ledger[key]) for key in sorted(rng_ledger)}
            ),
            execution=None if execution is None else dict(execution),
        )


def _check_cell(column: str, value: object) -> Cell:
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, bool):
        raise ValidationError(
            f"result cell {column!r} holds a bool; use 0.0/1.0"
        )
    if isinstance(value, (int, float)):
        return value
    raise ValidationError(
        f"result cell {column!r} holds {type(value).__name__}; "
        "cells must be float, int, str or None"
    )


@dataclass(frozen=True)
class ResultRow:
    """One row of a :class:`ResultSet`: ordered ``(column, value)`` cells."""

    cells: Tuple[Tuple[str, Cell], ...]

    @classmethod
    def make(cls, columns: Sequence[str], values: Sequence[Cell]) -> "ResultRow":
        if len(columns) != len(values):
            raise ValidationError(
                f"row has {len(values)} cells, expected {len(columns)}"
            )
        return cls(
            cells=tuple(
                (str(column), _check_cell(column, value))
                for column, value in zip(columns, values)
            )
        )

    def get(self, column: str) -> Cell:
        for name, value in self.cells:
            if name == column:
                return value
        raise ValidationError(
            f"row has no column {column!r} "
            f"(columns: {', '.join(n for n, _ in self.cells)})"
        )

    def values(self) -> Tuple[Cell, ...]:
        return tuple(value for _, value in self.cells)

    def as_dict(self) -> Dict[str, Cell]:
        return dict(self.cells)


@dataclass(frozen=True)
class ResultSet:
    """A queryable experiment result: typed rows + provenance.

    The one table type every experiment produces.  Figure-shaped
    experiments (:meth:`from_curves`) carry an ``x_label`` naming their
    first column; flat tables (Table 1) leave ``x_label`` as None.

    ``run_id`` is assigned by the :class:`~repro.results.store.ResultStore`
    on append and is None for in-memory result sets.
    """

    experiment: str
    title: str
    columns: Tuple[str, ...]
    rows: Tuple[ResultRow, ...]
    x_label: Optional[str] = None
    provenance: Optional[Provenance] = None
    run_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValidationError("a ResultSet needs at least one column")
        for row in self.rows:
            if tuple(name for name, _ in row.cells) != self.columns:
                raise ValidationError(
                    f"row columns {[n for n, _ in row.cells]} do not match "
                    f"the result set's columns {list(self.columns)}"
                )

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        experiment: str,
        title: str,
        columns: Sequence[str],
        rows: Sequence[Sequence[Cell]],
        x_label: Optional[str] = None,
    ) -> "ResultSet":
        return cls(
            experiment=experiment,
            title=title,
            columns=tuple(str(c) for c in columns),
            rows=tuple(ResultRow.make(columns, row) for row in rows),
            x_label=x_label,
        )

    @classmethod
    def from_curves(
        cls,
        experiment: str,
        title: str,
        x_label: str,
        curves: Sequence[Tuple[str, Mapping[float, Optional[float]]]],
    ) -> "ResultSet":
        """A figure-shaped result set from ``(name, {x: y})`` curves.

        One row per distinct x in ascending order (cast to float), one
        column per curve in the given order, None where a curve has no
        point at that x.
        """
        xs = sorted({float(x) for _, points in curves for x in points})
        rows = [
            [x]
            + [
                None if points.get(x) is None else float(points[x])
                for _, points in curves
            ]
            for x in xs
        ]
        return cls.from_rows(
            experiment,
            title,
            [x_label] + [name for name, _ in curves],
            rows,
            x_label=x_label,
        )

    # -- views ------------------------------------------------------------------------

    def column(self, name: str) -> List[Cell]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise ValidationError(
                f"result set has no column {name!r} "
                f"(columns: {', '.join(self.columns)})"
            )
        return [row.get(name) for row in self.rows]

    def render(self, precision: int = 4) -> str:
        """The boxed ASCII table ``repro`` prints for this result."""
        return render_table(
            list(self.columns),
            [list(row.values()) for row in self.rows],
            title=self.title,
            precision=precision,
        )

    def __str__(self) -> str:
        return self.render()

    # -- serialisation ----------------------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "title": self.title,
            "columns": list(self.columns),
            "x_label": self.x_label,
            "rows": [list(row.values()) for row in self.rows],
            "provenance": jsonio.encode(self.provenance),
            "run_id": self.run_id,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ResultSet":
        columns = [str(c) for c in payload["columns"]]  # type: ignore[index]
        provenance = payload.get("provenance")
        result = cls.from_rows(
            experiment=str(payload["experiment"]),
            title=str(payload["title"]),
            columns=columns,
            rows=list(payload["rows"]),  # type: ignore[arg-type]
            x_label=payload.get("x_label"),  # type: ignore[arg-type]
        )
        return replace(
            result,
            provenance=(
                None
                if provenance is None
                else jsonio.decode(Provenance, provenance, "provenance")
            ),
            run_id=payload.get("run_id"),  # type: ignore[arg-type]
        )

# -- diffing --------------------------------------------------------------------------


@dataclass(frozen=True)
class CellDrift:
    """One cell whose values differ beyond the tolerance."""

    row: int
    column: str
    a: Cell
    b: Cell
    drift: float  # |a - b| for numeric cells, inf for type/str mismatches

    def describe(self) -> str:
        return (
            f"row {self.row}, column {self.column!r}: "
            f"{self.a!r} != {self.b!r} (drift {self.drift:g})"
        )


@dataclass(frozen=True)
class ResultDiff:
    """Outcome of comparing two result sets cell-by-cell.

    ``clean`` means the runs agree: no structural mismatch and every
    numeric cell within ``tolerance``.  Provenance metadata (timestamps,
    git state, run ids) never participates in the comparison — two
    bit-identical re-runs of the same experiment diff clean.  The one
    exception is the RNG draw ledger: when *both* sides carry one, the
    per-stream draw counts are compared and any divergence is reported
    in :attr:`ledger`, naming the exact labelled stream that drifted
    (one side ledgered and the other not is not a mismatch).
    """

    experiment: str
    a_id: Optional[str]
    b_id: Optional[str]
    tolerance: float
    structural: Tuple[str, ...] = ()
    drifts: Tuple[CellDrift, ...] = ()
    cells: int = 0
    ledger: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.structural and not self.drifts and not self.ledger

    @property
    def max_drift(self) -> float:
        finite = [d.drift for d in self.drifts if math.isfinite(d.drift)]
        if any(not math.isfinite(d.drift) for d in self.drifts):
            return math.inf
        return max(finite) if finite else 0.0

    def render(self) -> str:
        label = (
            f"{self.experiment}: {self.a_id or '(in-memory)'} vs "
            f"{self.b_id or '(in-memory)'} (tolerance {self.tolerance:g})"
        )
        if self.clean:
            return (
                f"{label}\n  zero drift: {self.cells} cells compared, "
                "all within tolerance"
            )
        lines = [label]
        for note in self.structural:
            lines.append(f"  structural: {note}")
        for note in self.ledger:
            lines.append(f"  rng-ledger: {note}")
        for drift in self.drifts:
            lines.append(f"  drift: {drift.describe()}")
        if self.drifts:
            lines.append(
                f"  {len(self.drifts)}/{self.cells} cells drifted "
                f"(max drift {self.max_drift:g})"
            )
        return "\n".join(lines)


def _cell_drift(row: int, column: str, a: Cell, b: Cell, tolerance: float):
    """None if the cells agree within tolerance, else a CellDrift."""
    if a is None or b is None:
        if a is b:
            return None
        return CellDrift(row, column, a, b, math.inf)
    if isinstance(a, str) or isinstance(b, str):
        if isinstance(a, str) and isinstance(b, str) and a == b:
            return None
        return CellDrift(row, column, a, b, math.inf)
    fa, fb = float(a), float(b)
    if math.isnan(fa) and math.isnan(fb):
        return None
    if fa == fb:  # covers equal infinities, whose subtraction is NaN
        return None
    drift = abs(fa - fb)
    if math.isnan(drift) or drift > tolerance:
        return CellDrift(row, column, a, b, drift)
    return None


def diff_result_sets(
    a: ResultSet, b: ResultSet, tolerance: float = 0.0
) -> ResultDiff:
    """Compare two result sets cell-by-cell with a numeric tolerance.

    Args:
        tolerance: maximum allowed absolute difference per numeric cell
            (``0.0`` demands bit-identical floats — the determinism
            gate).  String cells and None gaps must match exactly; a
            numeric-vs-string or value-vs-None mismatch is reported with
            infinite drift.

    Structural differences (experiment name, columns, row count) are
    reported as such; cells are only compared over the common row
    prefix and shared columns.
    """
    if tolerance < 0.0:
        raise ValidationError(f"tolerance must be >= 0, got {tolerance}")
    structural: List[str] = []
    if a.experiment != b.experiment:
        structural.append(
            f"experiments differ: {a.experiment!r} vs {b.experiment!r}"
        )
    if a.columns != b.columns:
        structural.append(
            f"columns differ: {list(a.columns)} vs {list(b.columns)}"
        )
    if len(a.rows) != len(b.rows):
        structural.append(f"row counts differ: {len(a.rows)} vs {len(b.rows)}")
    if (
        a.provenance is not None
        and b.provenance is not None
        and a.provenance.scale != b.provenance.scale
    ):
        structural.append(
            f"scales differ: {a.provenance.scale!r} vs {b.provenance.scale!r}"
        )

    ledger_notes: List[str] = []
    ledger_a = a.provenance.rng_ledger if a.provenance is not None else None
    ledger_b = b.provenance.rng_ledger if b.provenance is not None else None
    if ledger_a is not None and ledger_b is not None and ledger_a != ledger_b:
        diverged = sorted(
            stream
            for stream in set(ledger_a) | set(ledger_b)
            if ledger_a.get(stream) != ledger_b.get(stream)
        )
        shown = diverged[:20]
        for stream in shown:
            count_a = ledger_a.get(stream)
            count_b = ledger_b.get(stream)
            ledger_notes.append(
                f"stream {stream!r} drew "
                f"{'-' if count_a is None else count_a} vs "
                f"{'-' if count_b is None else count_b}"
            )
        if len(diverged) > len(shown):
            ledger_notes.append(
                f"... and {len(diverged) - len(shown)} more diverging streams"
            )

    shared_columns = [c for c in a.columns if c in b.columns]
    drifts: List[CellDrift] = []
    cells = 0
    for index, (row_a, row_b) in enumerate(zip(a.rows, b.rows)):
        for column in shared_columns:
            cells += 1
            drift = _cell_drift(
                index, column, row_a.get(column), row_b.get(column), tolerance
            )
            if drift is not None:
                drifts.append(drift)
    return ResultDiff(
        experiment=a.experiment,
        a_id=a.run_id,
        b_id=b.run_id,
        tolerance=tolerance,
        structural=tuple(structural),
        drifts=tuple(drifts),
        cells=cells,
        ledger=tuple(ledger_notes),
    )
