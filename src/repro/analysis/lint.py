"""Determinism lint engine: walk, parse, check, suppress, report.

This is the driver behind ``repro lint`` and :func:`repro.api.lint_paths`.
The rules themselves live in :mod:`repro.analysis.rules`; this module
handles everything around them:

* walking file/directory arguments into a sorted ``.py`` file list,
* parsing each module (syntax errors surface as ``D000`` violations so
  a broken file fails the gate instead of silently passing),
* running every registered rule over the module,
* dropping violations suppressed in place with
  ``# repro: noqa-det[DXXX]`` (or ``noqa-det[D001,D004]``) on the
  flagged line, and
* returning violations in stable ``(path, line, col, code)`` order.

The engine is pure: no I/O besides reading the files it is pointed at,
and deterministic output for deterministic input — it is itself held to
the contract it enforces.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import ValidationError

from .rules import RULE_CODES, RULES, ModuleContext, Violation

__all__ = [
    "lint_file",
    "lint_paths",
    "lint_source",
    "iter_python_files",
]

#: In-line suppression: ``# repro: noqa-det[D001]`` / ``[D001,D002]``.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa-det\[([A-Z0-9,\s]+)\]")

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def _select_codes(select: Optional[Iterable[str]]) -> Set[str]:
    if select is None:
        return set(RULE_CODES)
    codes = {code.strip().upper() for code in select if code.strip()}
    unknown = codes - set(RULE_CODES) - {"D000"}
    if unknown:
        raise ValidationError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}; "
            f"known codes: {', '.join(RULE_CODES)}"
        )
    return codes


def _suppressions(source: str) -> dict:
    """line number -> set of suppressed codes, from noqa-det comments."""
    suppressed: dict = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match:
            suppressed[lineno] = {
                code.strip().upper()
                for code in match.group(1).split(",")
                if code.strip()
            }
    return suppressed


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one module's source text; returns sorted violations."""
    codes = _select_codes(select)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Violation(
                path,
                exc.lineno or 1,
                (exc.offset or 1) - 1,
                "D000",
                f"syntax error: {exc.msg} (unparseable files cannot be "
                "certified deterministic)",
            )
        ]
    ctx = ModuleContext(path, tree)
    suppressed = _suppressions(source)
    violations: List[Violation] = []
    for code, _summary, check in RULES:
        if code not in codes:
            continue
        for violation in check(ctx):
            if violation.code in suppressed.get(violation.line, ()):
                continue
            violations.append(violation)
    violations.sort(key=lambda v: v.sort_key)
    return violations


def lint_file(
    path: str, *, select: Optional[Iterable[str]] = None
) -> List[Violation]:
    """Lint one file on disk; returns sorted violations."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path, select=select)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand file/directory arguments into a sorted list of .py files."""
    found: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for filename in filenames:
                    if filename.endswith(".py"):
                        found.add(os.path.join(dirpath, filename))
        elif path.endswith(".py") or os.path.isfile(path):
            found.add(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    missing = [p for p in sorted(found) if not os.path.isfile(p)]
    if missing:
        raise FileNotFoundError(
            f"no such file: {', '.join(sorted(missing))}"
        )
    return sorted(found)


def lint_paths(
    paths: Sequence[str],
    *,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint files and directory trees; returns all sorted violations.

    This is the programmatic entry point re-exported as
    ``repro.api.lint_paths``; ``repro lint`` is a thin CLI wrapper that
    prints ``Violation.format()`` lines and exits 1 when any survive.
    """
    violations: List[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path, select=select))
    violations.sort(key=lambda v: v.sort_key)
    return violations


def format_report(violations: Sequence[Violation]) -> Tuple[str, int]:
    """Human-readable report plus suggested process exit code."""
    if not violations:
        return ("determinism lint: clean", 0)
    lines = [violation.format() for violation in violations]
    lines.append(
        f"determinism lint: {len(violations)} violation"
        f"{'s' if len(violations) != 1 else ''}"
    )
    return ("\n".join(lines), 1)
