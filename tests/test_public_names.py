"""The public surface: every exported name resolves, and no test ships.

A stale re-export (a name left in ``__all__`` after its definition was
deleted or moved) breaks ``from repro import *`` for every user; the
reference models the tests compare against live under ``tests/`` and
must never be pulled in by importing the package.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGES = ("repro", "repro.core", "repro.sim", "repro.util", "repro.analysis")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = list(module.__all__)
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


def test_importing_the_package_loads_no_test_module():
    """Run in a fresh interpreter whose path could reach ``tests``."""
    probe = (
        "import os, sys\n"
        f"import {', '.join(PACKAGES)}\n"
        f"tests_dir = os.path.join({ROOT!r}, 'tests')\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    path = getattr(module, '__file__', None) or ''\n"
        "    if name.split('.')[0] == 'tests' or path.startswith(tests_dir):\n"
        "        print(name)\n"
    )
    path = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == ""
