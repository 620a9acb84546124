"""The public surface: every exported name resolves, every definition has
a caller, and no test ships.

A stale re-export (a name left in ``__all__`` after its definition was
deleted or moved) breaks ``from repro import *`` for every user; a
function that no program calls is surface to keep green for nothing;
the reference models the tests compare against live under ``tests/``
and must never be pulled in by importing the package.
"""

from __future__ import annotations

import ast
import collections
import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGES = ("repro",) + tuple(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)

#: Definitions no program calls, kept on purpose: name -> reason.
KEPT = {
    # observation points: accessors of a few lines that tests read state
    # through instead of private fields
    "heartbeats_sent": "test observation point (AdaptiveBroadcast)",
    "build_plan": "test observation point (adaptive and optimal plans)",
    "distortion_of": "test observation point (VectorView)",
    "link_distortion": "test observation point (VectorView)",
    "proc_map_interval": "test observation point (VectorView)",
    "link_map_interval": "test observation point (VectorView)",
    "buffered_ids": "test observation point (KVReplica hold-back buffer)",
    "policy_triple": "test observation point (MembershipParams)",
    "age_of": "test observation point (PeerSampler)",
    "active_broadcasts": "test observation point (GossipBroadcast)",
    "applied_events": "test observation point (DynamicsDriver)",
    "broadcast_ids": "test observation point (BroadcastMonitor)",
    "all_fully_delivered": "test observation point (BroadcastMonitor)",
    "completion_time": "test observation point (BroadcastMonitor)",
    "timer_active": "test observation point (SimProcess)",
    "cancel_periodic": "test observation point (SimProcess)",
    # input builders the tests construct graphs and trees with
    "with_links": "test input builder (Graph)",
    "from_links": "test input builder (SpanningTree)",
    # named by open ROADMAP items
    "plan_signature": "ROADMAP items 3 and 8: the plan-change event",
    "sent_on": "ROADMAP item 1: per-link ground truth (MessageStats)",
    "per_link_sent": "ROADMAP item 1: per-link ground truth (MessageStats)",
}


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _definitions(tree):
    """Every function, class and method defined at module or class level."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node)


def test_every_definition_has_a_caller():
    """A name counts as called when a word in a program file outside
    ``__init__.py`` (``src/``, ``examples/``, ``perf/``) spells it, other
    than its own ``def``/``class`` line.  Tests are not callers: a name
    only they use belongs in ``tests/conformance/reference/`` or in
    :data:`KEPT`, with its reason.
    """
    defined = {}
    for path in _python_files(os.path.join(ROOT, "src", "repro")):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for name in _definitions(tree):
            if not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, os.path.relpath(path, ROOT))

    words = collections.Counter()
    definitions = collections.Counter()
    for top in ("src", "examples", "perf"):
        for path in _python_files(os.path.join(ROOT, top)):
            if os.path.basename(path) == "__init__.py":
                continue
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
            words.update(re.findall(r"\w+", source))
            definitions.update(_definitions(ast.parse(source)))

    uncalled = sorted(
        f"{path}: {name}"
        for name, path in defined.items()
        if words[name] <= definitions[name] and name not in KEPT
    )
    assert uncalled == []
    stale = sorted(name for name in KEPT if words[name] > definitions[name])
    assert stale == [], "KEPT names that now have a caller"


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
