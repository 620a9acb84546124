"""The public surface: every exported name resolves, every definition is
reached from a program, and no test ships.

A stale re-export (a name left in ``__all__`` after its definition was
deleted or moved) breaks ``from repro import *`` for every user; a
function that no program reaches is surface to keep green for nothing;
the reference models the tests compare against live under ``tests/``
and must never be pulled in by importing the package.

Reaching is read off code, never off prose.  The roots are the
module-level statements of ``src/repro`` (not import lines or
``__all__``: a re-export is not a caller), the ``__all__`` of
:mod:`repro.api`, all of ``examples/`` and ``perf/``, and the
:data:`KEPT` names.  A definition is reached when reached code spells
its name outside a docstring, and the walk repeats until nothing new is
reached; :func:`test_every_definition_has_a_caller` has the details.
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
import textwrap

import pytest

import repro
import repro.api

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
    # input builders the tests construct graphs and trees with
    "with_links": "test input builder (Graph)",
    "from_links": "test input builder (SpanningTree)",
    # named by open ROADMAP items
    "plan_signature": "ROADMAP items 4(a) and 8: the plan-change event",
    "sent_on": "ROADMAP item 1: per-link ground truth (MessageStats)",
    "per_link_sent": "ROADMAP item 1: per-link ground truth (MessageStats)",
}


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read())


def _is_definition(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_prose(node):
    """A bare string statement: a docstring, or a comment written as one."""
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _is_export(node):
    """An import line or an ``__all__`` assignment: a re-export, not a call."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    targets = ()
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = (node.target,)
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _spelled(node, skip=lambda node: False):
    """The names ``node``'s code spells: identifiers, attributes, import
    aliases, keyword arguments and the words of string constants, minus
    prose and any subtree ``skip`` accepts."""
    names = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if _is_prose(node) or skip(node):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(re.findall(r"\w+", node.name))
            names.add(node.asname)
        elif isinstance(node, ast.keyword):
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
        stack.extend(ast.iter_child_nodes(node))
    return names


class _Definition:
    """A module- or class-level function or class and the code it runs."""

    def __init__(self, path, node, qualname):
        self.path, self.node, self.qualname = path, node, qualname

    def __str__(self):
        return f"{self.path}:{self.node.lineno} {self.qualname}"

    def spells(self):
        node = self.node
        if not isinstance(node, ast.ClassDef):
            return _spelled(node)
        # a class runs its bases, decorators and body statements, and
        # brings its dunder methods; its other methods are reached alone
        code = [*node.bases, *node.keywords, *node.decorator_list] + [
            n for n in node.body if not _is_definition(n) or _is_dunder(n.name)
        ]
        return set().union(*map(_spelled, code))


def _definitions(path, body, prefix=""):
    for node in body:
        if _is_definition(node) and not _is_dunder(node.name):
            yield _Definition(path, node, prefix + node.name)
            if isinstance(node, ast.ClassDef):
                yield from _definitions(path, node.body, f"{prefix}{node.name}.")


def _reach(by_name, spelled, reached):
    """Walk from the names ``spelled`` until nothing new is reached; add
    every definition reached to ``reached`` and return the names seen."""
    seen = set()
    todo = set(spelled)
    while todo:
        name = todo.pop()
        seen.add(name)
        for definition in by_name.get(name, ()):
            if definition not in reached:
                reached.add(definition)
                todo |= definition.spells() - seen
    return seen


def _unreached(package, programs, roots=(), kept=()):
    """Walk the reaching rule over ``package``, the ``(path, module)``
    pairs under guard, from the module-level statements of ``package``,
    every line of the ``programs`` modules, the names ``roots`` and the
    names ``kept``.

    Returns the definitions left unreached, as ``path:line name``, and
    the ``kept`` names that are stale: reached without being kept, or
    defined nowhere.
    """
    by_name = collections.defaultdict(list)
    roots = set(roots)
    for path, tree in package:
        for definition in _definitions(path, tree.body):
            by_name[definition.node.name].append(definition)
        for node in tree.body:
            if not _is_definition(node):
                roots |= _spelled(node, _is_export)
    for tree in programs:
        roots |= _spelled(tree)

    reached = set()
    seen = _reach(by_name, roots, reached)
    stale = sorted(name for name in kept if name in seen or name not in by_name)
    _reach(by_name, set(kept) - seen, reached)
    unreached = sorted(
        str(d) for defs in by_name.values() for d in defs if d not in reached
    )
    return unreached, stale


def test_every_definition_has_a_caller():
    """Every definition under ``src/repro`` is reached from a program.

    The roots are the module-level statements of every file under
    ``src/repro`` (not its import lines or ``__all__``: a re-export is not
    a caller), the ``__all__`` of :mod:`repro.api` (the facade's promise
    to user programs, which nothing inside the package calls), every
    line of ``examples/`` and ``perf/``, and the :data:`KEPT` names.

    A module- or class-level function or class is reached when reached
    code spells its name as an identifier, an attribute, an import
    alias, a keyword argument or a word of a string constant (so
    ``"module:function"`` task strings count); docstrings and other bare
    string statements are prose and never count.  A class brings its
    dunder methods with it.  The walk repeats until nothing new is
    reached, and each definition left is printed as ``path:line name``.

    Tests are not roots: a name only they use belongs in
    ``tests/conformance/reference/`` or in :data:`KEPT`, with its reason.
    """
    package = [
        (os.path.relpath(path, ROOT), _parse(path))
        for path in _python_files(os.path.join(ROOT, "src", "repro"))
    ]
    programs = [
        _parse(path)
        for top in ("examples", "perf")
        for path in _python_files(os.path.join(ROOT, top))
    ]
    unreached, stale = _unreached(package, programs, repro.api.__all__, KEPT)
    assert not unreached, "no program reaches:\n" + "\n".join(unreached)
    assert stale == [], "KEPT names that now have a caller or no definition"


def _walk(source, program="", roots=(), kept=()):
    """The reaching rule over one package module ``mod.py`` and one
    program: the unreached qualified names and the stale ``kept`` names."""
    package = [("mod.py", ast.parse(textwrap.dedent(source)))]
    unreached, stale = _unreached(
        package, [ast.parse(textwrap.dedent(program))], roots, kept
    )
    return [entry.split()[1] for entry in unreached], stale


#: (case, package module, program, names left unreached)
REACHING_CASES = [
    ("unspelled", "def f(): pass", "", ["f"]),
    ("module-level-call", "def f(): pass\nf()", "", []),
    ("import-line-is-not-a-caller", "from mod import f\ndef f(): pass", "", ["f"]),
    ("all-is-not-a-caller", "__all__ = ['f']\ndef f(): pass", "", ["f"]),
    (
        "all-extension-is-not-a-caller",
        "__all__ = []\n__all__ += ['f']\ndef f(): pass",
        "",
        ["f"],
    ),
    ("module-docstring-is-prose", '"""Call f() first."""\ndef f(): pass', "", ["f"]),
    (
        "function-docstring-is-prose",
        'def g():\n    """Like f."""\n    return 1\ng()\ndef f(): pass',
        "",
        ["f"],
    ),
    (
        "bare-string-statement-is-prose",
        'def g():\n    x = 1\n    "f is not called here"\n    return x\n'
        "g()\ndef f(): pass",
        "",
        ["f"],
    ),
    ("task-string-word", 'TASK = "mod:f"\ndef f(): pass', "", []),
    ("keyword-argument", "def f(): pass\nOPTIONS = dict(f=1)", "", []),
    ("attribute", "class A:\n    def m(self): pass\nA().m()", "", []),
    ("program-import", "def f(): pass", "from mod import f", []),
    ("program-import-alias", "def f(): pass", "from mod import f as g\ng()", []),
    ("program-dotted-import", "def f(): pass", "import pkg.f", []),
    ("program-docstring-is-prose", "def f(): pass", '"""Uses f."""', ["f"]),
    (
        "class-does-not-bring-methods",
        "class A:\n    def m(self): pass\nA()",
        "",
        ["A.m"],
    ),
    (
        "class-brings-dunder-methods",
        "class A:\n    def __init__(self):\n        self.x = helper()\n"
        "def helper(): pass\nA()",
        "",
        [],
    ),
    (
        "class-brings-bases-and-decorators",
        "class Base: pass\ndef deco(cls): return cls\n@deco\nclass A(Base): pass\nA",
        "",
        [],
    ),
    (
        "walk-repeats-to-a-fixed-point",
        "def a(): b()\ndef b(): c()\ndef c(): pass\na()",
        "",
        [],
    ),
    ("unreached-code-reaches-nothing", "def a(): b()\ndef b(): pass", "", ["a", "b"]),
]


@pytest.mark.parametrize(
    "source, program, unreached",
    [case[1:] for case in REACHING_CASES],
    ids=[case[0] for case in REACHING_CASES],
)
def test_reaching_rule(source, program, unreached):
    assert _walk(source, program) == (unreached, [])


def test_root_names_reach_their_definitions():
    assert _walk("def f(): g()\ndef g(): pass", roots=["f"]) == ([], [])


def test_kept_names_are_roots():
    assert _walk("def f(): g()\ndef g(): pass", kept=["f"]) == ([], [])


def test_a_kept_name_with_a_caller_is_stale():
    assert _walk("def f(): pass\nf()", kept=["f"]) == ([], ["f"])


def test_a_kept_name_without_definition_is_stale():
    assert _walk("def f(): pass\nf()", kept=["gone"]) == ([], ["gone"])


def test_unreached_definitions_are_reported_with_path_and_line():
    package = [("pkg/mod.py", ast.parse("X = 1\n\nclass A:\n    def m(self): pass\n"))]
    assert _unreached(package, []) == (["pkg/mod.py:3 A", "pkg/mod.py:4 A.m"], [])


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
