"""Every name a radsob module imports is used in that module.

Package __init__ modules are exempt, since their imports are the public
re-exports, and so are __future__ imports.
"""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from radsob.cli import build_parser
from radsob.model_manifold import euclidean_model
from radsob.rigidity import verify_theorem
from radsob.talenti import SobolevParams, TalentiProfile

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "radsob"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    source = "from math import pi, tau\nimport numpy as np\n\nx = np.zeros(3) * pi\n"
    assert _unused_imports(source) == [(1, "tau")]


def test_modules_use_every_imported_name():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {PACKAGE}"
    unused = {
        path.name: names
        for path in modules
        if (names := _unused_imports(path.read_text()))
    }
    assert not unused, f"imported but never used (line, name): {unused!r}"


# Every `radsob` run is a fresh process that pays for its imports, so the
# package keeps to modules the interpreter has loaded at start-up or that
# are cheap: records are NamedTuples, not dataclasses, whose import pulls
# in inspect, and json is imported only to render a JSON report.

SLOW_IMPORTS = {"dataclasses", "inspect", "json"}


def _loaded_modules(statement: str) -> set:
    """Names in sys.modules after `statement` runs in a fresh interpreter."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(child.stdout.split())


def test_cli_import_loads_no_slow_module():
    added = _loaded_modules("import radsob.cli") - _loaded_modules("pass")
    assert "radsob.cli" in added
    assert not SLOW_IMPORTS & added, f"import radsob.cli loads {sorted(SLOW_IMPORTS & added)}"


def test_frozen_records_refuse_assignment():
    params = SobolevParams(4, 2.0)
    report = verify_theorem(euclidean_model(4, 10.0), params, (1.0, 2.0), None, None, 1e-9)
    for record, field in ((params, "p"), (TalentiProfile.build(params, 1.0), "lam"),
                          (report, "verdict")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.5)
        with pytest.raises(AttributeError):
            record.spare = 0.5


# Every module-level constant and class-body assignment in src/radsob is
# read somewhere in the repository's code.

REPO = PACKAGE.parent.parent
READERS = ("src", "tests", "perfbench")


def _assigned_names(source: str) -> list:
    """(line, name) of each module-level or class-body assignment to a plain name."""
    tree = ast.parse(source)
    bodies = [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found = []
    for body in bodies:
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    found.append((stmt.lineno, target.id))
    return found


def _read_names(source: str) -> set:
    """Names read as a variable or as an attribute."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def test_scan_flags_a_name_never_read():
    source = (
        "LIMIT = 3\nSPARE = 4\n\n\nclass A:\n    kind = 'a'\n    size: int = LIMIT\n"
        "    __slots__ = ()\n\n\nprint(A.size)\n"
    )
    reads = _read_names(source)
    assert [(line, name) for line, name in _assigned_names(source) if name not in reads] == [
        (2, "SPARE"), (6, "kind"),
    ]


def test_every_assigned_name_is_read():
    reads = set()
    for folder in READERS:
        for path in (REPO / folder).rglob("*.py"):
            reads |= _read_names(path.read_text())
    dead = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := [(line, name) for line, name in _assigned_names(path.read_text())
                      if name not in reads])
    }
    assert not dead, f"assigned but never read (line, name): {dead!r}"


# Every public top-level function or class, and every public method, of a
# src/radsob module other than __init__ is read somewhere in src/radsob:
# code that only tests call belongs in the tests.  A method is read only
# through an attribute load (x.name), a top-level definition only through
# a name load or an import, so a parameter or local variable that shares a
# method's name does not count as reading the method.  The re-exports of
# __init__ do not count either.  UNREAD_API lists the exceptions, each
# with its reason.

UNREAD_API = (
    ("conical_model", "the API constructor of the one profile-less model family, the "
     "family on which the witness search decides (ROADMAP item 2)"),
)


def _public_definitions(source: str) -> list:
    """(line, name, is_method) of each public top-level def or class and
    each public method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (*functions, ast.ClassDef)):
            found.append((node.lineno, node.name, False))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, item.name, True) for item in node.body
                      if isinstance(item, functions)]
    return [entry for entry in found if not entry[1].startswith("_")]


def _definition_reads(source: str) -> tuple:
    """(names loaded or imported, attributes loaded): what can read a
    top-level definition, and what can read a method."""
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def _unread_definitions(source: str, reads: tuple) -> list:
    names, attributes = reads
    return [(line, name) for line, name, is_method in _public_definitions(source)
            if name not in (attributes if is_method else names)]


def test_scan_flags_a_definition_never_read():
    source = (
        "def used(extra):\n    return Kept().size + extra()\n\n\ndef spare():\n    pass\n\n\n"
        "class Kept:\n    @property\n    def size(self):\n        return 1\n\n"
        "    def extra(self):\n        return used(lambda: 0)\n\n"
        "    def _helper(self):\n        pass\n\n\n"
        "def used_as_attribute():\n    pass\n\n\n"
        "print(Kept.used_as_attribute)\n"
    )
    # extra is a parameter of used, a name load, so the method is unread;
    # likewise the attribute load does not read the top-level function.
    assert _unread_definitions(source, _definition_reads(source)) == [
        (5, "spare"), (14, "extra"), (21, "used_as_attribute"),
    ]


def test_every_public_definition_is_read_in_the_package():
    names, attributes = set(), set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            path_names, path_attributes = _definition_reads(path.read_text())
            names |= path_names
            attributes |= path_attributes
    exempt = {name for name, _ in UNREAD_API}
    assert not exempt & names, f"exempt but read: {sorted(exempt & names)!r}"
    unread = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (found := [(line, name) for line, name in
                       _unread_definitions(path.read_text(), (names, attributes))
                       if name not in exempt])
    }
    assert not unread, f"defined but never read in src/radsob (line, name): {unread!r}"


# The settable values of src/radsob: optional parameters (of functions and
# lambdas), defaulted fields of records (dataclass fields other than
# field(init=False), and NamedTuple fields), and one per (subcommand, flag)
# pair of the command line, -h aside.  Each one is a setting a caller may
# change, so the count only goes down; a change that lowers it pins the new
# value here.

SETTABLE_VALUES = 52


def _is_record(node: ast.ClassDef) -> bool:
    """A @dataclass class, or a class with a (typing.)NamedTuple base."""
    return any(
        isinstance(getattr(deco, "func", deco), ast.Name)
        and getattr(deco, "func", deco).id == "dataclass"
        for deco in node.decorator_list
    ) or any(getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
             for base in node.bases)


def _init_false(value) -> bool:
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "field"
        and any(kw.arg == "init" and getattr(kw.value, "value", None) is False
                for kw in value.keywords)
    )


def _settable_values(source: str) -> int:
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_record(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                and not _init_false(stmt.value)
                for stmt in node.body
            )
    return count


def _flag_pairs(parser: argparse.ArgumentParser) -> int:
    """(subcommand, flag) pairs a user can set, not counting -h."""
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sum(
        not isinstance(action, argparse._HelpAction)
        for command in subparsers.choices.values()
        for action in command._actions
    )


def test_scan_counts_settable_values():
    source = (
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 1\n"
        "    z: int = field(init=False)\n    w: list = field(default_factory=list)\n\n\n"
        "class B:\n    n: int = 2\n\n\n"
        "class C(NamedTuple):\n    u: int\n    v: int = 5\n\n\n"
        "class D(typing.NamedTuple):\n    s: str = 'a'\n\n\n"
        "class E(C):\n    k: int = 6\n\n\n"
        "def f(a, b=1, *, c, d=2):\n    return lambda e, g=3: a\n\n\n"
        "parser.add_argument('--k', default=4)\nparser.add_argument('--j')\n"
    )
    # y, w; C.v, D.s; b, d, g.  x, z, B.n, C.u, a, c and e are not settable
    # values, nor is E.k, a class attribute of a NamedTuple subclass; and
    # add_argument call sites are not counted: _flag_pairs counts the flags.
    assert _settable_values(source) == 7


def test_scan_counts_flag_pairs():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    first = sub.add_parser("first")
    first.add_argument("--x")
    first.add_argument("--y", default=1)
    sub.add_parser("second").add_argument("--x")
    # --x twice and --y once; the -h of each subcommand is not counted.
    assert _flag_pairs(parser) == 3


def test_settable_values_are_pinned():
    found = sum(_settable_values(path.read_text()) for path in PACKAGE.glob("*.py"))
    found += _flag_pairs(build_parser())
    assert found == SETTABLE_VALUES, (
        f"src/radsob has {found} settable values, pinned at {SETTABLE_VALUES}; "
        "lower the pin when the count drops, and justify any new one"
    )
