"""Every name a radsob module imports is used in that module.

The package __init__ imports nothing: names are imported from their
modules.  Each CLI run loads only the modules its subcommand executes.
"""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from radsob.cli import COMMANDS, REPORT_FLAGS
from radsob.model_manifold import euclidean_model
from radsob.rigidity import verify_theorem
from radsob.sharp import SobolevParams
from radsob.talenti import TalentiProfile

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "radsob"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_flags_an_unused_import():
    source = "from math import pi, tau\nimport numpy as np\n\nx = np.zeros(3) * pi\n"
    assert _unused_imports(source) == [(1, "tau")]
    assert _unused_imports("from __future__ import annotations\n") == [(1, "annotations")]


def test_modules_use_every_imported_name():
    modules = sorted(PACKAGE.glob("*.py"))
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
# in inspect; json is imported only to render a JSON report; a table
# file is read with open, since pathlib pulls in urllib.parse and
# ipaddress; and the flags are parsed by hand, since argparse pulls in
# gettext and locale.  `site` may load some of these itself (here it loads
# pathlib), so the check runs without it (python -S).

SLOW_IMPORTS = {"argparse", "dataclasses", "gettext", "inspect", "json", "locale", "pathlib"}


def _child_env(root: Path = PACKAGE.parent) -> dict:
    """The environment of a child that imports radsob from under root."""
    path = os.pathsep.join(filter(None, (str(root), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def _loaded_modules(statement: str, *flags: str) -> set:
    """Names in sys.modules after `statement` runs in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, *flags, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
        env=_child_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(child.stdout.split())


def test_package_import_loads_no_module_of_its_own():
    """`import radsob` re-exports nothing, so it loads none of the modules:
    a caller of one module pays only for what that module imports."""
    added = _loaded_modules("import radsob") - _loaded_modules("pass")
    assert "radsob" in added
    own = sorted(name for name in added if name.startswith("radsob."))
    assert not own, f"import radsob loads {own}"


def test_cli_import_loads_no_slow_module():
    """No module a CLI run can import loads a slow one, nor __future__: no
    annotation needs it, and a run would import it for nothing."""
    modules = [f"radsob.{path.stem}" for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"]
    added = _loaded_modules(f"import {', '.join(modules)}", "-S") - _loaded_modules("pass", "-S")
    assert set(modules) <= added
    assert not SLOW_IMPORTS & added, f"radsob loads {sorted(SLOW_IMPORTS & added)}"
    assert "__future__" not in added


# The radsob modules each invocation loads: those its subcommand executes.
# cli holds the command line alone, so --help loads nothing else; a run
# that does work loads report, the helpers the five reports share, and its
# subcommand's own cmd_<subcommand>, never another's.  The two `rigidity`
# argvs of perfbench's witness_search workload at seed 0 are among them.
# `rigidity` does not load sobolev: C_M is the user's or K.  sharp, the
# closed forms of (m, p), beta and K, is loaded by every run that does
# work; talenti, the profile family, its self-test and its mass split, by
# `constants`, `verify` and `limits` alone.  numerics, the Simpson rule
# and the RK4 sweep, is loaded by the constants self-test, the Sobolev
# functionals of `verify` and a `const:` model alone; warping, the ball
# volumes, by a curved model alone; table, the profile and series of a
# `table:` spec, by that spec alone.  The default model, that of `model`
# and `verify` here, is flat.  TABLE is written to the runs' directory.
TABLE = "curvature.txt"
TABLE_TEXT = "0 0.3\n1 0.25\n2 0.1\n4 0.02\n8 0.001\n# tail_power=3\n"
WITNESS_CURVED = ("rigidity", "--m", "4", "--p", "2", "--g", "rational:0.1",
                  "--c-m", "estimate", "--gamma", "empirical")
WITNESS_FLAT = ("rigidity", "--m", "4", "--p", "2", "--g", "zero")
MODULE_SETS = {
    ("constants", "--help"): {"cli"},
    ("constants",): {"cli", "report", "cmd_constants", "numerics", "sharp", "talenti"},
    ("limits",): {"cli", "report", "cmd_limits", "sharp", "talenti", "rigidity"},
    ("model",): {"cli", "report", "cmd_model", "sharp", "model_manifold"},
    ("verify",): {"cli", "report", "cmd_verify", "numerics", "sharp", "talenti",
                  "model_manifold", "sobolev"},
    WITNESS_FLAT: {"cli", "report", "cmd_rigidity", "sharp", "model_manifold", "rigidity"},
    ("model", "--g", "rational:0.1"):
        {"cli", "report", "cmd_model", "sharp", "model_manifold", "warping"},
    WITNESS_CURVED:
        {"cli", "report", "cmd_rigidity", "sharp", "model_manifold", "warping", "rigidity"},
    ("model", "--g", "const:0.05:3"):
        {"cli", "report", "cmd_model", "numerics", "sharp", "model_manifold", "warping"},
    ("model", "--g", f"table:{TABLE}"):
        {"cli", "report", "cmd_model", "sharp", "model_manifold", "table", "warping"},
    ("rigidity", "--g", f"table:{TABLE}", "--c-m", "0.4"):
        {"cli", "report", "cmd_rigidity", "sharp", "model_manifold", "table", "warping",
         "rigidity"},
}

# Runs cli.main on its arguments and writes the radsob modules then in
# sys.modules to the last line of stderr.
RUN_AND_LIST = """
import sys
from radsob.cli import main

main(sys.argv[1:])
own = (name.removeprefix("radsob.") for name in sys.modules if name.startswith("radsob."))
print(*sorted(own), file=sys.stderr)
"""


def _wrong_module_sets(root: Path, argvs, cwd: Path) -> dict:
    """{argv: modules loaded} of each argv whose run in a fresh interpreter
    in cwd, with the package under root, loads other modules than
    MODULE_SETS names."""
    wrong = {}
    for argv in argvs:
        child = subprocess.run([sys.executable, "-c", RUN_AND_LIST, *argv], env=_child_env(root),
                               capture_output=True, text=True, cwd=cwd)
        loaded = set(child.stderr.splitlines()[-1].split())
        if loaded != MODULE_SETS[argv]:
            wrong[argv] = sorted(loaded)
    return wrong


def test_each_invocation_loads_only_the_modules_it_executes(tmp_path):
    (tmp_path / TABLE).write_text(TABLE_TEXT)
    wrong = _wrong_module_sets(PACKAGE.parent, MODULE_SETS, tmp_path)
    assert not wrong, f"invocations that load other modules: {wrong!r}"


def test_module_set_scan_flags_an_eager_import(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "radsob", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "radsob" / "cli.py"
    source = cli.read_text()
    assert source.count("\nimport sys\n") == 1
    eager = "\nimport sys\n\nfrom .rigidity import verify_theorem\n"
    cli.write_text(source.replace("\nimport sys\n", eager))
    assert _wrong_module_sets(tmp_path, [("constants", "--help")], tmp_path) == {
        ("constants", "--help"): ["cli", "rigidity", "sharp"],
    }


def test_module_set_scan_flags_an_eager_kernel_import(tmp_path):
    """talenti imports the Simpson rule inside the constants self-test; at
    its top, every `limits` run would compile numerics."""
    shutil.copytree(PACKAGE, tmp_path / "radsob", ignore=shutil.ignore_patterns("__pycache__"))
    talenti = tmp_path / "radsob" / "talenti.py"
    source = talenti.read_text()
    assert source.count("\nimport math\n") == 1
    eager = "\nimport math\n\nfrom .numerics import integrate_semi_infinite\n"
    talenti.write_text(source.replace("\nimport math\n", eager))
    assert _wrong_module_sets(tmp_path, [("limits",)], tmp_path) == {
        ("limits",): ["cli", "cmd_limits", "numerics", "report", "rigidity", "sharp", "talenti"],
    }


# Without a __pycache__ every run compiles each radsob module it loads, so
# the AST nodes of those modules and of the package __init__ measure what a
# run compiles: a count that is deterministic and that docstrings and
# comments barely move.  The setup_s probe of perfbench, `constants
# --help`, and both witness_search argvs may not compile more than their
# ceilings; a change that lowers a count lowers its ceiling too.
COMPILE_CEILINGS = {("constants", "--help"): 1113, WITNESS_CURVED: 6584, WITNESS_FLAT: 5831}


def _compile_size(root: Path, modules) -> int:
    """AST nodes of __init__.py and of each named module under root."""
    return sum(sum(1 for _ in ast.walk(ast.parse((root / f"{name}.py").read_text())))
               for name in {"__init__", *modules})


def test_scan_counts_compiled_nodes(tmp_path):
    (tmp_path / "__init__.py").write_text('"""Docstring."""\n')
    (tmp_path / "one.py").write_text("x = 1\n")
    (tmp_path / "two.py").write_text("# a comment\nx = 1  # another\n")
    # Module, Expr and Constant; Module, Assign, Name, Store and Constant.
    assert _compile_size(tmp_path, {"one"}) == 3 + 5
    assert _compile_size(tmp_path, {"one", "two"}) == 3 + 5 + 5


def test_runs_compile_no_more_than_their_ceilings():
    sizes = {argv: _compile_size(PACKAGE, MODULE_SETS[argv]) for argv in COMPILE_CEILINGS}
    over = {argv: (size, COMPILE_CEILINGS[argv]) for argv, size in sizes.items()
            if size > COMPILE_CEILINGS[argv]}
    assert not over, f"AST nodes compiled (count, ceiling): {over!r}"


# No radsob module imports radsob.cli: `python -m radsob.cli` runs it as
# __main__, so an import would compile it a second time, as radsob.cli.

def _cli_imports(source: str) -> list:
    """Lines of source, a module of the radsob package, that import
    radsob.cli by an absolute or a relative name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("radsob" if node.level else None, node.module)))
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if "radsob.cli" in names:
            found.append(node.lineno)
    return found


def test_scan_flags_an_import_of_the_cli():
    source = (
        "import radsob.cli\nfrom radsob.cli import main\nfrom radsob import cli\n"
        "from .cli import FLAGS\nfrom . import report, cli\n"
        "from . import CheckFailed\nfrom .report import _fmt\nimport radsob.client\n"
        "from radsob.clients import cli\nfrom .cmd_model import run\n"
    )
    assert _cli_imports(source) == [1, 2, 3, 4, 5]


def test_no_module_imports_the_cli():
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := _cli_imports(path.read_text()))}
    assert not found, f"radsob.cli imported (module: lines): {found!r}"


def test_the_tracer_wraps_modules_no_run_has_loaded(tmp_path):
    """perfbench/tracer.py reaches every layer as an attribute of the
    package (radsob.__getattr__), so a traced run sees the modules that
    the subcommand loads later, and a function-level import of a kernel
    reads its wrapper: the quadrature of the constants self-test and of
    `verify`, and the curvature calls of a `const:` model's RK4 sweep
    (2 * 3001 + 1), are counted.  limits reads its mass split in closed
    form, so its trace counts no integrand evaluation."""
    tracer = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    spans, counts = {}, {}
    for argv in (["limits", "--m", "4", "--p", "2"], ["constants", "--m", "4", "--p", "2"],
                 ["rigidity", "--g", "zero", "--c-m", "0.4"], ["model", "--g", "const:0.05:3"],
                 ["verify", "--m", "4", "--p", "2", "--g", "zero"]):
        trace = tmp_path / "trace.json"
        child = subprocess.run([sys.executable, str(tracer), str(trace), "test", *argv],
                               env=_child_env(), capture_output=True, text=True, cwd=tmp_path)
        assert child.returncode == 0, (argv, child.stderr)
        data = json.loads(trace.read_text())
        spans[argv[0]] = {span[0] for span in data["spans"]}
        counts[argv[0]] = data["counts"]
    assert "rigidity.mass_escape_experiment" in spans["limits"], spans
    assert counts["limits"].get("numerics.quad_evals", 0) == 0, counts
    assert counts["constants"].get("numerics.quad_evals", 0) > 0, counts
    assert "rigidity.verify_theorem" in spans["rigidity"], spans
    assert counts["model"].get("numerics.ivp_g_evals") == 6003, counts
    assert counts["verify"].get("numerics.quad_evals", 0) > 0, counts


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
# src/radsob module is read somewhere in src/radsob: code that only tests
# call belongs in the tests.  A method is read only through an attribute
# load (x.name), a top-level definition only through a name load or an
# import, so a parameter or local variable that shares a method's name does
# not count as reading the method.  UNREAD_API lists the exceptions, each
# with its reason.

UNREAD_API = ()


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
        path_names, path_attributes = _definition_reads(path.read_text())
        names |= path_names
        attributes |= path_attributes
    exempt = {name for name, _ in UNREAD_API}
    assert not exempt & names, f"exempt but read: {sorted(exempt & names)!r}"
    unread = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := [(line, name) for line, name in
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

SETTABLE_VALUES = 42


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


def _flag_pairs(commands: dict) -> int:
    """(subcommand, flag) pairs a user can set in a command table like
    cli.COMMANDS: the flags each subcommand reads, and the report flags
    that every subcommand takes.  -h sets nothing."""
    return sum(len(reads) + len(REPORT_FLAGS) for reads in commands.values())


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
    commands = {"first": ("--x", "--y"), "second": ("--x",)}
    # --x twice and --y once, and --output and --out of each subcommand.
    assert _flag_pairs(commands) == 7


def test_settable_values_are_pinned():
    found = sum(_settable_values(path.read_text()) for path in PACKAGE.glob("*.py"))
    found += _flag_pairs(COMMANDS)
    assert found == SETTABLE_VALUES, (
        f"src/radsob has {found} settable values, pinned at {SETTABLE_VALUES}; "
        "lower the pin when the count drops, and justify any new one"
    )


# No private top-level function of a src/radsob module takes a positional
# parameter that every call in the module passes the same value: one
# module constant or one literal, where a call from inside the function
# that passes the parameter to itself adds no new value.  Such a parameter
# is a constant, so the function reads the constant instead.

def _constant_parameters(source: str) -> list:
    """(line, function, parameter) of each positional parameter of a private
    top-level function to which every call in the module passes one module
    constant or literal, or the parameter itself from inside the function."""
    tree = ast.parse(source)
    constants = {target.id for stmt in tree.body if isinstance(stmt, ast.Assign)
                 for target in stmt.targets if isinstance(target, ast.Name)}
    private = {node.name: node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}
    calls = {name: [] for name in private}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in private:
                calls[node.func.id].append((node, top))
    found = []
    for name, function in private.items():
        params = [arg.arg for arg in function.args.posonlyargs + function.args.args]
        for index, param in enumerate(params):
            values = set()
            for call, top in calls[name]:
                passed = call.args[index] if index < len(call.args) else next(
                    (kw.value for kw in call.keywords if kw.arg == param), None)
                if any(isinstance(arg, ast.Starred) for arg in call.args[:index + 1]):
                    passed = None
                if top is function and getattr(passed, "id", None) == param:
                    continue
                if isinstance(passed, ast.Constant):
                    values.add(repr(passed.value))
                elif getattr(passed, "id", None) in constants:
                    values.add(passed.id)
                else:
                    values.add(None)
            if len(values) == 1 and None not in values:
                found.append((function.lineno, name, param))
    return found


def test_scan_flags_a_parameter_every_call_passes_the_same_constant():
    source = (
        "LIMIT = 9\n\n\n"
        "def _walk(node, depth, limit, step):\n"
        "    if depth < limit:\n"
        "        _walk(node, depth + 1, limit, step)\n\n\n"
        "def _scale(x, factor, *, unit=1):\n"
        "    return x * factor * unit\n\n\n"
        "def _spare(x):\n    return x\n\n\n"
        "def walk(node, limit):\n"
        "    _walk(node, 0, LIMIT, step=2)\n"
        "    _walk(node, 0, LIMIT, 2)\n"
        "    _walk(node, 1, limit, 2)\n"
        "    return _scale(node, 2) + _scale(1, 3)\n\n\n"
        "def _fold(node, limit):\n    return _walk(node, 0, limit, 2)\n"
    )
    # _walk's step is 2 at every call, by position or by keyword; its limit
    # is LIMIT or the caller's own limit, and only _walk's own limit passed
    # through counts as the same value, so limit is not flagged.  _scale's
    # factor varies, _spare has no call, and unit is keyword-only.
    assert _constant_parameters(source) == [(4, "_walk", "step")]


def test_no_private_function_takes_a_constant_as_a_parameter():
    flagged = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _constant_parameters(path.read_text()))
    }
    assert not flagged, (
        f"every call passes the same constant (line, function, parameter): {flagged!r}"
    )


# The RK4 sweep's grid belongs to numerics.solve_h_ivp: no other code of
# src/radsob calls grid_steps, so --step reaches no ball volume, closed
# form or series, only the sweep of a const: spec.

def _grid_steps_callers(source: str) -> list:
    """(line, function) of each call of grid_steps, by name or as an
    attribute, with the innermost function or method that makes it, or
    "<module>" outside any."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and "grid_steps" in (getattr(func, "id", None),
                                                                getattr(func, "attr", None)):
                found.append((child.lineno, owner))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(ast.parse(source), "<module>")
    return found


def test_scan_flags_a_grid_outside_the_sweep():
    source = (
        "from .numerics import grid_steps\n\n\n"
        "def solve_h_ivp(t_max, step):\n    return grid_steps(t_max, step)\n\n\n"
        "class Profile:\n    def warping(self, t_max, step):\n"
        "        def panels():\n            return numerics.grid_steps(t_max, step)\n\n"
        "        return panels\n\n\n"
        "N = grid_steps(1.0, 0.1)\ncap = grid_steps\n"
    )
    # A reference that is not a call (cap) reads no grid.
    assert _grid_steps_callers(source) == [(5, "solve_h_ivp"), (11, "panels"), (16, "<module>")]


def test_only_the_sweep_calls_grid_steps():
    callers = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := [c for c in _grid_steps_callers(path.read_text()) if c[1] != "solve_h_ivp"])
    }
    assert not callers, f"grid_steps called outside solve_h_ivp (line, function): {callers!r}"
    assert _grid_steps_callers((PACKAGE / "numerics.py").read_text())


# Pointwise G belongs to the modules that define a CurvatureProfile
# subclass, model_manifold and table: their profiles define g, and a
# profile hands g to the sweep.  No other module of src/radsob reads a
# profile's .g, or names a curvature or radial_ricci; numerics' sweep
# reads G only through the g it is passed, a plain name.

POINTWISE_CURVATURE = {"curvature", "radial_ricci"}


def _pointwise_curvature_reads(source: str) -> list:
    """(line, name) of each attribute .g, and of each name, attribute or
    parameter curvature or radial_ricci."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
            if name == "g" or name in POINTWISE_CURVATURE:
                found.append((node.lineno, name))
        elif isinstance(node, ast.Name) and node.id in POINTWISE_CURVATURE:
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.arg, ast.FunctionDef)):
            name = node.arg if isinstance(node, ast.arg) else node.name
            if name in POINTWISE_CURVATURE:
                found.append((node.lineno, name))
    return found


def _defines_a_profile(source: str) -> bool:
    """Whether a class of source names CurvatureProfile as a base."""
    return any(
        "CurvatureProfile" in (getattr(base, "id", None), getattr(base, "attr", None))
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
        for base in node.bases
    )


def test_scan_flags_a_pointwise_curvature_read():
    source = (
        "def solve(g, t):\n    return g(t)\n\n\n"
        "def ricci(model, t):\n    return -(model.m - 1) * model.profile.g(t)\n\n\n"
        "def radial_ricci(curvature, t_grid):\n    return [curvature(t) for t in t_grid]\n\n\n"
        "x = model.curvature\ng_spec = args.g_spec\n"
    )
    # A parameter g and an attribute g_spec read no profile.
    assert sorted(_pointwise_curvature_reads(source)) == [
        (6, "g"), (9, "curvature"), (9, "radial_ricci"), (10, "curvature"), (13, "curvature"),
    ]
    # Importing or subclassing another base defines no profile.
    assert not _defines_a_profile(source + "from .model_manifold import CurvatureProfile\n"
                                  "class Model(ModelManifold):\n    pass\n")
    assert _defines_a_profile("class Flat(model_manifold.CurvatureProfile):\n    pass\n")


def test_pointwise_curvature_is_read_only_where_profiles_are_defined():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    definers = sorted(name for name, source in sources.items() if _defines_a_profile(source))
    assert definers == ["model_manifold.py", "table.py"], definers
    reads = {
        name: found
        for name, source in sources.items()
        if name not in definers and (found := _pointwise_curvature_reads(source))
    }
    assert not reads, f"pointwise G read outside {definers} (line, name): {reads!r}"
    assert all(_pointwise_curvature_reads(sources[name]) for name in definers)
