"""Every name a radsob module imports is used in that module.

Package __init__ modules are exempt, since their imports are the public
re-exports, and so are __future__ imports.
"""

import ast
from pathlib import Path

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


# The settable values of src/radsob: optional parameters (of functions and
# lambdas), defaulted dataclass fields other than field(init=False), and
# add_argument flags.  Each one is a setting a caller may change, so the
# count only goes down; a change that lowers it pins the new value here.

SETTABLE_VALUES = 44


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(getattr(deco, "func", deco), ast.Name)
        and getattr(deco, "func", deco).id == "dataclass"
        for deco in node.decorator_list
    )


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
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                and not _init_false(stmt.value)
                for stmt in node.body
            )
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            count += 1
    return count


def test_scan_counts_settable_values():
    source = (
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 1\n"
        "    z: int = field(init=False)\n    w: list = field(default_factory=list)\n\n\n"
        "class B:\n    n: int = 2\n\n\n"
        "def f(a, b=1, *, c, d=2):\n    return lambda e, g=3: a\n\n\n"
        "parser.add_argument('--k', default=4)\nparser.add_argument('--j')\n"
    )
    # y, w; b, d, g; two flags.  x, z, B.n, a, c and e are not settable values.
    assert _settable_values(source) == 7


def test_settable_values_are_pinned():
    found = sum(_settable_values(path.read_text()) for path in PACKAGE.glob("*.py"))
    assert found == SETTABLE_VALUES, (
        f"src/radsob has {found} settable values, pinned at {SETTABLE_VALUES}; "
        "lower the pin when the count drops, and justify any new one"
    )
