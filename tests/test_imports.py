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
