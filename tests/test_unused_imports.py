"""Every module of the package uses each name it imports, every private
module-level name is referenced somewhere besides its own definition, and
importing the CLI loads no third-party package: sympy is a test oracle only.

`__init__` is exempt from the import check: its imports are the public
re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cndescent"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level private functions, classes and constants, by name."""
    defs: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defs[name] = node
    return defs


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read, attributes taken and names imported, outside `skip`."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unreferenced_privates(package: dict[str, str], others: list[str]) -> list[str]:
    """'module.name' for each private name of the package modules that no
    package module (outside the name's own definition) or other source uses."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    outside = [_references(ast.parse(src)) for src in others]
    out = []
    for mod, tree in trees.items():
        used = set().union(*outside, *(_references(t) for m, t in trees.items() if m != mod))
        for name, node in _private_definitions(tree).items():
            if name not in used and name not in _references(tree, skip=node):
                out.append(f"{mod}.{name}")
    return out


def test_checker_flags_an_unused_import():
    src = "from math import gcd, isqrt\nimport os.path\n\nprint(gcd(4, 6))\n"
    assert unused_imports(src) == ["isqrt (line 1)", "os (line 2)"]


def test_checker_flags_an_unreferenced_private_name():
    a = (
        "_LIMIT = 3\n_SEEN = 0\n\n"
        "def _rec(n):\n    return _rec(n - 1) if n else _LIMIT\n\n"
        "def _used():\n    return 1\n\n"
        "class _Helper:\n    pass\n"
    )
    b = "from .a import _used\n\nprint(_used())\n"
    tests = "from pkg import a\n\nassert a._Helper\n"
    assert unreferenced_privates({"a": a, "b": b}, [tests]) == ["a._SEEN", "a._rec"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_name_is_referenced():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    assert unreferenced_privates(package, tests) == []


def test_runtime_does_not_import_sympy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import cndescent.cli, sys; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"
