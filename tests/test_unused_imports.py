"""Every module of the package uses each name it imports, every private
module-level name is referenced somewhere besides its own definition, every
public one by the package itself or by `cndescent.__all__`, every
parameter default is overridden by some call (else it is a constant), every
error class is raised or subclassed, every `raise` names an error class
(the argument contract: a rejected argument raises a `DescentError`), every
name in `cndescent.__all__` resolves and is listed once, only `criteria`
imports from `quadring`, and only its kernels and ring constants, only
`descent` and `cli` use `selmer_group`, and importing the CLI loads no
third-party package (sympy is a test oracle only) and neither
`dataclasses` nor `inspect`. The tests import only what they use, too.

`__init__` is exempt from the import checks: its imports are the public
re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cndescent

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cndescent"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


def _definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, classes and constants, by name; dunders aside."""
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
            if not name.startswith("__"):
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
        for name, node in _definitions(tree).items():
            if name.startswith("_") and name not in used | _references(tree, skip=node):
                out.append(f"{mod}.{name}")
    return out


def unused_public_names(package: dict[str, str], exported: list[str]) -> list[str]:
    """'module.name' for each public name of the package modules that no
    package module uses outside the name's own definition and that
    `exported`, the package's `__all__`, does not list. The sources that
    merely import the package, tests among them, do not count."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    out = []
    for mod, tree in trees.items():
        used = set(exported).union(*(_references(t) for m, t in trees.items() if m != mod))
        for name, node in _definitions(tree).items():
            if not name.startswith("_") and name not in used | _references(tree, skip=node):
                out.append(f"{mod}.{name}")
    return out


def _defaulted_parameters(tree: ast.Module) -> list[tuple[str, str, int | None, str]]:
    """(name calls use, label, position or None if keyword-only, parameter)
    for each parameter with a default. A method is called by its attribute
    name and `__init__` by its class name; `self` and `cls` take no position."""
    found = []

    def visit(node: ast.AST, cls: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                if cls is None:
                    called, label = child.name, child.name
                elif child.name == "__init__":
                    called, label = cls.name, cls.name
                else:
                    called, label = child.name, f"{cls.name}.{child.name}"
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    found.append((called, f"{label}.{arg.arg}", i, arg.arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((called, f"{label}.{arg.arg}", None, arg.arg))
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def unpassed_defaults(package: dict[str, str], others: list[str]) -> list[str]:
    """'module.function.parameter' for each defaulted parameter of the package
    that no call in the package or the other sources passes, by position or
    by keyword. Calls match by name; `*args` and `**kwargs` pass everything."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    calls: dict[str, list[tuple[float, set[str | None]]]] = {}
    for tree in [*trees.values(), *map(ast.parse, others)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                npos = float("inf") if starred else len(node.args)
                calls.setdefault(name, []).append((npos, {k.arg for k in node.keywords}))
    out = []
    for mod, tree in trees.items():
        for called, label, pos, param in _defaulted_parameters(tree):
            passed = any(
                (pos is not None and npos > pos) or param in kws or None in kws
                for npos, kws in calls.get(called, [])
            )
            if not passed:
                out.append(f"{mod}.{label}")
    return out


def _name(node: ast.expr) -> str | None:
    """The bare name or attribute an expression ends in."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _raised(node: ast.Raise) -> ast.expr:
    """The class or instance a `raise` with an exception names."""
    return node.exc.func if isinstance(node.exc, ast.Call) else node.exc


def _classes(errors: str) -> list[str]:
    return [n.name for n in ast.parse(errors).body if isinstance(n, ast.ClassDef)]


def unraised_errors(errors: str, package: list[str]) -> list[str]:
    """Each class `errors` defines that no `raise` in the package sources
    names and no class there subclasses, by bare name or attribute."""
    used: set[str | None] = set()
    for tree in map(ast.parse, package):
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_name(_raised(node)))
            elif isinstance(node, ast.ClassDef):
                used.update(_name(b) for b in node.bases)
    return [c for c in _classes(errors) if c not in used]


def foreign_raises(errors: str, package: dict[str, str]) -> list[str]:
    """'module.function: exception' for each `raise` in the package sources
    that names no class `errors` defines, by bare name or attribute, in
    source order; the function is the innermost one around the `raise`. A
    bare `raise` re-raises and names nothing."""
    classes = set(_classes(errors))
    found = []

    def visit(node: ast.AST, mod: str, func: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise) and child.exc is not None:
                if _name(_raised(child)) not in classes:
                    found.append(f"{mod}.{func}: {ast.unparse(_raised(child))}")
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, mod, child.name if inner else func)

    for mod, src in package.items():
        visit(ast.parse(src), mod, "<module>")
    return found


def quadring_imports(package: dict[str, str]) -> dict[str, set[str]]:
    """{module: the names it imports from `quadring`} for each package module
    that imports any; importing the module itself counts as '*'."""
    found: dict[str, set[str]] = {}
    for mod, src in package.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("quadring"):
                names = {alias.name for alias in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                alias.name.endswith("quadring") for alias in node.names
            ):
                names = {"*"}
            else:
                continue
            found.setdefault(mod, set()).update(names)
    return found


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


def test_checker_flags_a_public_name_only_tests_use():
    a = (
        "LIMIT = 3\nCASES = ('x',)\n\n"
        "def rec(n):\n    return rec(n - 1) if n else LIMIT\n\n"
        "def used():\n    return 1\n\n"
        "def exported():\n    return 2\n\n"
        "class Helper:\n    pass\n\n"
        "_PRIVATE = 0\n"
    )
    b = "from .a import used\n\nprint(used())\n"
    assert unused_public_names({"a": a, "b": b}, ["exported"]) == ["a.CASES", "a.rec", "a.Helper"]


def test_checker_flags_a_default_no_call_passes():
    a = (
        "def f(x, y=1, *, z=2):\n    return x\n\n"
        "def g(n=0):\n    return n\n\n"
        "class C:\n"
        "    def __init__(self, size=3, mode='a'):\n        pass\n\n"
        "    def run(self, fast=False):\n        pass\n\n"
        "    @staticmethod\n"
        "    def make(k=1):\n        pass\n"
    )
    b = "from .a import C, f, g\n\nf(1, 2)\nC(mode='b').run(True)\ng(**{})\n"
    tests = "from pkg.a import C\n\nC.make()\n"
    assert unpassed_defaults({"a": a, "b": b}, [tests]) == ["a.f.z", "a.C.size", "a.C.make.k"]


def test_checker_flags_an_error_class_nothing_raises():
    errors = "".join(
        f"class {c}({base}):\n    pass\n\n"
        for c, base in [("Base", "Exception"), ("Raised", "Base"), ("ByAttr", "Base"),
                        ("Parent", "Base"), ("Named", "Base")]
    )
    pkg = (
        "from . import errors\nfrom .errors import Named, Raised\n\n"
        "class Child(errors.Parent):\n    pass\n\n"
        "def f(x):\n    if x:\n        raise Raised('x')\n"
        "    raise errors.ByAttr from None\n\n"
        "print(Named)\n"
    )
    assert unraised_errors(errors, [errors, pkg]) == ["Named"]


def test_checker_flags_a_raise_of_a_class_outside_errors():
    errors = "class Base(Exception):\n    pass\n\nclass Bad(Base):\n    pass\n"
    pkg = (
        "import argparse\nfrom . import errors\nfrom .errors import Bad\n\n"
        "def f(x):\n    if x:\n        raise Bad('x')\n    raise errors.Base from None\n\n"
        "def g(x):\n    try:\n        f(x)\n    except Bad:\n        raise\n"
        "    raise ValueError(x)\n\n"
        "def h():\n    def convert(t):\n        raise argparse.ArgumentTypeError(t)\n\n"
        "    return convert\n\n"
        "raise KeyError\n"
    )
    assert foreign_raises(errors, {"a": pkg}) == [
        "a.g: ValueError", "a.convert: argparse.ArgumentTypeError", "a.<module>: KeyError",
    ]


def test_checker_finds_quadring_imports():
    package = {
        "a": "from .quadring import SQRT2, _root\nfrom .arith import jacobi\n",
        "b": "from . import quadring\n",
        "c": "import cndescent.quadring\n",
        "d": "from .sqclass import span\n",
    }
    assert quadring_imports(package) == {"a": {"SQRT2", "_root"}, "b": {"*"}, "c": {"*"}}


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_name_is_referenced():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    tests = [p.read_text() for p in TESTS]
    assert unreferenced_privates(package, tests) == []


def test_every_public_name_is_used_by_the_package():
    # a public name that only tests call is test code: it belongs in tests/
    package = {p.stem: p.read_text() for p in MODULES}
    assert unused_public_names(package, cndescent.__all__) == []


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a constant posing as an option
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    tests = [p.read_text() for p in TESTS]
    assert unpassed_defaults(package, tests) == []


def test_every_error_class_is_raised():
    # an error type that nothing raises promises callers a failure mode
    # the code does not have
    errors = (PACKAGE / "errors.py").read_text()
    assert unraised_errors(errors, [p.read_text() for p in MODULES]) == []


def test_every_raise_names_an_error_class():
    # the argument contract: every rejected argument raises a DescentError;
    # argparse's own error stays inside the CLI's type converters
    errors = (PACKAGE / "errors.py").read_text()
    package = {p.stem: p.read_text() for p in MODULES}
    assert foreign_raises(errors, package) == [
        "cli.convert: argparse.ArgumentTypeError",
        "cli._residues: argparse.ArgumentTypeError",
    ]


def test_only_criteria_imports_from_quadring():
    # criteria's symbols run on quadring's unchecked kernels and its ring
    # constants; the checked API (split_prime, primary_associate,
    # ring_symbol, symbol_capital) is the tests' oracle, so no runtime
    # result may rest on it. `__init__`'s public re-export is exempt.
    allowed = {"criteria": {"_root", "_euclid", "GAUSS", "SQRT2", "SQRTM2"}}
    imports = quadring_imports({p.stem: p.read_text() for p in MODULES})
    extra = {mod: names - allowed.get(mod, set()) for mod, names in imports.items()}
    assert {mod: sorted(names) for mod, names in extra.items() if names} == {}


def test_only_descent_and_cli_use_selmer_group():
    # every family's Selmer groups are held against the computed ones in
    # one place, descend; the CLI's `selmer` subcommand prints them.
    # `__init__`'s public re-export is exempt.
    users = [p.stem for p in MODULES if "selmer_group" in _references(ast.parse(p.read_text()))]
    assert users == ["cli", "descent"]


def test_every_public_name_resolves_once():
    names = cndescent.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(cndescent, n)] == []


def test_runtime_does_not_import_sympy():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import cndescent.cli, sys; print('sympy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "False"


def test_runtime_does_not_import_dataclasses():
    # the records are NamedTuples and Record subclasses: `dataclasses`, and
    # the `inspect` it pulls in, would add about 10 ms to every cold start
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import cndescent.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"
