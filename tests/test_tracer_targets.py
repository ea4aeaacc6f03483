"""Every function the benchmark's tracer wraps still exists under its name.

`perfbench/tracing.py` patches the names in its TIMED and COUNTED tables
into the package at run time, so a rename there breaks only traced runs.
This test reads the two tables from the file, without importing or
changing anything under `perfbench/`.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import cndescent
from cndescent.sqclass import SquareClassGroup

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracer_targets() -> list[tuple[str, str]]:
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TIMED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    assert set(tables) == {"TIMED", "COUNTED"}
    return [*tables["TIMED"], *tables["COUNTED"]]


def test_every_traced_name_resolves():
    targets = tracer_targets()
    assert len(targets) > 20
    for layer, attr in targets:
        module = importlib.import_module(f"cndescent.{layer}")
        cls_name, _, name = attr.rpartition(".")
        owner = getattr(module, cls_name) if cls_name else module
        # the tracer reads a method from its class's own __dict__
        assert name in vars(owner), (layer, attr)
        assert callable(getattr(owner, name)), (layer, attr)


def test_each_traced_function_is_one_object_in_every_module():
    # the tracer swaps a module attribute only when it *is* the original, so
    # a second object for the same function (a module-local cached copy of
    # factor, say) would run untraced: every module that binds the name, or
    # a wrapper of the same function, must hold the one object
    modules = [cndescent] + [
        importlib.import_module(f"cndescent.{m.name}")
        for m in pkgutil.iter_modules(cndescent.__path__)
    ]
    functions = [(layer, attr) for layer, attr in tracer_targets() if "." not in attr]
    assert len(functions) == 20
    for layer, attr in functions:
        target = getattr(importlib.import_module(f"cndescent.{layer}"), attr)
        core = inspect.unwrap(target)
        for module in modules:
            for key, value in vars(module).items():
                if key == attr or (callable(value) and inspect.unwrap(value) is core):
                    assert value is target, (module.__name__, key, layer, attr)


def test_traced_constructors_stay_staticmethods():
    # the tracer rewraps class attributes as staticmethods only when the
    # original was one
    for name in ("span", "from_elements"):
        assert isinstance(vars(SquareClassGroup)[name], staticmethod), name
