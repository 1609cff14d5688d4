"""Every exported name resolves, and every traced function still exists.

``perfbench/tracer.py`` wraps package functions by name; the file is
read, not imported, so a renamed function fails here instead of in a
traced benchmark run.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import credal

MODULES = sorted(m.name for m in pkgutil.iter_modules(credal.__path__))
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced_functions():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no FUNCTIONS tuple in %s" % TRACER.name)


def test_package_exports_resolve():
    assert credal.__all__
    assert [n for n in credal.__all__ if not hasattr(credal, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module("credal." + name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_traced_functions_exist():
    traced = _traced_functions()
    assert len(traced) >= 20
    for entry in traced:
        module_name, function = entry.split(".")
        assert module_name in MODULES, entry
        module = importlib.import_module("credal." + module_name)
        assert callable(getattr(module, function, None)), entry
