"""Every exported name resolves, every traced function still exists, and
each entry point loads only the layers it calls.

``perfbench/tracer.py`` wraps package functions by name; the file is
read, not imported, so a renamed function fails here instead of in a
traced benchmark run.  The module sets are read in a fresh interpreter,
since this one has imported every layer.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import credal

MODULES = sorted(m.name for m in pkgutil.iter_modules(credal.__path__))
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SRC = Path(credal.__file__).resolve().parent.parent
MONTY = SRC / "credal" / "corpus" / "monty-hall.json"
CHAIN = ["core", "linprog", "polytope", "problemfile", "rationals"]


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


def _loaded(code: str) -> list[str]:
    """The ``credal.*`` modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [v for v in [env.get("PYTHONPATH")] if v])
    code += "\nimport json, sys\nprint(json.dumps(sorted(m[7:] for m in sys.modules if m.startswith('credal.'))))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert _loaded("import credal") == []


def test_parsing_loads_only_the_problem_file_chain():
    code = "import credal\ncredal.parse_problem_file(open(%r, encoding='utf-8').read())"
    assert _loaded(code % str(MONTY)) == CHAIN


@pytest.mark.parametrize(
    "argv, solver",
    [(["check", "rect", str(MONTY)], []), (["solve", "corpus/monty-hall"], ["minimax"])],
)
def test_a_command_loads_only_its_layers(argv, solver):
    code = "import io, credal.cli\nassert credal.cli.run(%r, stdout=io.StringIO()) == 0" % argv
    assert _loaded(code) == sorted(["cli", *CHAIN, *solver])


def test_names_and_submodules_resolve_on_first_use():
    code = """import credal
assert credal.linprog.__name__ == 'credal.linprog'
assert set(credal.__all__) <= set(dir(credal))
assert 'hull' not in vars(credal) and credal.hull is credal.core.hull and 'hull' in vars(credal)
assert not hasattr(credal, 'no_such_name')"""
    assert _loaded(code) == ["core", "linprog", "polytope", "rationals"]


def test_only_the_cli_defers_imports():
    # the library's own layers load with their module, so a deferred
    # import can land in no library call; the CLI's subcommands load theirs
    deferred = set()
    for path in SRC.joinpath("credal").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
                deferred.add(path.name)
    assert deferred == {"cli.py"}
