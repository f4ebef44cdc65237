"""Every program name the benchmark reads resolves.

The benchmark under ``bench/`` imports names from ``panelcd`` and wraps
module attributes by name (``SPAN_TARGETS`` in ``bench/spans.py``). A
deletion or rename that breaks one of them would otherwise show only when
the benchmark runs. This module reads those names with ``ast``, without
importing the benchmark, and checks that each one resolves.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(path):
    """(module, name) for every ``from panelcd[...] import name`` in one file."""
    return {
        (node.module, alias.name)
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "panelcd"
        for alias in node.names
    }


def _span_targets():
    for node in _tree(BENCH / "spans.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_TARGETS" for t in node.targets
        ):
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("bench/spans.py defines no SPAN_TARGETS")


IMPORTS = {
    path.relative_to(BENCH).as_posix(): _imported_names(path)
    for path in sorted(BENCH.rglob("*.py"))
    if "_work" not in path.parts
}
REFERENCES = sorted(set().union(*IMPORTS.values(), _span_targets()))


@pytest.mark.parametrize("name", ["workloads.py", "tests/test_bench.py"])
def test_benchmark_modules_import_from_the_package(name):
    # an empty set would mean the scan, not the package, went wrong
    assert IMPORTS[name]


@pytest.mark.parametrize("module, attr", REFERENCES, ids=[f"{m}.{a}" for m, a in REFERENCES])
def test_benchmark_reference_resolves(module, attr):
    mod = importlib.import_module(module)
    if not hasattr(mod, attr):
        # ``from panelcd import cli`` names a submodule
        importlib.import_module(f"{module}.{attr}")
