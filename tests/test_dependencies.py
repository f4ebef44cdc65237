"""The package runs on the standard library and numpy alone.

scipy is installed for the tests and the benchmark, so a module that
imported it would pass every other test; this reads the imports instead.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "panelcd").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "panelcd"}


def _imported(source: str):
    """The top-level module of every absolute import in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_check_sees_imports_anywhere():
    source = "import os.path\nfrom . import dgp\ndef f():\n    from scipy.stats import norm\n"
    assert list(_imported(source)) == ["os", "scipy"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert set(_imported(path.read_text(encoding="utf-8"))) <= ALLOWED


def test_every_module_is_read():
    assert {p.name for p in SOURCES} >= {"cli.py", "dgp.py", "mc.py", "panel.py"}
