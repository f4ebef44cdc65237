"""Every program name the benchmark reads resolves.

The benchmark under ``bench/`` imports names from ``panelcd`` and wraps
module attributes by name (``SPAN_TARGETS`` in ``bench/spans.py``). A
deletion or rename that breaks one of them would otherwise show only when
the benchmark runs. This module reads those names with ``ast``, without
importing the benchmark, and checks that each one resolves, and that each
call the benchmark makes to one of them binds to its current signature.
"""

import ast
import importlib
import inspect
import threading
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


def _resolve(module, attr):
    mod = importlib.import_module(module)
    # ``from panelcd import cli`` names a submodule
    return getattr(mod, attr) if hasattr(mod, attr) else importlib.import_module(f"{module}.{attr}")


@pytest.mark.parametrize("module, attr", REFERENCES, ids=[f"{m}.{a}" for m, a in REFERENCES])
def test_benchmark_reference_resolves(module, attr):
    _resolve(module, attr)


def _calls(path):
    """``file:line:column:name`` -> (module, name, attribute path, positional count,
    keyword names) for every call in one file to a name it imports from
    ``panelcd``, or to an attribute of such a name (``cli.main``). Calls that
    unpack ``*args`` or ``**kwargs`` cannot be checked and are left out."""
    imported = {name: module for module, name in _imported_names(path)}
    calls = {}
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.Call):
            continue
        func, attrs = node.func, []
        while isinstance(func, ast.Attribute):
            attrs.insert(0, func.attr)
            func = func.value
        if not isinstance(func, ast.Name) or func.id not in imported:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
            continue
        where = f"{path.relative_to(BENCH).as_posix()}:{node.lineno}:{node.col_offset}"
        label = f"{where}:{'.'.join([func.id, *attrs])}"
        calls[label] = (imported[func.id], func.id, attrs, len(node.args), [k.arg for k in node.keywords])
    return calls


CALLS = {
    label: call
    for path in sorted(BENCH.rglob("*.py"))
    if "_work" not in path.parts
    for label, call in _calls(path).items()
}


def test_benchmark_calls_are_found():
    # an empty set would mean the scan, not the package, went wrong
    assert len(CALLS) >= 20


@pytest.mark.parametrize("label", sorted(CALLS))
def test_benchmark_call_binds_to_the_current_signature(label):
    module, name, attrs, positional, keywords = CALLS[label]
    obj = _resolve(module, name)
    for attr in attrs:
        obj = getattr(obj, attr)
    inspect.signature(obj).bind(*[None] * positional, **dict.fromkeys(keywords))


def test_wrapped_names_run_on_the_main_thread_at_one_worker(monkeypatch, tmp_path, capsys):
    # The tracer keeps a single stack, so at one worker every name it wraps
    # must run on the calling thread: the loop's draw helper calls only
    # draw_panel, which the benchmark does not wrap.
    from panelcd import cli
    from panelcd.dgp import Alternative, DgpConfig, generate_panel
    from panelcd.mc import ExperimentPlan, run_experiment

    data = tmp_path / "panel.csv"
    with open(data, "w", encoding="utf-8", newline="\n") as fh:
        cli.dump_panel_csv(generate_panel(DgpConfig(dgp=2, t=30, n=12, seed=4)).panel, fh)
    threads = {}
    for module, attr in sorted(_span_targets()):
        mod = importlib.import_module(module)

        def recorded(*args, _fn=getattr(mod, attr), _name=f"{module}.{attr}", **kwargs):
            threads.setdefault(_name, set()).add(threading.current_thread())
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, recorded)
    cell = DgpConfig(dgp=1, t=30, n=12, alternative=Alternative.SPARSE)
    run_experiment(ExperimentPlan(cells=(cell,), reps=4, tests=("RLM", "LM_adj"), workers=1))
    assert cli.main(["test", "--data", str(data)]) == 0
    capsys.readouterr()
    assert set(threads) == {f"{module}.{attr}" for module, attr in _span_targets()}
    assert all(seen == {threading.main_thread()} for seen in threads.values()), threads
