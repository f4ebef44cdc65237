"""Tests of the benchmark's own parts: span self time, the wrappers, the oracle.

Run from the repository root: ``python3 -m pytest -q bench/tests``.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from panelcd import (  # noqa: E402
    DgpConfig,
    ExperimentPlan,
    TestConfig,
    cli,
    derive_stream,
    fit,
    generate_panel,
    run_all,
    run_experiment,
    run_replication,
)


def _span(name, parent, start, end):
    return spans.Span(name, parent, start, end)


def test_self_time_on_nested_fake_spans():
    fake = [
        _span("op", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("b", 1, 2.0, 3.0),
        _span("c", 0, 5.0, 9.5),
        _span("d", 3, 5.0, 6.0),
        _span("e", 3, 8.0, 9.5),
    ]
    assert spans.self_times(fake) == pytest.approx([10 - 3 - 4.5, 2.0, 1.0, 2.0, 1.0, 1.5])
    tot = spans.totals(fake)
    assert tot.self_time["op"] == pytest.approx(2.5)
    assert tot.duration["c"] == pytest.approx(4.5)


def test_self_time_counts_overlapping_and_overhanging_children_once():
    fake = [
        _span("p", None, 0.0, 4.0),
        _span("x", 0, 1.0, 3.0),
        _span("y", 0, 2.0, 5.0),  # overlaps x and runs past the parent's end
    ]
    assert spans.self_times(fake)[0] == pytest.approx(1.0)


SMALL = DgpConfig(dgp=2, t=30, n=12, k=3)


def _tiny_csv(tmp_path):
    path = tmp_path / "panel.csv"
    workloads.write_panel_csv(path, generate_panel(DgpConfig(dgp=1, t=25, n=8, k=2, seed=5)).panel)
    return path


def _battery(tmp_path):
    rng = derive_stream(11, 0, 3)
    rep = run_replication(SMALL, ("RLM", "RLM_PE", "LM_adj", "CD_P"), 0.05, rng)
    gen = generate_panel(SMALL, derive_stream(11, 0, 3))
    results = run_all(fit(gen.panel, gen.model_spec), TestConfig())
    reports = [
        run_experiment(ExperimentPlan(cells=(SMALL,), reps=4, root_seed=2, workers=w)).rows
        for w in (1, 2)
    ]
    out = tmp_path / "out.csv"
    code = cli.main(["test", "--data", str(_tiny_csv(tmp_path)), "--format", "csv",
                     "--output", str(out)])
    return rep, results, reports, code, out.read_text()


def _wrapped_names():
    return {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.SPAN_TARGETS + spans.COUNT_TARGETS}


def test_wrappers_leave_return_values_unchanged(tmp_path):
    plain = _battery(tmp_path)
    originals = _wrapped_names()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = _battery(tmp_path)
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"mc.replication", "dgp.generate", "panel.fit", "cd_stats.run_all",
            "correlation.grid", "cli.load_csv", "cli.emit", "panel.validate"} <= names
    assert tracer.counts["panel.factorizations"] > 0
    after = _wrapped_names()
    assert all(after[key] is fn for key, fn in originals.items())


# A tiny panel with an intercept-only design whose residuals are fixed by
# hand: r1 = (1,-1,0,0), r2 = (1,0,-1,0), r3 = (0,0,1,-1), so that
# rho_12 = 1/2, rho_13 = 0, rho_23 = -1/2 and n = 3, T = 4, k = 1, c = 3/4.
TINY_R = np.array([[1.0, -1.0, 0.0, 0.0], [1.0, 0.0, -1.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
TINY_Y = TINY_R + np.array([[2.0], [-1.0], [0.5]])
TINY_X = np.ones((3, 4, 1))


def test_oracle_matches_closed_forms_on_a_tiny_panel():
    v = oracle.residuals(TINY_Y, TINY_X)
    np.testing.assert_allclose(v, TINY_R, atol=1e-12)
    rho = oracle.correlation(v)
    np.testing.assert_allclose(
        rho, [[1, 0.5, 0], [0.5, 1, -0.5], [0, -0.5, 1]], atol=1e-12)
    stats = oracle.statistics(rho, t=4, k=1, q=oracle.design_bases(TINY_X))
    # tr(R^2) = 4 and tr(R^4) = ||R^2||_F^2 = 9.5
    assert stats["LM"] == pytest.approx(2.0)  # (T/2)(4 - 3)
    assert stats["CD_P"] == pytest.approx(0.0)
    assert stats["CD_LM"] == pytest.approx(-0.5 * math.sqrt(2.0 / 3.0))
    assert stats["LM_bc"] == pytest.approx(-0.5 * math.sqrt(2.0 / 3.0) - 0.5)
    assert stats["RLM"] == pytest.approx(-5.0 / 6.0)  # (4 - 5.25) / 1.5
    assert stats["LM_RMT"] == pytest.approx(-1.0625 / 1.5)
    mu_pe, var_pe = 27.09375, 1156.53515625
    assert stats["RLM_PE"] == pytest.approx((9.5 - mu_pe) / math.sqrt(var_pe))
    # identical designs: every pair has mean 1 and variance 2(m-1)/(m+2) = 0.8
    # at m = T - k = 3, so LM_adj = 2 * (-1.5) / sqrt(12 * 0.8)
    assert stats["LM_adj"] == pytest.approx(-3.0 / math.sqrt(9.6))
    assert oracle.p_value("CD_P", 0.0, 3) == pytest.approx(1.0)
    assert oracle.p_value("RLM", 1.6448536269514722, 3) == pytest.approx(0.05)


def test_oracle_pair_traces_match_dense_annihilators():
    rng = np.random.default_rng(1)
    x = np.concatenate([np.ones((5, 12, 1)), rng.standard_normal((5, 12, 2))], axis=2)
    q = oracle.design_bases(x)
    tr_mm, tr_mm2 = oracle.reduced_pair_traces(q, slice(0, 5))
    for i in range(5):
        for j in range(5):
            dense = oracle.dense_pair_traces(x[i], x[j])
            assert (tr_mm[i, j], tr_mm2[i, j]) == pytest.approx(dense, rel=1e-10)
    mu, sigma = oracle.pair_moments(tr_mm[2, 2], tr_mm2[2, 2], 12, 3)
    assert (mu, sigma**2) == pytest.approx((1.0, 2.0 * 8 / 11))


def test_program_agrees_with_oracle_on_a_generated_panel():
    tests = ("LM", "CD_LM", "CD_P", "LM_bc", "LM_adj", "LM_RMT", "RLM", "RLM_PE")
    gen = generate_panel(DgpConfig(dgp=2, t=40, n=30, k=3, seed=9))
    resid = fit(gen.panel, gen.model_spec)
    found = {r.name: (r.statistic, r.p_value, r.reject)
             for r in run_all(resid, TestConfig(tests=tests))}
    assert workloads.check_against_oracle(
        gen.panel.y, gen.panel.x, found, tests, program_resid=resid,
        program_bases=resid.ortho_bases, rng=random.Random(0)) == []
    found["RLM"] = (found["RLM"][0] + 1e-3,) + found["RLM"][1:]
    assert any("RLM statistic" in p for p in workloads.check_against_oracle(
        gen.panel.y, gen.panel.x, found, tests))


def test_csv_round_trip_reads_the_panel_back(tmp_path):
    panel = generate_panel(DgpConfig(dgp=2, t=15, n=6, k=3, seed=2)).panel
    path = tmp_path / "p.csv"
    workloads.write_panel_csv(path, panel)
    y, x = workloads.read_panel_csv(path)
    assert np.array_equal(y, panel.y) and np.array_equal(x, panel.x)


def test_benchmark_json_names_every_metric_and_workload():
    import run

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
