import numpy as np
import pytest

import panelcd.mc as mc
from panelcd.dgp import DgpConfig
from panelcd.mc import ExperimentPlan, derive_stream, run_experiment, run_replication


def small_cell(**kw):
    base = dict(dgp=1, t=20, n=6, k=2)
    base.update(kw)
    return DgpConfig(**base)


class TestDeriveStream:
    def test_reproducible(self):
        a = derive_stream(42, 0, 0).standard_normal(16)
        b = derive_stream(42, 0, 0).standard_normal(16)
        assert np.array_equal(a, b)

    def test_neighbouring_streams_uncorrelated(self):
        a = derive_stream(42, 0, 0).standard_normal(10_000)
        b = derive_stream(42, 0, 1).standard_normal(10_000)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05

    def test_seed_sensitivity(self):
        a = derive_stream(42, 3, 7).standard_normal(4)
        b = derive_stream(43, 3, 7).standard_normal(4)
        assert not np.array_equal(a, b)


class TestRunReplication:
    def test_returns_one_flag_per_test(self):
        out = run_replication(small_cell(), ("RLM", "RLM_PE"), 0.05, derive_stream(1, 0, 0))
        assert not out.failed
        assert len(out.flags) == 2
        assert all(isinstance(f, bool) for f in out.flags)

    def test_identical_stream_identical_flags(self):
        tests = ("RLM", "RLM_PE", "CD_P")
        a = run_replication(small_cell(), tests, 0.05, derive_stream(5, 0, 3))
        b = run_replication(small_cell(), tests, 0.05, derive_stream(5, 0, 3))
        assert a == b

    def test_forced_singular_panel_is_captured(self, monkeypatch):
        from panelcd.dgp import generate_panel

        def sabotage(cfg, rng):
            gen = generate_panel(cfg, rng)
            x = gen.panel.x.copy()
            x[0, :, 1] = 0.0  # zero regressor column: rank deficient
            from conftest import build_panel

            panel = build_panel(gen.panel.y.copy(), x)
            return type(gen)(panel=panel, true_loadings=None, model_spec=gen.model_spec)

        monkeypatch.setattr(mc, "generate_panel", sabotage)
        out = run_replication(small_cell(), ("RLM",), 0.05, derive_stream(1, 0, 0))
        assert out.failed
        assert out.flags == (None,)
        assert "RankDeficient" in out.error


class TestRunExperiment:
    def test_single_rep_frequency_is_degenerate(self):
        plan = ExperimentPlan(cells=(small_cell(),), reps=1, tests=("RLM",), root_seed=3)
        report = run_experiment(plan)
        assert report.rows[0].frequency in (0.0, 100.0)

    def test_worker_count_does_not_change_results(self):
        kwargs = dict(cells=(small_cell(), small_cell(t=25, n=8)), reps=24,
                      tests=("RLM", "CD_P"), root_seed=17)
        serial = run_experiment(ExperimentPlan(workers=1, **kwargs))
        parallel = run_experiment(ExperimentPlan(workers=2, **kwargs))
        assert serial.rows == parallel.rows

    def test_report_row_arithmetic(self):
        plan = ExperimentPlan(cells=(small_cell(),), reps=40, tests=("RLM",), root_seed=9)
        row = run_experiment(plan).rows[0]
        assert row.valid_reps + row.failed_reps == 40
        assert row.frequency == pytest.approx(100.0 * row.rejection_count / row.valid_reps)
        p = row.rejection_count / row.valid_reps
        assert row.mc_se == pytest.approx(100.0 * np.sqrt(p * (1 - p) / row.valid_reps))

    def test_unsupported_test_is_not_counted_as_failed(self):
        # LM_adj has no design-pair moments for within residuals (dgp 3)
        plan = ExperimentPlan(
            cells=(small_cell(dgp=3),), reps=6, tests=("LM_adj", "RLM"), root_seed=1
        )
        rows = {row.test: row for row in run_experiment(plan).rows}
        lm_adj, rlm = rows["LM_adj"], rows["RLM"]
        assert (lm_adj.valid_reps, lm_adj.failed_reps, lm_adj.unsupported_reps) == (0, 0, 6)
        assert (rlm.valid_reps, rlm.failed_reps, rlm.unsupported_reps) == (6, 0, 0)

    def test_paper_sized_cell_has_no_failures(self):
        plan = ExperimentPlan(
            cells=(small_cell(t=50, n=25),), reps=200, tests=("RLM", "RLM_PE"), root_seed=31,
            workers=2,
        )
        report = run_experiment(plan)
        assert all(row.failed_reps == 0 for row in report.rows)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(cells=(), reps=10)
        with pytest.raises(ValueError):
            ExperimentPlan(cells=(small_cell(),), reps=0)
        with pytest.raises(ValueError):
            ExperimentPlan(cells=(small_cell(),), reps=5, tests=("BOGUS",))

    def test_tests_reordered_canonically(self):
        plan = ExperimentPlan(cells=(small_cell(),), reps=2, tests=("RLM_PE", "LM", "RLM"))
        assert plan.tests == ("LM", "RLM", "RLM_PE")
