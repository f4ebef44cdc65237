import concurrent.futures
import ctypes
import os
import subprocess
import sys
from pathlib import Path

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


def _blas_threads(_=None):
    """This process's OpenBLAS thread count, or None without an OpenBLAS."""
    with open("/proc/self/maps") as fh:
        paths = mc._blas_paths(fh)
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


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

    def test_pool_workers_run_blas_on_one_thread(self, monkeypatch):
        before = _blas_threads()
        if before is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        initializers = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                initializers.append(kwargs.get("initializer"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        plan = ExperimentPlan(cells=(small_cell(),), reps=4, tests=("RLM",), workers=2)
        run_experiment(plan)
        assert initializers == [mc._init_worker]
        assert _blas_threads() == before
        with Recording(max_workers=2, initializer=mc._init_worker) as pool:
            assert list(pool.map(_blas_threads, range(4))) == [1] * 4

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

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.05, float("nan")])
    def test_alpha_outside_unit_interval_is_refused(self, alpha):
        # every replication would fail on it, so the plan refuses it up front
        with pytest.raises(ValueError, match="alpha"):
            ExperimentPlan(cells=(small_cell(),), reps=3, alpha=alpha, tests=("RLM",))

    def test_tests_reordered_canonically(self):
        plan = ExperimentPlan(cells=(small_cell(),), reps=2, tests=("RLM_PE", "LM", "RLM"))
        assert plan.tests == ("LM", "RLM", "RLM_PE")


def _glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


class TestWorkerSetup:
    def test_maps_lines_give_whole_absolute_library_paths(self):
        lines = [
            "7f00-7f10 r-xp 00000000 08:01 11 /usr/lib/libopenblas.so.0\n",
            "7f10-7f20 r-xp 00000000 08:01 12 /opt/my libs/libscipy_openblas64_-ff.so\n",
            "7f20-7f30 r-xp 00000000 08:01 13 /site/libscipy_openblas-1a2b.so (deleted)\n",
            "7f30-7f40 rw-p 00000000 00:00 0 [openblas.so heap]\n",
            "7f40-7f50 rw-p 00000000 00:00 0\n",
            "7f50-7f60 r-xp 00000000 08:01 14 /usr/lib/libm.so.6\n",
        ]
        assert mc._blas_paths(lines) == [
            "/opt/my libs/libscipy_openblas64_-ff.so",
            "/site/libscipy_openblas-1a2b.so",
            "/usr/lib/libopenblas.so.0",
        ]

    def test_worker_init_skips_a_library_that_does_not_load(self, monkeypatch):
        monkeypatch.setattr(mc, "_blas_paths", lambda lines: ["/nonexistent/libopenblas.so"])
        mc._init_worker()  # raises nothing, so a pool would not break

    @pytest.mark.parametrize("returns", [None, 0])
    def test_pin_heap_does_nothing_without_a_working_mallopt(self, monkeypatch, returns):
        calls = []

        def mallopt(param, value):
            calls.append(param)
            return returns

        libc = type("Libc", (), {} if returns is None else {"mallopt": staticmethod(mallopt)})
        monkeypatch.setattr(ctypes, "CDLL", lambda name: libc())
        mc._pin_heap()
        # a refused mmap threshold leaves the trim threshold, and glibc's rule, alone
        assert calls == ([] if returns is None else [-3])

    @pytest.mark.skipif(not _glibc(), reason="needs glibc")
    def test_replications_reuse_the_heap(self):
        # the benchmark's mc-sparse-large cell; under glibc's dynamic
        # thresholds it takes 518 to about 1,485 minor faults per replication
        probe = """
import resource
from panelcd.dgp import Alternative, DgpConfig, ErrorDist
from panelcd.mc import ExperimentPlan, run_experiment
cell = DgpConfig(dgp=1, t=200, n=400, k=2, error_dist=ErrorDist.CHISQ5,
                 alternative=Alternative.SPARSE)
def batch(seed):
    run_experiment(ExperimentPlan(cells=(cell,), reps=5, tests=("RLM", "RLM_PE"), root_seed=seed))
batch(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(1, 9):
    batch(seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)
"""
        src = str(Path(mc.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 20
