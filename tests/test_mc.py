import concurrent.futures
import ctypes
import inspect
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import panelcd.dgp as dgp
import panelcd.mc as mc
from panelcd.dgp import Alternative, DgpConfig, ErrorDist
from panelcd.panel import PanelError
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

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("root_seed", [-1, 1.5])
    def test_bad_root_seed_is_refused_at_any_worker_count(self, root_seed, workers):
        # it used to count as failed replications at one worker, and raise from the pool at two
        with pytest.raises(ValueError, match="root_seed must be a non-negative integer"):
            ExperimentPlan(cells=(small_cell(),), reps=3, tests=("RLM",), root_seed=root_seed,
                           workers=workers)

    @pytest.mark.parametrize("workers", [0, -5, 1.5])
    def test_bad_worker_count_is_refused(self, workers):
        with pytest.raises(ValueError, match="need workers >= 1"):
            ExperimentPlan(cells=(small_cell(),), reps=3, tests=("RLM",), workers=workers)

    def test_tests_reordered_canonically(self):
        plan = ExperimentPlan(cells=(small_cell(),), reps=2, tests=("RLM_PE", "LM", "RLM"))
        assert plan.tests == ("LM", "RLM", "RLM_PE")


def _spawn_key(rng):
    """The (cell, replication) of a stream made by derive_stream."""
    return rng.bit_generator.seed_seq.spawn_key


class TestInProcessLoop:
    PLAN = ExperimentPlan(
        cells=(small_cell(), small_cell(dgp=2, t=25, n=8, k=3), small_cell(dgp=3),
               small_cell(dgp=4, n=7, k=0)),
        reps=3, tests=("RLM", "CD_P", "LM_adj"), root_seed=23,
    )
    TASKS = [(ci, ri) for ci in range(4) for ri in range(3)]

    def _faulty(self, monkeypatch, draw_fault=None, fit_fault=None, at=(1, 2), on_call=5):
        """Make the draw of replication ``at`` raise ``draw_fault``, and the
        ``on_call``-th fit of each run raise ``fit_fault``; return a function
        that starts a new run's fit count."""
        real_draw, real_fit = dgp.draw_panel, mc.fit
        fits = []

        def draw(cfg, rng):
            if draw_fault is not None and _spawn_key(rng) == at:
                raise draw_fault
            return real_draw(cfg, rng)

        def fit(panel, kind):
            fits.append(kind)
            if fit_fault is not None and len(fits) == on_call:
                raise fit_fault
            return real_fit(panel, kind)

        # generate_panel reads the dgp module's name, the loop the mc module's
        monkeypatch.setattr(dgp, "draw_panel", draw)
        monkeypatch.setattr(mc, "draw_panel", draw)
        monkeypatch.setattr(mc, "fit", fit)
        return fits.clear

    def test_outcomes_equal_run_replication_task_by_task(self, monkeypatch):
        new_run = self._faulty(monkeypatch, draw_fault=ValueError("draw refused"),
                               fit_fault=PanelError("fit refused"))
        expected = [mc._run_task(self.PLAN, task) for task in self.TASKS]
        new_run()
        before = threading.active_count()
        assert mc._run_here(self.PLAN, self.TASKS) == expected
        assert threading.active_count() == before
        errors = {task: o.error for task, o in zip(self.TASKS, expected) if o.failed}
        # the fifth fit is replication (1, 1)'s
        assert errors == {(1, 1): "PanelError: fit refused", (1, 2): "ValueError: draw refused"}
        # LM_adj does not apply to dgp 3's within residuals
        assert [task for task, o in zip(self.TASKS, expected) if o.unsupported] == [
            (2, 0), (2, 1), (2, 2)]

    def test_draws_run_one_replication_ahead_on_a_helper_thread(self, monkeypatch):
        events = []
        real_draw, real_generate, real_replication = (
            mc.draw_panel, mc.generate_panel, mc.run_replication)

        def draw(cfg, rng):
            events.append(("draw", _spawn_key(rng), threading.current_thread()))
            return real_draw(cfg, rng)

        def generate(cfg, rng):
            assert inspect.isgenerator(rng)
            events.append(("generate", None, threading.current_thread()))
            return real_generate(cfg, rng)

        def replication(*args):
            events.append(("replication", None, threading.current_thread()))
            return real_replication(*args)

        def recorded(design):
            def wrapper(cfg, rng):
                gen = yield from design(cfg, rng)
                events.append(("built", None, threading.current_thread()))
                return gen
            return wrapper

        def run_all(*args):
            # the next task's draw runs while this battery does
            count = lambda kind: sum(e[0] == kind for e in events)  # noqa: E731
            wanted = min(count("generate") + 1, len(self.TASKS))
            deadline = time.monotonic() + 5.0
            while count("draw") < wanted:
                assert time.monotonic() < deadline, "no draw ran alongside the battery"
                time.sleep(0.001)
            return real_run_all(*args)

        # the names the loop looks up, and the benchmark's tracer wraps
        real_run_all = mc.run_all
        monkeypatch.setattr(mc, "draw_panel", draw)
        monkeypatch.setattr(mc, "generate_panel", generate)
        monkeypatch.setattr(mc, "run_replication", replication)
        monkeypatch.setattr(mc, "run_all", run_all)
        for d, design in dgp._DESIGNS.items():
            monkeypatch.setitem(dgp._DESIGNS, d, recorded(design))
        mc._run_here(self.PLAN, self.TASKS)
        draws = [e for e in events if e[0] == "draw"]
        assert [key for _, key, _ in draws] == self.TASKS
        assert all(t is not threading.main_thread() for *_, t in draws)
        assert all(t is threading.main_thread() for kind, _, t in events if kind != "draw")
        # the draw of task i + 1 starts only once task i's panel is built
        kinds = [kind for kind, *_ in events]
        assert kinds == ["draw"] + ["replication", "generate", "built", "draw"] * (
            len(self.TASKS) - 1) + ["replication", "generate", "built"]

    @pytest.mark.parametrize("where", ["draw", "fit"])
    def test_unexpected_error_propagates_from_its_replication(self, monkeypatch, where):
        before = threading.active_count()
        fault = RuntimeError("unexpected")
        if where == "draw":
            self._faulty(monkeypatch, draw_fault=fault, at=(0, 3))
        else:
            self._faulty(monkeypatch, fit_fault=fault, on_call=4)
        tested = []
        real_run_all = mc.run_all
        monkeypatch.setattr(mc, "run_all", lambda *a: tested.append(a) or real_run_all(*a))
        plan = ExperimentPlan(cells=(small_cell(),), reps=6, tests=("RLM",), root_seed=5)
        with pytest.raises(RuntimeError, match="unexpected") as info:
            run_experiment(plan)
        assert info.value is fault
        assert len(tested) == 3  # replications 0, 1 and 2 ran their battery, and no later one
        assert threading.active_count() == before

    def test_small_cells_run_blas_on_one_thread_and_the_callers_count_comes_back(
            self, monkeypatch):
        original = _blas_threads()
        if original is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        seen = []
        real_run_all = mc.run_all
        monkeypatch.setattr(mc, "run_all", lambda *a: seen.append(_blas_threads()) or real_run_all(*a))
        # n * T = 120, 240, 120: the middle cell is over the one-thread limit
        monkeypatch.setattr(mc, "ONE_BLAS_THREAD_MAX_OBS", 200)
        plan = ExperimentPlan(cells=(small_cell(), small_cell(t=30, n=8), small_cell()),
                              reps=2, tests=("RLM",), root_seed=2)
        mc._set_blas_threads(2)
        try:
            run_experiment(plan)
            assert seen == [1, 1, 2, 2, 1, 1]
            assert _blas_threads() == 2

            def broken(*args):
                raise RuntimeError("battery broke")

            monkeypatch.setattr(mc, "run_all", broken)
            with pytest.raises(RuntimeError, match="battery broke"):
                run_experiment(plan)
            assert _blas_threads() == 2
        finally:
            mc._set_blas_threads(original)

    def test_pool_workers_set_blas_through_the_same_helper(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mc, "_set_blas_threads", calls.append)
        mc._init_worker()
        assert calls == [1]

    def test_look_ahead_holds_one_replication_of_draws(self):
        # the benchmark's mc-sparse-large cell
        cell = DgpConfig(dgp=1, t=200, n=400, k=2, error_dist=ErrorDist.CHISQ5,
                         alternative=Alternative.SPARSE)
        plan = ExperimentPlan(cells=(cell,), reps=10, tests=("RLM", "RLM_PE"), root_seed=3)
        run_experiment(plan)  # first-call allocations stay out of both peaks
        paused = dgp.draw_panel(cell, derive_stream(3, 0, 0))
        draws = sum(a.nbytes for a in paused.gi_frame.f_locals.values()
                    if isinstance(a, np.ndarray))
        peaks = []
        for run in (lambda: run_replication(cell, plan.tests, plan.alpha, derive_stream(3, 0, 0)),
                    lambda: run_experiment(plan)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, loop = peaks
        assert loop <= one + draws + 0.25 * 2**20


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
        mc._blas_controls.cache_clear()
        try:
            mc._init_worker()  # raises nothing, so a pool would not break
            assert mc._set_blas_threads(1) is None
        finally:
            mc._blas_controls.cache_clear()

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
