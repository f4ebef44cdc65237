"""Deterministic replication engine for size/power experiments.

Each (cell, replication) pair gets its own random stream derived by
counter-style mixing of (root seed, cell index, replication index), so a
replication's data never depends on scheduling: the report is a pure
function of the plan (minus the worker count), bit for bit, whether it
runs on one process or many.

A replication is generate -> fit -> test -> record decisions. A failure
its data gives (a ``PanelError``, such as a rank-deficient simulated
design, or a ``LinAlgError``) is captured and counted, and the failed
replication drops out of the rejection-frequency denominator; any other
exception is a fault of the program and propagates. A test that does not
apply to the cell's model is counted as unsupported, apart from the
failures.

One loop runs replications, in the calling process at one worker and in
each pool worker on its contiguous slice of the tasks. It pins the heap,
and a helper thread draws one replication ahead: while this thread
builds, fits and tests a replication through ``run_replication``, the
helper runs the next one's design up to its pause
(:func:`~panelcd.dgp.draw_panel`), and nothing else. The loop takes a
replication's draws and queues the next one's in the same step, so the
helper draws back to back and holds one replication's draws ahead at
most. A panel's build frees its own draws as it uses them, which keeps
that bound while the next draw runs alongside.

Pool workers run BLAS on one thread. So does the calling process while
the loop runs there, for cells of up to ``ONE_BLAS_THREAD_MAX_OBS``
observations; larger cells keep the caller's count, and the caller's
count comes back on return.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, partial
from types import GeneratorType
from typing import Sequence

import numpy as np

from .cd_stats import TestConfig, run_all
from .dgp import DgpConfig, draw_panel, generate_panel
from .panel import PanelError, fit

_FAILURE_CAUSES = (PanelError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class ExperimentPlan:
    """A grid of simulation cells plus the replication and seeding policy;
    ``alpha`` and ``tests`` follow ``TestConfig``, whose ``tests`` tuple it stores."""

    cells: Sequence[DgpConfig]
    reps: int
    alpha: float = 0.05
    tests: Sequence[str] = ("RLM", "RLM_PE", "LM_adj", "CD_P")
    root_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not self.cells:
            raise ValueError("plan needs at least one cell")
        if not isinstance(self.reps, (int, np.integer)) or self.reps < 1:
            raise ValueError("need reps >= 1")
        if not isinstance(self.root_seed, (int, np.integer)) or self.root_seed < 0:
            raise ValueError("root_seed must be a non-negative integer")
        if not isinstance(self.workers, (int, np.integer)) or self.workers < 1:
            raise ValueError("need workers >= 1")
        object.__setattr__(self, "cells", tuple(self.cells))
        for i, cell in enumerate(self.cells):
            if not isinstance(cell, DgpConfig):
                raise ValueError(f"cells[{i}] is not a DgpConfig: {cell!r}")
        # the rules every replication's TestConfig applies, checked before any runs
        object.__setattr__(self, "tests", TestConfig(alpha=self.alpha, tests=self.tests).tests)


@dataclass(frozen=True)
class RepOutcome:
    """Per-test reject flags for one replication; None marks a test that
    produced no decision. ``unsupported`` names the requested tests that do
    not apply to the cell's model; their flags are None as well."""

    flags: tuple
    error: str = ""
    unsupported: tuple = ()

    @property
    def failed(self) -> bool:
        return bool(self.error)


@dataclass(frozen=True)
class ReportRow:
    cell_index: int
    t: int
    n: int
    dist: str
    alternative: str
    test: str
    rejection_count: int
    valid_reps: int
    failed_reps: int
    unsupported_reps: int

    @property
    def frequency(self) -> float:
        """Rejection frequency in percent over the valid replications."""
        if self.valid_reps == 0:
            return float("nan")
        return 100.0 * self.rejection_count / self.valid_reps

    @property
    def mc_se(self) -> float:
        """Monte Carlo standard error of the frequency, in percent."""
        if self.valid_reps == 0:
            return float("nan")
        p = self.rejection_count / self.valid_reps
        return 100.0 * float(np.sqrt(p * (1.0 - p) / self.valid_reps))


@dataclass(frozen=True)
class RejectionReport:
    """Aggregated rejection frequencies for every (cell, test) pair."""

    rows: tuple
    reps: int
    alpha: float
    tests: tuple
    root_seed: int
    wall_time: float


def derive_stream(root_seed: int, cell_index: int, rep_index: int) -> np.random.Generator:
    """An independent, reproducible stream for one (cell, replication).

    Uses numpy's SeedSequence entropy mixing with (cell, rep) as the spawn
    key, which is stable across platforms and independent of execution
    order.
    """
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=(cell_index, rep_index))
    return np.random.Generator(np.random.PCG64(ss))


def run_replication(
    cfg: DgpConfig,
    tests: Sequence[str],
    alpha: float,
    rng: np.random.Generator | GeneratorType,
) -> RepOutcome:
    """Generate one panel, fit it with its model kind, and run the battery.

    ``rng`` is what :func:`~panelcd.dgp.generate_panel` takes: the
    replication's stream, or its design paused by
    :func:`~panelcd.dgp.draw_panel` on that stream. Returns one flag
    per requested test, in the order of ``tests``: True/False for a
    decision, None when that test was unsupported or failed, or the whole
    replication failed. Unsupported tests are also listed by name. A
    ``TestConfig`` rule that ``tests`` or ``alpha`` breaks raises first.
    """
    battery = TestConfig(alpha=alpha, tests=tests)
    try:
        gen = generate_panel(cfg, rng)
        resid = fit(gen.panel, gen.model_spec)
        del gen  # the panel's grids go before the battery runs
        results = run_all(resid, battery)
    except _FAILURE_CAUSES as exc:
        return _failed(exc, tests)
    by_name = {r.name: r for r in results}
    flags = tuple(
        bool(by_name[t].reject) if by_name[t].status == "ok" else None for t in tests
    )
    unsupported = tuple(t for t in tests if by_name[t].status == "unsupported")
    return RepOutcome(flags=flags, unsupported=unsupported)


def _failed(exc: Exception, tests: tuple) -> RepOutcome:
    return RepOutcome(flags=(None,) * len(tests), error=f"{type(exc).__name__}: {exc}")


def _draw_task(plan: ExperimentPlan, task) -> GeneratorType:
    cell_index, rep_index = task
    return draw_panel(plan.cells[cell_index], derive_stream(plan.root_seed, cell_index, rep_index))


# In the calling process, cells of at most this many observations (n * T)
# run BLAS on one thread, and larger ones keep the caller's count. On two
# cores, with all eight tests: n = 2000, T = 500 ran as fast either way
# (about 0.59 s a replication), and n = 4000, T = 1000 took 1.80 s on one
# thread against 1.44-1.58 s on two.
ONE_BLAS_THREAD_MAX_OBS = 1_000_000


def _run_here(plan: ExperimentPlan, tasks: list) -> list:
    """Run ``tasks``, a list of (cell, replication) index pairs, in this
    process. A helper thread draws the tasks in order, back to back: task
    i + 1's draw is queued as task i's draws are taken, so it runs while task
    i is built, fitted and tested, and task i + 2's is queued only once task
    i is done. Each outcome is the one ``run_replication`` gives on the
    task's ``derive_stream``. This is the one loop that runs replications,
    so it sets up the process it runs in: it pins the heap (``_pin_heap``),
    and runs BLAS on one thread for cells up to ``ONE_BLAS_THREAD_MAX_OBS``
    observations, with the process's count back on return."""
    from concurrent.futures import ThreadPoolExecutor

    _pin_heap()  # before the helper thread can take an arena of its own
    previous = _set_blas_threads(1)
    outcomes = []
    try:
        with ThreadPoolExecutor(max_workers=1) as helper:
            ahead = helper.submit(_draw_task, plan, tasks[0])
            for i, (ci, ri) in enumerate(tasks, 1):
                cell = plan.cells[ci]
                if ri == 0 and previous is not None:
                    _set_blas_threads(1 if cell.n * cell.t <= ONE_BLAS_THREAD_MAX_OBS else previous)
                drawn = ahead
                if i < len(tasks):  # the next task's draw, queued behind this one's
                    ahead = helper.submit(_draw_task, plan, tasks[i])
                try:
                    draws = drawn.result()
                except _FAILURE_CAUSES as exc:
                    outcomes.append(_failed(exc, plan.tests))
                else:
                    outcomes.append(run_replication(cell, plan.tests, plan.alpha, draws))
    finally:
        if previous is not None:
            _set_blas_threads(previous)
    return outcomes


def _pin_heap() -> None:
    """Pin glibc's mmap threshold at 32 MiB, its dynamic rule's 64-bit ceiling,
    and the trim threshold at twice that, as the rule keeps them. Replications
    then reuse freed heap instead of faulting in fresh mappings. Either call
    turns the rule off, so both are made or neither; without ``mallopt``
    this does nothing.

    Where they are pinned, every thread also allocates from the one arena.
    Otherwise a draw thread that starts before the last one has given up its
    arena takes a new one, and each arena keeps its own freed heap."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    if mallopt(-3, 32 << 20) == 1:  # M_MMAP_THRESHOLD; glibc's M_TRIM_THRESHOLD cannot fail
        mallopt(-1, 64 << 20)
        mallopt(-8, 1)  # M_ARENA_MAX


@cache
def _blas_controls():
    """(get, set) thread-count functions of the OpenBLAS that numpy's linalg
    extension links, or None where it has no such symbols. A symbol lookup
    on the extension's handle also searches the libraries it links."""
    import ctypes

    from numpy.linalg import _umath_linalg

    lib = ctypes.CDLL(_umath_linalg.__file__)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _set_blas_threads(count: int):
    """Run OpenBLAS on ``count`` threads; return the count it had, or None
    where there is no OpenBLAS to set (nothing changes then)."""
    controls = _blas_controls()
    if controls is None:
        return None
    get, put = controls
    previous = get()
    put(count)
    return previous


def run_experiment(plan: ExperimentPlan) -> RejectionReport:
    """Run the full replication grid and aggregate rejection frequencies.

    Every replication runs in ``_run_here``'s loop: here at one worker, or
    in pool workers that each take contiguous slices of the tasks. The
    outcomes come back in (cell, replication) index order either way, so
    the report does not depend on the worker count. Each pool worker runs
    BLAS on one thread, for every cell size, so the workers share the
    cores instead of oversubscribing them. The calling process, when it
    runs the replications itself, does the same for cells of up to
    ``ONE_BLAS_THREAD_MAX_OBS`` observations and keeps its own count for
    larger ones, and its own setting is restored on return. Every process
    that runs replications pins glibc's malloc thresholds (``_pin_heap``),
    and keeps them after the loop returns.
    """
    start = time.perf_counter()
    tasks = [(ci, ri) for ci in range(len(plan.cells)) for ri in range(plan.reps)]
    if plan.workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(tasks) // (plan.workers * 8))
        slices = [tasks[i : i + chunk] for i in range(0, len(tasks), chunk)]
        # a forked worker keeps the caller's BLAS thread count, so two workers
        # on two cores would run four BLAS threads between them
        with ProcessPoolExecutor(
            max_workers=plan.workers, initializer=_set_blas_threads, initargs=(1,)
        ) as pool:
            outcomes = [o for part in pool.map(partial(_run_here, plan), slices) for o in part]
    else:
        outcomes = _run_here(plan, tasks)

    rows = []
    for ci, cell in enumerate(plan.cells):
        cell_outcomes = outcomes[ci * plan.reps : (ci + 1) * plan.reps]
        for ti, test in enumerate(plan.tests):
            flags = [o.flags[ti] for o in cell_outcomes]
            valid = sum(f is not None for f in flags)
            unsupported = sum(test in o.unsupported for o in cell_outcomes)
            rows.append(
                ReportRow(
                    cell_index=ci,
                    t=cell.t,
                    n=cell.n,
                    dist=cell.error_dist.value,
                    alternative=cell.alternative.value,
                    test=test,
                    rejection_count=sum(bool(f) for f in flags),
                    valid_reps=valid,
                    failed_reps=plan.reps - valid - unsupported,
                    unsupported_reps=unsupported,
                )
            )
    return RejectionReport(
        rows=tuple(rows),
        reps=plan.reps,
        alpha=plan.alpha,
        tests=plan.tests,
        root_seed=plan.root_seed,
        wall_time=time.perf_counter() - start,
    )
