"""Deterministic replication engine for size/power experiments.

Each (cell, replication) pair gets its own random stream derived by
counter-style mixing of (root seed, cell index, replication index), so a
replication's data never depends on scheduling: the report is a pure
function of the plan (minus the worker count), bit for bit, whether it
runs on one process or many.

A replication is generate -> fit -> test -> record decisions. Failures
inside a replication (for instance a rank-deficient simulated design) are
captured and counted, never raised, and the failed replication drops out
of the rejection-frequency denominator. A test that does not apply to the
cell's model is counted as unsupported, apart from the failures.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cd_stats import ALL_TESTS, TestConfig, run_all
from .dgp import DgpConfig, generate_panel
from .panel import NearUnitRootWarning, PanelError, fit

_FAILURE_CAUSES = (PanelError, np.linalg.LinAlgError, FloatingPointError, ValueError)


@dataclass(frozen=True)
class ExperimentPlan:
    """A grid of simulation cells plus the replication and seeding policy."""

    cells: Sequence[DgpConfig]
    reps: int
    alpha: float = 0.05
    tests: Sequence[str] = ("RLM", "RLM_PE", "LM_adj", "CD_P")
    root_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not self.cells:
            raise ValueError("plan needs at least one cell")
        if self.reps < 1:
            raise ValueError("need reps >= 1")
        object.__setattr__(self, "cells", tuple(self.cells))
        ordered = tuple(t for t in ALL_TESTS if t in tuple(self.tests))
        if len(ordered) != len(tuple(self.tests)):
            unknown = [t for t in self.tests if t not in ALL_TESTS]
            raise ValueError(f"unknown tests: {unknown}")
        object.__setattr__(self, "tests", ordered)


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
    rng: np.random.Generator,
) -> RepOutcome:
    """Generate one panel, fit it per its model spec, and run the battery.

    Returns one flag per requested test: True/False for a decision, None
    when that test was unsupported or failed, or the whole replication
    failed. Unsupported tests are also listed by name.
    """
    tests = tuple(tests)
    try:
        gen = generate_panel(cfg, rng)
        keep_bases = "LM_adj" in tests
        with warnings.catch_warnings():
            # near-unit-root notices are routine for dynamic cells; they
            # would flood replication runs
            warnings.simplefilter("ignore", NearUnitRootWarning)
            resid = fit(gen.panel, gen.model_spec, keep_bases=keep_bases)
        results = run_all(resid, TestConfig(alpha=alpha, tests=tests))
    except _FAILURE_CAUSES as exc:
        return RepOutcome(flags=(None,) * len(tests), error=f"{type(exc).__name__}: {exc}")
    by_name = {r.name: r for r in results}
    flags = tuple(
        bool(by_name[t].reject) if by_name[t].status == "ok" else None for t in tests
    )
    unsupported = tuple(t for t in tests if by_name[t].status == "unsupported")
    return RepOutcome(flags=flags, unsupported=unsupported)


def _run_task(plan: ExperimentPlan, task) -> RepOutcome:
    cell_index, rep_index = task
    rng = derive_stream(plan.root_seed, cell_index, rep_index)
    return run_replication(plan.cells[cell_index], plan.tests, plan.alpha, rng)


def run_experiment(plan: ExperimentPlan) -> RejectionReport:
    """Run the full replication grid and aggregate rejection frequencies.

    Aggregation iterates tasks in (cell, replication) index order, so the
    report does not depend on the worker count.
    """
    start = time.perf_counter()
    tasks = [(ci, ri) for ci in range(len(plan.cells)) for ri in range(plan.reps)]
    if plan.workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        chunk = max(1, len(tasks) // (plan.workers * 8))
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            outcomes = list(pool.map(partial(_run_task, plan), tasks, chunksize=chunk))
    else:
        outcomes = [_run_task(plan, task) for task in tasks]

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
