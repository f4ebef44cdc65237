"""Span recording for the traced run, installed from outside the package.

Each wrapper replaces the name that the calling module looks up at call
time (``panelcd.mc.fit``, ``panelcd.cd_stats.projection_moment_grids``,
...), so the program is measured without a line of it changing. Spans are
kept in memory as (name, parent, start, end, peak bytes) and turned into
per-layer numbers when the run ends. Every workload runs at one worker,
so all spans are recorded in the benchmark's own process.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute looked up by that module, span name)
SPAN_TARGETS = (
    ("panelcd.mc", "run_replication", "mc.replication"),
    ("panelcd.mc", "generate_panel", "dgp.generate"),
    ("panelcd.mc", "fit", "panel.fit"),
    ("panelcd.mc", "run_all", "cd_stats.run_all"),
    ("panelcd.cli", "load_panel_csv", "cli.load_csv"),
    ("panelcd.cli", "validate_dataset", "panel.validate"),
    ("panelcd.cli", "fit", "panel.fit"),
    ("panelcd.cli", "run_all", "cd_stats.run_all"),
    ("panelcd.cli", "emit_report", "cli.emit"),
    ("panelcd.cd_stats", "correlation_matrix", "correlation.corr"),
    ("panelcd.cd_stats", "trace_stats", "correlation.trace"),
    ("panelcd.cd_stats", "lm_adj_stat", "cd_stats.lm_adj"),
    ("panelcd.cd_stats", "projection_moment_grids", "correlation.grid"),
)

# Calls counted, not timed: the factorizations behind every fit.
COUNT_TARGETS = (
    ("numpy.linalg", "svd", "panel.factorizations"),
    ("numpy.linalg", "qr", "panel.factorizations"),
)

# Spans whose peak traced allocation is recorded (tracemalloc runs only
# inside them, so its cost stays out of every other span).
PEAK_SPANS = frozenset({"correlation.grid"})


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    peak_bytes: int = 0


class Tracer:
    """In-memory span and count store for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, peak_bytes: int = 0) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.peak_bytes = peak_bytes
        self._stack.pop()

    def count(self, name: str) -> None:
        self.counts[name] += 1

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)


def _timed(tracer: Tracer, fn, name: str):
    peak = name in PEAK_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        if peak:
            tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak_bytes = 0
            if peak:
                peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            tracer.close(index, peak_bytes)

    return wrapper


def _counted(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Put the wrappers in place for the body of the ``with`` block."""
    originals = []
    try:
        for targets, make in ((SPAN_TARGETS, _timed), (COUNT_TARGETS, _counted)):
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, make(tracer, fn, name))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


@dataclass(frozen=True)
class LayerTotals:
    """Per span name: total duration, total self time, call count, peak."""

    duration: dict
    self_time: dict
    calls: dict
    peak_bytes: dict


def totals(spans: list[Span]) -> LayerTotals:
    duration, self_time, calls, peak = (defaultdict(float), defaultdict(float),
                                        defaultdict(int), defaultdict(int))
    for span, own in zip(spans, self_times(spans)):
        duration[span.name] += span.end - span.start
        self_time[span.name] += own
        calls[span.name] += 1
        peak[span.name] = max(peak[span.name], span.peak_bytes)
    return LayerTotals(dict(duration), dict(self_time), dict(calls), dict(peak))
