"""The benchmark's workloads: their inputs, the timed loop, and the checks.

An operation is one replication on the Monte Carlo workloads and one
``panelcd test`` call on the CLI workload. The timed loop repeats whole
operations (whole ``run_experiment`` batches, whole CLI calls) until the
run's seconds are used, and every check runs after the timed part.

Batch ``b`` of a Monte Carlo run with seed ``s`` uses root seed
``100000 * s + b``; the CLI panel is dgp 2 drawn with seed ``s``. The
program receives only these plans and that CSV.
"""

from __future__ import annotations

import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracle
import panelcd
from panelcd import (
    Alternative,
    DgpConfig,
    ErrorDist,
    ExperimentPlan,
    TestConfig,
    correlation_matrix,
    derive_stream,
    fit,
    generate_panel,
    projection_pair_moments,
    run_all,
    run_experiment,
    run_replication,
    trace_stats,
)

ALPHA = 0.05
BATCH_SEED_STRIDE = 100_000
SETUP_REPEATS = 7
SAMPLED_PAIRS = 4  # LM_adj pairs per panel checked against dense M_i
STAT_RTOL = 1e-7
P_RTOL = 1e-6
PAIR_RTOL = 1e-9

END_TO_END = {"reps_per_s": "rep/s", "test_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dgp.generate_ms": "ms",
    "panel.fit_ms": "ms",
    "panel.validate_ms": "ms",
    "panel.factorizations_per_op": "count",
    "correlation.corr_ms": "ms",
    "correlation.trace_ms": "ms",
    "correlation.grid_ms": "ms",
    "correlation.grid_peak_mb": "MB",
    "cd_stats.run_all_self_ms": "ms",
    "cd_stats.lm_adj_self_ms": "ms",
    "mc.overhead_ms_per_rep": "ms",
    "mc.cpu_ms_per_rep": "ms",
    "mc.invol_ctx_switches_per_rep": "count",
    "cli.load_csv_ms": "ms",
    "cli.emit_ms": "ms",
    "trace.untraced_ms_per_op": "ms",
    "trace.traced_ms_per_op": "ms",
    "trace.overhead_pct": "%",
}
# per-layer metric -> span whose self time it reports, in ms per operation
SELF_TIME_SPANS = {
    "dgp.generate_ms": "dgp.generate",
    "panel.fit_ms": "panel.fit",
    "panel.validate_ms": "panel.validate",
    "correlation.corr_ms": "correlation.corr",
    "correlation.trace_ms": "correlation.trace",
    "correlation.grid_ms": "correlation.grid",
    "cd_stats.run_all_self_ms": "cd_stats.run_all",
    "cd_stats.lm_adj_self_ms": "cd_stats.lm_adj",
    "cli.load_csv_ms": "cli.load_csv",
    "cli.emit_ms": "cli.emit",
}

ALL_TEST_FLAGS = "lm,cdlm,cdp,lmbc,lmadj,lmrmt,rlm,rlmpe"


@dataclass
class Pass:
    """One timed loop: wall time and operation count per entry, outputs,
    and the process's resource use over the loop."""

    times: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    cpu_s: float = 0.0
    invol_switches: int = 0
    peak_rss_mb: float = 0.0

    @property
    def total_ops(self) -> int:
        return sum(self.ops)

    @property
    def s_per_op(self) -> float:
        return sum(self.times) / self.total_ops


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict
    problems: list
    timed: list  # (seconds, operations) of each timed step of the untraced pass


def _usage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    return own.ru_utime + own.ru_stime, own.ru_nivcsw


def _peak_rss_mb() -> float:
    """Largest resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(step, seconds=None, count=None, tracer=None) -> Pass:
    """Call ``step(i)`` -> (ops, output) for i = 1, 2, ... until ``seconds``
    of wall time are used or ``count`` steps are done; only the call is
    timed."""
    result = Pass()
    cpu0, sw0 = _usage()
    start = time.perf_counter()
    while (count is None and time.perf_counter() - start < seconds) or (
        count is not None and len(result.times) < count
    ):
        t0 = time.perf_counter()
        if tracer is None:
            ops, output = step(len(result.times) + 1)
        else:
            with tracer.span("op"):
                ops, output = step(len(result.times) + 1)
        result.times.append(time.perf_counter() - t0)
        result.ops.append(ops)
        result.outputs.append(output)
    cpu1, sw1 = _usage()
    result.cpu_s, result.invol_switches = cpu1 - cpu0, sw1 - sw0
    result.peak_rss_mb = _peak_rss_mb()
    return result


@dataclass
class Passes:
    warmup: tuple  # (ops, output) of step 0, run untimed before the timed loop
    main: Pass
    traced: Pass | None

    @property
    def outputs(self) -> list:
        return [self.warmup[1]] + self.main.outputs + (self.traced.outputs if self.traced else [])

    @property
    def attempted(self) -> int:
        return self.warmup[0] + self.main.total_ops + (self.traced.total_ops if self.traced else 0)


def run_passes(step, seconds: float, trace: bool, same) -> tuple:
    """Warm up with one untimed operation, then time ``step`` for the run's
    seconds. A traced run times half the seconds untraced, then the same
    operations traced. Returns (passes, per-layer metrics, problems)."""
    warmup = step(0)
    main = _timed_pass(step, seconds=seconds / 2 if trace else seconds)
    if not trace:
        return Passes(warmup, main, None), {}, []
    from spans import Tracer, installed

    tracer = Tracer()
    with installed(tracer):
        traced = _timed_pass(step, count=len(main.times), tracer=tracer)
    problems = []
    if not all(same(a, b) for a, b in zip(traced.outputs, main.outputs)):
        problems.append("traced outputs differ from the untraced outputs")
    return Passes(warmup, main, traced), layer_metrics(tracer, main, traced), problems


def measure_setup(name: str, seed: int, work: Path, repeats: int = SETUP_REPEATS) -> float:
    """Median seconds from starting a fresh interpreter to the workload's
    first operation being ready (``import panelcd`` included)."""
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
        "workloads.WORKLOADS[sys.argv[3]].prepare(int(sys.argv[4]), sys.argv[5]); "
        "sys.stdout.write('ready\\n'); sys.stdout.flush()"
    )
    src = str(Path(panelcd.__file__).resolve().parent.parent)
    argv = [sys.executable, "-c", code, src, str(Path(__file__).resolve().parent),
            name, str(seed), str(work)]
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            status = proc.wait()
        if line.strip() != "ready" or status != 0:
            raise RuntimeError(f"set-up probe for {name} exited with {status}")
        samples.append(elapsed)
    return statistics.median(samples)


# ---------------------------------------------------------------- checks


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_against_oracle(y, x, found: dict, tests, program_resid=None, program_bases=None,
                         rng=None) -> list:
    """Compare the program's results with an independent recomputation.

    ``found`` maps a test name to (statistic, p-value, reject). When the
    program's residuals and bases are given they are checked too; the pair
    moments of ``SAMPLED_PAIRS`` random pairs are checked against dense
    annihilators, through the program's ``projection_pair_moments``.
    """
    problems = []
    n, t, k = x.shape
    v = oracle.residuals(y, x)
    rho = oracle.correlation(v)
    if program_resid is not None:
        scale = max(1.0, float(np.abs(v).max()))
        if np.abs(program_resid.resid - v).max() > 1e-8 * scale:
            problems.append("residuals differ from per-unit lstsq")
        corr = correlation_matrix(program_resid)
        if np.abs(corr.rho - rho).max() > 1e-10:
            problems.append("correlation matrix differs from the oracle")
        ts = trace_stats(corr, t)
        r2 = rho @ rho
        if not (_close(ts.tr_r2, float((rho * rho).sum()), 1e-10)
                and _close(ts.tr_r4, float((r2 * r2).sum()), 1e-10)):
            problems.append("tr(R^2) or tr(R^4) differs from the oracle")
    q = oracle.design_bases(x) if "LM_adj" in tests else None
    expected = oracle.statistics(rho, t, k, q)
    for name in tests:
        stat, p, reject = found[name]
        want = expected[name]
        if not _close(stat, want, STAT_RTOL):
            problems.append(f"{name} statistic {stat!r} != oracle {want!r}")
            continue
        p_want = oracle.p_value(name, want, n)
        if p_want > 1e-290 and abs(p - p_want) > P_RTOL * p_want + 1e-12:
            problems.append(f"{name} p-value {p!r} != oracle {p_want!r}")
        if abs(p_want - ALPHA) > 1e-6 and reject != (p_want < ALPHA):
            problems.append(f"{name} decision differs from the oracle")
    if q is not None:
        bases = q if program_bases is None else program_bases
        rng = rng or random.Random(0)
        for _ in range(SAMPLED_PAIRS):
            i, j = rng.sample(range(n), 2)
            dense = oracle.dense_pair_traces(x[i], x[j])
            reduced = [float(a[0, j]) for a in oracle.reduced_pair_traces(q, slice(i, i + 1))]
            mu, sigma = oracle.pair_moments(*dense, t, k)
            prog = projection_pair_moments(bases[i], bases[j], t, k)
            if not all(_close(a, b, PAIR_RTOL) for a, b in zip(reduced, dense)):
                problems.append(f"oracle pair traces ({i},{j}) differ from dense M_i")
            if not (_close(prog.mu, float(mu), PAIR_RTOL)
                    and _close(prog.sigma, float(sigma), PAIR_RTOL)):
                problems.append(f"LM_adj pair moments ({i},{j}) differ from dense M_i")
    return problems


# ------------------------------------------------------------ Monte Carlo


@dataclass(frozen=True)
class McWorkload:
    name: str
    cell: DgpConfig
    tests: tuple
    batch: int  # replications per run_experiment call

    def plan(self, seed: int, batch: int) -> ExperimentPlan:
        return ExperimentPlan(
            cells=(self.cell,),
            reps=self.batch,
            alpha=ALPHA,
            tests=self.tests,
            root_seed=BATCH_SEED_STRIDE * seed + batch,
            workers=1,
        )

    def prepare(self, seed: int, work) -> ExperimentPlan:
        return self.plan(seed, 0)

    def _step(self, seed: int):
        def step(i):
            report = run_experiment(self.plan(seed, i))
            return self.batch, report

        return step

    def _failed(self, report) -> int:
        # a replication fails when any requested test gives no decision;
        # the report counts them per test
        return max(row.failed_reps for row in report.rows)

    def run(self, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
        setup_s = None if trace else measure_setup(self.name, seed, work)
        passes, metrics, problems = run_passes(self._step(seed), seconds, trace,
                                               lambda a, b: a.rows == b.rows)
        main = passes.main
        if not trace:
            # every batch has the same size, so the median batch gives both
            # the typical rate and the typical time per replication
            per_rep = statistics.median(main.times) / self.batch
            metrics["setup_s"] = setup_s
            metrics["reps_per_s"] = 1.0 / per_rep
            metrics["test_s"] = per_rep
            metrics["peak_rss_mb"] = main.peak_rss_mb
        problems += self.check_outputs(seed, [passes.warmup[1]] + main.outputs)
        failed = sum(self._failed(r) for r in passes.outputs)
        return Outcome(passes.attempted, failed, metrics, problems,
                       list(zip(main.times, main.ops)))

    def check_outputs(self, seed: int, reports: list) -> list:
        problems = []
        # under the sparse alternative the power-enhanced test must reject more
        rejections = {test: sum(row.rejection_count for r in reports for row in r.rows
                                if row.test == test) for test in self.tests}
        if rejections["RLM_PE"] <= rejections["RLM"]:
            problems.append(f"RLM_PE rejections {rejections['RLM_PE']} <= RLM {rejections['RLM']}")

        # one sampled replication each from the first and the last batch
        rng = random.Random(seed)
        for batch in (0, len(reports) - 1):
            problems += self.check_replication(seed, batch, rng.randrange(self.batch), rng)
        return problems

    def check_replication(self, seed: int, batch: int, rep: int, rng) -> list:
        root = BATCH_SEED_STRIDE * seed + batch
        gen = generate_panel(self.cell, derive_stream(root, 0, rep))
        outcome = run_replication(self.cell, self.tests, ALPHA, derive_stream(root, 0, rep))
        resid = fit(gen.panel, gen.model_spec, keep_bases="LM_adj" in self.tests)
        results = {r.name: r for r in run_all(resid, TestConfig(alpha=ALPHA, tests=self.tests))}
        where = f"batch {batch} replication {rep}: "
        if any(r.status != "ok" for r in results.values()):
            return [where + "a test gave no decision"]
        problems = []
        if outcome.flags != tuple(results[t].reject for t in self.tests):
            problems.append("run_replication flags differ from run_all decisions")
        found = {name: (r.statistic, r.p_value, r.reject) for name, r in results.items()}
        problems += check_against_oracle(gen.panel.y, gen.panel.x, found, self.tests,
                                         program_resid=resid, program_bases=resid.ortho_bases,
                                         rng=rng)
        return [where + p for p in problems]


# -------------------------------------------------------------------- CLI


def write_panel_csv(path: Path, panel) -> None:
    """Long-format CSV ``unit,time,y,x1,...`` without the intercept column."""
    k_out = panel.k - 1
    lines = ["unit,time,y" + "".join(f",x{j}" for j in range(1, k_out + 1))]
    for i, unit in enumerate(panel.unit_ids):
        y, x = panel.y[i], panel.x[i]
        for s, label in enumerate(panel.time_ids):
            values = [repr(float(y[s]))] + [repr(float(v)) for v in x[s, 1:]]
            lines.append(f"{unit},{label}," + ",".join(values))
    path.write_text("\n".join(lines) + "\n")


def read_panel_csv(path: Path):
    """(y, x) from the long CSV, read with numpy; x gains an intercept."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    order = np.lexsort((raw[:, 1], raw[:, 0]))
    raw = raw[order]
    n, t = len(np.unique(raw[:, 0])), len(np.unique(raw[:, 1]))
    if n * t != raw.shape[0]:
        raise ValueError("CSV panel is not balanced")
    y = raw[:, 2].reshape(n, t)
    x = np.concatenate([np.ones((n, t, 1)), raw[:, 3:].reshape(n, t, -1)], axis=2)
    return y, x


def parse_test_output(text: str) -> dict:
    """test name -> (statistic, p-value, reject, status) from ``--format csv``."""
    out = {}
    for line in text.splitlines()[1:]:
        f = line.split(",")
        if f[10]:
            out[f[4]] = (math.nan, math.nan, False, f[10])
        else:
            out[f[4]] = (float(f[5]), float(f[6]), f[7] == "true", "ok")
    return out


@dataclass(frozen=True)
class CliWorkload:
    name: str
    cell: DgpConfig  # its seed is replaced by the run's seed
    tests: tuple

    def paths(self, seed: int, work) -> tuple:
        work = Path(work)
        return work / f"{self.name}-{seed}.csv", work / f"{self.name}-{seed}.out.csv"

    def argv(self, seed: int, work) -> list:
        data, out = self.paths(seed, work)
        return ["test", "--data", str(data), "--model", "hetero", "--tests", ALL_TEST_FLAGS,
                "--alpha", str(ALPHA), "--format", "csv", "--output", str(out)]

    def prepare(self, seed: int, work):
        from panelcd import cli

        return cli.parse_args(self.argv(seed, work))

    def _step(self, seed: int, work):
        from panelcd import cli

        argv = self.argv(seed, work)
        out = self.paths(seed, work)[1]

        def step(i):
            code = cli.main(argv)
            text = out.read_text() if code == 0 else ""
            return 1, (code, text)

        return step

    def _call_failed(self, output) -> bool:
        code, text = output
        if code != 0:
            return True
        try:
            found = parse_test_output(text)
        except (IndexError, ValueError):
            return True
        return set(found) != set(self.tests) or any(
            status != "ok" or not math.isfinite(stat) for stat, _, _, status in found.values()
        )

    def run(self, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
        data = self.paths(seed, work)[0]
        write_panel_csv(data, generate_panel(replace(self.cell, seed=seed)).panel)
        setup_s = None if trace else measure_setup(self.name, seed, work)
        passes, metrics, problems = run_passes(self._step(seed, work), seconds, trace,
                                               lambda a, b: a == b)
        main = passes.main
        if not trace:
            # Each call already spans about a second, and the host runs it at
            # one of two speeds for seconds at a time, so the median call
            # jumps between the two; the mean over the run is steadier.
            metrics["setup_s"] = setup_s
            metrics["reps_per_s"] = main.total_ops / sum(main.times)
            metrics["test_s"] = sum(main.times) / main.total_ops
            metrics["peak_rss_mb"] = main.peak_rss_mb
            calls = len(main.times)
            print(f"test_s median over {calls} calls: {statistics.median(main.times):.6f} s")
            if calls >= 40:
                # highest percentile with at least ten samples beyond it
                tail = sorted(main.times)[-11]
                print(f"test_s p{100.0 * (1.0 - 10.0 / calls):.1f} over {calls} calls: "
                      f"{tail:.6f} s")
        outputs = passes.outputs
        failed = sum(self._call_failed(o) for o in outputs)
        if any(o != outputs[0] for o in outputs):
            problems.append("repeated test calls gave different outputs")
        if not self._call_failed(outputs[0]):
            y, x = read_panel_csv(data)
            found = {name: v[:3] for name, v in parse_test_output(outputs[0][1]).items()}
            problems += check_against_oracle(y, x, found, self.tests, rng=random.Random(seed))
        return Outcome(passes.attempted, failed, metrics, problems,
                       list(zip(main.times, main.ops)))


def layer_metrics(tracer, untraced: Pass, traced: Pass) -> dict:
    """Per-layer numbers from the traced pass; resource use per operation
    from the untraced pass over the same inputs."""
    from spans import totals

    tot = totals(tracer.spans)
    ops = traced.total_ops
    out = {name: 1000.0 * tot.self_time.get(span, 0.0) / ops
           for name, span in SELF_TIME_SPANS.items()}
    out["panel.factorizations_per_op"] = tracer.counts.get("panel.factorizations", 0) / ops
    out["correlation.grid_peak_mb"] = tot.peak_bytes.get("correlation.grid", 0) / 2**20
    if "mc.replication" in tot.calls:
        busy = tot.duration["mc.replication"]
        out["mc.overhead_ms_per_rep"] = 1000.0 * (tot.duration["op"] - busy) / ops
    else:
        out["mc.overhead_ms_per_rep"] = 0.0
    out["mc.cpu_ms_per_rep"] = 1000.0 * untraced.cpu_s / untraced.total_ops
    out["mc.invol_ctx_switches_per_rep"] = untraced.invol_switches / untraced.total_ops
    out["trace.untraced_ms_per_op"] = 1000.0 * untraced.s_per_op
    out["trace.traced_ms_per_op"] = 1000.0 * traced.s_per_op
    out["trace.overhead_pct"] = 100.0 * (traced.s_per_op / untraced.s_per_op - 1.0)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        McWorkload(
            name="mc-sparse-large",
            cell=DgpConfig(dgp=1, t=200, n=400, k=2, error_dist=ErrorDist.CHISQ5,
                           alternative=Alternative.SPARSE),
            tests=("RLM", "RLM_PE"),
            batch=5,
        ),
        CliWorkload(
            name="cli-test-large",
            cell=DgpConfig(dgp=2, t=100, n=1000, k=3, error_dist=ErrorDist.NORMAL),
            tests=("LM", "CD_LM", "CD_P", "LM_bc", "LM_adj", "LM_RMT", "RLM", "RLM_PE"),
        ),
    )
}
