"""Command-line front end.

Three commands:

- ``test``: ingest a long-format panel CSV, fit the chosen model, run the
  battery of dependence tests.
- ``simulate``: run one seeded size/power cell and report rejection
  frequencies.
- ``dump-dgp``: emit one generated panel as CSV for inspection; its output
  re-ingests bit-for-bit through ``test``.

The panel CSV schema is ``unit,time,y,x1,...,xk`` in any row order; the
panel must be balanced. An intercept column is inserted automatically
unless ``--no-intercept`` is passed. Exit codes: 0 on success, 1 on
runtime failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .cd_stats import ALL_TESTS, TestConfig, TestResult, run_all
from .dgp import Alternative, DgpConfig, ErrorDist, generate_panel, make_rng
from .mc import ExperimentPlan, RejectionReport, run_experiment
from .panel import ModelKind, ModelSpec, PanelDataset, PanelError, fit, validate_dataset


class CsvError(Exception):
    pass


class CsvParseError(CsvError):
    def __init__(self, line: int, detail: str):
        self.line = line
        super().__init__(f"line {line}: {detail}")


class NonNumericError(CsvParseError):
    def __init__(self, line: int, column: str, value: str):
        self.column = column
        self.value = value
        CsvError.__init__(self, f"line {line}, column {column}: non-numeric value {value!r}")
        self.line = line


class UnbalancedPanelError(CsvError):
    pass


# each test name lower-cased, with and without underscores: "cd_lm", "cdlm"
_TEST_ALIASES = {
    alias: name
    for name in ALL_TESTS
    for alias in (name.lower(), name.lower().replace("_", ""))
}

_MODEL_KINDS = {
    "hetero": ModelKind.HETEROGENEOUS,
    "fixed": ModelKind.FIXED_EFFECTS,
    "dynamic": ModelKind.DYNAMIC,
}

_DIST_NAMES = {"normal": ErrorDist.NORMAL, "chisq": ErrorDist.CHISQ5, "student": ErrorDist.STUDENT_T10}

_ALT_NAMES = {
    "null": Alternative.NULL,
    "dense": Alternative.DENSE,
    "sparse": Alternative.SPARSE,
    "less-sparse": Alternative.LESS_SPARSE,
}

_DEFAULT_K = {1: 2, 2: 3, 3: 2, 4: 0}


def _parse_tests(spec: str, parser: argparse.ArgumentParser) -> tuple:
    names = []
    for raw in spec.split(","):
        key = raw.strip().lower()
        if not key:
            continue
        if key not in _TEST_ALIASES:
            parser.error(f"unknown test {raw!r}; choose from {', '.join(sorted(_TEST_ALIASES))}")
        name = _TEST_ALIASES[key]
        if name not in names:
            names.append(name)
    if not names:
        parser.error("empty --tests list")
    return tuple(t for t in ALL_TESTS if t in names)


def _add_sim_keys(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--dgp", type=int, required=True, choices=(1, 2, 3, 4))
    sub.add_argument("--T", dest="t", type=int, required=True, help="time periods")
    sub.add_argument("--n", type=int, required=True, help="cross-sectional units")
    sub.add_argument("--k", type=int, default=None, help="regressors incl. intercept (dgp 1/3)")
    sub.add_argument("--errors", default="normal", choices=sorted(_DIST_NAMES))
    sub.add_argument("--alternative", default="null", choices=sorted(_ALT_NAMES))
    sub.add_argument("--h", type=float, default=None, help="dense-alternative strength")
    sub.add_argument("--burn-in", type=int, default=50)
    sub.add_argument("--seed", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelcd",
        description="Cross-sectional dependence tests for balanced panels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    t = commands.add_parser("test", help="run the test battery on a panel CSV")
    t.add_argument("--data", required=True, help="long-format CSV: unit,time,y,x1,...")
    t.add_argument("--model", default="hetero", choices=sorted(_MODEL_KINDS))
    t.add_argument("--tests", default="lm,cdlm,cdp,lmbc,lmadj,lmrmt,rlm,rlmpe")
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument("--no-intercept", action="store_true")
    t.add_argument("--output", default=None, help="write here instead of stdout")
    t.add_argument("--format", default="table", choices=("table", "csv"))

    s = commands.add_parser("simulate", help="run one seeded size/power cell")
    _add_sim_keys(s)
    s.add_argument("--reps", type=int, default=2000)
    s.add_argument("--alpha", type=float, default=0.05)
    s.add_argument("--tests", default="rlm,rlmpe,lmadj,cdp")
    s.add_argument(
        "--workers",
        type=int,
        default=int(os.environ.get("PANELCD_WORKERS", "1")),
        help="parallel worker processes (env PANELCD_WORKERS)",
    )
    s.add_argument("--output", default=None)
    s.add_argument("--format", default="table", choices=("table", "csv"))

    d = commands.add_parser("dump-dgp", help="emit one generated panel as CSV")
    _add_sim_keys(d)
    d.add_argument("--output", default=None)
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse and cross-validate flags; exits with code 2 on usage errors."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command in ("simulate", "dump-dgp"):
        if args.alternative == "dense" and args.h is None:
            parser.error(
                "--alternative dense requires --h (dependence strength; "
                "the standard choice is 3: pass --h 3)"
            )
        if args.alternative != "dense" and args.h is not None:
            parser.error("--h is only meaningful with --alternative dense")
        if args.k is None:
            args.k = _DEFAULT_K[args.dgp]
        try:
            args.dgp_config = DgpConfig(
                dgp=args.dgp,
                t=args.t,
                n=args.n,
                k=args.k,
                error_dist=_DIST_NAMES[args.errors],
                alternative=_ALT_NAMES[args.alternative],
                h=args.h if args.h is not None else 3.0,
                burn_in=args.burn_in,
                seed=args.seed,
            )
        except ValueError as exc:
            parser.error(str(exc))

    if hasattr(args, "tests"):
        args.test_names = _parse_tests(args.tests, parser)
    if hasattr(args, "alpha") and not 0.0 < args.alpha < 1.0:
        parser.error("--alpha must lie in (0, 1)")
    if args.command == "simulate" and args.workers < 1:
        parser.error("--workers must be >= 1")
    return args


def _label_key(label: str):
    # numeric labels order numerically, everything else lexicographically after
    try:
        return (0, float(label), "")
    except ValueError:
        return (1, 0.0, label)


def load_panel_csv(path: str, add_intercept: bool = True) -> PanelDataset:
    """Read a balanced long-format panel CSV into a PanelDataset.

    Rows may arrive in any order. Unit and time labels are canonicalized
    by sorting numerically when they parse as numbers, lexicographically
    otherwise. An intercept column is inserted at position 0 unless
    ``add_intercept`` is False.

    Raises
    ------
    CsvParseError, NonNumericError, UnbalancedPanelError
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(1, "empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or [h.lower() for h in header[:3]] != ["unit", "time", "y"]:
            raise CsvParseError(1, f"header must start with unit,time,y; got {','.join(header)}")
        x_names = header[3:]
        width = len(header)

        cells: dict = {}
        units_seen: dict = {}
        times_seen: dict = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != width:
                raise CsvParseError(lineno, f"expected {width} fields, got {len(row)}")
            unit, timelab = row[0].strip(), row[1].strip()
            values = []
            for name, cell in zip(header[2:], row[2:]):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise NonNumericError(lineno, name, cell) from None
            key = (unit, timelab)
            if key in cells:
                raise CsvParseError(lineno, f"duplicate observation for unit {unit}, time {timelab}")
            cells[key] = values
            units_seen.setdefault(unit, set()).add(timelab)
            times_seen.setdefault(timelab, None)

    if not cells:
        raise CsvParseError(2, "no data rows")
    units = sorted(units_seen, key=_label_key)
    times = sorted(times_seen, key=_label_key)
    expected = set(times)
    problems = []
    for u in units:
        have = units_seen[u]
        if have != expected:
            missing = sorted(expected - have, key=_label_key)
            problems.append(f"unit {u}: {len(have)}/{len(times)} periods (missing {', '.join(missing[:5])})")
    if problems:
        raise UnbalancedPanelError("unbalanced panel: " + "; ".join(problems))

    n, t, k_raw = len(units), len(times), len(x_names)
    y = np.empty((n, t))
    x = np.empty((n, t, k_raw + (1 if add_intercept else 0)))
    if add_intercept:
        x[:, :, 0] = 1.0
    base = 1 if add_intercept else 0
    for i, u in enumerate(units):
        for s, tl in enumerate(times):
            vals = cells[(u, tl)]
            y[i, s] = vals[0]
            for j in range(k_raw):
                x[i, s, base + j] = vals[1 + j]
    return PanelDataset(
        y=y, x=x, unit_ids=tuple(units), time_ids=tuple(times), has_intercept=add_intercept
    )


def dump_panel_csv(panel: PanelDataset, fh) -> None:
    """Write a panel in the long CSV schema (intercept column omitted)."""
    start = 1 if panel.has_intercept else 0
    k_out = panel.k - start
    fh.write("unit,time,y" + "".join(f",x{j}" for j in range(1, k_out + 1)) + "\n")
    for i, u in enumerate(panel.unit_ids):
        for s, tl in enumerate(panel.time_ids):
            vals = [repr(float(panel.y[i, s]))] + [
                repr(float(panel.x[i, s, start + j])) for j in range(k_out)
            ]
            fh.write(f"{u},{tl}," + ",".join(vals) + "\n")


_CSV_HEADER = "cell_T,cell_n,dist,alternative,test,statistic,p_value,reject,frequency,mc_se,failed"


def _results_csv(results: Sequence[TestResult], t_eff: int, n: int) -> str:
    lines = [_CSV_HEADER]
    for r in results:
        if r.status == "ok":
            lines.append(
                f"{t_eff},{n},,,{r.name},{repr(r.statistic)},{repr(r.p_value)},"
                f"{'true' if r.reject else 'false'},,,"
            )
        else:
            lines.append(f"{t_eff},{n},,,{r.name},,,,,,{r.status}")
    return "\n".join(lines) + "\n"


def _results_table(results: Sequence[TestResult], t_eff: int, n: int, alpha: float) -> str:
    head = f"panel: n={n} units, T_eff={t_eff} periods, alpha={alpha:g}"
    lines = [head, ""]
    lines.append(f"{'test':<8} {'statistic':>12} {'p-value':>8} {'reject':>7}  note")
    lines.append("-" * 48)
    for r in results:
        if r.status == "ok":
            lines.append(
                f"{r.name:<8} {r.statistic:>12.2f} {r.p_value:>8.2f} "
                f"{'yes' if r.reject else 'no':>7}"
            )
        else:
            lines.append(f"{r.name:<8} {'-':>12} {'-':>8} {'-':>7}  {r.status}: {r.message}")
    return "\n".join(lines) + "\n"


def _report_csv(report: RejectionReport) -> str:
    lines = [_CSV_HEADER]
    for row in report.rows:
        lines.append(
            f"{row.t},{row.n},{row.dist},{row.alternative},{row.test},,,"
            f",{repr(row.frequency)},{repr(row.mc_se)},{row.failed_reps}"
        )
    return "\n".join(lines) + "\n"


def _report_table(report: RejectionReport) -> str:
    cells = []
    for row in report.rows:
        key = (row.cell_index, row.t, row.n, row.dist, row.alternative)
        if key not in cells:
            cells.append(key)
    lines = [
        f"rejection frequencies (percent), alpha={report.alpha:g}, "
        f"reps={report.reps}, seed={report.root_seed}"
    ]
    for key in cells:
        ci, t, n, dist, alt = key
        lines.append("")
        lines.append(f"(T,n)=({t},{n})  errors={dist}  alternative={alt}")
        lines.append(f"{'test':<8} {'frequency':>10} {'mc_se':>8} {'failed':>7}")
        lines.append("-" * 38)
        for row in report.rows:
            if row.cell_index == ci:
                lines.append(
                    f"{row.test:<8} {row.frequency:>10.2f} {row.mc_se:>8.2f} {row.failed_reps:>7}"
                )
    return "\n".join(lines) + "\n"


def emit_report(
    payload: Union[Sequence[TestResult], RejectionReport],
    fmt: str,
    *,
    t_eff: int = 0,
    n: int = 0,
    alpha: float = 0.05,
) -> str:
    """Render either a battery result list or a simulation report."""
    if isinstance(payload, RejectionReport):
        return _report_csv(payload) if fmt == "csv" else _report_table(payload)
    if fmt == "csv":
        return _results_csv(payload, t_eff, n)
    return _results_table(payload, t_eff, n, alpha)


def _write(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_test(args) -> int:
    panel = load_panel_csv(args.data, add_intercept=not args.no_intercept)
    kind = _MODEL_KINDS[args.model]
    spec = ModelSpec(kind, include_intercept=not args.no_intercept)
    report = validate_dataset(panel, spec)
    if not report.ok:
        for v in report.violations:
            print(f"panelcd: invalid panel: {v}", file=sys.stderr)
        return 1
    resid = fit(panel, spec, keep_bases="LM_adj" in args.test_names)
    results = run_all(resid, TestConfig(alpha=args.alpha, tests=args.test_names))
    _write(
        emit_report(results, args.format, t_eff=resid.t_eff, n=resid.n, alpha=args.alpha),
        args.output,
    )
    return 0


def _cmd_simulate(args) -> int:
    plan = ExperimentPlan(
        cells=(args.dgp_config,),
        reps=args.reps,
        alpha=args.alpha,
        tests=args.test_names,
        root_seed=args.seed,
        workers=args.workers,
    )
    report = run_experiment(plan)
    _write(emit_report(report, args.format), args.output)
    print(f"panelcd: {args.reps} replications in {report.wall_time:.1f}s", file=sys.stderr)
    return 0


def _cmd_dump(args) -> int:
    gen = generate_panel(args.dgp_config, make_rng(args.seed))
    if args.output is None:
        dump_panel_csv(gen.panel, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            dump_panel_csv(gen.panel, fh)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.command == "test":
            return _cmd_test(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_dump(args)
    except (CsvError, PanelError, OSError, ValueError) as exc:
        print(f"panelcd: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
