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
unless ``--no-intercept`` is passed. A dynamic model's constant is that
intercept column and nothing else, so with ``--no-intercept`` it is fitted
without a constant. Exit codes: 0 on success, 1 on runtime failure, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from decimal import Decimal
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .cd_stats import ALL_TESTS, TestConfig, TestResult, run_all
from .dgp import Alternative, DgpConfig, ErrorDist, generate_panel
from .mc import ExperimentPlan, RejectionReport, run_experiment
from .panel import NEAR_UNIT_ROOT, ModelKind, PanelDataset, PanelError, fit, validate_dataset


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
        default=os.environ.get("PANELCD_WORKERS", "1"),  # argparse applies type
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
    # numeric labels order numerically, everything else lexicographically
    # after; the exact Decimal value orders labels that round to one double.
    # A NaN spelling is text: NaN has no order, so as a number it would
    # sort wherever the rows put it
    try:
        value = float(label)
    except ValueError:
        value = math.nan
    return (1, 0.0, label) if math.isnan(value) else (0, value, Decimal(label))


def _numeric_clash(labels):
    """The first label, in the given order, whose exact value as a number
    equals an earlier one's, as (earlier, later); None when there is none."""
    seen = {}
    for label in labels:
        kind, _, value = _label_key(label)
        if kind == 0:
            if value in seen:
                return seen[value], label
            seen[value] = label
    return None


def _first_non_numeric(cells) -> int:
    """Index of the first cell ``float`` refuses, in a column known to hold one."""
    for r, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return r


# Records converted at a time by the chunked reader, which holds the panel's
# numbers, two label indices per record and one chunk of strings.
CSV_CHUNK_ROWS = 8192


def _convert_chunk(flat: list, width: int, label_index: tuple):
    """One chunk of records, given as their cells in one flat list, as numbers.

    Returns the chunk's y, x1..xk values (m, width - 2), its unit and time
    label indices (m,) each, and the (record in chunk, column, cell) of its
    earliest non-numeric cell, or None. A label not yet in its
    ``label_index`` dict takes the next index.
    """
    m = len(flat) // width
    values = np.empty((m, width - 2))
    bad = None
    for c in range(2, width):
        cells = flat[c::width]
        try:
            values[:, c - 2] = np.fromiter(map(float, cells), dtype=np.float64, count=m)
        except ValueError:
            r = _first_non_numeric(cells)
            if bad is None or r < bad[0]:
                bad = (r, c, cells[r])
    indices = []
    for c, index in enumerate(label_index):
        labels = list(map(str.strip, flat[c::width]))
        for label in dict.fromkeys(labels):
            index.setdefault(label, len(index))
        indices.append(np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=m))
    return values, indices, bad


def load_panel_csv(path: str, add_intercept: bool = True) -> PanelDataset:
    """Read a balanced long-format panel CSV into a PanelDataset.

    Rows may arrive in any order. Unit and time labels are canonicalized
    by sorting numerically when they parse as numbers, lexicographically
    otherwise; two spellings of one number (``1`` and ``1.0``, ``1`` and
    ``01``) are refused rather than read as two labels. An intercept column
    is inserted at position 0 unless ``add_intercept`` is False. When a
    file has several faults, the one on the earliest line is reported; a
    line number is the record index + 2, blank rows included. A leading
    UTF-8 byte-order mark is skipped.

    The file is first read whole by numpy's C parser, labels as fixed-width
    bytes. Where that reading cannot be shown to match the csv module's, and
    on any fault, the file is read again through the csv module in chunks of
    ``CSV_CHUNK_ROWS`` records; that reader alone reports faults. Working
    memory is O(nT) on either path: the panel's numbers plus fixed-width
    label bytes or label indices per record, never one string per cell of
    the file.

    Raises
    ------
    CsvParseError, NonNumericError, UnbalancedPanelError
    """
    panel = _load_whole(path, add_intercept)
    return panel if panel is not None else _panel(add_intercept, *_read_chunks(path))


def _read_header(reader) -> list:
    """The header record, stripped; it must start unit,time,y."""
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError(1, "empty file") from None
    except csv.Error as exc:
        raise CsvParseError(1, str(exc)) from None
    header = [h.strip() for h in header]
    if len(header) < 3 or [h.lower() for h in header[:3]] != ["unit", "time", "y"]:
        raise CsvParseError(1, f"header must start with unit,time,y; got {','.join(header)}")
    return header


def _load_whole(path: str, add_intercept: bool) -> Optional[PanelDataset]:
    """The panel read by numpy's C parser in one call, or None wherever that
    reading could differ from the chunked reader's, faults included. Labels
    stay fixed-width bytes; only each column's distinct labels, found by
    hashing those bytes, become strings."""
    if not os.path.isfile(path):  # a pipe cannot be read twice
        return None
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = _read_header(reader)
            # numpy skips one physical line, and warns on a file of no rows
            row = next((line for line in fh if line.strip()), "")
            # bytes kept of each label: whole 64-bit words, at least 16 and more
            # than the first row's labels; at 32 the records take about twice
            # the memory they take at 16
            size = max(16, 8 * (max(map(len, row.split(",")[:2])) // 8 + 1))
            if reader.line_num != 1 or not row or size > 32:
                return None
        # numpy drops a label's trailing NULs and takes fields of any length;
        # a line break in every full span keeps each field under the limit
        span = max(csv.field_size_limit() // 2, 1)
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(span), b""):
                if b"\0" in block or len(block) == span and b"\n" not in block and b"\r" not in block:
                    return None
        label = f"S{size}"
        fields = [("unit", label), ("time", label), ("values", np.float64, (len(header) - 2,))]
        records = np.loadtxt(path, dtype=fields, delimiter=",", comments=None, skiprows=1,
                             encoding="utf-8-sig", ndmin=1)
    except (CsvError, OSError, ValueError):
        return None
    words = records.view(np.uint64).reshape(len(records), -1)
    labels, cols = [], []
    for c, name in enumerate(("unit", "time")):
        label_words = words[:, c * size // 8 : (c + 1) * size // 8].T
        key = np.zeros(len(records), dtype=np.uint64)
        for word in label_words:
            key = (key ^ word) * np.uint64(0x9E3779B97F4A7C15)
        _, first, col = np.unique(key, return_index=True, return_inverse=True)
        del key  # not held while the panel is placed, where the load peaks
        raw = records[name][first].tolist()
        text = [b.decode("latin-1").strip() for b in raw]
        # a hash shared by two labels; a label maybe cut short, quoted or not
        # ASCII (numpy reads latin-1); two labels that differ only in padding
        if (any((word[first][col] != word).any() for word in label_words)
                or any(len(b) == size or not b.isascii() or b'"' in b for b in raw)
                or len(set(text)) < len(text)):
            return None
        labels.append(text)
        cols.append(col)
    try:
        return _panel(add_intercept, header, labels, cols, [records["values"]])
    except (CsvError, PanelError):  # a fault's line counts the blank rows numpy skipped
        return None


def _read_chunks(path: str):
    """The file read by the csv module ``CSV_CHUNK_ROWS`` records at a time,
    as ``_panel`` takes it, with what ``_panel`` needs to report its faults."""
    label_index = ({}, {})  # unit and time label -> index, in first-seen order
    label_cols = ([], [])  # per chunk, each record's unit and time index
    blocks = []  # per chunk, each record's y, x1..xk
    blank_lines: list = []
    non_numeric = None  # (record, column, cell) of the earliest non-numeric cell
    stop_fault = None  # the wrong-width row or unreadable record that ended reading
    rows = 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader)
        width = len(header)

        records = enumerate(reader, start=2)
        lineno = 1
        flat: list = []  # the cells of one chunk of records
        done = False
        while not done:
            try:
                for lineno, row in records:
                    if len(row) != width:
                        if not row or (len(row) == 1 and not row[0].strip()):
                            blank_lines.append(lineno)
                            continue
                        # rows after this one are never read; an earlier fault still wins
                        stop_fault = CsvParseError(lineno, f"expected {width} fields, got {len(row)}")
                        done = True
                        break
                    flat.extend(row)
                    if len(flat) == CSV_CHUNK_ROWS * width:
                        break
                else:
                    done = True
            except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                # read like a wrong-width row: reading stops, an earlier fault wins
                stop_fault = CsvParseError(lineno + 1, str(exc))
                done = True
            if flat:
                values, indices, bad = _convert_chunk(flat, width, label_index)
                flat.clear()
                if bad is not None and non_numeric is None:
                    non_numeric = (rows + bad[0],) + bad[1:]
                blocks.append(values)
                for col, index in zip(label_cols, indices):
                    col.append(index)
                rows += len(values)

    if not rows:
        raise stop_fault or CsvParseError(2, "no data rows")
    labels, cols = [list(i) for i in label_index], [np.concatenate(c) for c in label_cols]
    return header, labels, cols, blocks, blank_lines, non_numeric, stop_fault


def _panel(add_intercept, header, found, index, blocks, blank_lines=(), non_numeric=None,
           stop_fault=None) -> PanelDataset:
    """The panel from one reading of the file: per label column, the labels
    ``found`` in any order and each record's ``index`` into them; the
    records' y, x1..xk rows in blocks, in record order. Raises the fault on
    the earliest line, the reader's own faults included."""
    width = len(header)

    def line_of(record: int) -> int:
        line = record + 2
        for blank in blank_lines:
            if blank > line:
                break
            line += 1
        return line

    faults = []  # (record, column, error); a record's duplicate check runs last
    if non_numeric is not None:
        r, c, value = non_numeric
        faults.append((r, c, NonNumericError(line_of(r), header[c], value)))
    labels, cols = [], []
    for c, kind in enumerate(("unit", "time")):
        clash = _numeric_clash(found[c])
        if clash is not None:
            r = int(np.argmax(index[c] == found[c].index(clash[1])))
            detail = f"{kind} label {clash[1]!r} equals {clash[0]!r} as a number"
            faults.append((r, c, CsvParseError(line_of(r), detail)))
        order = sorted(range(len(found[c])), key=lambda i: _label_key(found[c][i]))
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        labels.append([found[c][i] for i in order])
        cols.append(rank[index[c]])
    units, times = labels
    n, t = len(units), len(times)
    cell = cols[0] * t + cols[1]
    counts = np.bincount(cell, minlength=n * t)
    if counts.max() > 1:
        order = np.argsort(cell, kind="stable")
        r = int(order[1:][cell[order[1:]] == cell[order[:-1]]].min())
        detail = f"duplicate observation for unit {units[cols[0][r]]}, time {times[cols[1][r]]}"
        faults.append((r, width, CsvParseError(line_of(r), detail)))
    if faults:
        raise min(faults, key=lambda f: f[:2])[2]
    if stop_fault is not None:
        raise stop_fault

    have = counts.reshape(n, t)
    gaps = np.flatnonzero((have == 0).any(axis=1))
    if gaps.size:
        problems = []
        for i in gaps:
            missing = [times[s] for s in np.flatnonzero(have[i] == 0)[:5]]
            problems.append(
                f"unit {units[i]}: {int(have[i].sum())}/{t} periods (missing {', '.join(missing)})"
            )
        raise UnbalancedPanelError("unbalanced panel: " + "; ".join(problems))

    placed = np.empty((len(cell), width - 2))
    start = 0
    for block in blocks:
        placed[cell[start : start + len(block)]] = block
        start += len(block)
    k_raw, base = width - 3, 1 if add_intercept else 0
    x = np.empty((n, t, base + k_raw))
    x[:, :, :base] = 1.0
    x[:, :, base:] = placed[:, 1:].reshape(n, t, k_raw)
    return PanelDataset(
        y=placed[:, 0].reshape(n, t),
        x=x,
        unit_ids=tuple(units),
        time_ids=tuple(times),
        has_intercept=add_intercept,
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


def _failed_cell(row, reps: int):
    """The ``failed`` entry of a report row: the failure count, or
    ``unsupported`` when the test applied to no replication."""
    return "unsupported" if row.unsupported_reps == reps else row.failed_reps


def _report_csv(report: RejectionReport) -> str:
    lines = [_CSV_HEADER]
    for row in report.rows:
        lines.append(
            f"{row.t},{row.n},{row.dist},{row.alternative},{row.test},,,"
            f",{repr(row.frequency)},{repr(row.mc_se)},{_failed_cell(row, report.reps)}"
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
                    f"{row.test:<8} {row.frequency:>10.2f} {row.mc_se:>8.2f} "
                    f"{_failed_cell(row, report.reps):>7}"
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
    violations = validate_dataset(panel, kind)
    if violations:
        for v in violations:
            print(f"panelcd: invalid panel: {v}", file=sys.stderr)
        return 1
    resid = fit(panel, kind)
    hot = resid.near_unit_root
    if len(hot):
        labels = ", ".join(str(panel.unit_ids[i]) for i in hot[:5])
        print(
            f"panelcd: warning: |lag coefficient| > {NEAR_UNIT_ROOT:g} "
            f"for {len(hot)} unit(s): {labels}",
            file=sys.stderr,
        )
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
    gen = generate_panel(args.dgp_config)
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
