"""Property tests over the CSV -> fit -> correlation -> statistics pipeline.

For the statistics, hypothesis draws the panel's shape, model, regressor
and response scales, lag strength and seed; numpy draws the cells from that
seed. For the CSV round trip, hypothesis draws every cell itself, from all
finite doubles, and for the relabelling every unit and time label. Example
counts are bounded so the module runs in a few seconds.
"""

import csv
import io
import math
import random
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from panelcd import cli
from panelcd.cd_stats import ALL_TESTS, TestConfig as Config, run_all
from panelcd.cli import CsvError, CsvParseError, NonNumericError, dump_panel_csv, load_panel_csv
from panelcd.correlation import correlation_matrix
from panelcd.dgp import DgpConfig, generate_panel
from panelcd.mc import ExperimentPlan, derive_stream, run_replication
from panelcd.panel import ModelKind, PanelError, fit

from conftest import build_panel

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)
SCALES = st.floats(min_value=1e-3, max_value=1e3)
WIDE_SCALES = st.floats(min_value=-150.0, max_value=150.0).map(lambda e: 10.0**e)


@st.composite
def panels(draw, kinds=tuple(ModelKind), scales=SCALES, constant_units=False):
    """A generic panel and the model kind to fit it with.

    Regressors are an intercept plus k - 1 normal columns, each with its own
    scale; the response mixes them with a lag of itself (strength ``a``),
    so dynamic fits see a genuine lag column. With ``constant_units`` some
    units' responses are replaced by a constant.
    """
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(3, 12))
    k = draw(st.integers(1, 3))
    t = draw(st.integers(k + 3, 40))
    a = draw(st.floats(min_value=-0.9, max_value=0.9))
    col_scales = draw(st.lists(scales, min_size=k, max_size=k))
    y_scale = draw(scales)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.empty((n, t, k))
    x[:, :, 0] = 1.0
    x[:, :, 1:] = rng.standard_normal((n, t, k - 1)) * col_scales[1:]
    beta = rng.standard_normal((n, k)) / col_scales
    drive = np.einsum("ntk,nk->nt", x, beta) + rng.standard_normal((n, t))
    y = np.empty((n, t))
    prev = np.zeros(n)
    for s in range(t):
        y[:, s] = prev = a * prev + drive[:, s]
    if constant_units:
        for i in draw(st.sets(st.integers(0, n - 1), max_size=n)):
            y[i] = rng.standard_normal()
    return build_panel(y_scale * y, x), kind


@PROPERTY_SETTINGS
@given(case=panels(), data=st.data())
def test_unit_permutation_leaves_every_statistic_unchanged(case, data):
    panel, kind = case
    perm = np.array(data.draw(st.permutations(range(panel.n))))
    permuted = build_panel(panel.y[perm], panel.x[perm])
    before = run_all(fit(panel, kind), Config())
    after = run_all(fit(permuted, kind), Config())
    assert [r.name for r in before] == [r.name for r in after]
    for b, p in zip(before, after):
        assert b.status == p.status, b.name
        if b.status == "ok":
            assert math.isclose(b.statistic, p.statistic, rel_tol=1e-9, abs_tol=1e-9), b.name
            assert math.isclose(b.p_value, p.p_value, rel_tol=1e-9, abs_tol=1e-12), b.name


@PROPERTY_SETTINGS
@given(case=panels(kinds=(ModelKind.HETEROGENEOUS, ModelKind.DYNAMIC)), data=st.data())
def test_per_unit_rescaling_of_y_leaves_rho_unchanged(case, data):
    panel, kind = case
    c = np.array(data.draw(st.lists(SCALES, min_size=panel.n, max_size=panel.n)))
    rescaled = build_panel(c[:, None] * panel.y, panel.x)
    rho = correlation_matrix(fit(panel, kind)).rho
    np.testing.assert_allclose(correlation_matrix(fit(rescaled, kind)).rho, rho, rtol=0, atol=1e-10)


@PROPERTY_SETTINGS
@given(
    case=panels(scales=WIDE_SCALES, constant_units=True),
    tests=st.sets(st.sampled_from(ALL_TESTS), min_size=1),
)
def test_every_requested_statistic_ends_ok_or_explained(case, tests):
    # the edges: n = 3, T = k + 3 for dynamic fits, constant responses, and
    # regressor and response scales from 1e-150 to 1e150
    panel, kind = case
    try:
        resid = fit(panel, kind)
    except PanelError as exc:  # refused where the panel enters, with a reason
        assert str(exc)
        return
    results = run_all(resid, Config(tests=tuple(tests)))
    assert [r.name for r in results] == [name for name in ALL_TESTS if name in tests]
    for r in results:
        if r.status == "ok":
            assert math.isfinite(r.statistic) and math.isfinite(r.p_value), r
        else:
            assert r.status in ("failed", "unsupported") and r.message, r


# A replication whose eight decisions are mixed, so that the order of its
# flags shows: dgp 1 at T = 20, n = 6 under the dense alternative, stream (22, 0, 0).
ORDER_CELL = DgpConfig(dgp=1, t=20, n=6, alternative="dense")
ORDER_RESID = fit(generate_panel(ORDER_CELL, derive_stream(22, 0, 0)).panel, ModelKind.HETEROGENEOUS)
ORDER_DECISIONS = {r.name: r.reject for r in run_all(ORDER_RESID, Config())}


@PROPERTY_SETTINGS
@given(names=st.lists(st.sampled_from(ALL_TESTS), min_size=1, max_size=12), data=st.data())
def test_every_entry_point_keeps_one_canonical_test_order(names, data):
    # the order was once derived in the CLI, the plan and run_all each, and
    # TestConfig kept whatever it was given
    canonical = Config(tests=names).tests
    assert canonical == tuple(sorted(set(names), key=ALL_TESTS.index))
    spelled = ",".join(data.draw(st.sampled_from([t.lower(), t.lower().replace("_", "")]))
                       for t in names)
    test_args = cli.parse_args(["test", "--data", "p.csv", "--tests", spelled])
    sim_args = cli.parse_args(["simulate", "--dgp", "1", "--T", "20", "--n", "6", "--tests", spelled])
    assert test_args.test_config.tests == sim_args.plan.tests == canonical
    assert ExperimentPlan(cells=(ORDER_CELL,), reps=1, tests=names).tests == canonical
    assert tuple(r.name for r in run_all(ORDER_RESID, Config(tests=names))) == canonical
    # a replication's flags answer the caller's list, repeats and order kept
    assert set(ORDER_DECISIONS.values()) == {True, False}
    outcome = run_replication(ORDER_CELL, names, 0.05, derive_stream(22, 0, 0))
    assert outcome.flags == tuple(ORDER_DECISIONS[t] for t in names)


@st.composite
def raw_panels(draw):
    """A panel whose y and regressor cells are arbitrary finite doubles,
    subnormals, signed zeros and +-1.8e308 included, with or without an
    intercept column."""
    n, t, k_raw = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(0, 2))
    doubles = st.floats(allow_nan=False, allow_infinity=False)
    y = draw(arrays(np.float64, (n, t), elements=doubles))
    intercept = k_raw == 0 or draw(st.booleans())
    x = np.ones((n, t, int(intercept) + k_raw))
    x[:, :, int(intercept):] = draw(arrays(np.float64, (n, t, k_raw), elements=doubles))
    return build_panel(y, x, has_intercept=intercept)


def _load_text(text, add_intercept):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        path.write_text(text, encoding="utf-8")
        return load_panel_csv(str(path), add_intercept=add_intercept)


def _assert_same_panel(loaded, panel):
    assert loaded.unit_ids == panel.unit_ids and loaded.time_ids == panel.time_ids
    assert loaded.has_intercept == panel.has_intercept
    assert loaded.y.tobytes() == panel.y.tobytes()
    assert loaded.x.shape == panel.x.shape and loaded.x.tobytes() == panel.x.tobytes()


@PROPERTY_SETTINGS
@given(panel=raw_panels())
def test_csv_round_trip_is_bit_for_bit(panel):
    out = io.StringIO()
    dump_panel_csv(panel, out)
    _assert_same_panel(_load_text(out.getvalue(), panel.has_intercept), panel)


@PROPERTY_SETTINGS
@given(panel=raw_panels(), seed=st.integers(0, 2**32 - 1))
def test_shuffled_csv_rows_give_the_same_panel(panel, seed):
    out = io.StringIO()
    dump_panel_csv(panel, out)
    header, *rows = out.getvalue().splitlines(keepends=True)
    random.Random(seed).shuffle(rows)
    _assert_same_panel(_load_text(header + "".join(rows), panel.has_intercept), panel)


NAN_SPELLINGS = ("nan", "NaN", "NAN", "-nan", "+nan", "-NaN", "+NaN", "nAn")


def _is_number(label):
    try:
        return not math.isnan(float(label))
    except ValueError:
        return False


@st.composite
def spelled_number(draw, value):
    """One spelling of a Decimal: scientific or positional, any case, an
    explicit plus sign, leading zeros."""
    text = str(value)
    if value.is_finite() and abs(value.adjusted()) < 30 and draw(st.booleans()):
        text = format(value, "f")
    text = draw(st.sampled_from((text, text.lower(), text.upper())))
    sign = "-" if text.startswith("-") else draw(st.sampled_from(("", "+")))
    zeros = "0" * draw(st.integers(0, 2)) if value.is_finite() else ""
    return sign + zeros + text.lstrip("-")


@st.composite
def ordered_labels(draw, count):
    """``count`` distinct labels in the loader's order: labels that parse as
    numbers (NaN aside) by exact value, then the rest, NaN spellings
    included, as text in code-point order."""
    numbers = draw(st.integers(0, count))
    values = draw(
        st.lists(
            st.one_of(st.decimals(allow_nan=False), st.integers(-(2**64), 2**64).map(Decimal)),
            min_size=numbers, max_size=numbers, unique=True,
        )
    )
    text = st.one_of(
        st.sampled_from(NAN_SPELLINGS),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=5).filter(
            lambda s: s == s.strip() and not _is_number(s)
        ),
    )
    words = draw(st.lists(text, min_size=count - numbers, max_size=count - numbers, unique=True))
    return [draw(spelled_number(v)) for v in sorted(values)] + sorted(words)


@PROPERTY_SETTINGS
@given(panel=raw_panels(), chunk_rows=st.integers(1, 4), data=st.data())
def test_order_preserving_relabelling_gives_the_same_panel(panel, chunk_rows, data):
    # read by the csv module, so that labels first seen in different chunks
    # are ranked together
    units = data.draw(ordered_labels(panel.n))
    times = data.draw(ordered_labels(panel.t))
    start = int(panel.has_intercept)
    rows = [
        [units[i], times[s]] + [repr(float(v)) for v in (panel.y[i, s], *panel.x[i, s, start:])]
        for i in range(panel.n)
        for s in range(panel.t)
    ]
    out = io.StringIO()
    writer = csv.writer(out)  # quotes a label holding the delimiter, a quote, CR or LF
    writer.writerow(["unit", "time", "y"] + [f"x{j}" for j in range(1, panel.k - start + 1)])
    writer.writerows(data.draw(st.permutations(rows)))
    loaded = _load_chunked(out.getvalue(), chunk_rows, panel.has_intercept)
    assert loaded.unit_ids == tuple(units) and loaded.time_ids == tuple(times)
    assert loaded.y.tobytes() == panel.y.tobytes()
    assert loaded.x.shape == panel.x.shape and loaded.x.tobytes() == panel.x.tobytes()


def _load_chunked(text, chunk_rows, add_intercept=True):
    """``load_panel_csv`` on ``text`` read by the csv module with
    ``chunk_rows`` records per chunk; the panel, or the error it raised."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_load_whole", lambda path, add_intercept: None)
        mp.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
        try:
            return _load_text(text, add_intercept)
        except CsvError as exc:
            return exc


@PROPERTY_SETTINGS
@given(panel=raw_panels(), chunk_rows=st.integers(1, 4), data=st.data())
def test_multi_chunk_files_load_as_one_chunk(panel, chunk_rows, data):
    # shuffled rows, blank rows anywhere, and sometimes a missing row (a gap)
    out = io.StringIO()
    dump_panel_csv(panel, out)
    header, *rows = out.getvalue().splitlines(keepends=True)
    rows = data.draw(st.permutations(rows))
    if data.draw(st.booleans()):
        del rows[data.draw(st.integers(0, len(rows) - 1))]
    for _ in range(data.draw(st.integers(0, 3))):
        rows.insert(data.draw(st.integers(0, len(rows))), "\n")
    text = header + "".join(rows)
    one = _load_chunked(text, len(rows) + 1, panel.has_intercept)
    many = _load_chunked(text, chunk_rows, panel.has_intercept)
    if isinstance(one, CsvError):
        assert type(many) is type(one) and str(many) == str(one)
    else:
        _assert_same_panel(many, one)


FAULTS = ("non-numeric", "width", "duplicate", "spelling", "oversize")


@PROPERTY_SETTINGS
@given(
    n=st.integers(3, 5),
    t=st.integers(2, 4),
    chunk_rows=st.integers(1, 4),
    faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3),
    data=st.data(),
)
def test_malformed_files_fail_at_the_earliest_line(n, t, chunk_rows, faults, data):
    """Faults go on distinct records after the first unit's block, which
    holds every time label in its one spelling; chunks of 1 to 4 records put
    faults on both sides of chunk boundaries."""
    records = [[f"u{i}", str(s), f"{i}.{s}"] for i in range(n) for s in range(1, t + 1)]
    at = data.draw(st.lists(st.integers(t, n * t - 1), min_size=len(faults),
                            max_size=len(faults), unique=True))
    for kind, r in zip(faults, at):
        unit, time, _ = records[r]
        if kind == "non-numeric":
            records[r][2] = "oops"
        elif kind == "width":
            records[r] = records[r][:2]
        elif kind == "duplicate":
            records[r][0] = "u0"  # the first unit already has this period
        elif kind == "oversize":  # the csv module refuses the record
            records[r][2] = "9" * (csv.field_size_limit() + 1)
        else:
            records[r][1] = data.draw(st.sampled_from((time + ".0", "0" + time, time + "e0")))
    lines = ["unit,time,y"] + [",".join(rec) for rec in records]
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(1, len(lines))), "")
    text = "\n".join(lines) + "\n"

    # a record's line is its index in the file, blank rows counted, plus 1
    line_of = {}
    for line, row in enumerate(lines[1:], start=2):
        if row:
            line_of[len(line_of)] = line
    line, kind = min((line_of[r], kind) for kind, r in zip(faults, at))
    err = _load_chunked(text, chunk_rows)
    assert isinstance(err, NonNumericError if kind == "non-numeric" else CsvParseError)
    assert err.line == line and str(err).startswith(f"line {line}")
    one = _load_chunked(text, len(lines))
    assert type(err) is type(one) and str(err) == str(one)


# labels the whole-file reader must decline or read exactly as the csv
# module does: above 2^53, one number spelled two ways, wider than its label
# bytes, not ASCII, NaN spellings, padded, holding '#', a quote, a comma or NUL
ODD_LABELS = (
    "9007199254740992", "9007199254740993", "18446744073709551617", "1", "01", "1.0", "1e0",
    "x" * 15, "y" * 16, "z" * 40, "é", "ü1", "€", "nan", "NaN", " p", "p ", "p", "a#b", "#",
    'q"t', "Smith, J", "", "n\0", "\0",
)

# cell spellings the C parser and ``float`` may read differently
ODD_CELLS = (
    "1_0", "１", "0x10", "inf", "-Infinity", "iNf", "nan", "-nan", "+NaN", "1e400", "oops", "",
    " ", '"2.5"',
)


def _quote(field):
    if any(c in field for c in ',"\r\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


@st.composite
def csv_texts(draw):
    """A panel CSV in the long schema with some of the oddities either
    reader may meet: odd labels, numbers spelled several ways, a few padded,
    quoted or odd cells, blank and whitespace-only rows, a gap or a
    duplicate, and \n, \r\n or lone \r line endings."""
    n, t, k_raw = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(0, 2))
    label = st.one_of(st.integers(-99, 2**64).map(str), st.text("abXY#.-_ ", max_size=6))
    if draw(st.booleans()):
        label = st.one_of(label, st.sampled_from(ODD_LABELS),
                          st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))
    units = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    times = draw(st.lists(label, min_size=t, max_size=t, unique=True))
    doubles = st.floats(allow_nan=False, allow_infinity=False)
    rows = [
        [_quote(u), _quote(s)] + [
            draw(st.sampled_from((repr(v), format(v, ".17e"), format(v, ".17G"))))
            for v in draw(st.lists(doubles, min_size=1 + k_raw, max_size=1 + k_raw))
        ]
        for u in units
        for s in times
    ]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        c = draw(st.integers(0, len(row) - 1))
        f = row[c]
        odd = st.sampled_from((f" {f}", f"{f}\t", f" {f} ", f'"{f}"'))
        row[c] = draw(st.one_of(odd, st.sampled_from(ODD_CELLS)) if c >= 2 else odd)
    rows = draw(st.permutations([",".join(row) for row in rows]))
    if draw(st.integers(0, 4)) == 0:
        del rows[draw(st.integers(0, len(rows) - 1))]
    elif rows and draw(st.integers(0, 4)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(("", "", "  ", "\t"))))
    header = "unit,time,y" + "".join(f",x{j}" for j in range(1, k_raw + 1))
    end = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return end.join([header] + rows) + end


def _outcome(text, add_intercept, chunked):
    """The panel ``load_panel_csv`` reads from ``text``, or the error it raised."""
    with pytest.MonkeyPatch.context() as mp:
        if chunked:
            mp.setattr(cli, "_load_whole", lambda path, add_intercept: None)
        try:
            return _load_text(text, add_intercept)
        except (CsvError, PanelError, ValueError) as exc:
            return exc


def _two_periods(label, end="\n"):
    return end.join(["unit,time,y", f"{label},1,1.5", f"{label},2,2.5", ""])


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), add_intercept=st.booleans())
@example(text=_two_periods("n\0"), add_intercept=True)
@example(text=_two_periods("a").replace("a,1", " a,1"), add_intercept=True)
@example(text="unit,time,y\n a,1,1.5\na,1,2.5\n", add_intercept=True)
@example(text=_two_periods("x" * 15), add_intercept=True)
@example(text=_two_periods("x" * 17), add_intercept=True)
@example(text="unit,time,y\na,1,1.5\n" + "x" * 17 + ",1,2.5\n", add_intercept=True)
@example(text=_two_periods("z" * 40), add_intercept=True)
@example(text=_two_periods('"q""t"'), add_intercept=True)
@example(text=_two_periods("é", "\r\n"), add_intercept=True)
@example(text=_two_periods("#a", "\r"), add_intercept=False)
def test_whole_file_reader_agrees_with_the_chunked_reader(text, add_intercept):
    loaded = _outcome(text, add_intercept, chunked=False)
    chunked = _outcome(text, add_intercept, chunked=True)
    if isinstance(chunked, Exception):
        assert type(loaded) is type(chunked) and str(loaded) == str(chunked)
    else:
        _assert_same_panel(loaded, chunked)
