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
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from panelcd import cli
from panelcd.cd_stats import ALL_TESTS, TestConfig as Config, run_all
from panelcd.cli import CsvError, CsvParseError, NonNumericError, dump_panel_csv, load_panel_csv
from panelcd.correlation import correlation_matrix
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
@given(panel=raw_panels(), data=st.data())
def test_order_preserving_relabelling_gives_the_same_panel(panel, data):
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
    loaded = _load_text(out.getvalue(), panel.has_intercept)
    assert loaded.unit_ids == tuple(units) and loaded.time_ids == tuple(times)
    assert loaded.y.tobytes() == panel.y.tobytes()
    assert loaded.x.shape == panel.x.shape and loaded.x.tobytes() == panel.x.tobytes()


def _load_chunked(text, chunk_rows, add_intercept=True):
    """``load_panel_csv`` on ``text`` with ``chunk_rows`` records per chunk;
    the panel, or the error it raised."""
    with pytest.MonkeyPatch.context() as mp:
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
