"""Property tests over the fit -> correlation -> statistics pipeline.

Hypothesis draws the panel's shape, model, regressor and response scales,
lag strength and seed; numpy draws the cells from that seed. Example
counts are bounded so the module runs in a few seconds.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from panelcd.cd_stats import TestConfig as Config, run_all
from panelcd.correlation import correlation_matrix
from panelcd.panel import ModelKind, ModelSpec, NearUnitRootWarning, fit

from conftest import build_panel

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)
SCALES = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def panels(draw, kinds=tuple(ModelKind)):
    """A generic panel and the spec to fit it with.

    Regressors are an intercept plus k - 1 normal columns, each with its own
    scale; the response mixes them with a lag of itself (strength ``a``),
    so dynamic fits see a genuine lag column.
    """
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(3, 12))
    k = draw(st.integers(1, 3))
    t = draw(st.integers(k + 3, 40))
    a = draw(st.floats(min_value=-0.9, max_value=0.9))
    col_scales = draw(st.lists(SCALES, min_size=k, max_size=k))
    y_scale = draw(SCALES)
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
    return build_panel(y_scale * y, x), ModelSpec(kind)


def _fit(panel, spec):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearUnitRootWarning)
        return fit(panel, spec)


@PROPERTY_SETTINGS
@given(case=panels(), data=st.data())
def test_unit_permutation_leaves_every_statistic_unchanged(case, data):
    panel, spec = case
    perm = np.array(data.draw(st.permutations(range(panel.n))))
    permuted = build_panel(panel.y[perm], panel.x[perm])
    before = run_all(_fit(panel, spec), Config())
    after = run_all(_fit(permuted, spec), Config())
    assert [r.name for r in before] == [r.name for r in after]
    for b, p in zip(before, after):
        assert b.status == p.status, b.name
        if b.status == "ok":
            assert math.isclose(b.statistic, p.statistic, rel_tol=1e-9, abs_tol=1e-9), b.name
            assert math.isclose(b.p_value, p.p_value, rel_tol=1e-9, abs_tol=1e-12), b.name


@PROPERTY_SETTINGS
@given(case=panels(kinds=(ModelKind.HETEROGENEOUS, ModelKind.DYNAMIC)), data=st.data())
def test_per_unit_rescaling_of_y_leaves_rho_unchanged(case, data):
    panel, spec = case
    c = np.array(data.draw(st.lists(SCALES, min_size=panel.n, max_size=panel.n)))
    rescaled = build_panel(c[:, None] * panel.y, panel.x)
    rho = correlation_matrix(_fit(panel, spec)).rho
    np.testing.assert_allclose(correlation_matrix(_fit(rescaled, spec)).rho, rho, rtol=0, atol=1e-10)
