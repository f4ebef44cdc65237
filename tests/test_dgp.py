
import numpy as np
import pytest

from panelcd.dgp import (
    Alternative,
    DgpConfig,
    ErrorDist,
    _ar1,
    _dgp2_recursion,
    _dgp4_recursion,
    _stable_lag_coefs,
    gen_errors,
    gen_loadings,
    generate_panel,
    make_rng,
)
from panelcd.panel import ModelKind, validate_dataset


def cfg_for(dgp, **kw):
    base = dict(dgp=dgp, t=30, n=10, k={1: 2, 2: 3, 3: 2, 4: 0}[dgp])
    base.update(kw)
    return DgpConfig(**base)


class TestConfigValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DgpConfig(dgp=5, t=30, n=10)
        with pytest.raises(ValueError):
            DgpConfig(dgp=1, t=5, n=10)
        with pytest.raises(ValueError):
            DgpConfig(dgp=2, t=30, n=10, k=2)
        with pytest.raises(ValueError):
            DgpConfig(dgp=4, t=30, n=10, k=2)
        with pytest.raises(ValueError):
            DgpConfig(dgp=1, t=30, n=10, alternative=Alternative.DENSE, h=0.0)


class TestErrors:
    def test_unit_moments_at_scale(self):
        rng = make_rng(7)
        for dist in ErrorDist:
            draws = gen_errors(dist, 1000, 1000, rng)
            assert abs(draws.mean()) < 0.005
            assert 0.99 < draws.var() < 1.01

    def test_chisq_skewness_preserved(self):
        rng = make_rng(8)
        draws = gen_errors(ErrorDist.CHISQ5, 1000, 1000, rng).ravel()
        skew = np.mean((draws - draws.mean()) ** 3) / draws.std() ** 3
        assert skew == pytest.approx(np.sqrt(8.0 / 5.0), abs=0.05)

    def test_same_seed_bitwise_identical(self):
        a = gen_errors(ErrorDist.STUDENT_T10, 50, 40, make_rng(3))
        b = gen_errors(ErrorDist.STUDENT_T10, 50, 40, make_rng(3))
        assert np.array_equal(a, b)


class TestLoadings:
    def test_sparse_counts(self):
        lam = gen_loadings(Alternative.SPARSE, 100, make_rng(1))
        nz = lam[lam != 0]
        assert lam.shape == (100,)
        assert nz.size == 3  # floor(100^0.3)
        assert np.all((0.5 <= nz) & (nz <= 1.5))
        assert np.all(lam[3:] == 0)

    def test_less_sparse_counts(self):
        lam = gen_loadings(Alternative.LESS_SPARSE, 100, make_rng(2))
        assert np.count_nonzero(lam) == 10

    def test_dense_bound(self):
        lam = gen_loadings(Alternative.DENSE, 300, make_rng(3), h=3.0)
        assert np.max(np.abs(lam)) <= np.sqrt(9.0 / 300.0)
        assert np.max(np.abs(lam)) <= 0.17320508 + 1e-9

    def test_null_has_no_loadings(self):
        with pytest.raises(ValueError):
            gen_loadings(Alternative.NULL, 10, make_rng(0))


class TestGenerators:
    @pytest.mark.parametrize("dgp", [1, 2, 3, 4])
    def test_same_seed_is_bitwise_identical(self, dgp):
        a = generate_panel(cfg_for(dgp, seed=11))
        b = generate_panel(cfg_for(dgp, seed=11))
        assert np.array_equal(a.panel.y, b.panel.y)
        assert np.array_equal(a.panel.x, b.panel.x)
        c = generate_panel(cfg_for(dgp, seed=12))
        assert not np.array_equal(a.panel.y, c.panel.y)

    @pytest.mark.parametrize("dgp", [1, 2, 3, 4])
    def test_panels_validate_for_their_model(self, dgp):
        gen = generate_panel(cfg_for(dgp, t=40, n=8, seed=5))
        assert validate_dataset(gen.panel, gen.model_spec).ok
        assert gen.panel.time_ids == tuple(str(s) for s in range(1, 41))

    def test_model_specs(self):
        assert generate_panel(cfg_for(1)).model_spec.kind is ModelKind.HETEROGENEOUS
        assert generate_panel(cfg_for(2)).model_spec.kind is ModelKind.HETEROGENEOUS
        assert generate_panel(cfg_for(3)).model_spec.kind is ModelKind.FIXED_EFFECTS
        spec4 = generate_panel(cfg_for(4)).model_spec
        assert spec4.kind is ModelKind.DYNAMIC and spec4.include_intercept

    def test_null_panels_carry_no_loadings(self):
        assert generate_panel(cfg_for(1)).true_loadings is None

    def test_alternative_loadings_match_scheme_and_subseed(self):
        cfg = cfg_for(1, n=100, alternative=Alternative.SPARSE, seed=9)
        gen = generate_panel(cfg)
        assert np.count_nonzero(gen.true_loadings) == 3
        # loadings are the first consumption of the stream
        expected = gen_loadings(Alternative.SPARSE, 100, make_rng(9))
        assert np.array_equal(gen.true_loadings, expected)

    def test_dgp1_regressor_stationarity(self):
        # AR(1) with slope 0.6: Var(x) should equal Var(u)/(1-0.36)
        cfg = cfg_for(1, t=2000, n=5, burn_in=100, seed=4)
        panel = generate_panel(cfg).panel
        for i in range(panel.n):
            x = panel.x[i, :, 1]
            slope = np.polyfit(x[:-1], x[1:], 1)[0]
            assert slope == pytest.approx(0.6, abs=0.08)
            innov = x[1:] - 0.6 * x[:-1]
            ratio = x.var() / (innov.var() / (1 - 0.36))
            assert 0.8 < ratio < 1.2

    @pytest.mark.parametrize("shape", [(40,), (5, 40), (5, 3, 40)])
    def test_ar1_bit_equal_to_loop(self, shape):
        innov = make_rng(4).standard_normal(shape)
        ref = np.empty_like(innov)
        ref[..., 0] = innov[..., 0]
        for t in range(1, shape[-1]):
            ref[..., t] = 0.6 * ref[..., t - 1] + innov[..., t]
        x = _ar1(innov)
        assert x.flags.c_contiguous
        assert np.array_equal(x, ref)

    def test_dgp2_zero_noise_recursion_is_identically_zero(self):
        n, span = 4, 60
        zeros = np.zeros((n, span))
        x2, y = _dgp2_recursion(
            np.zeros(n), np.zeros(n), np.zeros(n), zeros, zeros, zeros
        )
        assert np.all(x2 == 0.0) and np.all(y == 0.0)

    def test_dgp2_feedback_wiring(self):
        # with zero u2 the second regressor equals the lagged response
        n, span = 3, 20
        rng = make_rng(5)
        alpha = rng.normal(size=n)
        b1 = rng.normal(size=n)
        b2 = rng.uniform(0.2, 0.8, n)
        x1 = rng.standard_normal((n, span))
        v = rng.standard_normal((n, span))
        x2, y = _dgp2_recursion(alpha, b1, b2, x1, np.zeros((n, span)), v)
        np.testing.assert_allclose(x2[:, 1:], y[:, :-1], atol=1e-12)
        np.testing.assert_allclose(x2[:, 0], 0.0, atol=1e-12)

    def test_dgp3_zero_noise_within_residuals_vanish(self):
        # exact homogeneous model: the within transform must fit it perfectly
        from panelcd.panel import fit_fixed_effects

        rng = make_rng(6)
        n, t = 5, 25
        x = np.empty((n, t, 2))
        x[:, :, 0] = 1.0
        x[:, :, 1] = rng.standard_normal((n, t))
        mu = rng.normal(1, 1, n)
        y = 1.0 + 2.0 * x[:, :, 1] + mu[:, None]
        from conftest import build_panel

        res = fit_fixed_effects(build_panel(y, x))
        assert np.max(np.abs(res.resid)) < 1e-10

    def test_dgp4_fixed_point(self):
        xi = np.full(3, 2.0)
        beta = np.full(3, 0.5)
        v = np.zeros((3, 51))
        y = _dgp4_recursion(xi, beta, v)
        assert np.max(np.abs(y[:, -1] - 2.0)) < 1e-6

    def test_dgp4_lag_coefficients_are_stationary(self):
        beta = _stable_lag_coefs(500, make_rng(10))
        assert np.max(np.abs(beta)) <= 0.98

    def test_dgp4_panel_has_no_regressors(self):
        panel = generate_panel(cfg_for(4)).panel
        assert panel.k == 0 and not panel.has_intercept
