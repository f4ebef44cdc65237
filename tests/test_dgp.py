
import hashlib
import itertools
import logging

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
    draw_panel,
    gen_errors,
    gen_loadings,
    generate_panel,
)
from panelcd.panel import ModelKind, fit, validate_dataset


def cfg_for(dgp, **kw):
    base = dict(dgp=dgp, t=30, n=10)
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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_refuses_a_seed_that_is_not_a_non_negative_integer(self, seed):
        # -1 once passed here and failed only when the generator was seeded
        with pytest.raises(ValueError, match="^seed must be a non-negative integer$"):
            DgpConfig(dgp=1, t=30, n=10, seed=seed)
        assert DgpConfig(dgp=1, t=30, n=10, seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("h", [np.inf, 1e308])
    def test_dense_refuses_an_h_whose_loading_bound_is_not_finite(self, h):
        # both once ended in an OverflowError from Generator.uniform
        with pytest.raises(ValueError, match=r"sqrt\(3h/n\), got h="):
            DgpConfig(dgp=1, t=30, n=10, alternative=Alternative.DENSE, h=h)
        # the rule is the dense alternative's only
        DgpConfig(dgp=1, t=30, n=10, alternative=Alternative.SPARSE, h=h)
        big = generate_panel(DgpConfig(dgp=1, t=30, n=10, alternative=Alternative.DENSE, h=1e307))
        assert np.isfinite(big.true_loadings).all()

    def test_k_defaults_per_dgp(self):
        assert [DgpConfig(dgp=d, t=30, n=10).k for d in (1, 2, 3, 4)] == [2, 3, 2, 0]
        assert DgpConfig(dgp=1, t=30, n=10) == DgpConfig(dgp=1, t=30, n=10, k=2)
        assert DgpConfig(dgp=3, t=30, n=10, k=4).k == 4


class TestErrors:
    def test_unit_moments_at_scale(self):
        rng = np.random.default_rng(7)
        for dist in ErrorDist:
            draws = gen_errors(dist, 1000, 1000, rng)
            assert abs(draws.mean()) < 0.005
            assert 0.99 < draws.var() < 1.01

    def test_chisq_skewness_preserved(self):
        rng = np.random.default_rng(8)
        draws = gen_errors(ErrorDist.CHISQ5, 1000, 1000, rng).ravel()
        skew = np.mean((draws - draws.mean()) ** 3) / draws.std() ** 3
        assert skew == pytest.approx(np.sqrt(8.0 / 5.0), abs=0.05)

    def test_same_seed_bitwise_identical(self):
        a = gen_errors(ErrorDist.STUDENT_T10, 50, 40, np.random.default_rng(3))
        b = gen_errors(ErrorDist.STUDENT_T10, 50, 40, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestLoadings:
    def test_sparse_counts(self):
        lam = gen_loadings(Alternative.SPARSE, 100, np.random.default_rng(1))
        nz = lam[lam != 0]
        assert lam.shape == (100,)
        assert nz.size == 3  # floor(100^0.3)
        assert np.all((0.5 <= nz) & (nz <= 1.5))
        assert np.all(lam[3:] == 0)

    def test_less_sparse_counts(self):
        lam = gen_loadings(Alternative.LESS_SPARSE, 100, np.random.default_rng(2))
        assert np.count_nonzero(lam) == 10

    def test_dense_bound(self):
        lam = gen_loadings(Alternative.DENSE, 300, np.random.default_rng(3), h=3.0)
        assert np.max(np.abs(lam)) <= np.sqrt(9.0 / 300.0)
        assert np.max(np.abs(lam)) <= 0.17320508 + 1e-9

    def test_null_has_no_loadings(self):
        with pytest.raises(ValueError):
            gen_loadings(Alternative.NULL, 10, np.random.default_rng(0))


# SHA-256 of every panel's y and x over all (error distribution,
# alternative) pairs, per design, as generated in one pass before the draw
# and build phases were split. The seeds of dgps 2 and 4 redraw lag
# coefficients in _stable_lag_coefs.
PANEL_SHA256 = {
    1: "a6d48fd5f969689ca74824fc0992d1430f9983d44f581cf820af3fdec3667188",
    2: "48fd342383753608ed11edaa02e429bad512c15a334a19540f97dd565697d3e4",
    3: "9eb8f8030b66340171a69f34e4e2941b9bc2d8ac193465226437686f30742bab",
    4: "c5221414867306b518a48bf8c59c35fd1232d727605d9b39660f6956bd2569af",
}


class TestGenerators:
    @pytest.mark.parametrize("dgp", [1, 2, 3, 4])
    def test_panels_are_those_of_the_one_pass_generators(self, dgp, caplog):
        caplog.set_level(logging.DEBUG, logger="panelcd.dgp")
        digest = hashlib.sha256()
        for i, (dist, alt) in enumerate(itertools.product(ErrorDist, Alternative)):
            cfg = DgpConfig(dgp=dgp, t=12, n=15, k=0 if dgp == 4 else 3, error_dist=dist,
                            alternative=alt, seed=100 * dgp + i)
            panel = generate_panel(cfg).panel
            digest.update(panel.y.tobytes())
            digest.update(panel.x.tobytes())
        assert digest.hexdigest() == PANEL_SHA256[dgp]
        redrew = any("redrew" in r.getMessage() for r in caplog.records)
        assert redrew == (dgp in (2, 4))

    @pytest.mark.parametrize("dgp", [1, 2, 3, 4])
    def test_panel_of_draws_made_ahead_is_the_same(self, dgp):
        cfg = cfg_for(dgp, alternative=Alternative.DENSE, seed=21)
        draws = draw_panel(cfg, np.random.default_rng(21))
        ahead, direct = generate_panel(cfg, draws).panel, generate_panel(cfg).panel
        assert ahead.y.tobytes() == direct.y.tobytes() and ahead.x.tobytes() == direct.x.tobytes()
        # the build overwrote the draws, so a second build is refused
        with pytest.raises(ValueError, match="already built"):
            generate_panel(cfg, draws)

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
        assert validate_dataset(gen.panel, gen.model_spec) == ()
        assert gen.panel.time_ids == tuple(str(s) for s in range(1, 41))

    def test_model_specs(self):
        assert generate_panel(cfg_for(1)).model_spec is ModelKind.HETEROGENEOUS
        assert generate_panel(cfg_for(2)).model_spec is ModelKind.HETEROGENEOUS
        assert generate_panel(cfg_for(3)).model_spec is ModelKind.FIXED_EFFECTS
        assert generate_panel(cfg_for(4)).model_spec is ModelKind.DYNAMIC

    def test_null_panels_carry_no_loadings(self):
        assert generate_panel(cfg_for(1)).true_loadings is None

    def test_alternative_loadings_match_scheme_and_subseed(self):
        cfg = cfg_for(1, n=100, alternative=Alternative.SPARSE, seed=9)
        gen = generate_panel(cfg)
        assert np.count_nonzero(gen.true_loadings) == 3
        # loadings are the first consumption of the stream
        expected = gen_loadings(Alternative.SPARSE, 100, np.random.default_rng(9))
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
        innov = np.random.default_rng(4).standard_normal(shape)
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
        rng = np.random.default_rng(5)
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
        rng = np.random.default_rng(6)
        n, t = 5, 25
        x = np.empty((n, t, 2))
        x[:, :, 0] = 1.0
        x[:, :, 1] = rng.standard_normal((n, t))
        mu = rng.normal(1, 1, n)
        y = 1.0 + 2.0 * x[:, :, 1] + mu[:, None]
        from conftest import build_panel

        res = fit(build_panel(y, x), ModelKind.FIXED_EFFECTS)
        assert np.max(np.abs(res.resid)) < 1e-10

    def test_dgp4_fixed_point(self):
        xi = np.full(3, 2.0)
        beta = np.full(3, 0.5)
        v = np.zeros((3, 51))
        y = _dgp4_recursion(xi, beta, v)
        assert np.max(np.abs(y[:, -1] - 2.0)) < 1e-6

    def test_dgp4_lag_coefficients_are_stationary(self):
        beta = _stable_lag_coefs(500, np.random.default_rng(10))
        assert np.max(np.abs(beta)) <= 0.98

    def test_dgp4_panel_has_no_regressors(self):
        # the only column is the intercept, the dynamic fit's constant
        panel = generate_panel(cfg_for(4)).panel
        assert panel.k == 1 and panel.has_intercept and np.all(panel.x == 1.0)
