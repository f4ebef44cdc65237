import numpy as np
import pytest

from panelcd.panel import (
    RANK_TOL,
    ModelKind,
    NearUnitRootWarning,
    PanelDataset,
    PanelError,
    RankDeficientError,
    ResidualMatrix,
    fit,
    validate_dataset,
    _demeaned_stack,
    _dynamic_designs,
    _fitted_stack,
    _least_squares,
)

from conftest import build_panel, random_panel

HET = ModelKind.HETEROGENEOUS
FE = ModelKind.FIXED_EFFECTS
DYN = ModelKind.DYNAMIC


class TestValidate:
    def test_well_formed_panel_is_ok(self, rng):
        panel = random_panel(rng, n=25, t=50, k=2)
        assert validate_dataset(panel, HET).ok

    def test_too_few_periods(self, rng):
        panel = random_panel(rng, n=4, t=3, k=2)
        report = validate_dataset(panel, HET)
        assert any("T < k+2" in v for v in report.violations)

    def test_dynamic_needs_one_more_period(self, rng):
        panel = random_panel(rng, n=4, t=4, k=2)
        assert any("T < k+3" in v for v in validate_dataset(panel, DYN).violations)

    @pytest.mark.filterwarnings("ignore::panelcd.panel.NearUnitRootWarning")
    def test_dynamic_size_rule_counts_the_intercept_column(self):
        # a 4-unit, 3-period panel whose only column is the intercept: the
        # dynamic fit's design is the lag plus that constant, two columns
        # for T_eff = 2 periods, so it would fit every unit exactly
        y = 1e8 * np.random.default_rng(0).standard_normal((4, 3))
        panel = build_panel(y, np.ones((4, 3, 1)))
        message = "T < k+3 (dynamic): T=3, k=1"
        assert message in validate_dataset(panel, DYN).violations
        with pytest.raises(PanelError, match=r"T < k\+3 \(dynamic\): T=3, k=1$"):
            fit(panel, DYN)
        # without the constant the design keeps one residual degree of freedom
        resid = fit(build_panel(y, np.empty((4, 3, 0)), has_intercept=False), DYN)
        assert resid.t_eff - resid.k_eff == 1

    def test_zero_regressor_column_flags_unit(self, rng):
        panel = random_panel(rng, n=5, t=20, k=2)
        x = panel.x.copy()
        x[2, :, 1] = 0.0
        bad = build_panel(panel.y.copy(), x)
        report = validate_dataset(bad, HET)
        assert any("rank-deficient" in v and "unit 3" in v for v in report.violations)

    def test_constant_response_flagged(self, rng):
        panel = random_panel(rng, n=4, t=15, k=2)
        y = panel.y.copy()
        y[1, :] = 7.0
        report = validate_dataset(build_panel(y, panel.x.copy()), HET)
        assert any("constant response" in v and "unit 2" in v for v in report.violations)

    def test_broken_intercept_column(self, rng):
        panel = random_panel(rng, n=4, t=15, k=2)
        x = panel.x.copy()
        x[0, 3, 0] = 0.0
        report = validate_dataset(build_panel(panel.y.copy(), x), HET)
        assert any("intercept" in v for v in report.violations)


    def test_heterogeneous_without_regressors_flagged(self, rng):
        panel = build_panel(rng.standard_normal((4, 15)), np.empty((4, 15, 0)), has_intercept=False)
        report = validate_dataset(panel, HET)
        assert any("k=0" in v for v in report.violations)
        assert validate_dataset(panel, DYN).ok


class TestFactorOnce:
    @pytest.mark.parametrize("kind", [HET, DYN, FE], ids=lambda s: s.value)
    def test_fit_reuses_the_validation_factorization(self, rng, monkeypatch, kind):
        panel = random_panel(rng, n=6, t=20, k=2)
        expected = fit(build_panel(panel.y, panel.x), kind)  # a fresh, unfactored copy
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert validate_dataset(panel, kind).ok
        res = fit(panel, kind)
        assert len(calls) == 1
        assert np.array_equal(res.resid, expected.resid)
        assert np.array_equal(res.coef, expected.coef)
        if kind is not ModelKind.FIXED_EFFECTS:
            assert np.array_equal(res.ortho_bases, expected.ortho_bases)

    def test_kind_given_by_value_fits_the_same_model(self, rng):
        # "dynamic" equals ModelKind.DYNAMIC and hashes alike, so the two
        # share one kept factorization and must select the same design
        panel = random_panel(rng, n=5, t=20, k=2)
        by_value = fit(panel, "dynamic")
        expected = fit(build_panel(panel.y, panel.x), DYN)
        assert by_value.estimator is DYN and by_value.t_eff == 19
        assert np.array_equal(by_value.resid, expected.resid)
        assert np.array_equal(fit(panel, DYN).resid, expected.resid)
        with pytest.raises(ValueError, match="ModelKind"):
            fit(panel, "within")
        with pytest.raises(ValueError, match="ModelKind"):
            validate_dataset(panel, "within")


class TestLeastSquaresKernel:
    @staticmethod
    def stacks(rng):
        """The design stack and response of each estimator, on one panel."""
        panel = random_panel(rng, n=6, t=30, k=3)
        yield "heterogeneous", panel.x, panel.y
        yield "within", *_demeaned_stack(panel)
        # a lag column far larger than the others, as in feedback designs
        big = build_panel(1e5 * panel.y, panel.x)
        yield "dynamic", _dynamic_designs(big), big.y[:, 1:]

    def test_ratio_matches_svd_of_equilibrated_design(self, rng):
        m, t = 40, 60
        spread = np.logspace(-6, -13, m)  # gives ratios from about 5e-7 down to 4e-14
        z, w = rng.standard_normal((2, m, t))
        x = np.empty((m, t, 3))
        x[:, :, 0] = 1.0
        x[:, :, 1] = 1e4 * z
        x[:, :, 2] = 1e-3 * (z + spread[:, None] * w)
        ratio = _least_squares(x, rng.standard_normal((m, t))).ratio
        s = np.linalg.svd(x / np.linalg.norm(x, axis=1, keepdims=True), compute_uv=False)
        expected = s[:, -1] / s[:, 0]
        assert expected.max() < 1e-6 and expected.min() < 1e-13
        above = expected > 1e-12
        np.testing.assert_allclose(ratio[above], expected[above], rtol=1e-5)
        np.testing.assert_array_equal(ratio < RANK_TOL, expected < RANK_TOL)

    def test_zero_and_collinear_columns_have_zero_ratio(self, rng):
        x = np.ones((3, 20, 3))
        x[:, :, 1] = rng.standard_normal((3, 20))
        x[0, :, 2] = 0.0
        x[1, :, 2] = -2.5 * x[1, :, 1]
        x[2, :, 2] = 0.5 * x[2, :, 0] + 3.0 * x[2, :, 1]
        ratio = _least_squares(x, rng.standard_normal((3, 20))).ratio
        assert ratio[0] == 0.0
        # an exactly collinear column leaves a rounding-level diagonal in R
        assert np.all(ratio[1:] < 1e-14)

    def test_single_column_on_a_read_only_stack(self, rng):
        x = rng.standard_normal((4, 15, 1))
        y = rng.standard_normal((4, 15))
        x.flags.writeable = False
        kept = x.copy()
        ls = _least_squares(x, y)
        assert np.array_equal(x, kept)
        beta = np.einsum("mt,mt->m", x[:, :, 0], y) / np.einsum("mt,mt->m", x[:, :, 0], x[:, :, 0])
        np.testing.assert_allclose(ls.coef[:, 0], beta, rtol=1e-12)
        np.testing.assert_allclose(ls.resid, y - beta[:, None] * x[:, :, 0], atol=1e-12)

    def test_basis_orthonormal_and_residuals_orthogonal(self, rng):
        for name, designs, y in self.stacks(rng):
            ls = _least_squares(designs, y)
            k = designs.shape[2]
            gram = np.einsum("mta,mtb->mab", ls.basis, ls.basis)
            np.testing.assert_allclose(gram, np.broadcast_to(np.eye(k), gram.shape), atol=1e-12, err_msg=name)
            cross = np.abs(np.einsum("mta,mt->ma", designs, ls.resid))
            scale = np.linalg.norm(designs, axis=1) * np.linalg.norm(ls.resid, axis=1)[:, None]
            assert np.all(cross <= 1e-12 * scale), name

    def test_coefficient_beyond_double_range_is_inf_without_warning(self, rng):
        # slope about 1e350: the suite turns the overflow RuntimeWarning into an error
        x = np.ones((3, 12, 2))
        x[:, :, 1] = 1e-150 * rng.standard_normal((3, 12))
        y = 1e200 * (x[:, :, 1] * 1e150 + 0.1 * rng.standard_normal((3, 12)))
        ls = _least_squares(x, y)
        assert np.all(np.isinf(ls.coef[:, 1]))
        assert np.all(np.isfinite(ls.resid))

    @pytest.mark.parametrize("kind", [HET, DYN], ids=lambda s: s.value)
    def test_basis_and_its_base_are_read_only(self, rng, kind):
        bases = fit(random_panel(rng, n=5, t=20, k=2), kind).ortho_bases
        assert not bases.flags.writeable and not bases.base.flags.writeable
        # the LM_adj grid reads the (k, n, T) layout without a copy
        assert np.transpose(bases, (2, 0, 1)).flags.c_contiguous


class TestPanelDataset:
    def test_caller_arrays_stay_writable_and_detached(self, rng):
        y = rng.standard_normal((4, 10))
        x = np.ones((4, 10, 1))
        panel = build_panel(y, x)
        assert y.flags.writeable and x.flags.writeable
        y[0, 0] = 99.0
        assert panel.y[0, 0] != 99.0
        assert not panel.y.flags.writeable and not panel.x.flags.writeable

    def test_residual_matrix_copies_the_callers_array(self, rng):
        r = rng.standard_normal((4, 10))
        resid = ResidualMatrix(resid=r, t_eff=10, k_eff=1, estimator=HET)
        assert r.flags.writeable
        r[0, 0] = 99.0
        assert resid.resid[0, 0] != 99.0
        assert not resid.resid.flags.writeable

    @pytest.mark.parametrize("grid, value", [("y", np.inf), ("y", np.nan), ("x", -np.inf)])
    def test_non_finite_values_rejected(self, rng, grid, value):
        panel = random_panel(rng, n=4, t=10, k=2)
        y, x = panel.y.copy(), panel.x.copy()
        if grid == "y":
            y[2, 5] = value
        else:
            x[2, 5, 1] = value
        with pytest.raises(PanelError, match=f"^{grid} has 1 non-finite value.*unit 3, time 6"):
            PanelDataset(y=y, x=x, unit_ids=panel.unit_ids, time_ids=panel.time_ids)


class TestHeterogeneous:
    def test_exact_fit_gives_zero_residuals(self, rng):
        panel = random_panel(rng, n=4, t=12, k=2, noise=0.0)
        res = fit(panel, HET)
        assert np.max(np.abs(res.resid)) < 1e-10

    def test_intercept_only_demeans(self, rng):
        y = rng.standard_normal((3, 10))
        x = np.ones((3, 10, 1))
        res = fit(build_panel(y, x), HET)
        np.testing.assert_allclose(res.resid, y - y.mean(axis=1, keepdims=True), atol=1e-12)

    def test_matches_normal_equations(self, rng):
        # oracle: explicit per-unit solve of X'X b = X'y
        panel = random_panel(rng, n=5, t=20, k=2)
        res = fit(panel, HET)
        for i in range(panel.n):
            xi, yi = panel.x[i], panel.y[i]
            beta = np.linalg.solve(xi.T @ xi, xi.T @ yi)
            np.testing.assert_allclose(res.resid[i], yi - xi @ beta, atol=1e-8)
            np.testing.assert_allclose(res.coef[i], beta, atol=1e-8)

    def test_residuals_orthogonal_to_unit_design(self, rng):
        panel = random_panel(rng, n=6, t=25, k=3)
        res = fit(panel, HET)
        for i in range(panel.n):
            for l in range(panel.k):
                col = panel.x[i, :, l]
                bound = 1e-8 * np.linalg.norm(col) * np.linalg.norm(res.resid[i])
                assert abs(col @ res.resid[i]) <= bound

    def test_rank_deficient_unit_raises(self, rng):
        panel = random_panel(rng, n=4, t=15, k=2)
        x = panel.x.copy()
        x[1, :, 1] = 3.0 * x[1, :, 0]  # second column collinear with intercept
        with pytest.raises(RankDeficientError, match="unit 2"):
            fit(build_panel(panel.y.copy(), x), HET)

    def test_location_invariance_with_intercept(self, rng):
        panel = random_panel(rng, n=5, t=20, k=2)
        res = fit(panel, HET)
        shifts = rng.normal(0.0, 10.0, panel.n)
        shifted = build_panel(panel.y + shifts[:, None], panel.x.copy())
        res2 = fit(shifted, HET)
        assert np.max(np.abs(res2.resid - res.resid)) <= 1e-9

    def test_scale_equivariance(self, rng):
        panel = random_panel(rng, n=5, t=20, k=2)
        res = fit(panel, HET)
        s = 3.5
        scaled = build_panel(s * panel.y, panel.x.copy())
        res2 = fit(scaled, HET)
        np.testing.assert_allclose(res2.resid, s * res.resid, rtol=1e-12, atol=1e-12)

    def test_permutation_equivariance(self, rng):
        panel = random_panel(rng, n=6, t=20, k=2)
        perm = rng.permutation(panel.n)
        permuted = build_panel(panel.y[perm], panel.x[perm])
        res = fit(panel, HET)
        res2 = fit(permuted, HET)
        np.testing.assert_array_equal(res2.resid, res.resid[perm])

    def test_bases_are_orthonormal(self, rng):
        panel = random_panel(rng, n=4, t=18, k=3)
        res = fit(panel, HET, keep_bases=True)
        assert res.ortho_bases.shape == (4, 18, 3)
        for q in res.ortho_bases:
            np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-10)
        assert fit(panel, HET, keep_bases=False).ortho_bases is None


class TestFixedEffects:
    def test_pure_fixed_effects_fit_exactly(self, rng):
        n, t = 5, 12
        mu = rng.normal(0, 2, n)
        y = np.tile(mu[:, None], (1, t))
        x = np.empty((n, t, 2))
        x[:, :, 0] = 1.0
        x[:, :, 1] = rng.standard_normal((n, t))
        res = fit(build_panel(y, x), FE)
        assert np.max(np.abs(res.resid)) < 1e-10

    def test_recovers_common_slope(self, rng):
        n, t = 4, 15
        x = np.empty((n, t, 2))
        x[:, :, 0] = 1.0
        x[:, :, 1] = rng.standard_normal((n, t))
        mu = rng.normal(1, 1, n)
        y = mu[:, None] + 2.0 * x[:, :, 1]
        res = fit(build_panel(y, x), FE)
        assert res.coef[0] == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(res.resid)) < 1e-9

    def test_matches_stacked_demeaned_least_squares(self, rng):
        # oracle: build the demeaned stacks densely and run one lstsq
        panel = random_panel(rng, n=4, t=15, k=2)
        res = fit(panel, FE)
        xd = panel.x[:, :, 1:] - panel.x[:, :, 1:].mean(axis=1, keepdims=True)
        yd = panel.y - panel.y.mean(axis=1, keepdims=True)
        stack_x = xd.reshape(-1, 1)
        stack_y = yd.reshape(-1)
        beta, *_ = np.linalg.lstsq(stack_x, stack_y, rcond=None)
        expected = (stack_y - stack_x @ beta).reshape(panel.n, panel.t)
        np.testing.assert_allclose(res.resid, expected, atol=1e-10)

    def test_unit_residuals_sum_to_zero(self, rng):
        panel = random_panel(rng, n=6, t=20, k=3)
        res = fit(panel, FE)
        scale = np.abs(res.resid).sum(axis=1)
        assert np.max(np.abs(res.resid.sum(axis=1)) / scale) < 1e-10

    def test_aggregate_orthogonality(self, rng):
        panel = random_panel(rng, n=6, t=20, k=3)
        res = fit(panel, FE)
        xd = panel.x[:, :, 1:] - panel.x[:, :, 1:].mean(axis=1, keepdims=True)
        for l in range(xd.shape[2]):
            col = xd[:, :, l].ravel()
            bound = 1e-8 * np.linalg.norm(col) * np.linalg.norm(res.resid.ravel())
            assert abs(col @ res.resid.ravel()) <= bound

    def test_intercept_only_demeans(self, rng):
        y = rng.standard_normal((3, 10))
        res = fit(build_panel(y, np.ones((3, 10, 1))), FE)
        assert res.k_eff == 0
        np.testing.assert_allclose(res.resid, y - y.mean(axis=1, keepdims=True), atol=1e-15)

    def test_k_eff_drops_intercept(self, rng):
        panel = random_panel(rng, n=4, t=15, k=3)
        res = fit(panel, FE)
        assert res.k_eff == 2
        assert res.ortho_bases is None


class TestDynamic:
    def test_static_truth_recovers_zero_lag_coefficient(self, rng):
        n, t = 4, 20
        x = np.empty((n, t, 2))
        x[:, :, 0] = 1.0
        x[:, :, 1] = rng.standard_normal((n, t))
        y = 1.5 + 0.8 * x[:, :, 1]
        res = fit(build_panel(y, x), DYN)
        assert np.max(np.abs(res.coef[:, 0])) < 1e-8
        assert np.max(np.abs(res.resid)) < 1e-8

    def test_pure_ar1_exact(self):
        t = 12
        y0 = np.array([1.0, -2.0, 0.5])
        y = np.empty((3, t))
        y[:, 0] = y0
        for s in range(1, t):
            y[:, s] = 0.5 * y[:, s - 1]
        panel = build_panel(y, np.ones((3, t, 1)))
        res = fit(panel, DYN)
        np.testing.assert_allclose(res.coef[:, 0], 0.5, atol=1e-10)
        assert res.t_eff == t - 1
        assert res.k_eff == 2

    def test_matches_two_column_normal_equations(self, rng):
        # oracle: per-unit explicit solve on (lag, 1)
        n, t = 25, 50
        beta = rng.uniform(0.2, 0.8, n)
        xi = rng.normal(1, 1, n)
        v = rng.standard_normal((n, 51 + t))
        y = np.zeros((n, 51 + t))
        prev = np.zeros(n)
        for s in range(51 + t):
            y[:, s] = xi * (1 - beta) + beta * prev + v[:, s]
            prev = y[:, s]
        y = y[:, 51:]
        panel = build_panel(y, np.ones((n, t, 1)))
        res = fit(panel, DYN)
        for i in range(n):
            z = np.column_stack([y[i, :-1], np.ones(t - 1)])
            coef = np.linalg.solve(z.T @ z, z.T @ y[i, 1:])
            np.testing.assert_allclose(res.resid[i], y[i, 1:] - z @ coef, atol=1e-8)

    def test_near_unit_root_warns(self, rng):
        t = 30
        y = np.empty((3, t))
        y[:, 0] = 1.0
        for s in range(1, t):
            y[:, s] = 1.2 * y[:, s - 1] + 0.01 * rng.standard_normal(3)
        panel = build_panel(y, np.ones((3, t, 1)))
        with pytest.warns(NearUnitRootWarning):
            res = fit(panel, DYN)
        assert np.all(np.abs(res.coef[:, 0] - 1.2) < 0.05)

    def test_equivalent_to_manual_lag_heterogeneous_fit(self, rng):
        panel = random_panel(rng, n=5, t=20, k=2)
        res_dyn = fit(panel, DYN)
        lag = panel.y[:, :-1]
        x_manual = np.concatenate([lag[:, :, None], panel.x[:, 1:, :]], axis=2)
        manual = build_panel(panel.y[:, 1:], x_manual, has_intercept=False)
        res_het = fit(manual, HET)
        assert np.max(np.abs(res_dyn.resid - res_het.resid)) <= 1e-12

    def test_too_short_panel_raises(self, rng):
        panel = random_panel(rng, n=4, t=4, k=2)
        with pytest.raises(PanelError, match="k\\+3"):
            fit(panel, DYN)
