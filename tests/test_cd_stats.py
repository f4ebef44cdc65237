import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import panelcd.cd_stats as cd
from panelcd.cd_stats import (
    chi2_sf,
    cd_lm_stat,
    cd_p_stat,
    lm_adj_stat,
    lm_bc_stat,
    lm_rmt_stat,
    lm_stat,
    normal_sf,
    null_constants,
    rlm_pe_stat,
    rlm_stat,
    rmt_centering,
    run_all,
)

# alias avoids pytest trying to collect the production config class
Config = cd.TestConfig
from panelcd.correlation import TraceStats, correlation_matrix, trace_stats
from panelcd.panel import ModelKind, ResidualMatrix, fit

from conftest import corr_of, random_panel


def stats_for(rho_matrix, t_eff):
    return trace_stats(corr_of(rho_matrix), t_eff)


def identity_stats(n, t_eff):
    return stats_for(np.eye(n), t_eff)


def stats_from_residuals(v, t_eff=None):
    t = v.shape[1] if t_eff is None else t_eff
    return trace_stats(correlation_matrix(v), t)


class TestPValueHelpers:
    def test_chi2_quantile(self):
        assert chi2_sf(3.841459, 1) == pytest.approx(0.05, abs=1e-4)

    def test_normal_quantile(self):
        assert 2 * normal_sf(1.959964) == pytest.approx(0.05, abs=1e-4)

    def test_extreme_statistics_clamp(self):
        n, t = 4, 30
        nc = null_constants(n, t)
        stats = TraceStats(
            tr_r2=nc.mu0 + 60.0 * nc.sigma0, tr_r4=0, offdiag_sum=0, n=n, t_eff=t,
        )
        res = rlm_stat(stats)
        assert res.p_value == cd.P_FLOOR
        assert res.reject


class TestTailFunctions:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 10, 37, 64, 100])
    def test_chi2_even_df_closed_form(self, m):
        # Q(m, y) = e^-y sum_{j<m} y^j / j!
        for y in [1e-3, 0.5, 1.0, 3.0] + [m * f for f in (0.3, 0.8, 0.99, 1.0, 1.01, 1.2, 2.0, 3.0)]:
            term = total = 1.0
            for j in range(1, m):
                term *= y / j
                total += term
            assert chi2_sf(2.0 * y, 2 * m) == pytest.approx(math.exp(-y) * total, rel=1e-10)

    def test_chi2_one_df_closed_form(self):
        for x in [1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.841459, 10.0, 50.0, 200.0, 900.0]:
            assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), rel=1e-10)

    def test_chi2_matches_scipy_at_lm_degrees_of_freedom(self):
        special = pytest.importorskip("scipy.special")
        ns = list(range(3, 60)) + list(range(60, 1000, 23)) + [1000]
        for n in ns:
            df = n * (n - 1) // 2
            for z in np.arange(-6.0, 12.01, 0.5):
                x = df + z * math.sqrt(2.0 * df)
                if x <= 0.0:
                    assert chi2_sf(x, df) == 1.0
                    continue
                expected = float(special.gammaincc(df / 2.0, x / 2.0))
                assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-10), (n, z)

    def test_normal_matches_scipy_erfc(self):
        special = pytest.importorskip("scipy.special")
        for z in np.linspace(-10.0, 37.0, 941):
            expected = 0.5 * float(special.erfc(z / np.sqrt(2.0)))
            assert normal_sf(float(z)) == pytest.approx(expected, rel=1e-13)

    def test_edge_inputs_return_promptly(self):
        start = time.perf_counter()
        for df in (1, 2, 7, 499500):
            assert math.isnan(chi2_sf(float("nan"), df))
            assert chi2_sf(float("inf"), df) == 0.0
            assert chi2_sf(float("-inf"), df) == 1.0
            assert chi2_sf(0.0, df) == 1.0
        assert math.isnan(chi2_sf(1.0, 0))
        assert math.isnan(normal_sf(float("nan")))
        assert normal_sf(float("inf")) == 0.0
        assert normal_sf(float("-inf")) == 1.0
        assert time.perf_counter() - start < 1.0


class TestLm:
    def test_identity_matrix_gives_zero(self):
        res = lm_stat(identity_stats(7, 31))
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)
        assert res.df == 21
        assert not res.reject

    def test_two_unit_value(self):
        res = lm_stat(stats_for([[1.0, 0.5], [0.5, 1.0]], 10))
        assert res.statistic == pytest.approx(2.5, abs=1e-12)
        assert res.df == 1

    def test_chi2_critical_point(self):
        # statistic at the 5% chi2(1) quantile
        n, t = 2, 10
        tr2 = 2 + 2 * 3.841459 / t
        res = lm_stat(TraceStats(tr_r2=tr2, tr_r4=0, offdiag_sum=0, n=n, t_eff=t))
        assert res.p_value == pytest.approx(0.05, abs=1e-4)


class TestCdLm:
    def test_identity_value(self):
        res = cd_lm_stat(identity_stats(10, 20))
        expected = np.sqrt(400.0 / 360.0) * (-90.0 / 20.0)
        assert res.statistic == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-4.7434, abs=5e-5)

    def test_zero_statistic_gives_half_p(self):
        n, t = 6, 12
        tr2 = n + n * (n - 1) / t
        res = cd_lm_stat(TraceStats(tr_r2=tr2, tr_r4=0, offdiag_sum=0, n=n, t_eff=t))
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.5, abs=1e-12)


class TestCdP:
    def test_identity_gives_zero_and_p_one(self):
        res = cd_p_stat(identity_stats(5, 14))
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1.0)
        assert res.sided == "two"

    def test_two_unit_value(self):
        res = cd_p_stat(stats_for([[1.0, 0.5], [0.5, 1.0]], 8))
        assert res.statistic == pytest.approx(np.sqrt(2.0), abs=1e-12)


class TestLmBc:
    def test_identity_value(self):
        res = lm_bc_stat(identity_stats(10, 20))
        assert res.statistic == pytest.approx(-4.743416 - 10.0 / 38.0, abs=5e-6)

    def test_shift_from_cd_lm_is_exact(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 40))
            t = int(rng.integers(n + 5, 3 * n + 6))
            stats = stats_from_residuals(rng.standard_normal((n, t)))
            gap = cd_lm_stat(stats).statistic - lm_bc_stat(stats).statistic
            assert gap == pytest.approx(n / (2.0 * (t - 1)), abs=1e-12)


class TestRlm:
    def test_constants_example(self):
        nc = null_constants(100, 101)
        assert nc.mu0 == pytest.approx(100 + 10000 / 100 - 100 / 101, rel=1e-14)
        assert nc.mu0 == pytest.approx(199.0099009901, abs=1e-9)
        assert nc.sigma0 == pytest.approx(200.0 / 101.0, rel=1e-14)
        assert nc.sigma0 == pytest.approx(1.980198, abs=1e-6)

    def test_centered_input_gives_zero(self):
        n, t = 8, 17
        nc = null_constants(n, t)
        stats = TraceStats(tr_r2=nc.mu0, tr_r4=0, offdiag_sum=0, n=n, t_eff=t)
        res = rlm_stat(stats)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.5, abs=1e-12)


class TestRlmPe:
    def test_sigma_at_unit_ratio(self):
        nc = null_constants(50, 50)
        assert nc.sigma_pe**2 == pytest.approx(8 + 96 * 4 + 16 * 196, rel=1e-12)
        assert nc.sigma_pe == pytest.approx(59.39696962, abs=1e-7)

    def test_centered_input_gives_zero(self):
        n, t = 9, 22
        nc = null_constants(n, t)
        stats = TraceStats(tr_r2=0, tr_r4=nc.mu_pe, offdiag_sum=0, n=n, t_eff=t)
        res = rlm_pe_stat(stats)
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.5, abs=1e-12)


class TestLmRmt:
    def test_shares_rlm_scale(self, rng):
        # same scale 2n/T as RLM, so the two differ by the centering gap
        # n^2 / (T^2 (T-1)) over 2n/T, whatever the data
        for n, t in [(20, 40), (60, 30), (33, 33)]:
            stats = stats_from_residuals(rng.standard_normal((n, t)), t)
            gap = rlm_stat(stats).statistic - lm_rmt_stat(stats, 2).statistic
            assert gap == pytest.approx(-n / (2.0 * t * (t - 1.0)), rel=1e-9, abs=1e-12)

    def test_centering_gap_identity(self):
        for n, t in [(100, 100), (200, 100), (50, 150)]:
            gap = null_constants(n, t).mu0 - rmt_centering(n, t)
            assert gap == pytest.approx(n**2 / (t**2 * (t - 1.0)), rel=1e-9)

    def test_close_to_rlm_on_null_data(self, rng):
        v = rng.standard_normal((60, 60))
        v -= v.mean(axis=1, keepdims=True)
        stats = stats_from_residuals(v, 60)
        a = rlm_stat(stats).statistic
        b = lm_rmt_stat(stats, 2).statistic
        assert abs(a - b) < 0.05


class TestLmAdj:
    def test_direct_summation_oracle_small_case(self, rng):
        # oracle: explicit loop over ordered pairs with per-pair moments
        from panelcd.correlation import projection_pair_moments

        t, k, n = 15, 2, 3
        bases = []
        for _ in range(n):
            bases.append(np.linalg.qr(rng.standard_normal((t, k)))[0])
        bases = np.stack(bases)
        v = rng.standard_normal((n, t))
        corr = correlation_matrix(v)
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                pm = projection_pair_moments(bases[i], bases[j], t, k)
                total += ((t - k) * corr.rho[i, j] ** 2 - pm.mu) / pm.sigma
        expected = np.sqrt(1.0 / (2 * n * (n - 1))) * total
        res = lm_adj_stat(corr, bases, t, k)
        assert res.statistic == pytest.approx(expected, rel=1e-12)

    def test_zero_correlations_identical_designs(self, rng):
        t, k, n = 20, 2, 3
        q = np.linalg.qr(rng.standard_normal((t, k)))[0]
        bases = np.stack([q] * n)
        corr = corr_of(np.eye(n))
        res = lm_adj_stat(corr, bases, t, k)
        from panelcd.correlation import projection_pair_moments

        sigma = projection_pair_moments(q, q, t, k).sigma
        expected = -n * (n - 1) / (np.sqrt(2 * n * (n - 1)) * sigma)
        assert res.statistic == pytest.approx(expected, rel=1e-12)


class TestExactIdentities:
    def test_identity_suite_random_inputs(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 40))
            t = int(rng.integers(n + 5, 3 * n + 6))
            stats = stats_from_residuals(rng.standard_normal((n, t)))
            cdlm = cd_lm_stat(stats).statistic
            lmbc = lm_bc_stat(stats).statistic
            rlm = rlm_stat(stats).statistic
            shift = n / (2.0 * (t - 1))
            assert abs(cdlm - lmbc - shift) <= 1e-10
            assert abs(cdlm - np.sqrt(n / (n - 1.0)) * (rlm + shift)) <= 1e-10
            rem = np.sqrt(n) / (2.0 * (t - 1) * (np.sqrt(n) + np.sqrt(n - 1.0)))
            assert abs(lmbc - np.sqrt(n / (n - 1.0)) * (rlm + rem)) <= 1e-10


class TestInvariances:
    def test_squared_family_invariant_to_permutation_and_sign_flips(self, rng):
        v = rng.standard_normal((8, 26))
        flipped = v * np.where(rng.random(8) < 0.5, -1.0, 1.0)[:, None]
        perm = rng.permutation(8)
        for w in (v[perm], flipped):
            a = stats_from_residuals(v)
            b = stats_from_residuals(w)
            for f in (lm_stat, cd_lm_stat, lm_bc_stat, rlm_stat, rlm_pe_stat):
                assert f(a).statistic == pytest.approx(f(b).statistic, abs=1e-10)
            assert lm_rmt_stat(a, 2).statistic == pytest.approx(lm_rmt_stat(b, 2).statistic, abs=1e-10)

    def test_cd_p_permutation_invariant_sign_flip_through_row(self, rng):
        v = rng.standard_normal((6, 20))
        perm = rng.permutation(6)
        assert cd_p_stat(stats_from_residuals(v[perm])).statistic == pytest.approx(
            cd_p_stat(stats_from_residuals(v)).statistic, abs=1e-10
        )
        flipped = v.copy()
        flipped[2] = -flipped[2]
        corr = correlation_matrix(v)
        adjusted = corr.rho.copy()
        adjusted[2, :] *= -1
        adjusted[:, 2] *= -1
        np.fill_diagonal(adjusted, 1.0)
        expected = cd_p_stat(stats_for(adjusted, 20)).statistic
        assert cd_p_stat(stats_from_residuals(flipped)).statistic == pytest.approx(expected, abs=1e-10)

    def test_p_value_monotone_in_statistic(self):
        n, t = 10, 30
        nc = null_constants(n, t)
        previous = 1.1
        for shift in np.linspace(-3, 8, 12):
            stats = TraceStats(
                tr_r2=nc.mu0 + shift * nc.sigma0,
                tr_r4=0,
                offdiag_sum=0,
                n=n,
                t_eff=t,
            )
            p = rlm_stat(stats).p_value
            assert p < previous
            previous = p


class TestRunAll:
    def test_requested_subset_dispatch(self, rng):
        resid = fit(random_panel(rng), ModelKind.HETEROGENEOUS)
        results = run_all(resid, Config(tests=("RLM", "RLM_PE")))
        assert [r.name for r in results] == ["RLM", "RLM_PE"]

    def test_lm_adj_unsupported_for_fixed_effects(self, rng):
        resid = fit(random_panel(rng), ModelKind.FIXED_EFFECTS)
        results = run_all(resid, Config(tests=("LM_adj", "RLM")))
        by_name = {r.name: r for r in results}
        assert by_name["LM_adj"].status == "unsupported"
        assert not by_name["LM_adj"].reject
        assert by_name["RLM"].status == "ok"

    def test_lm_adj_unsupported_without_bases(self, rng):
        resid = fit(random_panel(rng), ModelKind.HETEROGENEOUS, keep_bases=False)
        (res,) = run_all(resid, Config(tests=("LM_adj",)))
        assert res.status == "unsupported"
        with pytest.raises(cd.TestComputationError, match="without basis retention"):
            lm_adj_stat(correlation_matrix(resid), None, resid.t_eff, resid.k_eff)

    @pytest.mark.parametrize("dof", [1, 0])
    def test_lm_adj_fails_without_warnings_below_two_residual_degrees_of_freedom(self, rng, dof):
        # at one degree of freedom (a dynamic fit at T = k+3) the exact
        # variance is 0; at none the moment weights divide by T - k. No fit
        # leaves none, so those residuals are made by hand
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if dof:
                resid = fit(random_panel(rng, n=5, t=4, k=1), ModelKind.DYNAMIC)
            else:
                resid = ResidualMatrix(
                    resid=rng.standard_normal((4, 2)), t_eff=2, k_eff=2,
                    estimator=ModelKind.DYNAMIC, ortho_bases=np.stack([np.eye(2)] * 4),
                )
            results = {r.name: r for r in run_all(resid, Config())}
        assert resid.t_eff - resid.k_eff == dof
        assert results["LM_adj"].status == "failed"
        assert f"LM_adj needs T > k+1, got T={resid.t_eff}, k=2" in results["LM_adj"].message

    def test_full_battery_shares_one_trace_computation(self, rng, monkeypatch):
        calls = []
        original = cd.trace_stats

        def spy(corr, t_eff):
            calls.append(1)
            return original(corr, t_eff)

        monkeypatch.setattr(cd, "trace_stats", spy)
        resid = fit(random_panel(rng), ModelKind.HETEROGENEOUS)
        results = run_all(resid, Config())
        assert len(results) == 8
        assert len(calls) == 1

    def test_non_finite_statistic_is_failed(self, rng):
        v = rng.standard_normal((4, 12))
        v[1, 3] = np.nan
        resid = ResidualMatrix(
            resid=v, t_eff=12, k_eff=0, estimator=ModelKind.HETEROGENEOUS
        )
        results = run_all(resid, Config(tests=("LM", "CD_P", "RLM", "RLM_PE")))
        assert [r.status for r in results] == ["failed"] * 4
        assert all("non-finite" in r.message and not r.reject for r in results)

    def test_trace_tests_form_no_n_by_n_array(self, rng):
        n, t = 400, 50
        resid = ResidualMatrix(
            resid=rng.standard_normal((n, t)), t_eff=t, k_eff=0,
            estimator=ModelKind.HETEROGENEOUS,
        )
        tracemalloc.start()
        try:
            results = run_all(resid, Config(tests=("RLM", "RLM_PE")))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.status == "ok" for r in results)
        assert peak < n * n * 8

    def test_lm_adj_leaves_rho_unformed_when_n_exceeds_t(self, rng, monkeypatch):
        resid = fit(random_panel(rng, n=200, t=30, k=3), ModelKind.HETEROGENEOUS)
        made = []

        def spy(r):
            made.append(correlation_matrix(r))
            return made[-1]

        monkeypatch.setattr(cd, "correlation_matrix", spy)
        assert all(r.status == "ok" for r in run_all(resid, Config()))
        (corr,) = made
        assert corr._rho is None

    def test_lm_adj_working_memory_is_below_n_squared(self, rng):
        # the parent's full grids held mu, sigma, rho and z: several n^2 arrays
        n, t = 600, 50
        resid = fit(random_panel(rng, n=n, t=t, k=3), ModelKind.HETEROGENEOUS)
        corr = correlation_matrix(resid)
        tracemalloc.start()
        try:
            res = lm_adj_stat(corr, resid.ortho_bases, resid.t_eff, resid.k_eff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(res.statistic)
        assert peak < n * n * 8

    def test_degenerate_input_yields_failure_entries(self, rng):
        v = rng.standard_normal((4, 12))
        v[0] = 0.0
        resid = ResidualMatrix(
            resid=v, t_eff=12, k_eff=0, estimator=ModelKind.HETEROGENEOUS
        )
        results = run_all(resid, Config(tests=("RLM", "CD_P")))
        assert all(r.status == "failed" for r in results)

    def test_p_values_consistent_with_distribution(self, rng):
        resid = fit(random_panel(rng, n=6, t=30, k=2), ModelKind.HETEROGENEOUS)
        for res in run_all(resid, Config()):
            if res.status != "ok":
                continue
            if res.null_dist == "chi2":
                expected = chi2_sf(res.statistic, res.df)
            elif res.sided == "upper":
                expected = normal_sf(res.statistic)
            else:
                expected = 2 * normal_sf(abs(res.statistic))
            assert res.p_value == pytest.approx(max(expected, cd.P_FLOOR), abs=1e-12)
            assert res.reject == (res.p_value < res.alpha)
