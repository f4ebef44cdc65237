import itertools
import tracemalloc

import numpy as np
import pytest

from panelcd.correlation import (
    GRID_BLOCK,
    CorrelationMatrix,
    DegenerateUnitError,
    InvalidBasisError,
    correlation_matrix,
    projection_moment_grids,
    projection_pair_moments,
    trace_stats,
)

from panelcd.dgp import DgpConfig, generate_panel
from panelcd.panel import fit

from conftest import corr_of, dense_pair_moments, moment_grids


def corr_loop_oracle(v):
    """Direct double loop over the raw-sum correlation definition."""
    n = v.shape[0]
    ss = (v**2).sum(axis=1)
    out = np.eye(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = (v[i] * v[j]).sum() / np.sqrt(ss[i] * ss[j])
    return out


def random_basis(rng, t, k):
    return np.linalg.qr(rng.standard_normal((t, k)))[0]


def bases_sharing(rng, n, t, k, s):
    """n orthonormal (T, k) bases whose first s columns are the same in every
    unit and whose other columns differ from unit to unit."""
    h = random_basis(rng, t, t)
    q = np.empty((n, t, k))
    q[:, :, :s] = h[:, :s]
    q[:, :, s:] = h[:, s:] @ np.linalg.qr(rng.standard_normal((n, t - s, k - s)))[0]
    return q


# (k, s): every k up to 4 with s = 0, 1, 2 and k shared leading columns
SHARED_CASES = sorted({(k, s) for k in range(1, 5) for s in (0, 1, 2, k) if s <= k})


class TestCorrelationMatrix:
    def test_only_correlation_matrix_makes_one(self):
        # a matrix passed to the class would otherwise be read as rows
        with pytest.raises(TypeError):
            CorrelationMatrix(np.eye(3))

    def test_duplicate_rows_correlate_to_one(self, rng):
        v = rng.standard_normal((4, 12))
        v[2] = v[0]
        corr = correlation_matrix(v)
        assert corr.rho[0, 2] == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_rows_have_zero_correlation(self):
        v = np.zeros((3, 9))
        v[0, 0:3] = [1.0, -2.0, 0.5]
        v[1, 3:6] = [2.0, 1.0, 1.0]
        v[2, 6:9] = [-1.0, 3.0, 2.0]
        corr = correlation_matrix(v)
        off = corr.rho - np.eye(3)
        assert np.max(np.abs(off)) < 1e-14

    def test_matches_scalar_loop_oracle(self, rng):
        v = rng.standard_normal((4, 10))
        corr = correlation_matrix(v)
        np.testing.assert_allclose(corr.rho, corr_loop_oracle(v), atol=1e-13)

    def test_exact_symmetry_and_unit_diagonal(self, rng):
        v = rng.standard_normal((8, 25))
        corr = correlation_matrix(v)
        assert np.array_equal(corr.rho, corr.rho.T)
        assert np.all(np.diag(corr.rho) == 1.0)
        assert np.max(np.abs(corr.rho)) <= 1.0 + 1e-12

    def test_invariant_to_per_unit_rescaling(self, rng):
        v = rng.standard_normal((5, 15))
        scales = rng.uniform(0.1, 10.0, 5)
        corr = correlation_matrix(v)
        corr2 = correlation_matrix(v * scales[:, None])
        assert np.max(np.abs(corr2.rho - corr.rho)) <= 1e-12

    def test_positive_semidefinite(self, rng):
        v = rng.standard_normal((10, 30))
        corr = correlation_matrix(v)
        assert np.linalg.eigvalsh(corr.rho).min() >= -1e-8

    def test_huge_rows_do_not_overflow(self, rng):
        # the sum of squares of a row scaled by 1e200 is inf in double precision
        v = rng.standard_normal((6, 20))
        big = v * 1e200
        corr, corr_big = correlation_matrix(v), correlation_matrix(big)
        np.testing.assert_allclose(corr_big.rho, corr.rho, rtol=0, atol=1e-12)
        a, b = trace_stats(corr, 20), trace_stats(corr_big, 20)
        for name in ("tr_r2", "tr_r4", "offdiag_sum"):
            assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-12, abs=1e-12)

    def test_degenerate_unit_raises(self, rng):
        v = rng.standard_normal((4, 10))
        v[1] = 0.0
        with pytest.raises(DegenerateUnitError) as err:
            correlation_matrix(v)
        assert err.value.unit == 1


class TestTraceStats:
    def test_identity_case(self):
        stats = trace_stats(corr_of(np.eye(7)), t_eff=13)
        assert stats.tr_r2 == pytest.approx(7.0, abs=1e-14)
        assert stats.tr_r4 == pytest.approx(7.0, abs=1e-14)
        assert stats.offdiag_sum == pytest.approx(0.0, abs=1e-14)

    def test_two_by_two_eigenvalue_expansion(self):
        # oracle: eigenvalues 1 +/- rho, so tr R^4 = (1+rho)^4 + (1-rho)^4
        rho = 0.5
        stats = trace_stats(corr_of([[1.0, rho], [rho, 1.0]]), t_eff=10)
        assert stats.tr_r2 == pytest.approx(2 + 2 * rho**2, abs=1e-13)
        assert stats.tr_r4 == pytest.approx((1 + rho) ** 4 + (1 - rho) ** 4, abs=1e-13)
        assert stats.tr_r4 == pytest.approx(2 + 12 * rho**2 + 2 * rho**4, abs=1e-13)

    def test_tr_r4_matches_naive_quadruple_product(self, rng):
        corr = correlation_matrix(rng.standard_normal((6, 40)))
        stats = trace_stats(corr, t_eff=40)
        r = corr.rho
        naive = np.trace(r @ r @ r @ r)
        assert stats.tr_r4 == pytest.approx(naive, rel=1e-10)

    def test_tr_r2_matches_explicit_square(self, rng):
        corr = correlation_matrix(rng.standard_normal((50, 80)))
        stats = trace_stats(corr, t_eff=80)
        assert stats.tr_r2 == pytest.approx(np.trace(corr.rho @ corr.rho), rel=1e-10)

    @pytest.mark.parametrize("n, t", [(20, 45), (30, 30), (45, 20)])
    def test_gram_side_matches_explicit_rho(self, rng, n, t):
        # rows give the traces from the min(n, T)-side Gram matrix
        corr = correlation_matrix(rng.standard_normal((n, t)) + 0.3 * rng.standard_normal(t))
        stats = trace_stats(corr, t)
        r = corr.rho
        r2 = r @ r
        assert stats.tr_r2 == pytest.approx(np.einsum("ij,ij->", r, r), rel=1e-12)
        assert stats.tr_r4 == pytest.approx(np.einsum("ij,ij->", r2, r2), rel=1e-12)
        assert stats.offdiag_sum == pytest.approx(r.sum() - n, rel=1e-12)

    def test_offdiagonal_mass_nonnegative(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 20))
            t = int(rng.integers(n + 2, 3 * n + 5))
            stats = trace_stats(correlation_matrix(rng.standard_normal((n, t))), t_eff=t)
            assert stats.tr_r2 - n >= 0.0

    def test_power_mean_inequality(self, rng):
        # Cauchy-Schwarz on the eigenvalues: n * tr(R^4) >= tr(R^2)^2
        for _ in range(5):
            n = int(rng.integers(3, 25))
            t = int(rng.integers(n + 2, 3 * n + 5))
            stats = trace_stats(correlation_matrix(rng.standard_normal((n, t))), t_eff=t)
            assert stats.tr_r4 >= stats.tr_r2**2 / stats.n - 1e-9


class TestProjectionMoments:
    def test_identical_designs(self, rng):
        t, k = 20, 2
        q = random_basis(rng, t, k)
        pm = projection_pair_moments(q, q, t, k)
        # both residuals span the same (T-k)-space, so with m = T-k the squared
        # correlation is Beta(1/2, (m-1)/2): E[m rho^2] = 1, Var = 2(m-1)/(m+2)
        m = t - k
        assert pm.mu == pytest.approx(1.0, abs=1e-12)
        assert pm.sigma == pytest.approx(np.sqrt(2.0 * (m - 1) / (m + 2)), rel=1e-12)

    def test_disjoint_column_spaces(self):
        t, k = 10, 2
        q_i = np.zeros((t, k))
        q_i[0, 0] = q_i[1, 1] = 1.0
        q_j = np.zeros((t, k))
        q_j[2, 0] = q_j[3, 1] = 1.0
        pm = projection_pair_moments(q_i, q_j, t, k)
        # M_i M_j projects off 2k axes, so tr(M_i M_j) = tr((M_i M_j)^2) = T - 2k
        assert pm.mu == pytest.approx(6.0 / (t - k), abs=1e-12)
        assert pm.sigma == pytest.approx(dense_pair_moments(q_i, q_j, t, k)[1], abs=1e-12)

    def test_matches_dense_projection_oracle(self, rng):
        # oracle: build M = I - QQ' explicitly and take dense traces
        t, k = 12, 3
        q_i = random_basis(rng, t, k)
        q_j = random_basis(rng, t, k)
        pm = projection_pair_moments(q_i, q_j, t, k)
        mu, sigma = dense_pair_moments(q_i, q_j, t, k)
        assert pm.mu == pytest.approx(mu, abs=1e-10)
        assert pm.sigma == pytest.approx(sigma, abs=1e-10)

    def test_symmetric_in_the_two_bases(self, rng):
        t, k = 15, 2
        q_i = random_basis(rng, t, k)
        q_j = random_basis(rng, t, k)
        a = projection_pair_moments(q_i, q_j, t, k)
        b = projection_pair_moments(q_j, q_i, t, k)
        assert a.mu == pytest.approx(b.mu, rel=1e-12)
        assert a.sigma == pytest.approx(b.sigma, rel=1e-12)

    def test_grid_matches_pairwise_calls(self, rng):
        t = 14
        # one block, and several blocks with a ragged last one
        for n, k in itertools.product((5, 2 * GRID_BLOCK + 3), (1, 2, 3)):
            bases = np.stack([random_basis(rng, t, k) for _ in range(n)])
            mu, sigma = moment_grids(bases, t, k)
            assert np.array_equal(mu, mu.T) and np.array_equal(sigma, sigma.T)
            # every unit on a block edge, plus a few inside the blocks
            edges = {0, n - 1} | {e + d for e in range(GRID_BLOCK, n, GRID_BLOCK) for d in (-1, 0)}
            units = sorted(edges | set(rng.choice(n, size=min(n, 6), replace=False).tolist()))
            for i, j in itertools.permutations(units, 2):
                pm = projection_pair_moments(bases[i], bases[j], t, k)
                assert mu[i, j] == pytest.approx(pm.mu, rel=1e-12)
                assert sigma[i, j] == pytest.approx(pm.sigma, rel=1e-12)

    @pytest.mark.parametrize("k, s", SHARED_CASES)
    def test_grid_with_shared_leading_columns_matches_dense_oracle(self, rng, k, s):
        t, n = 14, 2 * GRID_BLOCK + 3
        bases = bases_sharing(rng, n, t, k, s)
        mu, sigma = moment_grids(bases, t, k)
        edges = {0, n - 1} | {e + d for e in range(GRID_BLOCK, n, GRID_BLOCK) for d in (-1, 0)}
        units = sorted(edges | set(rng.choice(n, size=6, replace=False).tolist()))
        for i, j in itertools.permutations(units, 2):
            dense_mu, dense_sigma = dense_pair_moments(bases[i], bases[j], t, k)
            assert abs(mu[i, j] - dense_mu) <= 1e-12
            assert abs(sigma[i, j] - dense_sigma) <= 1e-12

    @pytest.mark.parametrize("k, s", SHARED_CASES)
    def test_shared_leading_columns_are_taken_out_of_the_tiles(self, rng, k, s):
        # bit for bit the kernel on the other columns at (T - s, k - s)
        t, n = 14, 2 * GRID_BLOCK + 3
        bases = bases_sharing(rng, n, t, k, s)
        full = list(projection_moment_grids(bases, t, k))
        reduced = list(projection_moment_grids(np.ascontiguousarray(bases[:, :, s:]), t - s, k - s))
        assert len(full) == len(reduced)
        for (rows, cols, mu, sigma), (r_rows, r_cols, r_mu, r_sigma) in zip(full, reduced):
            assert (rows, cols) == (r_rows, r_cols)
            assert np.array_equal(mu, r_mu) and np.array_equal(sigma, r_sigma)

    def test_grid_working_memory_is_blocked(self, rng):
        # an (n, n, k, k) layout needs about 24 n^2 doubles at k = 3; the
        # tiles need a copy of the bases (nTk) and O(k^2 GRID_BLOCK^2)
        n, t, k = 400, 100, 3
        bases = np.linalg.svd(rng.standard_normal((n, t, k)), full_matrices=False)[0]
        tracemalloc.start()
        try:
            tiles = sum(1 for _ in projection_moment_grids(bases, t, k))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        blocks = -(-n // GRID_BLOCK)
        assert tiles == blocks * (blocks + 1) // 2
        assert peak <= (n * t * k + 6 * k * k * GRID_BLOCK**2) * 8

    def test_moments_match_monte_carlo_for_distinct_designs(self):
        # two fixed designs sharing the intercept column; normal errors
        t, k, reps = 20, 2, 200_000
        rng = np.random.default_rng(20240811)
        q_i, q_j = (
            np.linalg.qr(np.column_stack([np.ones(t), rng.standard_normal(t)]))[0]
            for _ in range(2)
        )
        draws = []
        for _ in range(4):  # chunked to keep the temporaries small
            e_i, e_j = rng.standard_normal((2, reps // 4, t))
            e_i -= (e_i @ q_i) @ q_i.T
            e_j -= (e_j @ q_j) @ q_j.T
            rho2 = np.einsum("rt,rt->r", e_i, e_j) ** 2 / (
                np.einsum("rt,rt->r", e_i, e_i) * np.einsum("rt,rt->r", e_j, e_j)
            )
            draws.append((t - k) * rho2)
        x = np.concatenate(draws)
        mean, var = x.mean(), x.var()
        se_mean = np.sqrt(var / reps)
        se_var = np.sqrt((np.mean((x - mean) ** 4) - var**2) / reps)
        pm = projection_pair_moments(q_i, q_j, t, k)
        assert abs(mean - pm.mu) <= 4.0 * se_mean
        assert abs(var - pm.sigma**2) <= 4.0 * se_var

    def test_rejects_non_orthonormal_basis(self, rng):
        t, k = 10, 2
        q = random_basis(rng, t, k)
        with pytest.raises(InvalidBasisError):
            projection_pair_moments(2.0 * q, q, t, k)


@pytest.mark.parametrize("dgp", [1, 2])
def test_fit_with_intercept_shares_basis_column_zero(dgp):
    # the LM_adj kernel takes out basis columns that are bitwise the same in
    # every unit; a fit whose intercept column drifted by rounding from unit
    # to unit would leave the result right but pay for all k columns again
    for t in (10, 11, 17, 33, 64, 100, 128, 199, 300):
        gen = generate_panel(DgpConfig(dgp=dgp, t=t, n=12), np.random.default_rng(t))
        assert gen.panel.has_intercept
        bases = fit(gen.panel, gen.model_spec).ortho_bases
        assert np.all(bases[:, :, 0] == bases[:1, :, 0]), t
        assert not np.all(bases[:, :, 1] == bases[:1, :, 1]), t


def test_fitted_vs_known_error_trace_diagnostic(rng):
    """Loose statistical diagnostic: substituting fitted residuals for the
    true errors moves tr(R^2) by well under a quarter of the statistic's
    scale at square panel sizes (median over replications)."""
    n = t = 300
    burn = 51
    devs = []
    for _ in range(200):
        alpha = rng.normal(1, 1, n)
        beta = rng.normal(1, 0.2, n)
        tau2 = rng.chisquare(6, n) / 6
        u = rng.standard_normal((n, burn + t)) * np.sqrt(tau2 / (1 - 0.36))[:, None]
        x = np.zeros((n, burn + t))
        x[:, 0] = u[:, 0]
        for s in range(1, burn + t):
            x[:, s] = 0.6 * x[:, s - 1] + u[:, s]
        x = x[:, burn:]
        sig = rng.chisquare(2, n) / 2
        v = sig[:, None] * rng.standard_normal((n, t))
        y = alpha[:, None] + beta[:, None] * x + v

        design = np.empty((n, t, 2))
        design[:, :, 0] = 1.0
        design[:, :, 1] = x
        q, _ = np.linalg.qr(design)
        resid = y - np.einsum("ntk,nk->nt", q, np.einsum("ntk,nt->nk", q, y))
        tr_fit = trace_stats(correlation_matrix(resid), t).tr_r2
        v_centered = v - v.mean(axis=1, keepdims=True)
        tr_true = trace_stats(correlation_matrix(v_centered), t).tr_r2
        sigma0 = 2.0 * n / t
        devs.append(abs(tr_fit - tr_true) / sigma0)
    assert np.median(devs) < 0.25
