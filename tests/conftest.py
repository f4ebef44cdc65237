import numpy as np
import pytest

from panelcd.correlation import correlation_matrix, projection_moment_grids
from panelcd.panel import PanelDataset


def build_panel(y, x, has_intercept=True):
    n, t = y.shape
    return PanelDataset(
        y=y,
        x=x,
        unit_ids=tuple(str(i + 1) for i in range(n)),
        time_ids=tuple(str(s + 1) for s in range(t)),
        has_intercept=has_intercept,
    )


def corr_of(rho):
    """The correlation matrix of a given R, built from its Cholesky row factor."""
    return correlation_matrix(np.linalg.cholesky(np.asarray(rho, dtype=float)))


def moment_grids(bases, t, k):
    """Full (n, n) mu and sigma grids assembled from the moment tiles.

    Each unordered pair is taken from the one tile that holds it and
    mirrored, so both grids are symmetric bit for bit.
    """
    n = bases.shape[0]
    mu, sigma = np.empty((n, n)), np.empty((n, n))
    for rows, cols, *tiles in projection_moment_grids(bases, t, k):
        for out, tile in zip((mu, sigma), tiles):
            if rows == cols:
                lower = np.tril_indices(len(tile), -1)
                tile[lower] = tile.T[lower]
            out[rows, cols] = tile
            out[cols, rows] = tile.T
    return mu, sigma


def dense_pair_moments(q_i, q_j, t, k):
    """Mean and standard deviation of (T-k) rho_ij^2 from dense projections.

    The oracle for the pair-moment kernel: tr(M_i M_j) and tr((M_i M_j)^2)
    come from T x T products of M_i = I - Q_i Q_i', and the moments from
    the published formula with a_2T = 3/(T-k+2)^2, a_1T = a_2T - 1/(T-k)^2.
    """
    m_i = np.eye(t) - q_i @ q_i.T
    m_j = np.eye(t) - q_j @ q_j.T
    prod = m_i @ m_j
    tr_mm, tr_mm2 = np.trace(prod), np.trace(prod @ prod)
    a2 = 3.0 / (t - k + 2) ** 2
    a1 = a2 - 1.0 / (t - k) ** 2
    return tr_mm / (t - k), np.sqrt(tr_mm**2 * a1 + 2.0 * tr_mm2 * a2)


def random_panel(rng, n=5, t=20, k=2, noise=1.0):
    """Well-conditioned panel with an intercept and k-1 iid normal regressors."""
    x = np.empty((n, t, k))
    x[:, :, 0] = 1.0
    if k > 1:
        x[:, :, 1:] = rng.standard_normal((n, t, k - 1))
    beta = rng.normal(1.0, 0.5, (n, k))
    y = np.einsum("ntk,nk->nt", x, beta) + noise * rng.standard_normal((n, t))
    return build_panel(y, x)


@pytest.fixture
def rng():
    return np.random.default_rng(20240810)
