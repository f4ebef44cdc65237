"""Residual correlation matrix, its trace functionals, and projection moments.

The correlation entries are raw-sum Pearson products of the residual time
series: rho_ij = sum_t v_i v_j / sqrt(sum v_i^2 * sum v_j^2), with no
demeaning and no degrees-of-freedom correction. Fitted residuals from any
model with an intercept (or a within transform) are already mean zero per
unit, so this coincides with the classical correlation there.

With V the residual rows scaled to unit norm (n x T), R = V V'. The
statistics other than LM_adj read R only through tr(R^2), tr(R^4) and the
sum of its off-diagonal entries, and V V' (n x n) and V'V (T x T) share
their nonzero eigenvalues. So ``trace_stats`` works on the Gram matrix of
the smaller side: G = V'V when n > T, with tr(R^2) = ||G||_F^2,
tr(R^4) = ||G^2||_F^2 and the off-diagonal sum ||sum_i v_i||^2 - n, which
agree with the formulas on R to rounding; G = R itself when n <= T.
LM_adj reads R one tile at a time through ``CorrelationMatrix.block``. So
working memory is O(nT) plus fixed-size tiles, and no n x n array is
formed when n > T; the full R is formed only when ``rho`` is read, which
the n <= T traces do.

The pair moments of LM_adj reduce the trace computations to k x k
algebra: with M_i = I - Q_i Q_i' and C = Q_i' Q_j,

    tr(M_i M_j)     = T - 2k + ||C||_F^2
    tr((M_i M_j)^2) = T - 2k + tr((C'C)^2)

which turns the O(T^3) dense products into O(T k^2) per pair. One kernel,
``projection_moment_grids``, computes them: it yields square tiles of unit
pairs, ``GRID_BLOCK`` units a side, on and above the diagonal, and callers
reduce each tile as it comes, so the n x n moment grids are never held.
``projection_pair_moments`` is the same kernel run on a two-unit stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .panel import ResidualMatrix

# Residual sum of squares below this is treated as an exact-fit pathology.
DEGENERATE_SS = 1e-24

ORTHONORMAL_TOL = 1e-8

# Side of the square tiles of unit pairs the LM_adj moment grid is computed
# in. A tile's products are GRID_BLOCK x T x GRID_BLOCK, which OpenBLAS runs
# on the calling thread up to T of about 128: the grid then neither waits for
# BLAS worker threads nor leaves them spinning through its elementwise steps,
# either of which makes its time depend on what else the machine runs.
# Working memory is about 2 k^2 GRID_BLOCK^2 doubles per tile.
GRID_BLOCK = 64


class CorrelationError(Exception):
    pass


class DegenerateUnitError(CorrelationError):
    """A unit's residual vector has (numerically) zero sum of squares."""

    def __init__(self, unit: int):
        self.unit = unit
        super().__init__(f"degenerate residual vector for unit index {unit}")


class InvalidBasisError(CorrelationError):
    """A supplied basis does not have orthonormal columns."""


class CorrelationMatrix:
    """Symmetric n x n residual correlation matrix R with unit diagonal.

    Made only by :func:`correlation_matrix`, which keeps the unit-norm
    residual rows V (``rows``, n x T, read-only) with R = V V'. ``rho`` is
    formed only when it is first read, so when n > T the statistics, which
    read traces or tiles from ``block``, never hold an n x n array.
    """

    rows: np.ndarray

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> "CorrelationMatrix":
        """Wrap rows the package made itself; they are frozen, not copied."""
        corr = cls.__new__(cls)
        corr.rows = _read_only(rows)
        corr._rho = None
        return corr

    @property
    def rho(self) -> np.ndarray:
        if self._rho is None:
            v = self.rows
            # store once and mirror so rho[i, j] == rho[j, i] exactly
            upper = np.triu(v @ v.T, 1)
            rho = upper + upper.T
            np.fill_diagonal(rho, 1.0)
            self._rho = _read_only(rho)
        return self._rho

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def block(self, rs: slice, cs: slice) -> np.ndarray:
        """The tile R[rs, cs] = V[rs] V[cs]'. A tile on the diagonal of R has
        a diagonal only near 1 and may be asymmetric by rounding."""
        return self.rows[rs] @ self.rows[cs].T


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TraceStats:
    """The scalar functionals of the correlation matrix that drive every test."""

    tr_r2: float
    tr_r4: float
    offdiag_sum: float
    n: int
    t_eff: int


@dataclass(frozen=True)
class ProjectionPairMoments:
    """Exact mean and standard deviation of (T-k) * rho_ij^2 for one design pair."""

    mu: float
    sigma: float


def correlation_matrix(resid: Union[ResidualMatrix, np.ndarray]) -> CorrelationMatrix:
    """Pairwise raw-sum correlations of the residual rows.

    Each row is divided by its largest absolute value before its norm is
    taken, so the sum of squares neither overflows nor underflows for any
    finite row. The result keeps the unit-norm rows; see
    :class:`CorrelationMatrix`.

    Parameters
    ----------
    resid : ResidualMatrix or ndarray, shape (n, T_eff)

    Raises
    ------
    DegenerateUnitError
        If some row's sum of squares falls below ``DEGENERATE_SS``.
    """
    v = resid.resid if isinstance(resid, ResidualMatrix) else np.asarray(resid, dtype=np.float64)
    scale = np.max(np.abs(v), axis=1)
    w = v / np.where(scale > 0.0, scale, 1.0)[:, None]
    norm_w = np.sqrt(np.einsum("nt,nt->n", w, w))
    norm = scale * norm_w
    if np.min(norm) < np.sqrt(DEGENERATE_SS):
        raise DegenerateUnitError(int(np.argmin(norm)))
    w /= norm_w[:, None]
    return CorrelationMatrix._from_rows(w)


def trace_stats(corr: CorrelationMatrix, t_eff: int) -> TraceStats:
    """tr(R^2), tr(R^4) and the off-diagonal sum of a correlation matrix.

    The traces come from the Gram matrix on the smaller side of the
    unit-norm rows V (n x T). When n > T, G = V'V, which shares its nonzero
    eigenvalues with R = V V':

        tr(R^2) = ||G||_F^2,   tr(R^4) = ||G^2||_F^2,
        sum_{i != j} rho_ij = ||sum_i v_i||^2 - n,

    and no n x n array is formed. Otherwise G = R itself, read through
    ``rho``, and the off-diagonal sum is the sum of R minus n. LM_adj does
    not share this R: it reads R tile by tile through ``block``.
    """
    v = corr.rows
    n, t = v.shape
    if n > t:
        g = v.T @ v
        s = v.sum(axis=0)
        offdiag_sum = float(s @ s - n)
    else:
        g = corr.rho
        offdiag_sum = float(g.sum() - n)
    tr_r2 = float(np.einsum("ij,ij->", g, g))
    g2 = g @ g
    tr_r4 = float(np.einsum("ij,ij->", g2, g2))
    return TraceStats(tr_r2=tr_r2, tr_r4=tr_r4, offdiag_sum=offdiag_sum, n=n, t_eff=int(t_eff))


def _check_orthonormal(q: np.ndarray, name: str) -> None:
    g = q.T @ q
    if np.max(np.abs(g - np.eye(q.shape[1]))) > ORTHONORMAL_TOL:
        raise InvalidBasisError(f"{name} does not have orthonormal columns")


def moment_weights(t: int, k: int):
    """The a_1T, a_2T weights of the exact squared-correlation variance."""
    a2 = 3.0 / (t - k + 2) ** 2
    a1 = a2 - 1.0 / (t - k) ** 2
    return a1, a2


def projection_pair_moments(
    q_i: np.ndarray, q_j: np.ndarray, t: int, k: int
) -> ProjectionPairMoments:
    """Exact moments of (T-k) * rho_ij^2 for one pair of unit designs.

    ``q_i`` and ``q_j`` are T x k orthonormal bases of the two design
    column spaces. The mean is tr(M_i M_j)/(T-k); the variance is
    [tr(M_i M_j)]^2 a_1T + 2 tr((M_i M_j)^2) a_2T (Pesaran, Ullah and
    Yamagata, 2008). With a_2T = 3/(T-k+2)^2 both are exact under normal
    errors; for identical designs they reduce to the Beta(1/2, (T-k-1)/2)
    moments 1 and 2(T-k-1)/(T-k+2).

    Raises
    ------
    InvalidBasisError
        If a basis fails the orthonormality check at 1e-8.
    """
    q_i = np.asarray(q_i, dtype=np.float64)
    q_j = np.asarray(q_j, dtype=np.float64)
    if q_i.shape != (t, k) or q_j.shape != (t, k):
        raise InvalidBasisError(f"bases must have shape ({t}, {k})")
    _check_orthonormal(q_i, "q_i")
    _check_orthonormal(q_j, "q_j")
    _, _, mu, sigma = next(projection_moment_grids(np.stack([q_i, q_j]), t, k))
    return ProjectionPairMoments(mu=float(mu[0, 1]), sigma=float(sigma[0, 1]))


def projection_moment_grids(bases: np.ndarray, t: int, k: int):
    """Pairwise moments (mu, sigma) of all n units, one tile at a time.

    ``bases`` has shape (n, T, k). Yields (rows, cols, mu, sigma) for square
    tiles of ``GRID_BLOCK`` units a side on and above the diagonal, row
    tiles in order and column tiles from the diagonal out; ``mu`` and
    ``sigma`` are (len(rows), len(cols)) arrays over pairs (i in rows,
    j in cols). Every unordered pair i < j lies in exactly one tile, and on
    a diagonal tile (rows == cols) in its strict upper triangle: the lower
    triangle repeats those pairs, to rounding, and the diagonal is
    meaningless.

    One batched product gives a tile's k^2 slabs
    G_ab = Q[i, :, a] @ Q[j, :, b]', which hold every entry of C = Q_i'Q_j,
    and with D_ab = sum_c G_ac G_bc

        tr(M_i M_j)     = T - 2k + sum_ab G_ab^2
        tr((M_i M_j)^2) = T - 2k + sum_ab D_ab^2.

    Working memory beyond one column-major copy of ``bases`` is
    O(k^2 * GRID_BLOCK^2).
    """
    n = bases.shape[0]
    q = np.ascontiguousarray(np.transpose(bases, (2, 0, 1)))  # q[a]: column a of every unit
    a1, a2 = moment_weights(t, k)
    for r0 in range(0, n, GRID_BLOCK):
        rows = slice(r0, min(r0 + GRID_BLOCK, n))
        for c0 in range(r0, n, GRID_BLOCK):
            cols = slice(c0, min(c0 + GRID_BLOCK, n))
            g = q[:, None, rows] @ np.swapaxes(q[None, :, cols], 2, 3)  # g[a, b] = G_ab
            tr_mm = t - 2.0 * k + np.einsum("abij,abij->ij", g, g)
            d = np.einsum("acij,bcij->abij", g, g)
            tr_mm2 = t - 2.0 * k + np.einsum("abij,abij->ij", d, d)
            var = tr_mm * tr_mm * a1 + 2.0 * tr_mm2 * a2
            yield rows, cols, tr_mm / (t - k), np.sqrt(var)
