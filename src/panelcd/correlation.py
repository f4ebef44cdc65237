"""Residual correlation matrix, its trace functionals, and projection moments.

The correlation entries are raw-sum Pearson products of the residual time
series: rho_ij = sum_t v_i v_j / sqrt(sum v_i^2 * sum v_j^2), with no
demeaning and no degrees-of-freedom correction. Fitted residuals from any
model with an intercept (or a within transform) are already mean zero per
unit, so this coincides with the classical correlation there.

The projection-moment helpers reduce all trace computations to k x k
algebra: with M_i = I - Q_i Q_i' and C = Q_i' Q_j,

    tr(M_i M_j)     = T - 2k + ||C||_F^2
    tr((M_i M_j)^2) = T - 2k + tr((C'C)^2)

which turns the O(T^3) dense products into O(T k^2) per pair. Summation
order is fixed (numpy pairwise reduction over fixed layouts) so results do
not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .panel import ResidualMatrix

# Residual sum of squares below this is treated as an exact-fit pathology.
DEGENERATE_SS = 1e-24

ORTHONORMAL_TOL = 1e-8


class CorrelationError(Exception):
    pass


class DegenerateUnitError(CorrelationError):
    """A unit's residual vector has (numerically) zero sum of squares."""

    def __init__(self, unit: int):
        self.unit = unit
        super().__init__(f"degenerate residual vector for unit index {unit}")


class InvalidBasisError(CorrelationError):
    """A supplied basis does not have orthonormal columns."""


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric n x n residual correlation matrix with unit diagonal."""

    rho: np.ndarray

    def __post_init__(self):
        r = np.ascontiguousarray(np.asarray(self.rho, dtype=np.float64))
        r.flags.writeable = False
        object.__setattr__(self, "rho", r)

    @property
    def n(self) -> int:
        return self.rho.shape[0]


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

    Parameters
    ----------
    resid : ResidualMatrix or ndarray, shape (n, T_eff)

    Raises
    ------
    DegenerateUnitError
        If some row's sum of squares falls below ``DEGENERATE_SS``.
    """
    v = resid.resid if isinstance(resid, ResidualMatrix) else np.asarray(resid, dtype=np.float64)
    ss = np.einsum("nt,nt->n", v, v)
    if np.min(ss) < DEGENERATE_SS:
        raise DegenerateUnitError(int(np.argmin(ss)))
    vn = v / np.sqrt(ss)[:, None]
    r = vn @ vn.T
    # store once and mirror so rho[i, j] == rho[j, i] exactly
    upper = np.triu(r, 1)
    rho = upper + upper.T
    np.fill_diagonal(rho, 1.0)
    return CorrelationMatrix(rho)


def trace_stats(corr: CorrelationMatrix, t_eff: int) -> TraceStats:
    """tr(R^2), tr(R^4) and the off-diagonal sum of a correlation matrix.

    tr(R^4) is the squared Frobenius norm of one symmetric product R @ R;
    the explicit fourth power is never formed.
    """
    r = corr.rho
    n = corr.n
    tr_r2 = float(np.einsum("ij,ij->", r, r))
    r2 = r @ r
    tr_r4 = float(np.einsum("ij,ij->", r2, r2))
    offdiag_sum = float(r.sum() - n)
    return TraceStats(tr_r2=tr_r2, tr_r4=tr_r4, offdiag_sum=offdiag_sum, n=n, t_eff=int(t_eff))


def _check_orthonormal(q: np.ndarray, name: str) -> None:
    g = q.T @ q
    if np.max(np.abs(g - np.eye(q.shape[1]))) > ORTHONORMAL_TOL:
        raise InvalidBasisError(f"{name} does not have orthonormal columns")


def pair_trace_reductions(c: np.ndarray, t: int, k: int):
    """tr(M_i M_j) and tr((M_i M_j)^2) from the k x k cross product C = Q_i'Q_j."""
    tr_mm = t - 2 * k + float(np.einsum("ab,ab->", c, c))
    b = c.T @ c
    tr_mm2 = t - 2 * k + float(np.einsum("ab,ab->", b, b))
    return tr_mm, tr_mm2


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
    c = q_i.T @ q_j
    tr_mm, tr_mm2 = pair_trace_reductions(c, t, k)
    a1, a2 = moment_weights(t, k)
    var = tr_mm * tr_mm * a1 + 2.0 * tr_mm2 * a2
    return ProjectionPairMoments(mu=tr_mm / (t - k), sigma=float(np.sqrt(var)))


def projection_moment_grids(bases: np.ndarray, t: int, k: int):
    """Pairwise moment grids (mu, sigma) for all n units at once.

    ``bases`` has shape (n, T, k). Returns two (n, n) arrays whose
    diagonals are filled but meaningless (callers mask i == j). One
    n*k x n*k Gram product yields every C = Q_i'Q_j block.
    """
    n = bases.shape[0]
    flat = bases.transpose(0, 2, 1).reshape(n * k, t)
    gram = flat @ flat.T
    c = gram.reshape(n, k, n, k).transpose(0, 2, 1, 3)
    tr_mm = t - 2 * k + np.einsum("ijab,ijab->ij", c, c)
    d = c @ c.transpose(0, 1, 3, 2)
    tr_mm2 = t - 2 * k + np.einsum("ijab,ijab->ij", d, d)
    a1, a2 = moment_weights(t, k)
    var = tr_mm * tr_mm * a1 + 2.0 * tr_mm2 * a2
    return tr_mm / (t - k), np.sqrt(var)
