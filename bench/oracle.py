"""Independent recomputation of residuals, correlations and statistics.

Nothing here calls panelcd. Residuals come from per-unit
``numpy.linalg.lstsq``, design bases from an SVD (the program uses a QR),
and the statistics from their published formulas:

- LM = (T/2)(tr R^2 - n) against chi2(n(n-1)/2)  (Breusch and Pagan, 1980);
- CD_LM, CD_P and LM_bc as in Pesaran (2004) and Baltagi, Feng and Kao (2012);
- LM_adj with the exact pair moments of Pesaran, Ullah and Yamagata (2008):
  mean tr(M_i M_j)/(T-k), variance tr(M_i M_j)^2 a_1 + 2 tr((M_i M_j)^2) a_2,
  a_2 = 3/(T-k+2)^2, a_1 = a_2 - 1/(T-k)^2;
- RLM and RLM_PE, the standardized tr(R^2) and tr(R^4) under proportional
  n/T asymptotics, with c = n/T:
  mu_0 = n + n^2/(T-1) - c, sigma_0 = 2c,
  mu_PE = n + 6n^2/(T-1) + 6n^3/(T-1)^2 + n^4/(T-1)^3 - 6c(1+c)^2 - 2c^2,
  sigma_PE^2 = 8c^2 + 96c^3(1+c)^2 + 16c^2(3c^2+8c+3)^2;
- LM_RMT = (tr R^2 - n - n^2/T - n^2/T^2 + n/T) / (2c).

Upper-tail tests reject when p < alpha; CD_P is two-sided.
"""

from __future__ import annotations

import math

import numpy as np

UPPER, TWO = "upper", "two"
SIDES = {"LM": UPPER, "CD_LM": UPPER, "CD_P": TWO, "LM_bc": UPPER,
         "LM_adj": UPPER, "LM_RMT": UPPER, "RLM": UPPER, "RLM_PE": UPPER}


def residuals(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-unit OLS residuals of y (n, T) on x (n, T, k)."""
    out = np.empty_like(y)
    for i in range(y.shape[0]):
        beta = np.linalg.lstsq(x[i], y[i], rcond=None)[0]
        out[i] = y[i] - x[i] @ beta
    return out


def correlation(v: np.ndarray) -> np.ndarray:
    """Raw-sum correlations: sum_t v_i v_j / sqrt(sum v_i^2 sum v_j^2)."""
    norms = np.sqrt((v * v).sum(axis=1))
    return (v @ v.T) / np.outer(norms, norms)


def design_bases(x: np.ndarray) -> np.ndarray:
    """Orthonormal bases (n, T, k) of the unit designs, from an SVD."""
    return np.linalg.svd(x, full_matrices=False)[0]


def pair_moments(tr_mm, tr_mm2, t: int, k: int):
    """Mean and standard deviation of (T-k) rho_ij^2 from the pair traces."""
    a2 = 3.0 / (t - k + 2) ** 2
    a1 = a2 - 1.0 / (t - k) ** 2
    return tr_mm / (t - k), np.sqrt(tr_mm * tr_mm * a1 + 2.0 * tr_mm2 * a2)


def dense_pair_traces(x_i: np.ndarray, x_j: np.ndarray):
    """tr(M_i M_j) and tr((M_i M_j)^2) from the dense T x T annihilators."""
    def annihilator(x):
        xs = x / np.linalg.norm(x, axis=0)
        return np.eye(x.shape[0]) - xs @ np.linalg.solve(xs.T @ xs, xs.T)

    m_i, m_j = annihilator(x_i), annihilator(x_j)
    p = m_i @ m_j
    return float(np.trace(p)), float(np.trace(p @ p))


def reduced_pair_traces(q: np.ndarray, rows: slice):
    """tr(M_i M_j) and tr((M_i M_j)^2) for units ``rows`` against all units,
    through the k x k blocks C = Q_i'Q_j."""
    n, t, k = q.shape
    c = np.einsum("iak,jal->ijkl", q[rows], q, optimize=True)
    tr_mm = t - 2 * k + np.einsum("ijkl,ijkl->ij", c, c)
    d = np.einsum("ijkl,ijml->ijkm", c, c)
    tr_mm2 = t - 2 * k + np.einsum("ijkl,ijkl->ij", d, d)
    return tr_mm, tr_mm2


def lm_adj(rho: np.ndarray, q: np.ndarray, block: int = 100) -> float:
    """Sum over ordered pairs i != j of standardized (T-k) rho_ij^2."""
    n, t, k = q.shape
    total = 0.0
    for lo in range(0, n, block):
        rows = slice(lo, min(lo + block, n))
        tr_mm, tr_mm2 = reduced_pair_traces(q, rows)
        mu, sigma = pair_moments(tr_mm, tr_mm2, t, k)
        z = ((t - k) * rho[rows] ** 2 - mu) / sigma
        idx = np.arange(rows.start, rows.stop)
        z[idx - lo, idx] = 0.0
        total += float(z.sum())
    return total / math.sqrt(2.0 * n * (n - 1))


def statistics(rho: np.ndarray, t: int, k: int, q: np.ndarray | None = None) -> dict:
    """Every statistic computable from rho (LM_adj only when bases are given)."""
    n = rho.shape[0]
    c = n / t
    tr2 = float((rho * rho).sum())
    r2 = rho @ rho
    tr4 = float((r2 * r2).sum())
    cd_lm = math.sqrt(t * t / (4.0 * n * (n - 1))) * (tr2 - n - n * (n - 1) / t)
    mu_pe = (n + 6 * n**2 / (t - 1) + 6 * n**3 / (t - 1) ** 2 + n**4 / (t - 1) ** 3
             - 6 * c * (1 + c) ** 2 - 2 * c * c)
    sigma_pe = math.sqrt(8 * c**2 + 96 * c**3 * (1 + c) ** 2
                         + 16 * c**2 * (3 * c**2 + 8 * c + 3) ** 2)
    out = {
        "LM": 0.5 * t * (tr2 - n),
        "CD_LM": cd_lm,
        "CD_P": math.sqrt(t / (2.0 * n * (n - 1))) * float(rho.sum() - np.trace(rho)),
        "LM_bc": cd_lm - n / (2.0 * (t - 1)),
        "LM_RMT": (tr2 - n - n * n / t - n * n / t**2 + n / t) / (2.0 * c),
        "RLM": (tr2 - (n + n * n / (t - 1) - c)) / (2.0 * c),
        "RLM_PE": (tr4 - mu_pe) / sigma_pe,
    }
    if q is not None:
        out["LM_adj"] = lm_adj(rho, q)
    return out


def p_value(name: str, stat: float, n: int) -> float:
    """p-value of a statistic against its null law (scipy.stats, not erfc)."""
    from scipy import stats

    if name == "LM":
        return float(stats.chi2.sf(stat, n * (n - 1) // 2))
    if SIDES[name] == TWO:
        return float(2.0 * stats.norm.sf(abs(stat)))
    return float(stats.norm.sf(stat))
