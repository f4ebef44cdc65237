"""The cross-sectional dependence test statistics and their decisions.

Eight statistics are provided, all computed from the residual correlation
matrix of a fitted panel:

========  ============================================================
LM        classic chi-squared sum of squared pair correlations
CD_LM     scaled and recentred version of LM, standard normal
CD_P      scaled sum of raw (non-squared) correlations, standard normal
LM_bc     bias-corrected CD_LM
LM_adj    finite-sample moment-adjusted LM (needs per-unit design bases)
LM_RMT    recentred trace statistic with an alternative centering
RLM       standardized tr(R^2) under the proportional-limit constants
RLM_PE    standardized tr(R^4), the power-enhanced variant
========  ============================================================

T in every formula is the effective residual sample length (so dynamic
fits use T-1 throughout), and k is the effective per-unit regressor count
including the lag column.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .correlation import (
    CorrelationMatrix,
    CorrelationError,
    TraceStats,
    correlation_matrix,
    projection_moment_grids,
    trace_stats,
)
from .panel import ModelKind, ResidualMatrix

ALL_TESTS = ("LM", "CD_LM", "CD_P", "LM_bc", "LM_adj", "LM_RMT", "RLM", "RLM_PE")

P_FLOOR = 1e-300


class TestComputationError(Exception):
    pass


class MissingBasesError(TestComputationError):
    """LM_adj was requested but the residuals carry no design bases."""


@dataclass(frozen=True)
class TestConfig:
    """Which tests to run and at what significance level."""

    alpha: float = 0.05
    tests: Sequence[str] = ALL_TESTS

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        unknown = [t for t in self.tests if t not in ALL_TESTS]
        if unknown:
            raise ValueError(f"unknown tests: {unknown}")


@dataclass(frozen=True)
class TestResult:
    """One statistic with its reference distribution and decision.

    ``status`` is "ok" for a computed statistic, "unsupported" when the
    test does not apply to the supplied residuals, and "failed" when an
    upstream error prevented computation; in the last two cases the
    statistic and p-value are NaN and ``reject`` is False.
    """

    name: str
    statistic: float
    null_dist: str  # "normal" or "chi2"
    df: Optional[int]
    sided: str  # "upper" or "two"
    p_value: float
    reject: bool
    alpha: float
    status: str = "ok"
    message: str = ""


@dataclass(frozen=True)
class NullConstants:
    """Centering and scale constants for the trace statistics."""

    mu0: float
    sigma0: float
    mu_pe: float
    sigma_pe: float
    c_t: float


def null_constants(n: int, t_eff: int) -> NullConstants:
    """Constants for the standardized tr(R^2) and tr(R^4) statistics.

    mu0    = n + n^2/(T-1) - c
    sigma0 = 2c
    mu_pe  = n + 6n^2/(T-1) + 6n^3/(T-1)^2 + n^4/(T-1)^3 - 6c(1+c)^2 - 2c^2
    sigma_pe^2 = 8c^2 + 96c^3(1+c)^2 + 16c^2(3c^2+8c+3)^2

    with c = n/T. The n^4 term carries (T-1)^3, the unique power that
    matches the quartic moment of the limiting spectral law and centres
    the statistic on null data.
    """
    c = n / t_eff
    tm1 = t_eff - 1.0
    mu0 = n + n * n / tm1 - c
    sigma0 = 2.0 * c
    mu_pe = (
        n
        + 6.0 * n**2 / tm1
        + 6.0 * n**3 / tm1**2
        + n**4 / tm1**3
        - 6.0 * c * (1.0 + c) ** 2
        - 2.0 * c * c
    )
    sigma_pe = np.sqrt(
        8.0 * c**2 + 96.0 * c**3 * (1.0 + c) ** 2 + 16.0 * c**2 * (3.0 * c**2 + 8.0 * c + 3.0) ** 2
    )
    return NullConstants(mu0=mu0, sigma0=sigma0, mu_pe=mu_pe, sigma_pe=float(sigma_pe), c_t=c)


def normal_sf(z: float) -> float:
    """Upper-tail standard normal probability, 0.5 * erfc(z / sqrt 2).

    Measured: within 5.8e-14 relative of ``scipy.special.erfc`` for z in
    [-10, 37]. Above about z = 37.5 the tail underflows to 0.
    """
    return 0.5 * math.erfc(z / math.sqrt(2.0))


_EPS = sys.float_info.epsilon
_TINY = 1e-300
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Coefficients of the asymptotic series of the Stirling remainder,
# lgamma(a) - [(a - 1/2) log a - a + log(2 pi)/2] = sum_k c_k / a^(2k+1).
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_remainder(a: float) -> float:
    """lgamma(a) minus Stirling's approximation; the series is below 1e-16 at a >= 10."""
    if a < 10.0:
        return math.lgamma(a) - ((a - 0.5) * math.log(a) - a + _HALF_LOG_2PI)
    inv2 = 1.0 / (a * a)
    total = 0.0
    for c in reversed(_STIRLING):
        total = total * inv2 + c
    return total / a


def _log_gamma_prefactor(a: float, x: float) -> float:
    """log(x^a e^-x / Gamma(a)), without the cancellation of a log x - x - lgamma(a).

    With d = (x - a)/a it equals -a(d - log1p d) + log(a)/2 - log(2 pi)/2 - s(a),
    s the Stirling remainder; every term stays small when x is near a, where
    the naive form subtracts numbers of size a log a.
    """
    d = (x - a) / a
    # far below a, d rounds towards -1 and log1p(d) loses log(x/a)
    log_ratio = math.log1p(d) if d > -0.5 else math.log(x) - math.log(a)
    return -a * (d - log_ratio) + 0.5 * math.log(a) - _HALF_LOG_2PI - _stirling_remainder(a)


def chi2_sf(x: float, df: float) -> float:
    """Upper-tail chi-squared probability, the regularized gamma Q(df/2, x/2).

    With a = df/2 and y = x/2: below y = a + 1 the power series of P(a, y)
    gives Q = 1 - P, and above it the continued fraction of Q (modified
    Lentz) gives Q directly. Both are scaled by the prefactor
    y^a e^-y / Gamma(a), taken from :func:`_log_gamma_prefactor`. The series
    runs to a fixed length and the fraction stops once a step changes it by
    less than 1 ulp; both are capped at 100 + 20 sqrt(a) terms, well past
    convergence, and give NaN if the cap is reached.

    Measured accuracy (x86_64, CPython 3.11): within 4e-12 relative of
    50-digit mpmath for df = n(n-1)/2, 2 <= n <= 3000, and x from -6 to 30
    standard deviations sqrt(2 df) about df; within 1.1e-12 of
    ``scipy.special.gammaincc`` for n <= 1000 and x within [-6, 12]
    standard deviations; within 1.5e-13 at small df. The cost grows like
    sqrt(df) near the centre: about 0.25 ms at n = 1000, 0.6 ms at n = 3000.

    NaN in x, or df not positive, gives NaN; x <= 0 gives 1 and x = +inf
    gives 0.
    """
    if math.isnan(x) or not df > 0.0:
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    a, y = 0.5 * float(df), 0.5 * float(x)
    log_pre = _log_gamma_prefactor(a, y)
    cap = 100 + int(20.0 * math.sqrt(a))
    if y < a + 1.0:
        # P(a, y) = prefactor / a * (1 + sum_k y^k / ((a+1)...(a+k))); the
        # terms fall like exp(-k^2 / 2a), far below eps by k = cap
        terms = np.cumprod(y / (a + np.arange(1.0, cap + 1.0)))
        total = 1.0 + float(terms.sum())
        if terms[-1] > total * _EPS:
            return math.nan
        return 1.0 - total / a * math.exp(log_pre)
    # Q(a, y) = prefactor * 1/(y+1-a- 1(1-a)/(y+3-a- 2(2-a)/(y+5-a- ...)))
    b = y + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, cap + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        d = 1.0 / d
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(log_pre)
    return math.nan


def _clamp(p: float) -> float:
    return min(max(float(p), P_FLOOR), 1.0)


def _normal_result(name: str, stat: float, sided: str, alpha: float) -> TestResult:
    if sided == "upper":
        p = _clamp(normal_sf(stat))
    else:
        p = _clamp(2.0 * normal_sf(abs(stat)))
    return TestResult(
        name=name,
        statistic=float(stat),
        null_dist="normal",
        df=None,
        sided=sided,
        p_value=p,
        reject=p < alpha,
        alpha=alpha,
    )


def lm_stat(stats: TraceStats, alpha: float = 0.05) -> TestResult:
    """Sum-of-squared-correlations statistic against chi-squared(n(n-1)/2)."""
    n, t = stats.n, stats.t_eff
    stat = 0.5 * t * (stats.tr_r2 - n)
    df = n * (n - 1) // 2
    p = _clamp(chi2_sf(stat, df))
    return TestResult(
        name="LM",
        statistic=float(stat),
        null_dist="chi2",
        df=df,
        sided="upper",
        p_value=p,
        reject=p < alpha,
        alpha=alpha,
    )


def cd_lm_stat(stats: TraceStats, alpha: float = 0.05) -> TestResult:
    """Scaled LM statistic, standard normal, upper one-sided."""
    n, t = stats.n, stats.t_eff
    stat = np.sqrt(t * t / (4.0 * n * (n - 1))) * (stats.tr_r2 - n - n * (n - 1) / t)
    return _normal_result("CD_LM", stat, "upper", alpha)


def cd_p_stat(stats: TraceStats, alpha: float = 0.05) -> TestResult:
    """Scaled sum of raw pair correlations, standard normal, two-sided."""
    n, t = stats.n, stats.t_eff
    stat = np.sqrt(t / (2.0 * n * (n - 1))) * stats.offdiag_sum
    return _normal_result("CD_P", stat, "two", alpha)


def lm_bc_stat(stats: TraceStats, alpha: float = 0.05) -> TestResult:
    """Bias-corrected CD_LM: shifts the statistic down by n/(2(T-1))."""
    n, t = stats.n, stats.t_eff
    stat = cd_lm_stat(stats, alpha).statistic - n / (2.0 * (t - 1))
    return _normal_result("LM_bc", stat, "upper", alpha)


def rlm_stat(stats: TraceStats, alpha: float = 0.05) -> TestResult:
    """Standardized tr(R^2) under the proportional (n/T -> c) limit."""
    nc = null_constants(stats.n, stats.t_eff)
    stat = (stats.tr_r2 - nc.mu0) / nc.sigma0
    return _normal_result("RLM", stat, "upper", alpha)


def rlm_pe_stat(stats: TraceStats, alpha: float = 0.05) -> TestResult:
    """Standardized tr(R^4); emphasizes large individual correlations."""
    nc = null_constants(stats.n, stats.t_eff)
    stat = (stats.tr_r4 - nc.mu_pe) / nc.sigma_pe
    return _normal_result("RLM_PE", stat, "upper", alpha)


def rmt_centering(n: int, t: int) -> float:
    """Centering constant of the alternative recentred trace statistic."""
    return n + n * n / t + n * n / (t * t) - n / t


def lm_rmt_stat(stats: TraceStats, k_eff: int, alpha: float = 0.05) -> TestResult:
    """Recentred trace statistic, standard normal, upper one-sided.

    The scale is that of the recentred trace's variance at the Gaussian
    kurtosis point, which is exactly 4 c_T^2: the RLM scale ``sigma0``. The
    finite-sample kurtosis plug-in distorts the scale by 30 percent or more
    at desk sizes and breaks the near-identity with the standardized tr(R^2)
    statistic, so it is not used.
    """
    n, t = stats.n, stats.t_eff
    if t <= k_eff + 2:
        raise TestComputationError(f"LM_RMT needs T > k+2, got T={t}, k={k_eff}")
    stat = (stats.tr_r2 - rmt_centering(n, t)) / null_constants(n, t).sigma0
    return _normal_result("LM_RMT", stat, "upper", alpha)


def lm_adj_stat(
    corr: CorrelationMatrix,
    bases: np.ndarray,
    t_eff: int,
    k_eff: int,
    alpha: float = 0.05,
) -> TestResult:
    """Moment-adjusted LM statistic, standard normal, upper one-sided.

    Each squared correlation is centred and scaled by the exact moments
    implied by the pair of unit designs, then summed over all ordered
    pairs i != j. The terms are symmetric, so each unordered pair is taken
    once and counted twice. The pairs come in the square tiles of
    :func:`projection_moment_grids`, each tile's correlations read through
    ``corr.block`` and reduced to a running sum as it comes. Working memory
    is O(nTk) plus fixed-size tiles: no n x n array of moments or terms is
    formed, nor of correlations when ``corr`` keeps its unit-norm rows.

    Parameters
    ----------
    corr : CorrelationMatrix
    bases : ndarray, shape (n, T_eff, k_eff)
        Orthonormal per-unit design bases retained at fit time.
    t_eff, k_eff : int
        Effective sample length and regressor count of the fit. LM_adj needs
        T_eff - k_eff >= 2: at one residual degree of freedom every M_i has
        rank one, so (T - k) rho_ij^2 equals mu_ij and its variance is 0.
    """
    if bases is None:
        raise MissingBasesError("residuals were fitted without basis retention")
    if t_eff - k_eff < 2:
        raise TestComputationError(f"LM_adj needs T > k+1, got T={t_eff}, k={k_eff}")
    n = corr.n
    total = 0.0  # over unordered pairs i < j
    for rows, cols, mu, sigma in projection_moment_grids(bases, t_eff, k_eff):
        z = ((t_eff - k_eff) * corr.block(rows, cols) ** 2 - mu) / sigma
        if rows == cols:
            z = z[np.triu_indices(len(z), 1)]
        total += float(z.sum())
    stat = np.sqrt(1.0 / (2.0 * n * (n - 1))) * (2.0 * total)
    return _normal_result("LM_adj", stat, "upper", alpha)


def _failure(name: str, alpha: float, status: str, message: str) -> TestResult:
    return TestResult(
        name=name,
        statistic=float("nan"),
        null_dist="normal",
        df=None,
        sided="upper",
        p_value=float("nan"),
        reject=False,
        alpha=alpha,
        status=status,
        message=message,
    )


def _lm_adj_entry(corr: CorrelationMatrix, resid: ResidualMatrix, alpha: float) -> TestResult:
    if resid.estimator is ModelKind.FIXED_EFFECTS:
        return _failure(
            "LM_adj",
            alpha,
            "unsupported",
            "no design-pair moments exist for within-estimator residuals",
        )
    if resid.ortho_bases is None:
        return _failure("LM_adj", alpha, "unsupported", "fit retained no design bases")
    return lm_adj_stat(corr, resid.ortho_bases, resid.t_eff, resid.k_eff, alpha)


def run_all(resid: ResidualMatrix, cfg: TestConfig) -> list[TestResult]:
    """Run the requested battery on one residual matrix.

    The correlation matrix and its trace statistics are computed once and
    shared. Per-test problems (unsupported model, missing bases, numeric
    errors, a non-finite statistic or p-value) become failure entries; the
    batch itself never aborts.
    """
    requested = [t for t in ALL_TESTS if t in cfg.tests]
    alpha = cfg.alpha
    try:
        corr = correlation_matrix(resid)
        stats = trace_stats(corr, resid.t_eff)
    except CorrelationError as exc:
        return [_failure(name, alpha, "failed", str(exc)) for name in requested]

    # the lambdas look each statistic up at call time, so a wrapped module
    # attribute (tracing, tests) is what runs
    battery = {
        "LM": lambda: lm_stat(stats, alpha),
        "CD_LM": lambda: cd_lm_stat(stats, alpha),
        "CD_P": lambda: cd_p_stat(stats, alpha),
        "LM_bc": lambda: lm_bc_stat(stats, alpha),
        "LM_adj": lambda: _lm_adj_entry(corr, resid, alpha),
        "LM_RMT": lambda: lm_rmt_stat(stats, resid.k_eff, alpha),
        "RLM": lambda: rlm_stat(stats, alpha),
        "RLM_PE": lambda: rlm_pe_stat(stats, alpha),
    }
    results: list[TestResult] = []
    for name in requested:
        try:
            res = battery[name]()
        except TestComputationError as exc:
            res = _failure(name, alpha, "failed", str(exc))
        if res.status == "ok" and not (math.isfinite(res.statistic) and math.isfinite(res.p_value)):
            detail = f"non-finite result: statistic {res.statistic!r}, p-value {res.p_value!r}"
            res = _failure(name, alpha, "failed", detail)
        results.append(res)
    return results
