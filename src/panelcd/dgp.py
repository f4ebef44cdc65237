"""Synthetic panel generators for the size/power study.

Four designs are provided:

- dgp 1: heterogeneous coefficients, strictly exogenous AR(1) regressors;
- dgp 2: heterogeneous coefficients with feedback from the lagged response
  into the second regressor (weakly exogenous by construction);
- dgp 3: homogeneous coefficients plus unit fixed effects, fitted with the
  within estimator;
- dgp 4: pure first-order autoregression with a unit-specific level.

Disturbances come in three unit-variance flavours (normal, normalized
chi-squared(5), normalized Student-t(10)). Under the null each unit's
disturbance is scaled by its own draw of chi-squared(2)/2; under a factor
alternative the disturbance is loading * factor + noise with no unit
scale. Loadings are dense uniform on (-b, b) with b = sqrt(3h/n), or
nonzero uniform on (0.5, 1.5) for the first floor(n^0.3) (sparse) or
floor(n^0.5) (less sparse) units.

Recursions start ``burn_in`` periods before the sample with a zero value
one step earlier still, and everything up to time 0 is discarded; the
emitted panel holds times 1..T only.

All randomness flows through the injected generator, in a fixed
documented order per design (loadings first, then coefficients, then
regressor innovations, then disturbances), so one seed pins the panel
bit-for-bit.

Each design is one generator function. It takes every random number from
``rng``, in that order, scaling the draws in place, and pauses at a bare
``yield``. Resumed, it takes no random numbers: it adds the factor, runs
the recursions and returns the panel (a return, not a second ``yield``,
so the finished design holds no draws). :func:`draw_panel` runs a design
up to its pause, and :func:`generate_panel` resumes it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from types import GeneratorType
from typing import Optional

import numpy as np

from .panel import ModelKind, PanelDataset

logger = logging.getLogger(__name__)

AR_COEF = 0.6
MAX_STABLE_LAG = 0.98  # dynamic designs redraw the AR coefficient beyond this
MAX_FEEDBACK_SLOPE = 0.9  # feedback design: tighter bound, see _dgp2
_DEFAULT_K = {1: 2, 2: 3, 3: 2, 4: 0}  # regressor columns per dgp, intercept included


class ErrorDist(str, Enum):
    NORMAL = "normal"
    CHISQ5 = "chisq"
    STUDENT_T10 = "student"


class Alternative(str, Enum):
    NULL = "null"
    DENSE = "dense"
    SPARSE = "sparse"
    LESS_SPARSE = "less_sparse"


@dataclass(frozen=True)
class DgpConfig:
    """One simulation cell: which design, at what size, under what errors.

    ``k`` counts the regressor columns, intercept included. Left out, it
    takes the design's default: 2 for dgps 1 and 3, 3 for dgp 2 and 0 for
    dgp 4 (the only values dgps 2 and 4 accept). ``seed`` is a non-negative
    integer; under the dense alternative ``h`` is positive and its loading
    bound sqrt(3h/n) finite. A broken rule raises ``ValueError``.
    """

    dgp: int
    t: int
    n: int
    k: Optional[int] = None
    error_dist: ErrorDist = ErrorDist.NORMAL
    alternative: Alternative = Alternative.NULL
    h: float = 3.0
    burn_in: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.dgp not in (1, 2, 3, 4):
            raise ValueError("dgp must be 1, 2, 3 or 4")
        if self.k is None:
            object.__setattr__(self, "k", _DEFAULT_K[self.dgp])
        if self.t < 10:
            raise ValueError("need T >= 10")
        if self.n < 3:
            raise ValueError("need n >= 3")
        dense = self.alternative is Alternative.DENSE
        if dense and not (self.h > 0 and math.isfinite(math.sqrt(3.0 * self.h / self.n))):
            raise ValueError(f"dense alternative needs h > 0 with a finite bound sqrt(3h/n), got h={self.h!r}")
        if self.dgp in (1, 3) and self.k < 2:
            raise ValueError(f"dgp {self.dgp} needs k >= 2 (intercept plus regressors)")
        if self.dgp == 2 and self.k != 3:
            raise ValueError("dgp 2 fixes k = 3 (intercept plus two regressors)")
        if self.dgp == 4 and self.k != 0:
            raise ValueError("dgp 4 has no exogenous regressors; pass k = 0")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class GeneratedPanel:
    """A generated panel, the loadings that produced it, and how to fit it."""

    panel: PanelDataset
    true_loadings: Optional[np.ndarray]
    model_spec: ModelKind


def gen_errors(dist: ErrorDist, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """An iid (rows, cols) grid with population mean 0 and variance 1."""
    if dist is ErrorDist.NORMAL:
        return rng.standard_normal((rows, cols))
    if dist is ErrorDist.CHISQ5:
        e = rng.chisquare(5, (rows, cols))
        e -= 5.0
        e /= np.sqrt(10.0)
        return e
    e = rng.standard_t(10, (rows, cols))
    e /= np.sqrt(10.0 / 8.0)
    return e


def gen_loadings(
    alternative: Alternative, n: int, rng: np.random.Generator, h: float = 3.0
) -> np.ndarray:
    """Factor loadings for one of the three dependence alternatives."""
    if alternative is Alternative.NULL:
        raise ValueError("the null has no loadings")
    lam = np.zeros(n)
    if alternative is Alternative.DENSE:
        b = np.sqrt(3.0 * h / n)
        lam[:] = rng.uniform(-b, b, n)
    else:
        exp = 0.3 if alternative is Alternative.SPARSE else 0.5
        m = math.floor(n**exp)
        lam[:m] = rng.uniform(0.5, 1.5, m)
    return lam


def _ar1(innov: np.ndarray, coef: float = AR_COEF) -> np.ndarray:
    """Recursion x_t = coef * x_{t-1} + innov_t along the last axis, x_{-1} = 0.

    The recursion runs on a time-major copy, so each step reads and writes
    one contiguous slab; every sum is the same two terms as in the plain
    recursion, so the result is the same bit for bit.
    """
    x = np.moveaxis(innov, -1, 0).copy()
    for t in range(1, x.shape[0]):
        x[t] += coef * x[t - 1]
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def _ar_innovations(n: int, n_reg: int, span: int, rng: np.random.Generator) -> np.ndarray:
    """Innovation grids (n, n_reg, span) with random unit scales, sized so
    that :func:`_ar1` of them is a stationary AR(1) regressor."""
    tau2 = rng.chisquare(6, (n, n_reg)) / 6.0
    sd = np.sqrt(tau2 / (1.0 - AR_COEF**2))
    innov = rng.standard_normal((n, n_reg, span))
    innov *= sd[:, :, None]
    return innov


def _disturbances(
    cfg: DgpConfig, rows: int, cols: int, rng: np.random.Generator, lam: Optional[np.ndarray]
) -> tuple:
    """The draws behind the disturbances, for :func:`_loaded`. Null: no
    factor, and per-unit chi-squared(2)/2 scale times iid noise;
    alternative: the common factor, and iid noise."""
    if lam is None:
        sigma = rng.chisquare(2, rows) / 2.0
        eps = gen_errors(cfg.error_dist, rows, cols, rng)
        eps *= sigma[:, None]
        return None, eps
    f = rng.standard_normal(cols)
    return f, gen_errors(cfg.error_dist, rows, cols, rng)


def _loaded(lam: Optional[np.ndarray], f: Optional[np.ndarray], eps: np.ndarray) -> np.ndarray:
    """The disturbances: ``eps`` under the null, loading * factor + ``eps``
    under an alternative, summed into ``eps`` (a sum is the same bits in
    either order)."""
    if lam is not None:
        eps += lam[:, None] * f[None, :]
    return eps


def _maybe_loadings(cfg: DgpConfig, rng: np.random.Generator) -> Optional[np.ndarray]:
    if cfg.alternative is Alternative.NULL:
        return None
    return gen_loadings(cfg.alternative, cfg.n, rng, cfg.h)


def _assemble(y: np.ndarray, x_cols) -> PanelDataset:
    """The panel of response ``y`` (n, T) with an intercept, then ``x_cols``."""
    n, t = y.shape
    return PanelDataset._built(y, x_cols, [str(i) for i in range(1, n + 1)],
                               [str(s) for s in range(1, t + 1)])


def _dgp1(cfg: DgpConfig, rng: np.random.Generator):
    """Heterogeneous panel with intercept and k-1 strictly exogenous AR(1)
    regressors; per-unit coefficients drawn around 1."""
    n, k = cfg.n, cfg.k
    lam = _maybe_loadings(cfg, rng)
    alpha = rng.normal(1.0, 1.0, n)
    beta = rng.normal(1.0, 0.2, (n, k - 1))
    innov = _ar_innovations(n, k - 1, cfg.burn_in + 1 + cfg.t, rng)
    f, eps = _disturbances(cfg, n, cfg.t, rng, lam)
    yield
    v = _loaded(lam, f, eps)
    xreg = _ar1(innov)[:, :, cfg.burn_in + 1 :]
    y = alpha[:, None] + np.einsum("nl,nlt->nt", beta, xreg) + v
    panel = _assemble(y, [xreg[:, j, :] for j in range(k - 1)])
    return GeneratedPanel(panel, lam, ModelKind.HETEROGENEOUS)


def _dgp2_recursion(alpha, beta1, beta2, x1, u2, v):
    """Joint recursion for the feedback design: the second regressor is the
    lagged response plus noise, so x2 and y must be built period by period."""
    n, span = x1.shape
    x2 = np.empty((n, span))
    y = np.empty((n, span))
    prev_y = np.zeros(n)
    for s in range(span):
        x2[:, s] = prev_y + u2[:, s]
        y[:, s] = alpha + beta1 * x1[:, s] + beta2 * x2[:, s] + v[:, s]
        prev_y = y[:, s]
    return x2, y


def _dgp2(cfg: DgpConfig, rng: np.random.Generator):
    """Heterogeneous panel where the second regressor feeds back from the
    lagged response; disturbances are generated over the whole presample
    span because the recursion consumes them.

    The feedback slope is the reduced-form autoregressive coefficient of
    the response, so it is drawn with the stationarity rejection rule:
    nominal draws centred at 1 make half the units explosive, and after a
    hundred periods the response outgrows double precision enough that
    residuals degenerate into rounding noise. The bound is tighter than
    the dynamic design's because here the feedback enters as a regressor
    rather than an estimated lag, and near-unit-root units inflate the
    size of every trace statistic.
    """
    n, p = cfg.n, cfg.burn_in + 1
    lam = _maybe_loadings(cfg, rng)
    alpha = rng.normal(1.0, 1.0, n)
    beta1 = rng.normal(1.0, 0.2, n)
    beta2 = _stable_lag_coefs(n, rng, limit=MAX_FEEDBACK_SLOPE)
    u = _ar_innovations(n, 2, p + cfg.t, rng)
    f, eps = _disturbances(cfg, n, p + cfg.t, rng, lam)
    yield
    v = _loaded(lam, f, eps)
    x1 = _ar1(u[:, 0, :])
    x2, y = _dgp2_recursion(alpha, beta1, beta2, x1, u[:, 1, :], v)
    panel = _assemble(y[:, p:], [x1[:, p:], x2[:, p:]])
    return GeneratedPanel(panel, lam, ModelKind.HETEROGENEOUS)


def _dgp3(cfg: DgpConfig, rng: np.random.Generator):
    """Fixed-effects panel: common intercept 1, common slope l on the l-th
    regressor, unit effects drawn N(1, 1); fitted with the within estimator."""
    n, k = cfg.n, cfg.k
    lam = _maybe_loadings(cfg, rng)
    mu = rng.normal(1.0, 1.0, n)
    innov = _ar_innovations(n, k - 1, cfg.burn_in + 1 + cfg.t, rng)
    f, eps = _disturbances(cfg, n, cfg.t, rng, lam)
    yield
    v = _loaded(lam, f, eps)
    xreg = _ar1(innov)[:, :, cfg.burn_in + 1 :]
    slopes = np.arange(2, k + 1, dtype=np.float64)
    y = 1.0 + np.einsum("l,nlt->nt", slopes, xreg) + mu[:, None] + v
    panel = _assemble(y, [xreg[:, j, :] for j in range(k - 1)])
    return GeneratedPanel(panel, lam, ModelKind.FIXED_EFFECTS)


def _stable_lag_coefs(n: int, rng: np.random.Generator, limit: float = MAX_STABLE_LAG) -> np.ndarray:
    """N(1, 0.04) lag coefficients redrawn until |beta| <= limit.

    The nominal distribution puts most of its mass at or above 1, which
    contradicts stationarity, so out-of-range draws are rejected; the
    redraw count is logged.
    """
    beta = rng.normal(1.0, 0.2, n)
    redraws = 0
    mask = np.abs(beta) > limit
    while mask.any():
        redraws += int(mask.sum())
        beta[mask] = rng.normal(1.0, 0.2, int(mask.sum()))
        mask = np.abs(beta) > limit
    if redraws:
        logger.debug("redrew %d lag coefficient(s) to enforce stationarity", redraws)
    return beta


def _dgp4_recursion(xi: np.ndarray, beta: np.ndarray, v: np.ndarray) -> np.ndarray:
    """y_t = xi (1 - beta) + beta y_{t-1} + v_t along the last axis, y_{-1} = 0."""
    n, span = v.shape
    y = np.empty((n, span))
    level = xi * (1.0 - beta)
    prev = np.zeros(n)
    for s in range(span):
        y[:, s] = level + beta * prev + v[:, s]
        prev = y[:, s]
    return y


def _dgp4(cfg: DgpConfig, rng: np.random.Generator):
    """Pure dynamic panel: unit-level AR(1) around a fixed point that mixes
    the period-0 disturbance with an independent N(1, 2) draw.

    The panel's only column is its intercept, which is the dynamic fit's
    constant: the fitted design is (lag, 1)."""
    n, p = cfg.n, cfg.burn_in + 1
    lam = _maybe_loadings(cfg, rng)
    beta = _stable_lag_coefs(n, rng)
    eta = rng.normal(1.0, np.sqrt(2.0), n)
    f, eps = _disturbances(cfg, n, p + cfg.t, rng, lam)
    yield
    v = _loaded(lam, f, eps)
    xi = v[:, p - 1] + eta  # disturbance at time 0 enters the fixed effect
    y = _dgp4_recursion(xi, beta, v)
    panel = _assemble(y[:, p:], [])
    return GeneratedPanel(panel, lam, ModelKind.DYNAMIC)


_DESIGNS = {1: _dgp1, 2: _dgp2, 3: _dgp3, 4: _dgp4}


def draw_panel(cfg: DgpConfig, rng: np.random.Generator) -> GeneratorType:
    """``cfg``'s design, paused once it has drawn every random number it
    takes from ``rng``; :func:`generate_panel` builds its panel."""
    design = _DESIGNS[cfg.dgp](cfg, rng)
    next(design)
    return design


def generate_panel(
    cfg: DgpConfig, rng: Optional[np.random.Generator | GeneratorType] = None
) -> GeneratedPanel:
    """Generate one panel for ``cfg`` from the generator ``rng``, or from
    ``cfg.seed`` when no generator is injected. ``rng`` may also be the
    design that :func:`draw_panel` paused for ``cfg``; only its build runs
    then, and it runs once."""
    if not isinstance(rng, GeneratorType):
        rng = draw_panel(cfg, np.random.default_rng(cfg.seed) if rng is None else rng)
    try:
        next(rng)
    except StopIteration as built:
        if built.value is not None:
            return built.value
    raise ValueError("these draws were already built")
