"""Balanced-panel containers and the three residual estimators.

The estimators cover the model classes used by the dependence tests:

- per-unit OLS for heterogeneous-coefficient panels,
- the within (demeaning) estimator for fixed-effects panels with a
  common slope vector,
- per-unit OLS with an auto-built lag column for dynamic panels.

All three are one least-squares problem on a stack of designs (per unit,
pooled and demeaned, or lag-augmented). Each stack is factored once, for
all its designs together, by two-pass modified Gram-Schmidt on its
equilibrated columns followed by one batched SVD of the small triangular
factors; that gives the rank test, the residuals, the coefficients and
the orthonormal bases. The bases are retained on request because the
moment-adjusted LM test needs them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

# Singular-value ratio below which a design is declared rank deficient.
RANK_TOL = 1e-10


class PanelError(Exception):
    """Base class for panel construction and fitting errors."""


class RankDeficientError(PanelError):
    """A unit design (or the pooled demeaned design) is numerically singular."""

    def __init__(self, scope: str, detail: str = ""):
        self.scope = scope
        msg = f"rank-deficient design: {scope}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NearUnitRootWarning(UserWarning):
    """A dynamic fit produced a lag coefficient with |alpha| > 0.999."""


class ModelKind(str, Enum):
    HETEROGENEOUS = "heterogeneous"
    FIXED_EFFECTS = "fixed_effects"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class ModelSpec:
    """Which estimator to use for a panel.

    ``include_intercept`` only matters for dynamic fits: when True and the
    panel itself carries no intercept column, a constant column is appended
    to the augmented (lag-extended) design.
    """

    kind: ModelKind
    include_intercept: bool = True


@dataclass(frozen=True)
class PanelDataset:
    """A balanced panel: ``n`` units observed over ``T`` periods.

    Parameters
    ----------
    y : ndarray, shape (n, T)
        Response grid.
    x : ndarray, shape (n, T, k)
        Regressor grid; ``k`` counts the intercept column when present.
        ``k == 0`` is allowed (pure dynamic panels).
    unit_ids, time_ids : sequences of str
        Labels, lengths n and T.
    has_intercept : bool
        When True, column 0 of ``x`` is the intercept and must be
        identically 1.
    """

    y: np.ndarray
    x: np.ndarray
    unit_ids: tuple
    time_ids: tuple
    has_intercept: bool = True
    # least-squares fits of this panel's design stacks (see _fitted_stack)
    _fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # private copies: freezing them leaves the caller's arrays writable
        y = np.array(self.y, dtype=np.float64, order="C")
        x = np.array(self.x, dtype=np.float64, order="C")
        if y.ndim != 2:
            raise PanelError(f"y must be 2-d (n, T), got shape {y.shape}")
        if x.ndim != 3 or x.shape[:2] != y.shape:
            raise PanelError(
                f"x must have shape (n, T, k) matching y {y.shape}, got {x.shape}"
            )
        if len(self.unit_ids) != y.shape[0]:
            raise PanelError("unit_ids length must equal n")
        if len(self.time_ids) != y.shape[1]:
            raise PanelError("time_ids length must equal T")
        if self.has_intercept and x.shape[2] == 0:
            raise PanelError("has_intercept=True requires at least one x column")
        for name, grid in (("y", y), ("x", x)):
            if not np.isfinite(grid).all():
                bad = np.argwhere(~np.isfinite(grid))
                i, s = bad[0][:2]
                raise PanelError(
                    f"{name} has {len(bad)} non-finite value(s), first at unit "
                    f"{self.unit_ids[i]}, time {self.time_ids[s]}"
                )
        y.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "unit_ids", tuple(self.unit_ids))
        object.__setattr__(self, "time_ids", tuple(self.time_ids))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def t(self) -> int:
        return self.y.shape[1]

    @property
    def k(self) -> int:
        return self.x.shape[2]


@dataclass(frozen=True)
class ResidualMatrix:
    """Fitted residuals plus the provenance needed by downstream tests.

    ``ortho_bases`` holds per-unit orthonormal design bases (n, T_eff, k_eff)
    when they were retained; the moment-adjusted LM test requires them.
    ``coef`` is (n, k_eff) for per-unit estimators and (k_eff,) for the
    pooled within estimator; it is diagnostic only.
    """

    resid: np.ndarray
    t_eff: int
    k_eff: int
    estimator: ModelSpec
    ortho_bases: Optional[np.ndarray] = None
    coef: Optional[np.ndarray] = None

    def __post_init__(self):
        r = np.array(self.resid, dtype=np.float64, order="C")
        r.flags.writeable = False
        object.__setattr__(self, "resid", r)

    @property
    def n(self) -> int:
        return self.resid.shape[0]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_dataset(data: PanelDataset, spec: ModelSpec) -> ValidationReport:
    """Check a panel against the requirements of the chosen estimator.

    Report-only: returns the list of violations instead of raising, so a
    front end can show all problems at once.
    """
    v = []
    if data.n < 3:
        v.append(f"n < 3 (got n={data.n})")
    min_t = data.k + 3 if spec.kind is ModelKind.DYNAMIC else data.k + 2
    if data.t < min_t:
        rule = "T < k+3 (dynamic)" if spec.kind is ModelKind.DYNAMIC else "T < k+2"
        v.append(f"{rule}: T={data.t}, k={data.k}")
    if data.has_intercept and data.k > 0:
        if not np.all(data.x[:, :, 0] == 1.0):
            v.append("intercept column (x column 0) is not identically 1")

    for i in range(data.n):
        yi = data.y[i]
        if np.all(yi == yi[0]):
            v.append(f"constant response for unit {data.unit_ids[i]}")

    if spec.kind is ModelKind.FIXED_EFFECTS:
        if _within_k(data) > 0 and _fitted_stack(data, spec).ratio[0] < RANK_TOL:
            v.append("rank-deficient pooled demeaned design")
    elif spec.kind is ModelKind.HETEROGENEOUS and data.k == 0:
        v.append("heterogeneous model needs at least one regressor column (k=0)")
    elif spec.kind is ModelKind.HETEROGENEOUS or data.t >= 2:  # a lag needs 2 periods
        ratio = _fitted_stack(data, spec).ratio
        for i in np.nonzero(ratio < RANK_TOL)[0]:
            v.append(f"rank-deficient design for unit {data.unit_ids[i]}")

    return ValidationReport(tuple(v))


class _LeastSquares(NamedTuple):
    ratio: np.ndarray  # (m,) smallest/largest singular value; 0 flags a zero column
    basis: np.ndarray  # (m, T, k) orthonormal column-space basis
    resid: np.ndarray  # (m, T)
    coef: np.ndarray  # (m, k)


def _least_squares(designs: np.ndarray, y: np.ndarray) -> _LeastSquares:
    """Least squares of y (m, T) on every design of a stack (m, T, k).

    One factorization of all m designs at once. The stack is copied into a
    column-major (k, m, T) array whose columns are equilibrated to unit
    norm, so the rank test measures collinearity rather than column scale
    (feedback designs mix columns whose magnitudes differ by many orders)
    while the column space, hence the basis and the residuals, is
    unchanged. Two passes of modified Gram-Schmidt, each step one
    contiguous (m, T) dot and one axpy across all units, turn that array
    into the orthonormal basis Q in place and give the (m, k, k) stack R.
    R has the singular values of the equilibrated design, so one batched
    SVD of the small R stack gives the singular-value ratio and the
    coefficients, which are unscaled at the end; the residuals are
    y - Q(Q'y). Rank-deficient designs get a ratio below ``RANK_TOL``
    (exactly 0 for a zero column) and meaningless coefficients and basis
    columns; callers check the ratio first. The basis is returned as the
    read-only (m, T, k) view of the (k, m, T) array.
    """
    k = designs.shape[2]
    q = designs.transpose(2, 0, 1).copy()  # q[a]: column a of every design
    norms = np.sqrt(np.einsum("amt,amt->am", q, q))
    q /= np.where(norms > 0, norms, 1.0)[:, :, None]
    r = np.zeros((q.shape[1], k, k))
    for j in range(k):
        v = q[j]
        for _ in range(2):  # the second pass restores orthogonality lost in the first
            for i in range(j):
                c = np.einsum("mt,mt->m", q[i], v)
                r[:, i, j] += c
                v -= c[:, None] * q[i]
        r[:, j, j] = np.sqrt(np.einsum("mt,mt->m", v, v))
        v /= np.where(r[:, j, j] > 0, r[:, j, j], 1.0)[:, None]
    u, s, vt = np.linalg.svd(r)
    qty = np.einsum("amt,mt->ma", q, y)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(s[:, 0] > 0, s[:, -1] / s[:, 0], 0.0)
        coef = np.einsum("mlk,ml->mk", vt, np.einsum("mal,ma->ml", u, qty) / s) / norms.T
    ratio[np.any(norms == 0, axis=0)] = 0.0
    resid = y - np.einsum("amt,ma->mt", q, qty)
    q.flags.writeable = False
    return _LeastSquares(ratio, q.transpose(1, 2, 0), resid, coef)


def _fitted_stack(data: PanelDataset, spec: ModelSpec) -> _LeastSquares:
    """Least squares of the estimator's design stack, factored once per panel.

    Per-unit designs for heterogeneous fits, lag-augmented ones for dynamic
    fits, the pooled demeaned stack for the within estimator. The result is
    kept on the panel, read-only, so ``fit`` after ``validate_dataset``
    reuses the validation's factorization. The panel's arrays are read-only
    private copies, so a kept result cannot go stale.
    """
    # the stack depends on the kind, and for dynamic fits on the intercept
    key = spec if spec.kind is ModelKind.DYNAMIC else spec.kind
    ls = data._fits.get(key)
    if ls is None:
        if spec.kind is ModelKind.FIXED_EFFECTS:
            designs, y = _demeaned_stack(data)
        elif spec.kind is ModelKind.DYNAMIC:
            designs, y = _dynamic_designs(data, spec), data.y[:, 1:]
        else:
            designs, y = data.x, data.y
        ls = data._fits[key] = _least_squares(designs, y)
        for part in ls:
            part.flags.writeable = False
    return ls


def _per_unit_fit(data: PanelDataset, spec: ModelSpec, keep_bases: bool):
    """Per-unit least squares; returns (residuals, coefficients, bases-or-None)
    and raises RankDeficientError naming the first offending unit."""
    ls = _fitted_stack(data, spec)
    bad = np.nonzero(ls.ratio < RANK_TOL)[0]
    if bad.size:
        raise RankDeficientError(f"unit {data.unit_ids[bad[0]]}")
    return ls.resid, ls.coef, (ls.basis if keep_bases else None)


def fit_heterogeneous(data: PanelDataset, keep_bases: bool = True) -> ResidualMatrix:
    """Per-unit OLS residuals for the heterogeneous-coefficient model.

    Each unit's response is regressed on that unit's own design, so the
    residual vector is orthogonal to every regressor column of the unit.

    Parameters
    ----------
    data : PanelDataset
    keep_bases : bool
        Retain the per-unit orthonormal design bases (needed later by the
        moment-adjusted LM test).

    Raises
    ------
    RankDeficientError
        If some unit's design has smallest/largest singular value below
        ``RANK_TOL``.
    """
    if data.t < data.k + 2:
        raise PanelError(f"need T >= k+2, got T={data.t}, k={data.k}")
    if data.k == 0:
        raise PanelError("heterogeneous fit needs at least one regressor column")
    spec = ModelSpec(ModelKind.HETEROGENEOUS)
    resid, coef, bases = _per_unit_fit(data, spec, keep_bases)
    return ResidualMatrix(
        resid=resid,
        t_eff=data.t,
        k_eff=data.k,
        estimator=spec,
        ortho_bases=bases,
        coef=coef,
    )


def _within_k(data: PanelDataset) -> int:
    """Regressor count of the within fit: the intercept demeans to zero."""
    return data.k - 1 if data.has_intercept else data.k


def _demeaned_stack(data: PanelDataset):
    """Within-transformed regressors and response, pooled as a batch of one.

    The intercept is removed before the pooled regression; returns
    (x_demeaned (1, nT, k_eff), y_demeaned (1, nT)).
    """
    x = data.x[:, :, 1:] if data.has_intercept else data.x
    xd = x - x.mean(axis=1, keepdims=True)
    yd = data.y - data.y.mean(axis=1, keepdims=True)
    nt = data.n * data.t  # explicit: -1 cannot be inferred when k_eff is 0
    return xd.reshape(1, nt, x.shape[2]), yd.reshape(1, nt)


def fit_fixed_effects(data: PanelDataset) -> ResidualMatrix:
    """Within-estimator residuals for the common-slope fixed-effects model.

    Unit means are removed from response and regressors, a single slope
    vector is estimated from the pooled demeaned stacks, and residuals are
    the demeaned response minus its fitted part. Residuals therefore sum
    to zero within each unit.
    """
    if data.t < data.k + 2:
        raise PanelError(f"need T >= k+2, got T={data.t}, k={data.k}")
    k_eff = _within_k(data)
    if k_eff == 0:
        resid, coef = _demeaned_stack(data)[1], np.zeros(0)
    else:
        ls = _fitted_stack(data, ModelSpec(ModelKind.FIXED_EFFECTS))
        if ls.ratio[0] < RANK_TOL:
            raise RankDeficientError("pooled", "demeaned design singular")
        resid, coef = ls.resid, ls.coef[0]
    return ResidualMatrix(
        resid=resid.reshape(data.n, data.t),
        t_eff=data.t,
        k_eff=k_eff,
        estimator=ModelSpec(ModelKind.FIXED_EFFECTS),
        ortho_bases=None,
        coef=coef,
    )


def _dynamic_designs(data: PanelDataset, spec: ModelSpec) -> np.ndarray:
    """Augmented designs (n, T-1, k_eff): lag column, panel columns, intercept.

    Period 1 of each unit is consumed as the presample lag. The lag comes
    first; an intercept column is appended only when requested and the
    panel does not already carry one.
    """
    lag = data.y[:, :-1, None]
    cols = [lag, data.x[:, 1:, :]]
    if spec.include_intercept and not data.has_intercept:
        cols.append(np.ones((data.n, data.t - 1, 1)))
    return np.concatenate(cols, axis=2)


def fit_dynamic(data: PanelDataset, spec: ModelSpec, keep_bases: bool = True) -> ResidualMatrix:
    """Per-unit OLS residuals for the dynamic model with a lagged response.

    The design for unit i at time t is (y_{i,t-1}, x_it', [1]); the first
    period supplies the presample lag, so T_eff = T - 1.

    Warns with :class:`NearUnitRootWarning` (non-fatal) when any estimated
    lag coefficient exceeds 0.999 in absolute value.
    """
    if spec.kind is not ModelKind.DYNAMIC:
        raise PanelError("fit_dynamic requires a Dynamic model spec")
    if data.t < data.k + 3:
        raise PanelError(f"need T >= k+3 for dynamic fits, got T={data.t}, k={data.k}")
    resid, coef, bases = _per_unit_fit(data, spec, keep_bases)
    alpha = coef[:, 0]
    hot = np.nonzero(np.abs(alpha) > 0.999)[0]
    if hot.size:
        labels = ", ".join(str(data.unit_ids[i]) for i in hot[:5])
        warnings.warn(
            f"|lag coefficient| > 0.999 for {hot.size} unit(s): {labels}",
            NearUnitRootWarning,
            stacklevel=2,
        )
    return ResidualMatrix(
        resid=resid,
        t_eff=data.t - 1,
        k_eff=coef.shape[1],
        estimator=spec,
        ortho_bases=bases,
        coef=coef,
    )


def fit(data: PanelDataset, spec: ModelSpec, keep_bases: bool = True) -> ResidualMatrix:
    """Dispatch to the estimator selected by ``spec.kind``."""
    if spec.kind is ModelKind.HETEROGENEOUS:
        return fit_heterogeneous(data, keep_bases=keep_bases)
    if spec.kind is ModelKind.FIXED_EFFECTS:
        return fit_fixed_effects(data)
    return fit_dynamic(data, spec, keep_bases=keep_bases)
