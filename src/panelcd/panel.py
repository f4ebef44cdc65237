"""Balanced-panel containers and the residual fit.

One entry point, :func:`fit`, covers the three model classes used by the
dependence tests, as selected by a :class:`ModelKind`:

- per-unit OLS for heterogeneous-coefficient panels,
- the within (demeaning) estimator for fixed-effects panels with a
  common slope vector,
- per-unit OLS with an auto-built lag column for dynamic panels.

The intercept lives in one place, the panel: a dynamic fit's constant is
the panel's intercept column, and nothing is appended to its design.
Column 0 of x is that intercept, all ones; only this module writes it.
``PanelDataset(...)`` checks and freezes copies of the caller's y and x.
The CSV reader and the generators use ``PanelDataset._built``, which
writes x itself and freezes the grids it made without copying them.

All three are one least-squares problem on a stack of designs (per unit,
pooled and demeaned, or lag-augmented). Each stack is factored once, for
all its designs together, by two-pass modified Gram-Schmidt on its
equilibrated columns followed by one batched SVD of the small triangular
factors; that gives the rank test, the residuals, the coefficients and
the orthonormal bases. The basis stays on the panel's kept factorization
either way; ``fit``'s ``keep_bases`` decides only whether the
:class:`ResidualMatrix` exposes it, for the moment-adjusted LM test.

:func:`validate_dataset` and :func:`fit` read one set of estimator rules
(the size rule, the regressor rule and the rank test): validation reports
every broken rule, fit raises the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

# Singular-value ratio below which a design is declared rank deficient.
RANK_TOL = 1e-10
# |lag coefficient| above which a dynamic fit's unit counts as near a unit root.
NEAR_UNIT_ROOT = 0.999


class PanelError(Exception):
    """Base class for panel construction and fitting errors."""


class RankDeficientError(PanelError):
    """A unit design (scope ``unit <label>``) or the pooled demeaned design
    (scope ``pooled``) is numerically singular."""

    def __init__(self, scope: str):
        self.scope = scope
        super().__init__(f"rank-deficient design: {scope}")


class ModelKind(str, Enum):
    HETEROGENEOUS = "heterogeneous"
    FIXED_EFFECTS = "fixed_effects"
    DYNAMIC = "dynamic"


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
        identically 1; otherwise the constructor raises ``PanelError``.

    The constructor freezes private copies of ``y`` and ``x``; the package's
    reader and generators use :meth:`_built`, which keeps the grids it made.
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
        self._settle(np.array(self.y, dtype=np.float64, order="C"),
                     np.array(self.x, dtype=np.float64, order="C"))
        # only caller-made panels need this check: _built writes the column itself
        if self.has_intercept and not np.all(self.x[:, :, 0] == 1.0):
            raise PanelError("intercept column (x column 0) is not identically 1")

    @classmethod
    def _built(cls, y: np.ndarray, regressor_columns, unit_ids, time_ids,
               has_intercept: bool = True) -> "PanelDataset":
        """The panel of grids the package made: ``y`` (n, T), kept when it is
        C-contiguous float64, and (n, T) regressor columns, each copied once
        into a new x after its column of ones when ``has_intercept``. Both
        grids are checked and frozen in place; ``__post_init__`` does not run."""
        y = np.ascontiguousarray(y, dtype=np.float64)
        base = 1 if has_intercept else 0
        x = np.empty(y.shape + (base + len(regressor_columns),))
        x[:, :, :base] = 1.0
        for pos, col in enumerate(regressor_columns, start=base):
            x[:, :, pos] = col
        panel = cls.__new__(cls)
        vars(panel).update(unit_ids=unit_ids, time_ids=time_ids, has_intercept=has_intercept, _fits={})
        panel._settle(y, x)
        return panel

    def _settle(self, y: np.ndarray, x: np.ndarray) -> None:
        """Check the grids and labels, then keep the grids frozen."""
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
    pooled within estimator; it is diagnostic only. Raises
    :class:`PanelError` unless ``resid`` is (n, T_eff) and the bases, when
    given, are (n, T_eff, k_eff).
    """

    resid: np.ndarray
    t_eff: int
    k_eff: int
    estimator: ModelKind
    ortho_bases: Optional[np.ndarray] = None
    coef: Optional[np.ndarray] = None

    def __post_init__(self):
        r = np.array(self.resid, dtype=np.float64, order="C")
        if r.ndim != 2 or r.shape[1] != self.t_eff:
            raise PanelError(f"resid must have shape (n, t_eff={self.t_eff}), got {r.shape}")
        shape = (r.shape[0], self.t_eff, self.k_eff)
        if self.ortho_bases is not None and np.shape(self.ortho_bases) != shape:
            raise PanelError(f"ortho_bases must have shape (n, t_eff, k_eff) = {shape}, "
                             f"got {np.shape(self.ortho_bases)}")
        r.flags.writeable = False
        object.__setattr__(self, "resid", r)

    @property
    def n(self) -> int:
        return self.resid.shape[0]

    @property
    def near_unit_root(self) -> np.ndarray:
        """Indices of the units whose dynamic fit has |lag coefficient| above
        ``NEAR_UNIT_ROOT``; empty for any other fit."""
        if self.estimator is not ModelKind.DYNAMIC or self.coef is None:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(np.abs(self.coef[:, 0]) > NEAR_UNIT_ROOT)


def _rule_breaks(data: PanelDataset, kind: ModelKind) -> list:
    """The estimator's rules that ``data`` breaks, as the errors ``fit`` raises.

    - Size rule: the lag takes one period, so min T = k + 2 + lag and
      T_eff = T - lag. Every fit then keeps at least one residual degree of
      freedom.
    - A heterogeneous fit needs at least one regressor column.
    - Rank test: every design of the factored stack has smallest/largest
      singular value at least ``RANK_TOL``. It runs whenever the stack holds
      a period, even on a panel too short for the size rule, so a report
      lists every problem at once.
    """
    lag = 1 if kind is ModelKind.DYNAMIC else 0
    breaks = []
    if data.t < data.k + 2 + lag:
        rule = "T < k+3 (dynamic)" if lag else "T < k+2"
        breaks.append(PanelError(f"{rule}: T={data.t}, k={data.k}"))
    if kind is ModelKind.HETEROGENEOUS and data.k == 0:
        breaks.append(PanelError("heterogeneous model needs at least one regressor column (k=0)"))
    elif data.t > lag:
        pooled = kind is ModelKind.FIXED_EFFECTS
        bad = np.nonzero(_fitted_stack(data, kind).ratio < RANK_TOL)[0]
        breaks += [RankDeficientError("pooled" if pooled else f"unit {data.unit_ids[i]}") for i in bad]
    return breaks


def validate_dataset(data: PanelDataset, kind: ModelKind) -> tuple:
    """Check a panel against the requirements of the chosen estimator.

    Report-only: returns the violation messages as a tuple instead of
    raising, so a front end can show all problems at once; an empty tuple
    means the panel is valid. Besides the estimator's rules, which ``fit``
    enforces in the same words, the tests need n >= 3 and no constant
    response. ``kind`` is read as in :func:`fit`.
    """
    kind = ModelKind(kind)
    v = [f"n < 3 (got n={data.n})"] if data.n < 3 else []
    v += [str(e) for e in _rule_breaks(data, kind)]
    constant = np.nonzero(np.all(data.y == data.y[:, :1], axis=1))[0]
    v += [f"constant response for unit {data.unit_ids[i]}" for i in constant]
    return tuple(v)


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
    unchanged. A norm whose sum of squares overflows or underflows is taken
    again on the column divided by a power of two, so every finite column is
    equilibrated, and scaling a column by 2^m scales its norm by exactly 2^m.
    Two passes of modified Gram-Schmidt, each step one contiguous (m, T)
    dot and one axpy across all units, turn that array into the
    orthonormal basis Q in place and give the (m, k, k) stack R.
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
    # below 2^-500 some squares may have been subnormal and lost bits
    lost = ~(norms >= 2.0**-500) | (norms == np.inf)
    if lost.any():
        cols = q[lost]
        e = np.frexp(np.max(np.abs(cols), axis=1))[1]
        cols = np.ldexp(cols, -e[:, None])
        norms[lost] = np.ldexp(np.sqrt(np.einsum("pt,pt->p", cols, cols)), e)
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
    # a coefficient beyond the double range (a response more than about 1e308
    # times the scale of its regressor) comes out inf; the residuals do not
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(s[:, 0] > 0, s[:, -1] / s[:, 0], 0.0)
        coef = np.einsum("mlk,ml->mk", vt, np.einsum("mal,ma->ml", u, qty) / s) / norms.T
    ratio[np.any(norms == 0, axis=0)] = 0.0
    resid = y - np.einsum("amt,ma->mt", q, qty)
    q.flags.writeable = False
    return _LeastSquares(ratio, q.transpose(1, 2, 0), resid, coef)


def _fitted_stack(data: PanelDataset, kind: ModelKind) -> _LeastSquares:
    """Least squares of the estimator's design stack, factored once per panel.

    Per-unit designs for heterogeneous fits, lag-augmented ones for dynamic
    fits, the pooled demeaned stack for the within estimator. The result is
    kept on the panel, read-only, so ``fit`` after ``validate_dataset``
    reuses the validation's factorization. The panel's grids are frozen, so
    a kept result cannot go stale.

    An intercept-only within stack has no columns: its residuals are the
    demeaned response, and the empty design passes the rank test.
    """
    ls = data._fits.get(kind)
    if ls is None:
        if kind is ModelKind.FIXED_EFFECTS:
            designs, y = _demeaned_stack(data)
        elif kind is ModelKind.DYNAMIC:
            designs, y = _dynamic_designs(data), data.y[:, 1:]
        else:
            designs, y = data.x, data.y
        if designs.shape[2]:
            ls = _least_squares(designs, y)
        else:
            ls = _LeastSquares(np.ones(len(y)), designs, y, np.zeros((len(y), 0)))
        data._fits[kind] = ls
        for part in ls:
            part.flags.writeable = False
    return ls


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


def _dynamic_designs(data: PanelDataset) -> np.ndarray:
    """Augmented designs (n, T-1, k+1): the lag column, then the panel's
    columns, its intercept included. Period 1 of each unit is consumed as
    the presample lag."""
    return np.concatenate([data.y[:, :-1, None], data.x[:, 1:, :]], axis=2)


def fit(data: PanelDataset, kind: ModelKind, keep_bases: bool = True) -> ResidualMatrix:
    """Residuals of the estimator selected by ``kind``.

    - Heterogeneous: each unit's response is regressed on that unit's own
      design, so its residual vector is orthogonal to every regressor
      column of the unit.
    - Fixed effects: the within estimator. Unit means are removed from
      response and regressors (the intercept demeans to zero and is
      dropped), one slope vector is estimated from the pooled demeaned
      stack, and the residuals sum to zero within each unit.
    - Dynamic: per-unit OLS on (y_{i,t-1}, x_it'). The first period
      supplies the presample lag, so T_eff = T - 1. The fit's constant is
      the panel's intercept column; a panel without one is fitted without
      a constant.

    ``kind`` may be a :class:`ModelKind` or its value ("dynamic"); any other
    value raises ``ValueError``. ``k_eff`` counts the columns of the fitted
    design. ``keep_bases`` decides whether the result exposes the per-unit
    orthonormal design bases, which the moment-adjusted LM test needs; they
    stay on the panel's kept factorization either way, so False saves no
    memory. The pooled within fit has none.

    Raises :class:`PanelError` when the panel breaks the size rule
    (T >= k+2, or k+3 for a dynamic fit) or a heterogeneous panel has no
    regressor column, and :class:`RankDeficientError` when some design's
    smallest/largest singular value is below ``RANK_TOL``, naming the first
    such unit or ``pooled``. :func:`validate_dataset` returns the messages
    of every such rule as a tuple instead, empty for a valid panel.

    A near-unit-root unit is a result, not an error: the returned
    ``near_unit_root`` holds the indices of the units whose dynamic fit has
    |lag coefficient| > ``NEAR_UNIT_ROOT`` (empty for any other fit).
    """
    kind = ModelKind(kind)
    breaks = _rule_breaks(data, kind)
    if breaks:
        raise breaks[0]
    _, basis, resid, coef = _fitted_stack(data, kind)
    if kind is ModelKind.FIXED_EFFECTS:
        basis, resid, coef = None, resid.reshape(data.n, data.t), coef[0]
    return ResidualMatrix(
        resid=resid,
        t_eff=resid.shape[1],
        k_eff=coef.shape[-1],
        estimator=kind,
        ortho_bases=basis if keep_bases else None,
        coef=coef,
    )
