"""Dense bounded dual simplex for the small node relaxations.

An ``LpModel`` fixes its columns at construction, each with a finite lower
bound and an upper bound that may be infinite.  The constructor rejects a
column without an upper bound whose objective favours rising, so every LP
is bounded.  Its rows are inequalities a.v <= b, kept in one dense array
that only grows.  Every solve runs one loop from one start: the ``Basis``
of an earlier optimal result, whose model may have gained rows since
(their slacks start basic), or else the slack basis.

The loop takes one pivot kind, the bounded dual simplex pivot (Koberstein,
*The dual simplex method*, 2005).  At the start, and at any basis with no
basic value out of its bounds, each boxed nonbasic column whose reduced cost
has the wrong sign moves to its other bound, which makes the basis dual
feasible; added rows and fixings keep an optimal basis so.  While a basic
value is out of its bounds, the leaving row has the largest violation (ties
to the lowest id) and the entering column the least ratio |d_j / alpha_j|
(ties to the largest |alpha_j|, then the lowest id) among those whose
|alpha_j| is at least 1e-9 of the largest; a violated row with no eligible
column proves the LP infeasible.  After 1000 degenerate pivots the picks
switch to smallest-index rules; runs are deterministic.  A wrong-sign
column without an upper bound raises ``SolverError`` (only a basis from a
solve whose fixings were later released has one).

A solve's deadline, a ``time.monotonic()`` value, is the solver's one time
check: each pivot reads the clock first and raises ``DeadlineExceeded`` there.

Each pivot factorizes the basis once with LAPACK's ``dgetrf`` and solves
with ``dgetrs``, bit-identical to ``scipy.linalg.lu_factor`` and
``lu_solve`` without their per-call finite checks: the ``LpModel``
constructor rejects NaN bounds, empty ranges and non-finite lower bounds
and objectives, ``add_row`` and ``solve_lp`` non-finite rows and fixings,
and ``solve_lp`` raises ``SolverError`` on a non-finite optimum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
REL_PIVOT_TOL = 1e-9  # a pivot below this share of the largest eligible one nears a singular basis
PRIMAL_TOL = 1e-9  # a basic value beyond its bound by more is infeasible
DEGENERATE_LIMIT = 1000
MAX_ITERATIONS = 100000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_AT_LB = 0
_AT_UB = 1


class SolverError(RuntimeError):
    """Numerical failure that survived anti-cycling recovery."""


class DeadlineExceeded(RuntimeError):
    """Raised at a pivot once the solve's deadline is reached."""


@dataclass(frozen=True)
class Basis:
    """An optimal basis: the basic column ids over structurals then slacks,
    and every column's bound state."""

    basic: np.ndarray
    stat: np.ndarray


@dataclass
class LpResult:
    status: str
    x: np.ndarray
    objective: float
    basis: Optional[Basis] = None  # set on OPTIMAL results


class LpModel:
    """LP over the columns given at construction whose rows only grow, kept
    deduplicated by exact content.  Node bounds are passed to each solve."""

    def __init__(self, lb, ub, obj, sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.sense = sense
        self.lb = np.array(lb, dtype=float)
        self.ub = np.array(ub, dtype=float)
        self.obj = np.array(obj, dtype=float)
        if not np.isfinite(self.obj).all():
            raise ValueError("variable objectives must be finite")
        # NaN fails the comparison; a finite lower bound leaves a finite value in the range
        if not (np.isfinite(self.lb) & (self.lb <= self.ub)).all():
            raise ValueError("variable bounds need a finite lower bound not above the upper one")
        sign = 1.0 if sense == "min" else -1.0
        if (np.isinf(self.ub) & (sign * self.obj < 0.0)).any():
            raise ValueError("a column without an upper bound must not improve by rising")
        self._rows = np.empty((8, self.lb.size))  # capacity doubles when full
        self._rhs = np.empty(8)
        self._m = 0
        self._row_keys: Set[Tuple[bytes, float]] = set()

    @property
    def n_vars(self) -> int:
        return self.lb.size

    @property
    def n_rows(self) -> int:
        return self._m

    @property
    def A(self) -> np.ndarray:
        return self._rows[: self._m]

    @property
    def rhs(self) -> np.ndarray:
        return self._rhs[: self._m]

    def _check_var(self, j: int) -> None:
        if not 0 <= j < self.n_vars:
            raise ValueError(f"unknown variable id {j}")

    def add_row(self, coefs: Dict[int, float], rhs: float) -> bool:
        """a.v <= rhs; returns False, adding nothing, when the row is already present."""
        row = np.zeros(self.n_vars)
        for j, c in coefs.items():
            self._check_var(j)
            row[j] = c
        row += 0.0  # -0.0 becomes 0.0, so the key treats it as an absent entry
        if not (math.isfinite(rhs) and np.isfinite(row).all()):
            raise ValueError("row coefficients and right-hand side must be finite")
        key = (row.tobytes(), float(rhs))
        if key in self._row_keys:
            return False
        self._row_keys.add(key)
        if self._m == self._rhs.size:
            self._rows = np.concatenate([self._rows, np.empty_like(self._rows)])
            self._rhs = np.concatenate([self._rhs, np.empty_like(self._rhs)])
        self._rows[self._m] = row
        self._rhs[self._m] = rhs
        self._m += 1
        return True


def solve_lp(
    model: LpModel, fixed: Optional[Dict[int, float]] = None, basis: Optional[Basis] = None,
    deadline: float = math.inf,
) -> LpResult:
    """Optimize the model with each column in ``fixed`` held at its value for
    this solve only; the model itself is not changed.  A fixing outside the
    column's bounds makes the solve infeasible.  ``basis``, from an earlier
    solve of this model, is the start; without it the slack basis is.  A
    pivot that finds ``time.monotonic()`` at ``deadline`` raises."""
    if math.isnan(deadline):
        raise ValueError("deadline must not be NaN")
    n = model.n_vars
    m = model.n_rows
    sign = 1.0 if model.sense == "min" else -1.0
    lb = model.lb.copy()
    ub = model.ub.copy()
    for j, value in (fixed or {}).items():
        model._check_var(j)
        if not math.isfinite(value):
            raise ValueError(f"fixing {value} of variable {j} is not finite")
        lb[j], ub[j] = max(lb[j], value), min(ub[j], value)
    if np.any(lb > ub):  # a fixing outside its column's bounds
        return LpResult(INFEASIBLE, np.zeros(n), 0.0)

    # columns: structurals, then one slack per row
    A = np.hstack([model.A, np.eye(m)])
    b = model.rhs
    low = np.concatenate([lb, np.zeros(m)])
    up = np.concatenate([ub, np.full(m, np.inf)])
    c = np.zeros(n + m)
    c[:n] = sign * model.obj

    if basis is None:
        basic, stat = np.arange(n, n + m), np.full(n + m, _AT_LB)
    else:
        basic, stat = _grown(basis, n, m)
    # a nonbasic column sits at the bound its state names if finite, else at its lower bound
    stat = np.where(np.isfinite(up) & (stat == _AT_UB), _AT_UB, _AT_LB)
    x = np.where(stat == _AT_UB, up, low)
    status = _simplex(A, b, low, up, c, basic, x, stat, deadline)
    if status == INFEASIBLE:
        return LpResult(INFEASIBLE, x[:n].copy(), 0.0)
    obj = sign * float(c @ x)
    if not (math.isfinite(obj) and np.isfinite(x).all()):
        raise SolverError("optimal solution is not finite")
    kept = Basis(basic.astype(np.int32), stat.astype(np.int8))
    return LpResult(OPTIMAL, x[:n].copy(), obj, kept)


def _grown(basis: Basis, n: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The basic ids and bound states of ``basis`` in its model grown to
    ``m`` rows: each new row's slack is basic."""
    old_m = basis.basic.size
    if basis.stat.size - old_m != n or old_m > m:
        raise ValueError("basis is from another model")
    basic = np.arange(n, n + m)
    basic[:old_m] = basis.basic
    stat = np.full(n + m, _AT_LB)
    stat[: n + old_m] = basis.stat
    return basic, stat


def lu_factor(B) -> Tuple[np.ndarray, np.ndarray]:
    """LU factors of a square basis matrix: ``dgetrf``, bit-identical to
    ``scipy.linalg.lu_factor`` (0-based pivots).  A 0x0 basis, which LAPACK
    rejects, factors to empty arrays; an exactly singular one raises."""
    if np.size(B) == 0:
        return np.empty((0, 0)), np.empty(0, dtype=np.int32)
    lu, piv, info = dgetrf(B)
    if info != 0:
        raise SolverError("singular basis matrix")
    return lu, piv


def lu_solve(lu: Tuple[np.ndarray, np.ndarray], b: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve B v = b (``trans=1``: B^T v = b) from ``lu_factor(B)``."""
    if b.size == 0:
        return np.empty(0)
    return dgetrs(lu[0], lu[1], b, trans=trans)[0]


def _wrong_sign(d, movable_nb, at_lb, d_tol) -> np.ndarray:
    """The movable nonbasic columns that improve the objective by rising
    off their lower bound or falling off their upper one."""
    return movable_nb & np.where(at_lb, d < -d_tol, d > d_tol)


def _simplex(A, b, low, up, c, basis, x, stat, deadline) -> str:
    """In-place bounded dual simplex over equalities A v = b from a basis
    that bound flips make dual feasible (see the module docstring)."""
    total = A.shape[1]
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    movable = low != up
    degenerate = 0
    bland = False
    d_tol = OPT_TOL * max(1.0, float(np.max(np.abs(c))) if total else 1.0)
    unit = np.zeros(A.shape[0])
    flip_at = 0  # the start, then the pivot after a basis without a violated row

    for it in range(MAX_ITERATIONS):
        if time.monotonic() >= deadline:
            raise DeadlineExceeded("the LP reached its deadline")
        lu = lu_factor(A[:, basis])
        nb = ~in_basis
        at_lb = stat == _AT_LB
        pi = lu_solve(lu, c[basis], trans=1)
        d = c - A.T @ pi
        if it == flip_at:
            flip = _wrong_sign(d, nb & movable, at_lb, d_tol)
            if flip.any():  # each wrong-sign column moves to its other bound
                if np.isinf(up[flip]).any():
                    raise SolverError("a column without an upper bound improves")
                x[flip] = np.where(at_lb[flip], up[flip], low[flip])
                stat[flip] = np.where(at_lb[flip], _AT_UB, _AT_LB)
                at_lb = stat == _AT_LB
        at_ub = ~at_lb
        xb = lu_solve(lu, b - A[:, nb] @ x[nb])
        x[basis] = xb
        below = low[basis] - xb
        violation = np.maximum(below, xb - up[basis])
        rows = np.flatnonzero(violation > PRIMAL_TOL)
        if rows.size == 0:
            if not _wrong_sign(d, nb & movable, at_lb, d_tol).any():
                return OPTIMAL
            flip_at = it + 1  # a pivot too small to take left a wrong sign
            continue

        # leaving row: the largest bound violation, ties to the lowest id
        if not bland:
            rows = rows[violation[rows] == violation[rows].max()]
        leave_pos = int(rows[np.argmin(basis[rows])])
        rise = below[leave_pos] > 0  # the leaving value climbs to its lower bound

        # entering column: the least ratio |d_j / alpha_j| over the columns
        # whose move pushes the leaving value toward its bound
        unit[leave_pos] = 1.0
        alpha = A.T @ lu_solve(lu, unit, trans=1)
        unit[leave_pos] = 0.0
        push = -alpha if rise else alpha  # move toward its bound per unit rise of column j
        cand = np.flatnonzero(
            nb & movable & ((at_lb & (push > PIVOT_TOL)) | (at_ub & (push < -PIVOT_TOL)))
        )
        if cand.size == 0:
            return INFEASIBLE
        piv = np.abs(alpha[cand])
        dual_room = np.where(at_ub[cand], -d[cand], d[cand])
        ratio = np.maximum(dual_room, 0.0) / piv
        ratio[piv < REL_PIVOT_TOL * piv.max()] = np.inf  # never the entering column
        step = float(ratio.min())
        tied = ratio <= step + 1e-12
        cand, piv = cand[tied], piv[tied]
        if not bland:
            cand = cand[piv == piv.max()]
        enter = int(cand[0])  # the lowest id

        if step < 1e-10:
            degenerate += 1
            if degenerate >= DEGENERATE_LIMIT:
                bland = True
        out = basis[leave_pos]
        x[out] = low[out] if rise else up[out]
        stat[out] = _AT_LB if rise else _AT_UB
        in_basis[out] = False
        in_basis[enter] = True
        basis[leave_pos] = enter

    raise SolverError("iteration limit exceeded")
