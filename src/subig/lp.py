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

A solve's deadline, a ``time.monotonic()`` value, goes to ``check_deadline``,
the solver's one time check: each pivot calls it first, as does each node
of the follower's search, and it raises ``DeadlineExceeded`` there.

The loop carries the basis matrix's dense inverse, with numpy alone: pi, the
pivot row and the basic values are products with it, and each pivot updates
it by one rank-1 product-form step into a new array.  An optimal ``Basis``
keeps it for later solves, as it is under new fixings and as [[B^-1, 0],
[-R B^-1, I]] over k new rows, R being those rows over the old basic columns.
``lu_factor`` refactorizes, after the clock check, at a slack start, every
``REFACTOR_EVERY`` updates, and when the pivot row (row r of B^-1 A) misses
1 at the leaving column by more than ``DRIFT_TOL``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
REL_PIVOT_TOL = 1e-9  # a pivot below this share of the largest eligible one nears a singular basis
PRIMAL_TOL = 1e-9  # a basic value beyond its bound by more is infeasible
DEGENERATE_LIMIT = 1000
MAX_ITERATIONS = 100000
REFACTOR_EVERY = 50  # rank-1 updates of the basis inverse between refactorizations
DRIFT_TOL = 1e-9  # a pivot row whose entry at the leaving column is farther from 1 refactorizes

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_AT_LB = 0
_AT_UB = 1


class SolverError(RuntimeError):
    """Numerical failure that survived anti-cycling recovery."""


class DeadlineExceeded(RuntimeError):
    """Raised at a pivot or a follower search node once the deadline is reached."""


@dataclass(frozen=True)
class Basis:
    """An optimal basis, never edited, so children share it: the basic column
    ids, every column's bound state, B^-1 and its rank-1 updates since factorized."""

    basic: np.ndarray
    stat: np.ndarray
    inverse: Optional[np.ndarray]  # None: the next solve refactorizes first
    updates: int


@dataclass
class LpResult:
    status: str
    x: np.ndarray
    objective: float
    basis: Optional[Basis] = None  # set on OPTIMAL results
    iterations: int = 0  # the dual pivots taken


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
    c = np.concatenate([sign * model.obj, np.zeros(m)])

    if basis is None:
        basic, stat, inv, updates = np.arange(n, n + m), np.full(n + m, _AT_LB), None, 0
    else:
        basic, stat, inv, updates = _grown(basis, A, n)
    # a nonbasic column sits at the bound its state names if finite, else at its lower bound
    stat = np.where(np.isfinite(up) & (stat == _AT_UB), _AT_UB, _AT_LB)
    x = np.where(stat == _AT_UB, up, low)
    status, inv, updates, pivots = _simplex(A, b, low, up, c, basic, x, stat, inv, updates, deadline)
    if status == INFEASIBLE:
        return LpResult(INFEASIBLE, x[:n].copy(), 0.0, iterations=pivots)
    obj = sign * float(c @ x)
    if not (math.isfinite(obj) and np.isfinite(x).all()):
        raise SolverError("optimal solution is not finite")
    kept = Basis(basic.astype(np.int32), stat.astype(np.int8), inv, updates)
    return LpResult(OPTIMAL, x[:n].copy(), obj, kept, pivots)


def _grown(basis: Basis, A: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The basic ids, bound states, inverse and updates of ``basis`` in its
    model grown to the rows of ``A``: each new row's slack is basic."""
    m, old_m = A.shape[0], basis.basic.size
    if basis.stat.size - old_m != n or old_m > m:
        raise ValueError("basis is from another model")
    basic = np.concatenate([basis.basic, np.arange(n + old_m, n + m)])
    stat = np.concatenate([basis.stat, np.full(m - old_m, _AT_LB)])
    inv = basis.inverse
    if m > old_m and inv is not None:
        inv = np.eye(m)  # [[B^-1, 0], [-R B^-1, I]]
        inv[:old_m, :old_m] = basis.inverse
        inv[old_m:, :old_m] = -A[old_m:, basis.basic] @ basis.inverse
    return basic, stat, inv, basis.updates


def lu_factor(B) -> np.ndarray:
    """B^-1 by numpy's LU solve, the simplex's one refactorization; raises if B is singular."""
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise SolverError("singular basis matrix") from None


def _wrong_sign(d, movable_nb, at_lb, d_tol) -> np.ndarray:
    """The movable nonbasic columns that improve the objective by rising
    off their lower bound or falling off their upper one."""
    return movable_nb & np.where(at_lb, d < -d_tol, d > d_tol)


def check_deadline(deadline: float) -> None:
    """The one clock check: raise ``DeadlineExceeded`` once ``time.monotonic()``
    reaches ``deadline``, and ``ValueError`` on a NaN one, which it never would."""
    if math.isnan(deadline):
        raise ValueError("deadline must not be NaN")
    if time.monotonic() >= deadline:
        raise DeadlineExceeded("the deadline was reached")


def _simplex(A, b, low, up, c, basis, x, stat, inv, updates, deadline):
    """In-place bounded dual simplex over A v = b from a basis that bound flips
    make dual feasible and its inverse after ``updates`` rank-1 updates, or
    None.  Returns (status, inverse, updates, pivots); see the module docstring."""
    movable = low != up
    degenerate = pivots = 0
    bland = False
    d_tol = OPT_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    flip_at = 0  # the start, then the pivot after a basis without a violated row

    for it in range(MAX_ITERATIONS):
        check_deadline(deadline)
        if inv is None or updates >= REFACTOR_EVERY:
            inv, updates = lu_factor(A[:, basis]), 0
        nb = np.ones(c.size, dtype=bool)
        nb[basis] = False
        at_lb = stat == _AT_LB
        d = c - (c[basis] @ inv) @ A
        if it == flip_at:
            flip = _wrong_sign(d, nb & movable, at_lb, d_tol)
            if flip.any():  # each wrong-sign column moves to its other bound
                if np.isinf(up[flip]).any():
                    raise SolverError("a column without an upper bound improves")
                x[flip] = np.where(at_lb[flip], up[flip], low[flip])
                stat[flip] = np.where(at_lb[flip], _AT_UB, _AT_LB)
                at_lb = stat == _AT_LB
        at_ub = ~at_lb
        xb = inv @ (b - A[:, nb] @ x[nb])
        x[basis] = xb
        below = low[basis] - xb
        violation = np.maximum(below, xb - up[basis])
        rows = np.flatnonzero(violation > PRIMAL_TOL)
        if rows.size == 0:
            if not _wrong_sign(d, nb & movable, at_lb, d_tol).any():
                return OPTIMAL, inv, updates, pivots
            flip_at = it + 1  # a pivot too small to take left a wrong sign
            continue

        # leaving row: the largest bound violation, ties to the lowest id
        if not bland:
            rows = rows[violation[rows] == violation[rows].max()]
        leave_pos = int(rows[np.argmin(basis[rows])])
        rise = below[leave_pos] > 0  # the leaving value climbs to its lower bound

        # entering column: the least ratio |d_j / alpha_j| over the columns
        # whose move pushes the leaving value toward its bound
        alpha = inv[leave_pos] @ A
        out = basis[leave_pos]
        if updates and abs(alpha[out] - 1.0) > DRIFT_TOL:  # exactly 1 for an exact B^-1
            inv = None  # the updates drifted: refactorize and price this basis again
            continue
        push = -alpha if rise else alpha  # move toward its bound per unit rise of column j
        cand = np.flatnonzero(
            nb & movable & ((at_lb & (push > PIVOT_TOL)) | (at_ub & (push < -PIVOT_TOL)))
        )
        if cand.size == 0:
            return INFEASIBLE, inv, updates, pivots
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

        col = inv @ A[:, enter]
        degenerate += step < 1e-10
        bland = degenerate >= DEGENERATE_LIMIT
        x[out] = low[out] if rise else up[out]
        stat[out] = _AT_LB if rise else _AT_UB
        basis[leave_pos] = enter
        row = inv[leave_pos] / col[leave_pos]
        inv = inv - col[:, None] * row  # a new array: a shared Basis keeps its inverse
        inv[leave_pos] = row
        updates, pivots = updates + 1, pivots + 1

    raise SolverError("iteration limit exceeded")
