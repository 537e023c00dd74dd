"""Dense bounded dual simplex for the small node relaxations.

An ``LpModel`` minimizes over columns fixed at construction, each with a
finite lower bound and an upper bound that may be infinite.  The
constructor rejects a column without an upper bound whose objective favours
rising, so every LP is bounded.  Its rows are inequalities a.v <= b, kept
in one dense array that only grows; row i has an implicit slack column
n + i in [0, inf).  Every solve runs one loop from one start: the ``Basis``
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
switch to smallest-index rules, and each movable nonbasic cost moves by 0.5
to 1 times 1e-6 (1 + |c_j|) the way that keeps it dual feasible, which
breaks the ties a cycle needs; the first basis with no violated row prices
the true costs again, so no perturbed optimum is returned.  Runs are
deterministic.  A wrong-sign column without an upper bound raises
``SolverError`` (only a basis from a solve whose fixings were later
released has one).

A solve's deadline, a ``time.monotonic()`` value, goes to ``check_deadline``,
the solver's one time check: each pivot calls it first, as does each node
of the follower's search, and it raises ``DeadlineExceeded`` there.

Each solve pivots on one dense tableau T = [B^-1 [A | I]; d], its last row
the reduced costs, with numpy alone: one rank-1 update per pivot moves all
of T, and the basic values move along the entering column.  T is built
from the basis inverse by one product at the start and after each
refactorization; [A | I] is formed only to factorize.  An optimal ``Basis``
keeps T's slack block, B^-1, for later solves, as it is under new fixings
and as [[B^-1, 0], [-R B^-1, I]] over k new rows, R being those rows over
the old basic columns.  ``lu_factor`` refactorizes, after the clock check,
at a slack start, every ``REFACTOR_EVERY`` updates, when the pivot row
misses 1 at the leaving column by more than ``DRIFT_TOL``, and when the
basic values of an optimum reached by updates miss its rows by more.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
REL_PIVOT_TOL = 1e-9  # a pivot below this share of the largest eligible one nears a singular basis
PRIMAL_TOL = 1e-9  # a basic value beyond its bound by more is infeasible
DEGENERATE_LIMIT = 1000
MAX_ITERATIONS = 100000
REFACTOR_EVERY = 50  # rank-1 updates of the basis inverse between refactorizations
DRIFT_TOL = 1e-9  # a pivot row or an optimum's rows farther off than this refactorize
PERTURBATION = 1e-6  # relative cost shift once degenerate pivots pile up

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
    """Minimization over the columns given at construction whose rows only
    grow, kept deduplicated by exact content.  Node bounds are passed to
    each solve."""

    def __init__(self, lb, ub, obj):
        self.lb = np.array(lb, dtype=float)
        self.ub = np.array(ub, dtype=float)
        self.obj = np.array(obj, dtype=float)
        if not np.isfinite(self.obj).all():
            raise ValueError("variable objectives must be finite")
        # NaN fails the comparison; a finite lower bound leaves a finite value in the range
        if not (np.isfinite(self.lb) & (self.lb <= self.ub)).all():
            raise ValueError("variable bounds need a finite lower bound not above the upper one")
        if (np.isinf(self.ub) & (self.obj < 0.0)).any():
            raise ValueError("a column without an upper bound must not improve by rising")
        self._rows = np.empty((8, self.lb.size))  # capacity doubles when full
        self._rhs = np.empty(8)
        self._m = 0

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
        """a.v <= rhs; returns False, adding nothing, when a model row already equals it."""
        row = np.zeros(self.n_vars)
        for j, c in coefs.items():
            self._check_var(j)
            row[j] = c
        if not (math.isfinite(rhs) and np.isfinite(row).all()):
            raise ValueError("row coefficients and right-hand side must be finite")
        if ((self.A == row).all(axis=1) & (self.rhs == rhs)).any():
            return False
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
    """Minimize the model with each column in ``fixed`` held at its value for
    this solve only; the model itself is not changed.  A fixing outside the
    column's bounds makes the solve infeasible.  ``basis``, from an earlier
    solve of this model, is the start; without it the slack basis is.  A
    pivot that finds ``time.monotonic()`` at ``deadline`` raises."""
    if math.isnan(deadline):
        raise ValueError("deadline must not be NaN")
    n = model.n_vars
    m = model.n_rows
    low, up, c = np.zeros(n + m), np.full(n + m, np.inf), np.zeros(n + m)  # structurals, then slacks
    low[:n], up[:n], c[:n] = model.lb, model.ub, model.obj
    for j, value in (fixed or {}).items():
        model._check_var(j)
        if not math.isfinite(value):
            raise ValueError(f"fixing {value} of variable {j} is not finite")
        low[j], up[j] = max(low[j], value), min(up[j], value)
    if np.any(low > up):  # a fixing outside its column's bounds
        return LpResult(INFEASIBLE, np.zeros(n), 0.0)

    A = model.A
    if basis is None:
        basic, stat, inv, updates = np.arange(n, n + m), np.full(n + m, _AT_LB), None, 0
    else:
        basic, stat, inv, updates = _grown(basis, A, n)
    # a nonbasic column sits at the bound its state names if finite, else at its lower bound
    stat = np.where(np.isfinite(up) & (stat == _AT_UB), _AT_UB, _AT_LB)
    x = np.where(stat == _AT_UB, up, low)
    status, inv, updates, pivots = _simplex(
        A, model.rhs, low, up, c, basic, x, stat, inv, updates, deadline
    )
    if status == INFEASIBLE:
        return LpResult(INFEASIBLE, x[:n].copy(), 0.0, iterations=pivots)
    obj = float(c @ x)
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
        inv = np.eye(m)  # [[B^-1, 0], [-R B^-1, I]]; an old slack is 0 in the new rows
        inv[:old_m, :old_m] = basis.inverse
        structural = basis.basic < n
        inv[old_m:, :old_m] = -A[old_m:, basis.basic[structural]] @ basis.inverse[structural]
    return basic, stat, inv, basis.updates


def lu_factor(B) -> np.ndarray:
    """B^-1 by numpy's LU solve, the simplex's one refactorization; raises if B is singular."""
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError:
        raise SolverError("singular basis matrix") from None


def check_deadline(deadline: float) -> None:
    """The one clock check: raise ``DeadlineExceeded`` once ``time.monotonic()``
    reaches ``deadline``, and ``ValueError`` on a NaN one, which it never would."""
    if math.isnan(deadline):
        raise ValueError("deadline must not be NaN")
    if time.monotonic() >= deadline:
        raise DeadlineExceeded("the deadline was reached")


def _simplex(A, b, low, up, c, basic, x, stat, inv, updates, deadline):
    """In-place bounded dual simplex over [A | I] v = b from a basis that bound
    flips make dual feasible and its inverse after ``updates`` rank-1 updates,
    or None.  Returns (status, inverse, updates, pivots); see the module docstring."""
    m, n = A.shape
    movable = low != up
    # +1 at a movable nonbasic column's lower bound, -1 at its upper one, else 0
    direction = np.where(stat == _AT_UB, -1.0, 1.0) * movable
    direction[basic] = 0.0
    x[basic] = 0.0  # x holds the nonbasic values; xb the basic ones by position
    low_b, up_b = low[basic], up[basic]
    true_c = c  # c is shifted while the costs are perturbed
    degenerate = pivots = 0
    bland = False
    d_tol = OPT_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    flip_at = 0  # the start, then the pivot after a basis without a violated row
    T = None

    for it in range(MAX_ITERATIONS):
        check_deadline(deadline)
        if inv is None or updates >= REFACTOR_EVERY:
            inv, updates, T = lu_factor(np.hstack([A, np.eye(m)])[:, basic]), 0, None
        if T is None:  # T = [B^-1 [A | I]; c - c_B B^-1 [A | I]]
            T = np.empty((m + 1, n + m))
            T[:m, :n] = inv @ A
            T[:m, n:] = inv
            T[m] = c - c[basic] @ T[:m]
            inv = T[:m, n:]  # the updates keep it B^-1
            xb = inv @ (b - A @ x[:n])
        d = T[m]
        if it == flip_at:
            flip = direction * d < -d_tol
            if flip.any():  # each wrong-sign column moves to its other bound
                if np.isinf(up[flip]).any():
                    raise SolverError("a column without an upper bound improves")
                x[flip] = np.where(direction[flip] > 0, up[flip], low[flip])
                direction[flip] = -direction[flip]
                xb = inv @ (b - A @ x[:n])
        below = low_b - xb
        violation = np.maximum(below, xb - up_b)
        worst = violation.max(initial=0.0)
        if not worst > PRIMAL_TOL:  # NaN too: the optimum's finiteness check catches it
            if c is not true_c:  # price the true costs again before any optimum
                c = true_c
                d[:] = c - c[basic] @ T[:m]
            if (direction * d < -d_tol).any():
                flip_at = it + 1  # a pivot too small to take, or the perturbation, left a wrong sign
                continue
            x[basic] = xb
            if updates and np.abs(A @ x[:n] + x[n:] - b).max() > DRIFT_TOL:
                x[basic] = 0.0
                inv = None  # the updates drifted: refactorize and go on
                continue
            stat[movable] = direction[movable] < 0  # _AT_UB, else _AT_LB
            return OPTIMAL, inv.copy(), updates, pivots

        # leaving row: the largest bound violation, ties to the lowest id
        rows = (violation > PRIMAL_TOL if bland else violation == worst).nonzero()[0]
        r = int(rows[basic[rows].argmin()]) if rows.size > 1 else int(rows[0])
        rise = below[r] > 0  # the leaving value climbs to its lower bound

        # entering column: the least ratio |d_j / alpha_j| over the columns
        # whose move pushes the leaving value toward its bound
        alpha = T[r]
        out = basic[r]
        if updates and abs(alpha[out] - 1.0) > DRIFT_TOL:  # exactly 1 for an exact B^-1
            inv = None  # the updates drifted: refactorize and price this basis again
            continue
        push = direction * alpha
        cand = (push < -PIVOT_TOL if rise else push > PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            x[basic] = xb
            return INFEASIBLE, inv, updates, pivots
        piv = np.abs(alpha[cand])
        ratio = np.maximum((direction * d)[cand], 0.0) / piv
        ratio[piv < REL_PIVOT_TOL * piv.max()] = np.inf  # never the entering column
        step = float(ratio.min())
        tied = ratio <= step + 1e-12
        cand, piv = cand[tied], piv[tied]
        q = int(cand[0] if bland else cand[piv.argmax()])  # the lowest id among ties

        # the primal step brings the leaving value to its bound
        bound = low_b[r] if rise else up_b[r]
        theta = (xb[r] - bound) / alpha[q]
        xb -= theta * T[:m, q]
        xb[r] = x[q] + theta
        x[out], x[q] = bound, 0.0
        direction[out] = (1.0 if rise else -1.0) * movable[out]
        direction[q] = 0.0
        basic[r] = q
        low_b[r], up_b[r] = low[q], up[q]
        row = alpha / alpha[q]
        T -= T[:, q, None] * row
        T[r] = row
        updates, pivots = updates + 1, pivots + 1
        degenerate += step < 1e-10
        if degenerate >= DEGENERATE_LIMIT and not bland:  # once: see the module docstring
            bland = True
            # 0.5 to 1 and distinct per column, by golden-ratio steps
            spread = 0.5 + 0.5 * np.modf(np.arange(c.size) * 0.6180339887498949)[0]
            shift = direction * PERTURBATION * (1.0 + np.abs(c)) * spread
            c = c + shift
            d += shift

    raise SolverError("iteration limit exceeded")
