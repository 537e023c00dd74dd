"""Dense bounded-variable simplex for the small node relaxations.

Rows are inequalities a.v <= b over variables with [lb, ub] bounds.  A cold
solve runs two primal phases: artificials repair rows whose slack starts
negative, then the real objective is optimized.  Primal pivoting is
Dantzig with deterministic tie-breaks.

Every optimal result carries its ``Basis``: the basic columns over
structurals and slacks, and each column's bound state.  An artificial that
phase 1 leaves basic (at 0) is reported as its row's slack.  The two columns
differ only in sign and that slack is nonbasic, so the basis stays
nonsingular.  A later solve of the same model, which may have grown since,
starts from such a basis: new rows with their slacks basic, new columns at
a bound.  Adding rows or fixing columns keeps a basis dual feasible, so a
bounded dual simplex restores primal feasibility in a few pivots.  Its
leaving row has the largest bound violation (ties to the lowest variable
id); its entering column has the least ratio |d_j / alpha_j| (ties to the
largest |alpha_j|, then the lowest id).  One primal pass then confirms
optimality.  A start that is not dual feasible falls back to the cold
solve.  Both methods switch to smallest-index picks after 1000 degenerate
steps, so identical models always produce identical runs.

Each pivot factorizes the basis once with LAPACK's ``dgetrf`` and solves
with ``dgetrs``: the routines ``scipy.linalg.lu_factor`` and ``lu_solve``
wrap, called directly, so the pivots are bit-identical but the wrappers'
per-call finite checks are gone.  Those checks live at model build instead:
``add_row`` and ``add_var`` reject non-finite data, and ``solve_lp`` raises
``SolverError`` on a non-finite optimal result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
PRIMAL_TOL = 1e-9  # dual simplex: a basic value beyond its bound by more is infeasible
DEGENERATE_LIMIT = 1000
MAX_ITERATIONS = 100000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_AT_LB = 0
_AT_UB = 1


class SolverError(RuntimeError):
    """Numerical failure that survived anti-cycling recovery."""


@dataclass(frozen=True)
class Basis:
    """An optimal basis of a model with ``n_vars`` columns: the basic column
    ids over structurals then slacks, and every column's bound state."""

    n_vars: int
    basic: np.ndarray
    stat: np.ndarray


@dataclass
class LpResult:
    status: str
    x: np.ndarray
    objective: float
    basis: Optional[Basis] = None  # set on OPTIMAL results


class LpModel:
    """LP that only grows: columns and rows are appended, and rows are
    deduplicated by exact content.  Node bounds are passed to each solve."""

    def __init__(self, sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.sense = sense
        self.lb: List[float] = []
        self.ub: List[float] = []
        self.obj: List[float] = []
        self.rows: List[Dict[int, float]] = []
        self.rhs: List[float] = []
        self._row_keys: Set[Tuple] = set()

    @property
    def n_vars(self) -> int:
        return len(self.lb)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_var(self, lb: float = 0.0, ub: float = 1.0, obj: float = 0.0) -> int:
        if not math.isfinite(obj):
            raise ValueError(f"variable objective {obj} is not finite")
        # NaN fails the comparison; an infinite bound on the wrong side leaves
        # no finite value in the range
        if not lb <= ub or lb == math.inf or ub == -math.inf:
            raise ValueError(f"variable bounds [{lb}, {ub}] hold no finite value")
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        return len(self.lb) - 1

    def _check_var(self, j: int) -> None:
        if not 0 <= j < self.n_vars:
            raise ValueError(f"unknown variable id {j}")

    def add_row(self, coefs: Dict[int, float], rhs: float) -> bool:
        """a.v <= rhs; returns False, adding nothing, when the row is already present."""
        for j in coefs:
            self._check_var(j)
        row = {j: float(c) for j, c in coefs.items() if c != 0.0}
        if not (math.isfinite(rhs) and all(map(math.isfinite, row.values()))):
            raise ValueError("row coefficients and right-hand side must be finite")
        key = (tuple(sorted(row.items())), float(rhs))
        if key in self._row_keys:
            return False
        self._row_keys.add(key)
        self.rows.append(row)
        self.rhs.append(float(rhs))
        return True


def solve_lp(
    model: LpModel, fixed: Optional[Dict[int, float]] = None, basis: Optional[Basis] = None
) -> LpResult:
    """Optimize the model with each column in ``fixed`` held at its value for
    this solve only; the model itself is not changed.  A fixing outside the
    column's bounds makes the solve infeasible.  ``basis``, from an earlier
    solve of this model, starts a dual simplex when it is still dual
    feasible; otherwise the solve starts cold."""
    n = model.n_vars
    m = model.n_rows
    sign = 1.0 if model.sense == "min" else -1.0
    lb = np.array(model.lb, dtype=float)
    ub = np.array(model.ub, dtype=float)
    for j, value in (fixed or {}).items():
        model._check_var(j)
        if math.isnan(value):
            raise ValueError(f"NaN fixing of variable {j}")
        lb[j], ub[j] = max(lb[j], value), min(ub[j], value)
    if np.any(lb > ub):  # a fixing outside its column's bounds
        return LpResult(INFEASIBLE, np.zeros(n), 0.0)

    # columns: structurals, then one slack per row
    A = np.zeros((m, n + m))
    for r, coefs in enumerate(model.rows):
        for j, cj in coefs.items():
            A[r, j] = cj
        A[r, n + r] = 1.0
    b = np.asarray(model.rhs, dtype=float)
    low = np.concatenate([lb, np.zeros(m)])
    up = np.concatenate([ub, np.full(m, np.inf)])
    c = np.zeros(n + m)
    c[:n] = sign * np.asarray(model.obj, dtype=float)

    if basis is not None:
        warm, stat = _grown(basis, n, m)
        stat, x = _nonbasic_start(low, up, stat)
        status = _dual_simplex(A, b, low, up, c, warm, x, stat)
        if status == INFEASIBLE:
            return LpResult(INFEASIBLE, x[:n].copy(), 0.0)
        if status == OPTIMAL:
            return _optimize(A, b, low, up, c, warm, x, stat, n, sign)
        # the start is not dual feasible: solve cold

    stat, x = _nonbasic_start(low, up, np.full(n + m, _AT_LB))
    # start from the slack basis, with one artificial per row whose slack
    # starts negative (parked at 0 and covered by it)
    slack = b - A[:, :n] @ x[:n]
    short = np.flatnonzero(slack < 0)
    art = np.zeros((m, short.size))
    art[short, np.arange(short.size)] = -1.0
    A = np.hstack([A, art])
    total = A.shape[1]
    art_cols = np.arange(n + m, total)
    low = np.concatenate([low, np.zeros(short.size)])
    up = np.concatenate([up, np.full(short.size, np.inf)])
    x = np.concatenate([x[:n], np.where(slack >= 0, slack, 0.0), -slack[short]])
    stat = np.concatenate([stat, np.full(short.size, _AT_LB)])
    cold = np.arange(n, n + m)
    cold[short] = art_cols

    if art_cols.size:
        c1 = np.zeros(total)
        c1[art_cols] = 1.0
        status = _simplex(A, b, low, up, c1, cold, x, stat)
        if status != OPTIMAL:
            raise SolverError("phase-1 subproblem terminated abnormally")
        if float(c1 @ x) > FEAS_TOL:
            return LpResult(INFEASIBLE, x[:n].copy(), 0.0)
        up[art_cols] = 0.0  # pin artificials for phase 2

    c2 = np.concatenate([c, np.zeros(short.size)])
    return _optimize(A, b, low, up, c2, cold, x, stat, n, sign)


def _grown(basis: Basis, n: int, m: int) -> Tuple[np.ndarray, np.ndarray]:
    """The basic ids and bound states of ``basis`` in a model grown to ``n``
    columns and ``m`` rows: a new row's slack is basic, a new column is
    nonbasic at its lower bound, and a slack's id moves up by the columns
    added."""
    old_n, old_m = basis.n_vars, basis.basic.size
    if old_n > n or old_m > m:
        raise ValueError("basis is from a larger model")
    basic = np.arange(n, n + m)
    basic[:old_m] = np.where(basis.basic < old_n, basis.basic, basis.basic + (n - old_n))
    stat = np.full(n + m, _AT_LB)
    stat[:old_n] = basis.stat[:old_n]
    stat[n : n + old_m] = basis.stat[old_n:]
    return basic, stat


def _nonbasic_start(low, up, stat) -> Tuple[np.ndarray, np.ndarray]:
    """Bound states and values of nonbasic columns: each sits at the bound
    its state names when that bound is finite, else at its other finite
    bound, else (free) at 0."""
    at_ub = np.isfinite(up) & ((stat == _AT_UB) | ~np.isfinite(low))
    x = np.where(at_ub, up, np.where(np.isfinite(low), low, 0.0))
    return np.where(at_ub, _AT_UB, _AT_LB), x


def _optimize(A, b, low, up, c, basis, x, stat, n, sign) -> LpResult:
    """Primal simplex from a primal feasible basis to the result.  An optimal
    result carries its basis over the structurals and slacks, with a basic
    artificial (at 0) replaced by its row's slack: the two columns differ
    only in sign, and the slack is nonbasic."""
    status = _simplex(A, b, low, up, c, basis, x, stat)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, x[:n].copy(), -np.inf * sign)
    obj = sign * float(c @ x)
    if not (math.isfinite(obj) and np.isfinite(x).all()):
        raise SolverError("optimal solution is not finite")
    m = A.shape[0]
    basic = basis.copy()
    art = basic >= n + m
    if art.any():
        basic[art] = n + np.argmin(A[:, basic[art]], axis=0)  # the row of its -1
    kept = Basis(n, basic.astype(np.int32), stat[: n + m].astype(np.int8))
    return LpResult(OPTIMAL, x[:n].copy(), obj, kept)


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


def _dual_simplex(A, b, low, up, c, basis, x, stat) -> Optional[str]:
    """In-place bounded dual simplex over equalities A v = b from a dual
    feasible basis: OPTIMAL once every basic value is within its bounds,
    INFEASIBLE when a violated row has no eligible column, and None when
    the start is not dual feasible (before any pivot)."""
    total = A.shape[1]
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    movable = low != up
    free = np.isinf(low) & np.isinf(up)
    degenerate = 0
    bland = False
    d_tol = OPT_TOL * max(1.0, float(np.max(np.abs(c))) if total else 1.0)
    unit = np.zeros(A.shape[0])

    for it in range(MAX_ITERATIONS):
        lu = lu_factor(A[:, basis])
        nb = ~in_basis
        at_lb = (stat == _AT_LB) | free
        at_ub = (stat == _AT_UB) | free
        xb = lu_solve(lu, b - A[:, nb] @ x[nb])
        x[basis] = xb
        pi = lu_solve(lu, c[basis], trans=1)
        d = c - A.T @ pi
        if it == 0 and np.any(nb & movable & ((at_lb & (d < -d_tol)) | (at_ub & (d > d_tol)))):
            return None

        # leaving row: the largest bound violation, ties to the lowest id
        below = low[basis] - xb
        violation = np.maximum(below, xb - up[basis])
        rows = np.flatnonzero(violation > PRIMAL_TOL)
        if rows.size == 0:
            return OPTIMAL
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
        # a free column's reduced cost must stay 0, so it allows no step
        dual_room = np.where(free[cand], 0.0, np.where(stat[cand] == _AT_UB, -d[cand], d[cand]))
        ratio = np.maximum(dual_room, 0.0) / piv
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


def _simplex(A, b, low, up, c, basis, x, stat) -> str:
    """In-place bounded-variable simplex over equalities A v = b."""
    total = A.shape[1]
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    movable = low != up
    free = np.isinf(low) & np.isinf(up)
    degenerate = 0
    bland = False
    d_tol = OPT_TOL * max(1.0, float(np.max(np.abs(c))) if total else 1.0)

    for _ in range(MAX_ITERATIONS):
        lu = lu_factor(A[:, basis])
        nb = ~in_basis
        rhs_nb = b - A[:, nb] @ x[nb]
        xb = lu_solve(lu, rhs_nb)
        x[basis] = xb

        pi = lu_solve(lu, c[basis], trans=1)
        d = c - A.T @ pi

        # pricing: a nonbasic column improves by rising off its lower bound
        # or falling off its upper one; a free column may move either way
        rise = ((stat == _AT_LB) | free) & (d < -d_tol)
        fall = ((stat == _AT_UB) | free) & (d > d_tol)
        cand = np.flatnonzero(nb & movable & (rise | fall))
        if cand.size == 0:
            return OPTIMAL
        if bland:
            enter = int(cand[0])
        else:
            # Dantzig with a running best that needs a 1e-15 gain to move;
            # only a column above every earlier one can pass that test
            viol = np.abs(d[cand])
            record = viol > np.maximum.accumulate(np.concatenate(([0.0], viol[:-1])))
            enter, best = -1, 0.0
            for j, v in zip(cand[record].tolist(), viol[record].tolist()):
                if v > best + 1e-15:
                    enter, best = j, v

        direction = 1.0 if d[enter] < 0 else -1.0
        w = lu_solve(lu, A[:, enter])
        delta = -direction * w  # change of basic values per unit step

        # ratio test over the basic variables that move toward a finite bound
        t_limit = up[enter] - low[enter]
        xb = x[basis]
        room = np.where(delta > 0, up[basis] - xb, xb - low[basis])
        pos = np.flatnonzero((np.abs(delta) > PIVOT_TOL) & np.isfinite(room))
        piv = np.abs(delta[pos])
        ratio = np.where(room[pos] < 0.0, 0.0, room[pos]) / piv
        t_basic = float(ratio.min()) if pos.size else np.inf
        t_best = min(t_limit, t_basic)
        if not np.isfinite(t_best):
            return UNBOUNDED
        leave_pos = -1
        if t_basic <= t_limit:
            tied = ratio <= t_basic + 1e-12
            pos, piv = pos[tied], piv[tied]
            if not bland:
                # stability: largest pivot magnitude first
                pos = pos[piv == piv.max()]
            # then the smallest variable index (Bland's anti-cycling rule)
            leave_pos = int(pos[np.argmin(basis[pos])])
            t_best = t_basic

        if t_best < 1e-10:
            degenerate += 1
            if degenerate >= DEGENERATE_LIMIT:
                bland = True

        if leave_pos < 0:
            # no basic ratio beat the entering variable's own range: bound flip
            x[enter] = up[enter] if direction > 0 else low[enter]
            stat[enter] = _AT_UB if direction > 0 else _AT_LB
            continue
        out = basis[leave_pos]
        leave_stat = _AT_UB if delta[leave_pos] > 0 else _AT_LB
        x[out] = up[out] if leave_stat == _AT_UB else low[out]
        stat[out] = leave_stat
        in_basis[out] = False
        in_basis[enter] = True
        basis[leave_pos] = enter

    raise SolverError("iteration limit exceeded")
