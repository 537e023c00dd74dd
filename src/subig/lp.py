"""Dense bounded-variable primal simplex for the small node relaxations.

Rows are inequalities a.v <= b over variables with [lb, ub] bounds.  Two
phases: artificials repair rows whose slack starts negative, then the real
objective is optimized.  Pivoting is Dantzig with deterministic tie-breaks,
falling back to Bland's rule after 1000 degenerate steps, so identical
models always produce identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np
from scipy.linalg import lu_factor, lu_solve

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
PIVOT_TOL = 1e-10
DEGENERATE_LIMIT = 1000
MAX_ITERATIONS = 100000

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_AT_LB = 0
_AT_UB = 1


class SolverError(RuntimeError):
    """Numerical failure that survived anti-cycling recovery."""


@dataclass
class LpResult:
    status: str
    x: np.ndarray
    objective: float


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
        if lb > ub:
            raise ValueError("variable lower bound exceeds upper bound")
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
        key = (tuple(sorted(row.items())), float(rhs))
        if key in self._row_keys:
            return False
        self._row_keys.add(key)
        self.rows.append(row)
        self.rhs.append(float(rhs))
        return True


def solve_lp(model: LpModel, fixed: Optional[Dict[int, float]] = None) -> LpResult:
    """Optimize the model with each column in ``fixed`` held at its value for
    this solve only; the model itself is not changed."""
    n = model.n_vars
    m = model.n_rows
    sign = 1.0 if model.sense == "min" else -1.0
    c_struct = sign * np.asarray(model.obj, dtype=float)
    lb = np.array(model.lb, dtype=float)
    ub = np.array(model.ub, dtype=float)
    for j, value in (fixed or {}).items():
        model._check_var(j)
        lb[j] = ub[j] = float(value)
    if np.any(lb > ub + 1e-12):
        return LpResult(INFEASIBLE, np.zeros(n), 0.0)

    # nonbasic start: the finite lower bound, else the finite upper, else 0
    x_struct = np.where(np.isfinite(lb), lb, np.where(np.isfinite(ub), ub, 0.0))
    stat_struct = np.where(~np.isfinite(lb) & np.isfinite(ub), _AT_UB, _AT_LB)

    # columns: structurals, then one slack per row, then one artificial per
    # row whose slack starts negative (parked at 0 and covered by it)
    A = np.zeros((m, n + m))
    for r, coefs in enumerate(model.rows):
        for j, cj in coefs.items():
            A[r, j] = cj
        A[r, n + r] = 1.0
    b = np.asarray(model.rhs, dtype=float)
    slack = b - A[:, :n] @ x_struct
    short = np.flatnonzero(slack < 0)
    art = np.zeros((m, short.size))
    art[short, np.arange(short.size)] = -1.0
    A = np.hstack([A, art])
    total = A.shape[1]
    art_cols = np.arange(n + m, total)
    low = np.concatenate([lb, np.zeros(total - n)])
    up = np.concatenate([ub, np.full(total - n, np.inf)])
    x = np.concatenate([x_struct, np.where(slack >= 0, slack, 0.0), -slack[short]])
    stat = np.concatenate([stat_struct, np.full(m + short.size, _AT_LB)])
    basis = np.arange(n, n + m)
    basis[short] = art_cols

    if art_cols.size:
        c1 = np.zeros(total)
        c1[art_cols] = 1.0
        status = _simplex(A, b, low, up, c1, basis, x, stat)
        if status != OPTIMAL:
            raise SolverError("phase-1 subproblem terminated abnormally")
        if float(c1 @ x) > FEAS_TOL:
            return LpResult(INFEASIBLE, x[:n].copy(), 0.0)
        up[art_cols] = 0.0  # pin artificials for phase 2

    c2 = np.zeros(total)
    c2[:n] = c_struct
    status = _simplex(A, b, low, up, c2, basis, x, stat)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, x[:n].copy(), -np.inf * sign)
    obj = sign * float(c2 @ x)
    return LpResult(OPTIMAL, x[:n].copy(), obj)


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
        B = A[:, basis]
        try:
            lu = lu_factor(B)
        except Exception as exc:  # pragma: no cover - singular basis
            raise SolverError("singular basis matrix") from exc
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
