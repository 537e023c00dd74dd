"""Dense bounded-variable primal simplex for the small node relaxations.

Rows are inequalities a.v <= b over variables with [lb, ub] bounds.  Two
phases: artificials repair rows whose slack starts negative, then the real
objective is optimized.  Pivoting is Dantzig with deterministic tie-breaks,
falling back to Bland's rule after 1000 degenerate steps, so identical
models always produce identical runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

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
    """Incrementally editable LP; rows are deduplicated by exact content."""

    def __init__(self, sense: str = "min"):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.sense = sense
        self.lb: List[float] = []
        self.ub: List[float] = []
        self.obj: List[float] = []
        self.names: List[str] = []
        self.rows: List[Dict[int, float]] = []
        self.rhs: List[float] = []
        self._row_index: Dict[Tuple, int] = {}
        self._saved_bounds: Dict[int, Tuple[float, float]] = {}

    @property
    def n_vars(self) -> int:
        return len(self.lb)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def add_var(self, lb: float = 0.0, ub: float = 1.0, obj: float = 0.0, name: str = "") -> int:
        if lb > ub:
            raise ValueError("variable lower bound exceeds upper bound")
        self.lb.append(float(lb))
        self.ub.append(float(ub))
        self.obj.append(float(obj))
        self.names.append(name or f"v{len(self.lb) - 1}")
        return len(self.lb) - 1

    def _check_var(self, j: int) -> None:
        if not 0 <= j < self.n_vars:
            raise ValueError(f"unknown variable id {j}")

    def add_row(self, coefs: Dict[int, float], rhs: float) -> int:
        """a.v <= rhs; returns the existing id when the row is already present."""
        for j in coefs:
            self._check_var(j)
        key = (tuple(sorted((j, float(c)) for j, c in coefs.items() if c != 0.0)), float(rhs))
        hit = self._row_index.get(key)
        if hit is not None:
            return hit
        self.rows.append({j: float(c) for j, c in coefs.items() if c != 0.0})
        self.rhs.append(float(rhs))
        rid = len(self.rows) - 1
        self._row_index[key] = rid
        return rid

    def fix_var(self, j: int, value: float) -> None:
        self._check_var(j)
        if j not in self._saved_bounds:
            self._saved_bounds[j] = (self.lb[j], self.ub[j])
        self.lb[j] = float(value)
        self.ub[j] = float(value)

    def unfix_var(self, j: int) -> None:
        self._check_var(j)
        if j not in self._saved_bounds:
            raise ValueError(f"variable {j} is not fixed")
        self.lb[j], self.ub[j] = self._saved_bounds.pop(j)

    def dump(self) -> str:
        """Plain-text listing, one row per line, 12 significant digits."""
        out = []
        obj = " + ".join(f"{c:.12g} {self.names[j]}" for j, c in enumerate(self.obj) if c != 0.0)
        out.append(f"{self.sense}: {obj or '0'}")
        for r, (coefs, rhs) in enumerate(zip(self.rows, self.rhs)):
            terms = " + ".join(f"{c:.12g} {self.names[j]}" for j, c in sorted(coefs.items()))
            out.append(f"r{r}: {terms} <= {rhs:.12g}")
        for j in range(self.n_vars):
            out.append(f"{self.names[j]} in [{self.lb[j]:.12g}, {self.ub[j]:.12g}]")
        return "\n".join(out) + "\n"


def _start_value(lb: float, ub: float) -> Tuple[float, int]:
    if np.isfinite(lb):
        return lb, _AT_LB
    if np.isfinite(ub):
        return ub, _AT_UB
    return 0.0, _AT_LB


def solve_lp(model: LpModel) -> LpResult:
    n = model.n_vars
    m = model.n_rows
    sign = 1.0 if model.sense == "min" else -1.0
    c_struct = sign * np.asarray(model.obj, dtype=float)
    lb = np.asarray(model.lb, dtype=float)
    ub = np.asarray(model.ub, dtype=float)
    if np.any(lb > ub + 1e-12):
        return LpResult(INFEASIBLE, np.zeros(n), 0.0)

    if m == 0:
        x = np.empty(n)
        for j in range(n):
            if c_struct[j] > 0:
                x[j] = lb[j]
            elif c_struct[j] < 0:
                x[j] = ub[j]
            else:
                x[j], _ = _start_value(lb[j], ub[j])
            if not np.isfinite(x[j]):
                return LpResult(UNBOUNDED, np.zeros(n), -np.inf * sign)
        return LpResult(OPTIMAL, x, sign * float(c_struct @ x))

    # columns: structurals, then one slack per row, then artificials as needed
    A = np.zeros((m, n + m))
    for r, coefs in enumerate(model.rows):
        for j, cj in coefs.items():
            A[r, j] = cj
        A[r, n + r] = 1.0
    b = np.asarray(model.rhs, dtype=float)
    low = np.concatenate([lb, np.zeros(m)])
    up = np.concatenate([ub, np.full(m, np.inf)])

    x = np.empty(n + m)
    stat = np.empty(n + m, dtype=int)
    for j in range(n):
        x[j], stat[j] = _start_value(lb[j], ub[j])
    act = A[:, :n] @ x[:n]
    slack = b - act
    basis = list(range(n, n + m))
    art_cols: List[int] = []
    for r in range(m):
        if slack[r] >= 0:
            x[n + r] = slack[r]
        else:
            # slack starts infeasible: park it at 0 and cover with an artificial
            x[n + r] = 0.0
            stat[n + r] = _AT_LB
            col = np.zeros((m, 1))
            col[r, 0] = -1.0
            A = np.hstack([A, col])
            low = np.append(low, 0.0)
            up = np.append(up, np.inf)
            x = np.append(x, -slack[r])
            stat = np.append(stat, _AT_LB)
            art_cols.append(A.shape[1] - 1)
            basis[r] = A.shape[1] - 1

    if art_cols:
        c1 = np.zeros(A.shape[1])
        c1[art_cols] = 1.0
        status = _simplex(A, b, low, up, c1, basis, x, stat)
        if status != OPTIMAL:
            raise SolverError("phase-1 subproblem terminated abnormally")
        if float(c1 @ x) > FEAS_TOL:
            return LpResult(INFEASIBLE, x[:n].copy(), 0.0)
        up[art_cols] = 0.0  # pin artificials for phase 2
        x[art_cols] = np.maximum(x[art_cols], 0.0)

    c2 = np.zeros(A.shape[1])
    c2[:n] = c_struct
    status = _simplex(A, b, low, up, c2, basis, x, stat)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, x[:n].copy(), -np.inf * sign)
    obj = sign * float(c2 @ x)
    return LpResult(OPTIMAL, x[:n].copy(), obj)


def _simplex(A, b, low, up, c, basis, x, stat) -> str:
    """In-place bounded-variable simplex over equalities A v = b."""
    m, total = A.shape
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
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

        enter = -1
        best = 0.0
        for j in range(total):
            if in_basis[j] or low[j] == up[j]:
                continue
            dj = d[j]
            if stat[j] == _AT_LB and dj < -d_tol:
                viol = -dj
            elif stat[j] == _AT_UB and dj > d_tol:
                viol = dj
            else:
                continue
            if bland:
                enter = j
                break
            if viol > best + 1e-15:
                best = viol
                enter = j
        if enter < 0:
            return OPTIMAL

        direction = 1.0 if stat[enter] == _AT_LB else -1.0
        w = lu_solve(lu, A[:, enter])
        delta = -direction * w  # change of basic values per unit step

        t_limit = up[enter] - low[enter]
        ratios = []  # (t, p, hit bound, |pivot|)
        for p in range(m):
            q = basis[p]
            dp = delta[p]
            if dp > PIVOT_TOL:
                room = up[q] - x[q]
                if not np.isfinite(room):
                    continue
                ratios.append((max(room, 0.0) / dp, p, _AT_UB, dp))
            elif dp < -PIVOT_TOL:
                room = x[q] - low[q]
                if not np.isfinite(room):
                    continue
                ratios.append((max(room, 0.0) / (-dp), p, _AT_LB, -dp))
        t_basic = min((r[0] for r in ratios), default=np.inf)
        t_best = min(t_limit, t_basic)
        if not np.isfinite(t_best):
            return UNBOUNDED
        leave_pos = -1
        leave_stat = _AT_LB
        if t_basic <= t_limit:
            tied = [r for r in ratios if r[0] <= t_basic + 1e-12]
            if bland:
                # anti-cycling: leave the smallest variable index among ties
                _, leave_pos, leave_stat, _ = min(tied, key=lambda r: basis[r[1]])
            else:
                # stability: largest pivot magnitude, then smallest index
                _, leave_pos, leave_stat, _ = min(
                    tied, key=lambda r: (-r[3], basis[r[1]])
                )
            t_best = t_basic

        if t_best < 1e-10:
            degenerate += 1
            if degenerate >= DEGENERATE_LIMIT:
                bland = True

        x[basis] += delta * t_best
        if leave_pos < 0:
            # no basic ratio beat the entering variable's own range: bound flip
            x[enter] = up[enter] if stat[enter] == _AT_LB else low[enter]
            stat[enter] = _AT_UB if stat[enter] == _AT_LB else _AT_LB
            continue
        x[enter] = (low[enter] + t_best) if direction > 0 else (up[enter] - t_best)
        out = basis[leave_pos]
        x[out] = up[out] if leave_stat == _AT_UB else low[out]
        stat[out] = leave_stat
        in_basis[out] = False
        in_basis[enter] = True
        basis[leave_pos] = enter

    raise SolverError("iteration limit exceeded")
