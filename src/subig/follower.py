"""Follower-side maximization: greedy, exact branch-and-cut, and separation.

The exact solver maximizes theta subject to knapsack rows and lazily added
submodular bounding rows (two per generating set: one anchored at full-set
complements, one at within-set prefixes).  Nodes are explored depth-first so
that, in cutoff mode, an improving feasible solution surfaces quickly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .core import KnapsackSystem, SubmodularOracle
from .lp import LpModel, solve_lp, INFEASIBLE

OPTIMAL = "optimal"
CUTOFF_EXCEEDED = "cutoff_exceeded"
TIMED_OUT = "timed_out"

INT_TOL = 1e-6
CUTOFF_SLACK = 1e-6


class FollowerTimeout(RuntimeError):
    """Raised when a caller needs an exact answer but the time budget ran out."""


@dataclass
class SepResult:
    items: frozenset
    value: float
    bound: float
    status: str


def greedy(
    oracle: SubmodularOracle,
    ground_subset: Iterable[int],
    knapsacks: KnapsackSystem,
    seed_set: Iterable[int] = (),
    seed_order: Sequence[int] = (),
) -> Tuple[frozenset, Tuple[int, ...]]:
    """Repeatedly add the feasible item with the largest value until nothing
    fits; the returned order extends the seed order by appended picks."""
    seed = set(seed_set)
    order = list(seed_order) if seed_order else sorted(seed)
    if set(order) != seed or len(order) != len(seed):
        raise ValueError("seed order must be a permutation of the seed set")
    if not knapsacks.fits(seed):
        raise ValueError("seed set violates a knapsack constraint")
    ground = sorted(set(ground_subset) | seed)
    ev = oracle.scratch()
    ev.reset(seed)
    weight = knapsacks.weight(seed)
    current = set(seed)
    while True:
        best = None
        for i in ground:
            if i in current:
                continue
            if not knapsacks.fits_weight(weight + knapsacks.item_cost(i)):
                continue
            g = ev.gain(i)
            if best is None or g > best[0] + 1e-12:
                best = (g, i)
        if best is None:
            break
        _, pick = best
        ev.add(pick)
        current.add(pick)
        weight += knapsacks.item_cost(pick)
        order.append(pick)
    return frozenset(current), tuple(order)


def bounding_rows(
    oracle: SubmodularOracle,
    available: Sequence[int],
    s_hat: Iterable[int],
    scratch=None,
) -> List[Tuple[Dict[int, float], float]]:
    """The two submodular upper-bound rows anchored at s_hat, each returned as
    (coefs, rhs) meaning  theta <= rhs + sum_i coefs[i] * y_i.

    Row one charges leavers at their full-ground complement gains (computed
    once per instance and valid for any availability); row two uses empty-set
    gains for entrants and within-set complement gains for leavers.
    """
    rho_full = oracle.rho_full_complement()
    rho0 = oracle.rho_empty()
    ev = scratch if scratch is not None else oracle.scratch()
    sset = set(s_hat)
    ev.reset(sset)
    z_s = float(ev.value)
    gains_out = {i: float(ev.gain(i)) for i in available if i not in sset}
    gains_in = {}
    for i in sorted(sset):
        ev.remove(i)
        gains_in[i] = float(ev.gain(i))
        ev.add(i)
    row1 = dict(gains_out)
    rhs1 = z_s
    for i in sset:
        row1[i] = float(rho_full[i])
        rhs1 -= float(rho_full[i])
    row2 = {i: float(rho0[i]) for i in gains_out}
    rhs2 = z_s
    for i in sset:
        row2[i] = gains_in[i]
        rhs2 -= gains_in[i]
    return [(row1, rhs1), (row2, rhs2)]


def solve_sep(
    oracle: SubmodularOracle,
    available: Iterable[int],
    knapsacks: KnapsackSystem,
    cutoff: float | None = None,
    time_budget: float | None = None,
) -> SepResult:
    """Exact follower optimum over the available items via branch-and-cut.

    With a cutoff, returns as soon as some feasible solution beats it
    (status ``cutoff_exceeded``); the value is then a lower bound on the true
    optimum, which is all the enhanced separation needs.
    """
    items = sorted(set(available))
    for i in items:
        oracle.check_item(i)
    if not items:
        return SepResult(frozenset(), 0.0, 0.0, OPTIMAL)
    t0 = time.monotonic()
    ub_theta = oracle.value(items)  # monotonicity: no subset beats the full set
    inc_set, _ = greedy(oracle, items, knapsacks=knapsacks)
    inc_val = oracle.value(inc_set)
    if cutoff is not None and inc_val > cutoff + CUTOFF_SLACK:
        return SepResult(inc_set, inc_val, ub_theta, CUTOFF_EXCEEDED)

    model = LpModel("max")
    ycol = {i: model.add_var(0.0, 1.0) for i in items}
    theta = model.add_var(0.0, ub_theta, obj=1.0)
    caps = knapsacks.caps
    for ell in range(knapsacks.L):
        coefs = {ycol[i]: knapsacks.costs[ell][i] for i in items if knapsacks.costs[ell][i] != 0.0}
        if coefs:
            model.add_row(coefs, caps[ell])

    ev = oracle.scratch()

    def add_rows_for(s_hat: Sequence[int], theta_star: float, y_star: Dict[int, float]) -> int:
        """Bounding rows anchored at s_hat; returns how many were new and
        violated at (theta*, y*)."""
        added = 0
        for coefs, rhs in bounding_rows(oracle, items, s_hat, scratch=ev):
            lhs = theta_star - sum(c * y_star[i] for i, c in coefs.items())
            if lhs > rhs + 1e-7:
                row = {ycol[i]: -c for i, c in coefs.items()}
                row[theta] = 1.0
                added += model.add_row(row, rhs)
        return added

    stack: List[Dict[int, int]] = [{}]
    while stack:
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            return SepResult(inc_set, inc_val, ub_theta, TIMED_OUT)
        fixings = stack.pop()
        fixed = {ycol[i]: float(v) for i, v in fixings.items()}
        while True:
            res = solve_lp(model, fixed)
            if res.status == INFEASIBLE or res.objective <= inc_val + 1e-9:
                break
            y_star = {i: res.x[ycol[i]] for i in items}
            theta_star = res.x[theta]
            frac = [i for i in items if INT_TOL < y_star[i] < 1.0 - INT_TOL]
            if not frac:
                s_hat = [i for i in items if y_star[i] > 0.5]
                ev.reset(s_hat)
                z_s = ev.value
                if theta_star > z_s + INT_TOL:
                    if add_rows_for(s_hat, theta_star, y_star) > 0:
                        continue
                    # numerically stuck: accept the candidate value
                if z_s > inc_val + 1e-12:
                    inc_val = z_s
                    inc_set = frozenset(s_hat)
                    if cutoff is not None and inc_val > cutoff + CUTOFF_SLACK:
                        return SepResult(inc_set, inc_val, ub_theta, CUTOFF_EXCEEDED)
                break
            # heuristic generating set: prefix by decreasing y*, stop once a
            # knapsack row first breaks (prefix kept as-is)
            order = sorted(items, key=lambda i: (-y_star[i], i))
            prefix: List[int] = []
            weight = np.zeros(knapsacks.L)
            for i in order:
                prefix.append(i)
                weight += knapsacks.item_cost(i)
                if not knapsacks.fits_weight(weight):
                    break
            if add_rows_for(prefix, theta_star, y_star) > 0:
                continue
            # branch on the most fractional variable
            pick = min(frac, key=lambda i: (abs(y_star[i] - 0.5), i))
            stack.append({**fixings, pick: 0})
            stack.append({**fixings, pick: 1})  # explore inclusion first
            break
    return SepResult(inc_set, inc_val, inc_val, OPTIMAL)


def phi(
    oracle: SubmodularOracle,
    x: Sequence[float],
    knapsacks: KnapsackSystem,
    time_budget: float | None = None,
) -> float:
    """Follower value under interdiction x (binary): exact optimum over the
    uninterdicted items."""
    avail = []
    for i in range(oracle.n):
        xi = x[i]
        if not (abs(xi) <= INT_TOL or abs(xi - 1.0) <= INT_TOL):
            raise ValueError("interdiction vector must be binary")
        if xi <= INT_TOL:
            avail.append(i)
    res = solve_sep(oracle, avail, knapsacks, time_budget=time_budget)
    if res.status == TIMED_OUT:
        raise FollowerTimeout("follower subproblem exceeded its time budget")
    return res.value

