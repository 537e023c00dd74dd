"""Follower-side maximization: greedy, exact branch-and-cut, and separation.

The exact solver maximizes theta subject to knapsack rows and lazily added
submodular bounding rows (two per generating set: one anchored at full-set
complements, one at within-set prefixes).  Nodes are explored depth-first so
that, in cutoff mode, an improving feasible solution surfaces quickly.  Only
the first LP of a call starts from the slack basis: each later LP, after a
cut round or in a child node, starts from the last optimal basis of its node
or of its parent, which added rows and fixings keep dual feasible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import KnapsackSystem, SubmodularOracle
from .lp import Basis, LpModel, solve_lp, INFEASIBLE

OPTIMAL = "optimal"
CUTOFF_EXCEEDED = "cutoff_exceeded"

INT_TOL = 1e-6


@dataclass
class SepResult:
    items: frozenset
    value: float
    status: str


def _gain_score(i: int, gain: float) -> float:
    return gain


def _check_size(oracle: SubmodularOracle, knapsacks: KnapsackSystem) -> None:
    if knapsacks.n != oracle.n:
        raise ValueError(f"knapsack system has {knapsacks.n} items, the oracle {oracle.n}")


def greedy(
    oracle: SubmodularOracle,
    ground_subset: Iterable[int],
    knapsacks: KnapsackSystem,
    seed: Sequence[int] = (),
    score: Callable[[int, float], float] = _gain_score,
) -> Tuple[frozenset, Tuple[int, ...]]:
    """Starting from the seed, repeatedly add the fitting item with the
    largest ``score(i, gain)``, by default the gain itself (ties within 1e-12
    to the lowest id), until nothing fits or the best score is negative; the
    returned order is the seed followed by the picks."""
    _check_size(oracle, knapsacks)
    order = list(seed)
    current = set(order)
    if len(current) != len(order):
        raise ValueError("seed repeats an item")
    ground = sorted(set(ground_subset) | current)
    if ground:  # the lowest and the highest id bound every other
        oracle.check_item(ground[0])
        oracle.check_item(ground[-1])
    if not knapsacks.fits(current):
        raise ValueError("seed set violates a knapsack constraint")
    ev = oracle.scratch(current)
    weight = knapsacks.weight(current)
    while True:
        fit = knapsacks.fitting(weight)
        best = None
        for i in ground:
            if i in current or not fit[i]:
                continue
            value = score(i, ev.gain(i))
            if best is None or value > best[0] + 1e-12:
                best = (value, i)
        if best is None or best[0] < 0.0:
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
) -> List[Tuple[Dict[int, float], float]]:
    """The two submodular upper-bound rows anchored at s_hat, each returned as
    (coefs, rhs) meaning  theta <= rhs + sum_i coefs[i] * y_i.

    Row one charges leavers at their full-ground complement gains (computed
    once per instance and valid for any availability); row two uses empty-set
    gains for entrants and within-set complement gains for leavers.
    """
    rho_full = oracle.rho_full_complement()
    rho0 = oracle.rho_empty()
    sset = set(s_hat)
    ev = oracle.scratch(sset)
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
    deadline: float = math.inf,
) -> SepResult:
    """Exact follower optimum over the available items via branch-and-cut.

    With a cutoff, returns as soon as some feasible solution's value exceeds
    it (status ``cutoff_exceeded``), the greedy start first; the value is then a
    lower bound on the true optimum, which is all the enhanced separation
    needs.  ``deadline``, a ``time.monotonic()`` value, goes to every LP:
    ``lp.DeadlineExceeded`` comes from the first pivot that reaches it.
    """
    _check_size(oracle, knapsacks)
    items = sorted(set(available))
    for i in items:
        oracle.check_item(i)
    if not items:
        return SepResult(frozenset(), 0.0, OPTIMAL)
    ub_theta = oracle.value(items)  # monotonicity: no subset beats the full set
    inc_set, _ = greedy(oracle, items, knapsacks=knapsacks)
    inc_val = oracle.value(inc_set)
    if cutoff is not None and inc_val > cutoff:
        return SepResult(inc_set, inc_val, CUTOFF_EXCEEDED)

    # columns: y_i for each item in [0, 1], then the objective theta
    ycol = {i: col for col, i in enumerate(items)}
    theta = len(items)
    ub = np.append(np.ones(theta), ub_theta)
    model = LpModel(np.zeros(theta + 1), ub, np.append(np.zeros(theta), 1.0), "max")
    caps = knapsacks.caps
    for ell in range(knapsacks.L):
        coefs = {ycol[i]: knapsacks.costs[ell][i] for i in items if knapsacks.costs[ell][i] != 0.0}
        if coefs:
            model.add_row(coefs, caps[ell])

    def add_rows_for(s_hat: Sequence[int], theta_star: float, y_star: Dict[int, float]) -> int:
        """Bounding rows anchored at s_hat; returns how many were new and
        violated at (theta*, y*)."""
        added = 0
        for coefs, rhs in bounding_rows(oracle, items, s_hat):
            lhs = theta_star - sum(c * y_star[i] for i, c in coefs.items())
            if lhs > rhs + 1e-7:
                row = {ycol[i]: -c for i, c in coefs.items()}
                row[theta] = 1.0
                added += model.add_row(row, rhs)
        return added

    # each node: its fixings and its parent's last optimal basis
    stack: List[Tuple[Dict[int, int], Optional[Basis]]] = [({}, None)]
    while stack:
        fixings, basis = stack.pop()
        fixed = {ycol[i]: float(v) for i, v in fixings.items()}
        while True:
            res = solve_lp(model, fixed, basis, deadline)
            if res.status == INFEASIBLE or res.objective <= inc_val + 1e-9:
                break
            basis = res.basis
            y_star = {i: res.x[ycol[i]] for i in items}
            theta_star = res.x[theta]
            frac = [i for i in items if INT_TOL < y_star[i] < 1.0 - INT_TOL]
            if not frac:
                s_hat = [i for i in items if y_star[i] > 0.5]
                z_s = oracle.scratch(s_hat).value
                overrated = theta_star > z_s + INT_TOL
                if overrated and add_rows_for(s_hat, theta_star, y_star) > 0:
                    continue
                if z_s > inc_val + 1e-12:
                    inc_val = z_s
                    inc_set = frozenset(s_hat)
                    if cutoff is not None and inc_val > cutoff:
                        return SepResult(inc_set, inc_val, CUTOFF_EXCEEDED)
                if not overrated or len(fixings) == len(items):
                    break
                # the rows cut theta* off no further, so z(S) may not be the
                # node's optimum: branch on the lowest unfixed id
                pick = next(i for i in items if i not in fixings)
            else:
                # heuristic generating set: prefix by decreasing y*, stop once
                # a knapsack row first breaks (prefix kept as-is)
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
            stack.append(({**fixings, pick: 0}, basis))
            stack.append(({**fixings, pick: 1}, basis))  # explore inclusion first
            break
    return SepResult(inc_set, inc_val, OPTIMAL)


def phi(
    oracle: SubmodularOracle,
    x: Sequence[float],
    knapsacks: KnapsackSystem,
    time_budget: float | None = None,
) -> float:
    """Follower value under interdiction x (binary): exact optimum over the
    uninterdicted items, within ``time_budget`` seconds (negative: none left)."""
    if len(x) != oracle.n:
        raise ValueError(f"interdiction vector has {len(x)} entries, the oracle {oracle.n} items")
    avail = []
    for i, xi in enumerate(x):
        if not (abs(xi) <= INT_TOL or abs(xi - 1.0) <= INT_TOL):
            raise ValueError("interdiction vector must be binary")
        if xi <= INT_TOL:
            avail.append(i)
    deadline = math.inf if time_budget is None else time.monotonic() + time_budget
    return solve_sep(oracle, avail, knapsacks, deadline=deadline).value

