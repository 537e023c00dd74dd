"""Follower-side maximization: greedy, exact branch-and-bound, and value.

The exact solver searches over items depth-first from the greedy set, with
no LP.  A node holds the chosen set S, its weight, and the items not yet
chosen or excluded; of those, the ones that still fit are open.  The node's
bound is z(S) plus, for the tightest knapsack row, the fractional-knapsack
value of the open items' gains over S (Nemhauser and Wolsey, 1981:
z(S ∪ T) <= z(S) + sum_{i in T} rho_i(S)).  It branches on the open item of
largest gain, inclusion first, so that in cutoff mode an improving solution
surfaces quickly.

One evaluator serves the whole search: at each node it removes and adds the
difference to that node's S, which the order-free evaluator contract makes
exact, and it gives all the open items' gains in one ``gains`` call.  The
greedy and the cut builders add an item between gains, over few candidates,
so they keep the scalar ``gain``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from .core import Evaluator, KnapsackSystem, SubmodularOracle
# The search runs no LP; solve_lp stays a module name so that a tracer that
# attributes LP time by wrapping follower.solve_lp finds its hook and reads 0.
from .lp import check_deadline, solve_lp  # noqa: F401

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


def _bound(
    ev: Evaluator, open_items: np.ndarray, gains: np.ndarray, knapsacks: KnapsackSystem,
    weight: np.ndarray,
) -> float:
    """An upper bound on z(S ∪ T), S the evaluator's set of this weight, over
    every T of ``open_items`` that fits with it: z(S) plus the least, over
    the knapsack rows, of the fractional-knapsack value of the gains within
    the row's room, since z(S ∪ T) <= z(S) + sum_{i in T} rho_i(S).  An item
    that costs nothing in a row counts in full there."""
    costs = knapsacks.matrix[:, open_items]
    room = knapsacks.limits - weight  # the slack of ``fits``
    with np.errstate(divide="ignore", invalid="ignore"):  # a free item's quotient becomes inf
        ratio = gains / costs
        ratio[costs == 0.0] = np.inf
        order = (-ratio).argsort(axis=1, kind="stable")
        costs = costs[np.arange(len(room))[:, None], order]
        before = costs.cumsum(axis=1) - costs  # room the better items take first
        share = np.where(costs > 0.0, (room[:, None] - before) / costs, 1.0)
    share = np.minimum(np.maximum(share, 0.0), 1.0)  # np.clip, without its dispatch cost
    return ev.value + float((share * gains[order]).sum(axis=1).min())


def solve_sep(
    oracle: SubmodularOracle,
    available: Iterable[int],
    knapsacks: KnapsackSystem,
    cutoff: float | None = None,
    deadline: float = math.inf,
) -> SepResult:
    """Exact follower optimum over the available items by depth-first
    branch-and-bound from the greedy set.

    With a cutoff, returns as soon as some feasible solution's value exceeds
    it (status ``cutoff_exceeded``), the greedy start first; the value is then a
    lower bound on the true optimum, which is all the enhanced separation
    needs.  ``deadline``, a ``time.monotonic()`` value, is checked at every
    node by ``lp.check_deadline``, which raises ``lp.DeadlineExceeded``.
    """
    _check_size(oracle, knapsacks)
    items = sorted(set(available))
    for i in items:
        oracle.check_item(i)
    if not items:
        return SepResult(frozenset(), 0.0, OPTIMAL)
    inc_set, _ = greedy(oracle, items, knapsacks=knapsacks)
    inc_val = oracle.value(inc_set)
    if cutoff is not None and inc_val > cutoff:
        return SepResult(inc_set, inc_val, CUTOFF_EXCEEDED)

    allowed = np.zeros(oracle.n, dtype=bool)
    allowed[items] = True
    ev = oracle.scratch()  # moved to each popped node's chosen set
    # each node: its chosen set, that set's weight, and the items not yet
    # chosen or excluded
    stack: List[Tuple[Tuple[int, ...], np.ndarray, np.ndarray]] = [
        ((), np.zeros(knapsacks.L), allowed)
    ]
    while stack:
        check_deadline(deadline)
        chosen, weight, allowed = stack.pop()
        for i in ev.members.difference(chosen):
            ev.remove(i)
        for i in chosen:
            ev.add(i)
        if ev.value > inc_val + 1e-12:
            # a probabilistic ev.value is a running sum whose last bits
            # depend on the path to this node; the incumbent's is exact
            value = oracle.scratch(chosen).value
            if value > inc_val + 1e-12:
                inc_set, inc_val = frozenset(chosen), value
                if cutoff is not None and inc_val > cutoff:
                    return SepResult(inc_set, inc_val, CUTOFF_EXCEEDED)
        open_items = (allowed & knapsacks.fitting(weight)).nonzero()[0]
        if open_items.size == 0:
            continue
        gains = ev.gains(open_items)
        if _bound(ev, open_items, gains, knapsacks, weight) <= inc_val + 1e-9:
            continue
        pick = int(open_items[np.argmax(gains)])  # the largest gain, ties to the lowest id
        rest = allowed.copy()
        rest[pick] = False
        stack.append((chosen, weight, rest))
        stack.append((chosen + (pick,), weight + knapsacks.item_cost(pick), rest))  # inclusion first
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

