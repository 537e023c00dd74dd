"""Ground truth by exhaustive enumeration, independent of the search code.

Nothing here shares logic with the follower or master solvers beyond the
value oracle itself: the follower optimum is a depth-first walk over all
knapsack-feasible subsets, and the leader optimum enumerates every feasible
interdiction set.  Guarded to desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Tuple

import numpy as np

from .core import KnapsackSystem, SubmodularOracle

PHI_GUARD = 25
SOLVE_GUARD = 20


def brute_force_phi(
    oracle: SubmodularOracle, available: Iterable[int], knapsacks: KnapsackSystem
) -> float:
    """Maximum follower value over all feasible subsets of ``available``."""
    items = sorted(set(available))
    for i in items:
        oracle.check_item(i)
    if len(items) > PHI_GUARD:
        raise ValueError(f"brute force guard: {len(items)} items exceeds {PHI_GUARD}")
    caps = np.asarray(knapsacks.caps)
    costs = [knapsacks.item_cost(i) for i in range(oracle.n)]
    ev = oracle.scratch()
    best = 0.0

    def walk(pos: int, weight: np.ndarray) -> None:
        nonlocal best
        if ev.value > best:
            best = ev.value
        for idx in range(pos, len(items)):
            i = items[idx]
            w = weight + costs[i]
            if np.all(w <= caps + 1e-9):
                ev.add(i)
                walk(idx + 1, w)
                ev.remove(i)

    walk(0, np.zeros(knapsacks.L))
    return float(best)


@dataclass
class BruteForceResult:
    value: float
    x: Tuple[int, ...]


def leader_sets(n: int, k: int):
    """All interdiction sets of size at most k, lexicographic by 0/1 vector."""
    for size in range(0, k + 1):
        yield from combinations(range(n), size)


def brute_force_solve(instance, oracle: SubmodularOracle) -> BruteForceResult:
    """Exact min-max by enumerating every cardinality-feasible interdiction.

    Ties on the optimal value resolve to the lexicographically smallest 0/1
    interdiction vector.
    """
    n = oracle.n
    if n > SOLVE_GUARD:
        raise ValueError(f"brute force guard: {n} items exceeds {SOLVE_GUARD}")
    knapsacks = instance.knapsacks()
    k = int(instance.k)
    best_val = None
    best_vec: Optional[Tuple[int, ...]] = None
    for chosen in leader_sets(n, k):
        removed = set(chosen)
        avail = [i for i in range(n) if i not in removed]
        val = brute_force_phi(oracle, avail, knapsacks)
        vec = tuple(1 if i in removed else 0 for i in range(n))
        if best_val is None or val < best_val or (val == best_val and vec < best_vec):
            best_val = val
            best_vec = vec
    return BruteForceResult(value=float(best_val), x=best_vec)
