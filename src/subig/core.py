"""Monotone submodular value oracles with incremental evaluation state.

An oracle describes a set function z over the ground set {0, ..., n-1} with
z(empty) = 0. All mutable evaluation state lives in a scratch evaluator
obtained via ``oracle.scratch()``; oracles themselves are read-only after
construction and safe to share, evaluators are single-owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

VALUE_TOL = 1e-9


class Evaluator:
    """Scratch state tracking one member set, updated one item at a time.

    The generic implementation recomputes from the oracle's canonical
    ``value``; concrete oracles override with O(affected) updates.
    """

    def __init__(self, oracle: "SubmodularOracle"):
        self._oracle = oracle
        self.members: set = set()
        self._value: float = 0.0

    @property
    def value(self) -> float:
        """z of the current member set."""
        return self._value

    def reset(self, items: Iterable[int] = ()) -> None:
        while self.members:
            self.remove(next(iter(self.members)))
        for i in sorted(set(items)):
            self.add(i)

    def add(self, i: int) -> None:
        if i in self.members:
            return
        self.members.add(i)
        self._value = self._oracle.value(self.members)

    def remove(self, i: int) -> None:
        if i not in self.members:
            return
        self.members.discard(i)
        self._value = self._oracle.value(self.members)

    def gain(self, i: int) -> float:
        """Marginal gain of adding i to the current member set (0 if present)."""
        if i in self.members:
            return 0.0
        self.add(i)
        high = self.value
        self.remove(i)
        return high - self.value


class SubmodularOracle:
    """Base class; subclasses provide ``n`` and a concrete scratch evaluator."""

    n: int = 0

    def __init__(self):
        self._rho_empty: np.ndarray | None = None
        self._rho_full: np.ndarray | None = None

    def scratch(self) -> Evaluator:
        return Evaluator(self)

    def value(self, items: Iterable[int]) -> float:
        ev = self.scratch()
        ev.reset(self._validated(items))
        return ev.value

    def gain(self, items: Iterable[int], i: int) -> float:
        self.check_item(i)
        members = self._validated(items)
        if i in members:
            return 0.0
        ev = self.scratch()
        ev.reset(members)
        return ev.gain(i)

    def check_item(self, i: int) -> None:
        if not 0 <= int(i) < self.n:
            raise ValueError(f"item id {i} outside ground set of size {self.n}")

    def _validated(self, items: Iterable[int]) -> set:
        members = set(items)
        for i in members:
            self.check_item(i)
        return members

    def rho_empty(self) -> np.ndarray:
        """Per-item gains over the empty set, computed once and cached."""
        if self._rho_empty is None:
            ev = self.scratch()
            self._rho_empty = np.array([ev.gain(i) for i in range(self.n)])
        return self._rho_empty

    def rho_full_complement(self) -> np.ndarray:
        """Per-item gains over the full ground set minus the item, cached."""
        if self._rho_full is None:
            ev = self.scratch()
            ev.reset(range(self.n))
            out = np.empty(self.n)
            for i in range(self.n):
                ev.remove(i)
                out[i] = ev.gain(i)
                ev.add(i)
            self._rho_full = out
        return self._rho_full


class ModularOracle(SubmodularOracle):
    """Additive function z(S) = sum of per-item weights; the modular baseline."""

    def __init__(self, weights: Sequence[float]):
        super().__init__()
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("modular weights must be non-negative")
        self.n = len(self.weights)

    def scratch(self) -> "_ModularEvaluator":
        return _ModularEvaluator(self)


class _ModularEvaluator(Evaluator):
    def add(self, i):
        if i not in self.members:
            self.members.add(i)
            self._value += self._oracle.weights[i]

    def remove(self, i):
        if i in self.members:
            self.members.discard(i)
            self._value -= self._oracle.weights[i]

    def gain(self, i):
        return 0.0 if i in self.members else float(self._oracle.weights[i])


@dataclass
class CheckReport:
    trials: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_submodular_monotone(
    oracle: SubmodularOracle, trials: int, rng_seed: int = 0, tol: float = VALUE_TOL
) -> CheckReport:
    """Sample (S subset of T, i outside T) triples and test the two defining
    inequalities: gains must not grow with the set, values must not shrink."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    report = CheckReport(trials=trials)
    items = np.arange(oracle.n)
    for t in range(trials):
        i = int(rng.integers(oracle.n))
        rest = items[items != i]
        in_t = rng.random(len(rest)) < 0.5
        T = set(rest[in_t].tolist())
        in_s = rng.random(len(T)) < 0.5
        S = {x for x, keep in zip(sorted(T), in_s) if keep}
        g_s = oracle.gain(S, i)
        g_t = oracle.gain(T, i)
        if g_s < g_t - tol:
            report.violations.append(
                f"trial {t}: gain({sorted(S)},{i})={g_s:.12g} < gain({sorted(T)},{i})={g_t:.12g}"
            )
        z_s = oracle.value(S)
        z_t = oracle.value(T)
        if z_s > z_t + tol:
            report.violations.append(
                f"trial {t}: z({sorted(S)})={z_s:.12g} > z({sorted(T)})={z_t:.12g}"
            )
        if g_t < -tol:
            report.violations.append(f"trial {t}: negative gain {g_t:.12g}")
    return report


@dataclass(frozen=True)
class KnapsackSystem:
    """Follower-side knapsack constraints: costs (L x n), capacities (L,).

    The costs are also kept as one read-only L x n float array, which every
    weight and fit test reads.
    """

    costs: Tuple[Tuple[float, ...], ...]
    caps: Tuple[float, ...]

    def __post_init__(self):
        if len(self.costs) != len(self.caps):
            raise ValueError("one capacity per cost row required")
        for row in self.costs:
            if len(row) != self.n:
                raise ValueError("every cost row needs one entry per item")
            if any(c < 0 for c in row):
                raise ValueError("knapsack costs must be non-negative")
        matrix = np.array(self.costs, dtype=float).reshape(len(self.caps), self.n)
        matrix.setflags(write=False)
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_limits", np.asarray(self.caps, dtype=float) + 1e-9)

    @classmethod
    def cardinality(cls, n: int, budget: float) -> "KnapsackSystem":
        return cls(costs=(tuple(1.0 for _ in range(n)),), caps=(float(budget),))

    @property
    def L(self) -> int:
        return len(self.caps)

    @property
    def n(self) -> int:
        return len(self.costs[0]) if self.costs else 0

    def weight(self, items: Iterable[int]) -> np.ndarray:
        w = np.zeros(self.L)
        for i in items:
            w += self._matrix[:, i]
        return w

    def fits(self, items: Iterable[int]) -> bool:
        return self.fits_weight(self.weight(items))

    def fits_weight(self, weight: np.ndarray) -> bool:
        return bool(np.all(weight <= self._limits))

    def item_cost(self, i: int) -> np.ndarray:
        """Column i of the cost array: a read-only view, not a copy."""
        return self._matrix[:, i]

    def cost_le(self, i: int, j: int) -> bool:
        """True when item i costs no more than item j in every constraint."""
        return bool(np.all(self._matrix[:, i] <= self._matrix[:, j]))
