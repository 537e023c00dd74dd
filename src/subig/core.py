"""Monotone submodular value oracles with incremental evaluation state.

An oracle describes a set function z over the ground set {0, ..., n-1} with
z(empty) = 0. All mutable evaluation state lives in a scratch evaluator
obtained via ``oracle.scratch(items)``, which builds an evaluator for that
set; oracles themselves are read-only after construction and safe to share,
evaluators are single-owner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

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
    """Base class; subclasses provide ``n`` and either a concrete
    ``evaluator`` or their own ``value``, which the generic one reads."""

    n: int = 0
    evaluator = Evaluator

    def __init__(self):
        self._rho_empty: np.ndarray | None = None
        self._rho_full: np.ndarray | None = None

    def scratch(self, items: Iterable[int] = ()) -> Evaluator:
        """A fresh evaluator holding ``items``, added in ascending order."""
        ev = self.evaluator(self)
        for i in sorted(set(items)):
            ev.add(i)
        return ev

    def value(self, items: Iterable[int]) -> float:
        if self.evaluator.add is Evaluator.add:
            # the generic evaluator reads ``value`` itself, so one of the two
            # must be concrete
            raise NotImplementedError(
                f"{type(self).__name__} must override value or set an evaluator that overrides add"
            )
        return self.scratch(self._validated(items)).value

    def gain(self, items: Iterable[int], i: int) -> float:
        self.check_item(i)
        members = self._validated(items)
        if i in members:
            return 0.0
        return self.scratch(members).gain(i)

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
            ev = self.scratch(range(self.n))
            out = np.empty(self.n)
            for i in range(self.n):
                ev.remove(i)
                out[i] = ev.gain(i)
                ev.add(i)
            self._rho_full = out
        return self._rho_full


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
    """Knapsack constraints on a player's items: costs (L x n), capacities
    (L,).  Both the follower's and the leader's budget are one of these.

    The costs are also kept as one read-only L x n float array, which every
    weight and fit test reads.
    """

    costs: Tuple[Tuple[float, ...], ...]
    caps: Tuple[float, ...]

    def __post_init__(self):
        if not self.caps:
            raise ValueError("a knapsack system needs at least one constraint row")
        if len(self.costs) != len(self.caps):
            raise ValueError("one capacity per cost row required")
        for r, (row, cap) in enumerate(zip(self.costs, self.caps)):
            if len(row) != self.n:
                raise ValueError("every cost row needs one entry per item")
            # NaN fails this test too; the follower's greedy and LP disagree on NaN or inf
            if not all(0.0 <= c < math.inf for c in (*row, cap)):
                raise ValueError(f"row {r}: knapsack numbers must be finite and non-negative")
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
        return len(self.costs[0])

    def weight(self, items: Iterable[int]) -> np.ndarray:
        w = np.zeros(self.L)
        for i in items:
            w += self._matrix[:, i]
        return w

    def fits(self, items: Iterable[int]) -> bool:
        return self.fits_weight(self.weight(items))

    def fits_weight(self, weight: np.ndarray) -> bool:
        return bool(np.all(weight <= self._limits))

    def fitting(self, weight: np.ndarray) -> np.ndarray:
        """Per item: whether it, added to a set of this weight, still fits.
        One mask, with the same arithmetic as one fit test per item."""
        return np.all(weight[:, None] + self._matrix <= self._limits[:, None], axis=0)

    def item_cost(self, i: int) -> np.ndarray:
        """Column i of the cost array: a read-only view, not a copy."""
        return self._matrix[:, i]

    def cost_le(self, i: int, j: int) -> bool:
        """True when item i costs no more than item j in every constraint."""
        return bool(np.all(self._matrix[:, i] <= self._matrix[:, j]))
