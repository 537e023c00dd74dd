"""Monotone submodular value oracles with incremental evaluation state.

An oracle describes a set function z over the ground set {0, ..., n-1} with
z(empty) = 0. All mutable evaluation state lives in a scratch evaluator
obtained via ``oracle.scratch(items)``, which builds an evaluator for that
set; oracles themselves are read-only after construction and safe to share,
evaluators are single-owner.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


class Evaluator:
    """Scratch state tracking one member set, updated one item at a time.

    Each oracle names its own subclass, which provides ``add(i)`` and
    ``remove(i)`` (each a no-op when i is already in, or already out of,
    the set), ``gain(i)``, the marginal gain of adding i to the current
    members, which is 0.0 when i is a member, and ``gains(items)``, the
    same for a sequence of ids as one float array: ``gains(items)[k] ==
    gain(items[k])``, up to the order in which a float sum adds its terms.
    Each of the four raises ValueError for an id outside 0..n-1.
    """

    def __init__(self, oracle: "SubmodularOracle"):
        self._oracle = oracle
        self.members: set = set()
        self._value: float = 0.0

    @property
    def value(self) -> float:
        """z of the current member set."""
        return self._value


class SubmodularOracle:
    """Base class; subclasses provide ``n`` and ``evaluator``, their
    ``Evaluator`` subclass."""

    n: int = 0

    def __init__(self):
        self._rho_empty: np.ndarray | None = None

    def scratch(self, items: Iterable[int] = ()) -> Evaluator:
        """A fresh evaluator holding ``items``, added in ascending order."""
        ev = self.evaluator(self)
        for i in sorted(set(items)):
            ev.add(i)
        return ev

    def value(self, items: Iterable[int]) -> float:
        members = set(items)
        for i in members:
            self.check_item(i)
        return self.scratch(members).value

    def check_item(self, i: int) -> None:
        if not 0 <= int(i) < self.n:
            raise ValueError(f"item id {i} outside ground set of size {self.n}")

    def rho_empty(self) -> np.ndarray:
        """Per-item gains over the empty set, computed once and cached."""
        if self._rho_empty is None:
            ev = self.scratch()
            self._rho_empty = np.array([ev.gain(i) for i in range(self.n)])
        return self._rho_empty


class KnapsackSystem:
    """Knapsack constraints on a player's items: costs (L x n), capacities
    (L,).  Both the follower's and the leader's budget are one of these.

    The costs live in one read-only L x n array, ``matrix``, which every
    weight and fit test reads against ``limits``, the capacities plus 1e-9.
    """

    def __init__(self, costs: Sequence[Sequence[float]], caps: Sequence[float]):
        if not caps:
            raise ValueError("a knapsack system needs at least one constraint row")
        if len(costs) != len(caps):
            raise ValueError("one capacity per cost row required")
        for r, (row, cap) in enumerate(zip(costs, caps)):
            if len(row) != len(costs[0]):
                raise ValueError("every cost row needs one entry per item")
            # NaN fails this test too; fit tests and the follower's bound need finite numbers
            if not all(0.0 <= c < math.inf for c in (*row, cap)):
                raise ValueError(f"row {r}: knapsack numbers must be finite and non-negative")
        self.matrix = np.array(costs, dtype=float)
        self.matrix.setflags(write=False)
        self.caps = tuple(caps)
        self.limits = np.asarray(caps, dtype=float) + 1e-9

    @classmethod
    def cardinality(cls, n: int, budget: float) -> "KnapsackSystem":
        return cls(costs=(tuple(1.0 for _ in range(n)),), caps=(float(budget),))

    @property
    def L(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def weight(self, items: Iterable[int]) -> np.ndarray:
        w = np.zeros(self.L)
        for i in items:
            w += self.matrix[:, i]
        return w

    def fits(self, items: Iterable[int]) -> bool:
        return self.fits_weight(self.weight(items))

    def fits_weight(self, weight: np.ndarray) -> bool:
        return bool(np.all(weight <= self.limits))

    def fitting(self, weight: np.ndarray) -> np.ndarray:
        """Per item: whether it, added to a set of this weight, still fits.
        One mask, with the same arithmetic as one fit test per item."""
        return (weight[:, None] + self.matrix <= self.limits[:, None]).all(axis=0)

    def item_cost(self, i: int) -> np.ndarray:
        """Column i of the cost array: a read-only view, not a copy."""
        return self.matrix[:, i]

    def cost_le(self, i: int, j: int) -> bool:
        """True when item i costs no more than item j in every constraint."""
        return bool(np.all(self.matrix[:, i] <= self.matrix[:, j]))
