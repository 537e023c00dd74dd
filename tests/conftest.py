import itertools
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np
import pytest

from subig import bruteforce
from subig.core import Evaluator, KnapsackSystem, SubmodularOracle
from subig.problems import BiigInstance, WmcigInstance


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

    def gains(self, items):
        items = np.asarray(items, dtype=np.intp)
        return np.where(np.isin(items, list(self.members)), 0.0, self._oracle.weights[items])


class ModularOracle(SubmodularOracle):
    """Additive function z(S) = sum of per-item weights; the modular baseline."""

    evaluator = _ModularEvaluator

    def __init__(self, weights: Sequence[float]):
        super().__init__()
        self.weights = np.asarray(weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("modular weights must be non-negative")
        self.n = len(self.weights)


@dataclass
class CheckReport:
    trials: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_submodular_monotone(
    oracle: SubmodularOracle, trials: int, rng_seed: int = 0, tol: float = 1e-9
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
        g_s = oracle.scratch(S).gain(i)
        g_t = oracle.scratch(T).gain(i)
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


@pytest.fixture
def cover_example() -> WmcigInstance:
    """Three facility sites, four customers (profits 5, 9, 6, 4), follower
    opens two, leader removes one.  Site 0 covers {0,2}, site 1 covers {0,1},
    site 2 covers {0,2,3}."""
    return WmcigInstance(
        profits=(5, 9, 6, 4),
        cover=(frozenset({0, 2}), frozenset({0, 1}), frozenset({0, 2, 3})),
        B=2,
        k=1,
        name="cover-example",
    )


@pytest.fixture
def bipartite_example() -> BiigInstance:
    """Three items with activation probabilities (0.3, 0.5, 0.4) over four
    targets; arcs 0-0, 1-0, 1-1, 2-0, 2-2; follower picks two, leader one."""
    return BiigInstance(
        probs=(0.3, 0.5, 0.4),
        targets=4,
        arcs=((0, 0), (1, 0), (1, 1), (2, 0), (2, 2)),
        B=2,
        k=1,
        name="bipartite-example",
    )


def leader_feasible_vectors(n: int, k: int):
    """All binary interdiction vectors with at most k ones."""
    out = []
    for ones in range(k + 1):
        for chosen in itertools.combinations(range(n), ones):
            out.append(tuple(1 if i in chosen else 0 for i in range(n)))
    return out


def value_table(inst, oracle: SubmodularOracle):
    """phi at every interdiction of at most k items, keyed by 0/1 vector, by brute force."""
    knap = inst.knapsacks()
    table = {}
    for chosen in bruteforce.leader_sets(oracle.n, inst.k):
        avail = [i for i in range(oracle.n) if i not in chosen]
        vec = tuple(1 if i in chosen else 0 for i in range(oracle.n))
        table[vec] = bruteforce.brute_force_phi(oracle, avail, knap)
    return table


def all_binary_vectors(n: int):
    return list(itertools.product((0, 1), repeat=n))


def random_knapsack(rng: np.random.Generator, n: int) -> KnapsackSystem:
    """One to three rows of quarter-unit costs in [0, 4.75], zeros included,
    each row capped at 35 % of its total."""
    rows = int(rng.integers(1, 4))
    costs = tuple(tuple(float(c) / 4 for c in rng.integers(0, 20, n)) for _ in range(rows))
    return KnapsackSystem(costs=costs, caps=tuple(0.35 * sum(row) for row in costs))
