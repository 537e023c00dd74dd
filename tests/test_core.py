import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subig import core
from subig.core import KnapsackSystem, ModularOracle, SubmodularOracle
from subig.problems import gen_wmcig


class SquaredSizeOracle(SubmodularOracle):
    """z(S) = |S|^2: supermodular, used to exercise the violation detector."""

    def __init__(self, n):
        super().__init__()
        self.n = n

    def value(self, items):
        members = self._validated(items)
        return float(len(members) ** 2)


def test_evaluate_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    borc = bipartite_example.oracle()
    assert borc.value({0, 1}) == pytest.approx(1.15, abs=1e-12)
    assert worc.value(set()) == 0.0
    assert borc.value(set()) == 0.0
    assert worc.value({0, 1}) == 20.0


def test_evaluate_rejects_bad_ids(cover_example):
    orc = cover_example.oracle()
    with pytest.raises(ValueError):
        orc.value({0, 5})
    with pytest.raises(ValueError):
        orc.gain({0}, -1)


def test_marginal_gain_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    borc = bipartite_example.oracle()
    assert borc.gain({2}, 1) == pytest.approx(0.8, abs=1e-12)
    assert worc.gain({0, 1}, 0) == 0.0  # member: zero by definition
    assert worc.gain({0, 1}, 2) == 4.0


def test_rho_maps(cover_example, bipartite_example):
    borc = bipartite_example.oracle()
    assert borc.rho_empty().tolist() == pytest.approx([0.3, 1.0, 0.8], abs=1e-12)
    worc = cover_example.oracle()
    assert worc.rho_empty().tolist() == [11.0, 14.0, 15.0]
    weights = (2.0, 0.0, 7.5)
    mod = ModularOracle(weights)
    assert mod.rho_empty().tolist() == list(weights)
    assert mod.rho_full_complement().tolist() == list(weights)
    # complement gains never exceed empty-set gains and stay non-negative
    for orc in (worc, borc):
        r0 = orc.rho_empty()
        rf = orc.rho_full_complement()
        for i in range(orc.n):
            assert -1e-12 <= rf[i] <= r0[i] + 1e-12


def test_check_submodular_monotone_passes_on_models():
    inst = gen_wmcig(10, 2, 0.1, seed=1)
    report = core.check_submodular_monotone(inst.oracle(), trials=1000, rng_seed=1)
    assert report.ok
    assert core.check_submodular_monotone(ModularOracle((1, 2, 3)), 200, 0).ok


def test_check_submodular_monotone_flags_supermodular():
    report = core.check_submodular_monotone(SquaredSizeOracle(5), trials=200, rng_seed=3)
    assert not report.ok


def test_check_requires_positive_trials():
    with pytest.raises(ValueError):
        core.check_submodular_monotone(ModularOracle((1.0,)), trials=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), order_seed=st.integers(0, 10_000))
def test_telescoping_gains(seed, order_seed):
    inst = gen_wmcig(8, 2, 0.1, seed=seed % 7)
    orc = inst.oracle()
    rng = np.random.default_rng(seed)
    members = [i for i in range(orc.n) if rng.random() < 0.5]
    np.random.default_rng(order_seed).shuffle(members)
    ev = orc.scratch()
    total = 0.0
    for i in members:
        total += ev.gain(i)
        ev.add(i)
    assert total == pytest.approx(orc.value(members), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_diminishing_returns_and_nemhauser_bound(seed):
    inst = gen_wmcig(8, 2, 0.1, seed=seed % 5)
    orc = inst.oracle()
    rng = np.random.default_rng(seed)
    i = int(rng.integers(orc.n))
    rest = [j for j in range(orc.n) if j != i]
    T = {j for j in rest if rng.random() < 0.6}
    S = {j for j in T if rng.random() < 0.6}
    assert orc.gain(S, i) >= orc.gain(T, i) - 1e-9
    assert orc.gain(T, i) >= -1e-9
    # one-sided bound: z(T) <= z(S) + sum of gains of T-minus-S items over S
    lhs = orc.value(T)
    rhs = orc.value(S) + sum(orc.gain(S, j) for j in T - S)
    assert lhs <= rhs + 1e-9


def test_knapsack_validation():
    with pytest.raises(ValueError):
        KnapsackSystem(costs=((1.0, -1.0),), caps=(2.0,))
    with pytest.raises(ValueError):
        KnapsackSystem(costs=((1.0,),), caps=(1.0, 2.0))
    ks = KnapsackSystem.cardinality(3, 2)
    assert ks.fits({0, 1}) and not ks.fits({0, 1, 2})
    assert ks.cost_le(0, 1)


def test_scratch_matches_value_after_churn(bipartite_example):
    orc = bipartite_example.oracle()
    ev = orc.scratch()
    rng = np.random.default_rng(0)
    for _ in range(300):
        i = int(rng.integers(orc.n))
        if i in ev.members:
            ev.remove(i)
        else:
            ev.add(i)
        assert ev.value == pytest.approx(orc.value(ev.members), abs=1e-12)
