import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subig.core import Evaluator, KnapsackSystem, SubmodularOracle
from subig.problems import BiigInstance, gen_biig, gen_wmcig

from conftest import ModularOracle, check_submodular_monotone, random_knapsack


class _SquaredSizeEvaluator(Evaluator):
    def add(self, i):
        self.members.add(i)
        self._value = float(len(self.members) ** 2)

    def remove(self, i):
        self.members.discard(i)
        self._value = float(len(self.members) ** 2)

    def gain(self, i):
        return 0.0 if i in self.members else float(2 * len(self.members) + 1)

    def gains(self, items):
        return np.where(np.isin(items, list(self.members)), 0.0, float(2 * len(self.members) + 1))


class SquaredSizeOracle(SubmodularOracle):
    """z(S) = |S|^2: supermodular, used to exercise the violation detector."""

    evaluator = _SquaredSizeEvaluator

    def __init__(self, n):
        super().__init__()
        self.n = n


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


def test_gains_reject_ids_outside_the_ground_set():
    """An id below 0 or past n - 1 raises, and does not wrap round to the
    last item's gain as a Python index would."""
    ev = gen_wmcig(6, 1, 0.2, 0).oracle().scratch({0})
    for bad in (-1, 6):
        with pytest.raises(ValueError, match="outside ground set"):
            ev.gain(bad)
        for items in ([bad], [1, bad, 2]):
            with pytest.raises(ValueError, match="outside ground set"):
                ev.gains(items)
    assert ev.gains([]).shape == (0,)


def test_add_and_remove_reject_ids_outside_the_ground_set():
    """An id below 0 or past n - 1 raises and leaves the evaluator as it
    was: -1 does not become a member that hides the last item's gain."""
    ev = gen_wmcig(6, 1, 0.2, 0).oracle().scratch({0})
    before = (set(ev.members), ev.value, ev.gains(range(6)).tolist())
    for bad in (-1, 6):
        for update in (ev.add, ev.remove):
            with pytest.raises(ValueError, match="outside ground set"):
                update(bad)
    assert (ev.members, ev.value, ev.gains(range(6)).tolist()) == before
    assert before[2][5] == 73.0


def test_marginal_gain_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    borc = bipartite_example.oracle()
    assert borc.scratch({2}).gain(1) == pytest.approx(0.8, abs=1e-12)
    assert worc.scratch({0, 1}).gain(0) == 0.0  # member: zero by definition
    assert worc.scratch({0, 1}).gain(2) == 4.0


def _complement_gains(orc):
    """Per item: its gain over the rest of the ground set."""
    return [orc.scratch(set(range(orc.n)) - {i}).gain(i) for i in range(orc.n)]


def test_rho_maps(cover_example, bipartite_example):
    borc = bipartite_example.oracle()
    assert borc.rho_empty().tolist() == pytest.approx([0.3, 1.0, 0.8], abs=1e-12)
    worc = cover_example.oracle()
    assert worc.rho_empty().tolist() == [11.0, 14.0, 15.0]
    weights = (2.0, 0.0, 7.5)
    mod = ModularOracle(weights)
    assert mod.rho_empty().tolist() == list(weights)
    assert _complement_gains(mod) == list(weights)
    # complement gains never exceed empty-set gains and stay non-negative
    for orc in (worc, borc):
        r0 = orc.rho_empty()
        rf = _complement_gains(orc)
        for i in range(orc.n):
            assert -1e-12 <= rf[i] <= r0[i] + 1e-12


def test_oracle_without_an_evaluator_says_so():
    """Every oracle names its own evaluator; there is no generic one to
    fall back on, so each query fails naming the missing attribute."""

    class Bare(SubmodularOracle):
        n = 3

    for query in (lambda o: o.value({1}), lambda o: o.scratch({1})):
        with pytest.raises(AttributeError, match="evaluator"):
            query(Bare())
    assert SquaredSizeOracle(3).scratch({0, 2}).value == 4.0


def test_check_submodular_monotone_passes_on_models():
    inst = gen_wmcig(10, 2, 0.1, seed=1)
    report = check_submodular_monotone(inst.oracle(), trials=1000, rng_seed=1)
    assert report.ok
    assert check_submodular_monotone(ModularOracle((1, 2, 3)), 200, 0).ok


def test_check_submodular_monotone_flags_supermodular():
    report = check_submodular_monotone(SquaredSizeOracle(5), trials=200, rng_seed=3)
    assert not report.ok


def test_check_requires_positive_trials():
    with pytest.raises(ValueError):
        check_submodular_monotone(ModularOracle((1.0,)), trials=0)


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
    assert orc.scratch(S).gain(i) >= orc.scratch(T).gain(i) - 1e-9
    assert orc.scratch(T).gain(i) >= -1e-9
    # one-sided bound: z(T) <= z(S) + sum of gains of T-minus-S items over S
    lhs = orc.value(T)
    rhs = orc.value(S) + sum(orc.scratch(S).gain(j) for j in T - S)
    assert lhs <= rhs + 1e-9


def test_knapsack_validation():
    with pytest.raises(ValueError):
        KnapsackSystem(costs=((1.0, -1.0),), caps=(2.0,))
    with pytest.raises(ValueError):
        KnapsackSystem(costs=((1.0,),), caps=(1.0, 2.0))
    ks = KnapsackSystem.cardinality(3, 2)
    assert ks.fits({0, 1}) and not ks.fits({0, 1, 2})
    assert ks.cost_le(0, 1)


@pytest.mark.parametrize(
    "costs, caps, row",
    [(((1.0, 1.0), (1.0, float("nan"))), (2.0, 2.0), 1),
     (((1.0, float("inf")),), (2.0,), 0),
     (((1.0, 1.0),), (float("inf"),), 0),
     (((1.0, 1.0), (1.0, 1.0)), (2.0, float("nan")), 1),
     (((1.0, 1.0),), (-1.0,), 0)],
)
def test_knapsack_system_rejects_numbers_its_layers_disagree_on(costs, caps, row):
    """The follower greedy and the follower LP disagreed on these: given an
    infinite capacity or a NaN or infinite cost the greedy returned a set
    while the LP refused the row, and a NaN or negative capacity made even
    the empty seed set infeasible."""
    with pytest.raises(ValueError, match=f"row {row}: knapsack numbers"):
        KnapsackSystem(costs=costs, caps=caps)


def test_knapsack_system_rejects_ragged_cost_rows():
    with pytest.raises(ValueError, match="every cost row needs one entry per item"):
        KnapsackSystem(costs=((1.0, 1.0), (1.0,)), caps=(2.0, 2.0))


def test_knapsack_system_rejects_zero_rows():
    """With no rows there is no item count; such a system used to build and
    then fail with an IndexError inside the follower greedy."""
    with pytest.raises(ValueError, match="at least one constraint row"):
        KnapsackSystem(costs=(), caps=())


def test_fitting_matches_the_per_item_fit_test():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        knap = random_knapsack(rng, n)
        weights = [
            knap.weight(()),
            np.asarray(knap.caps, dtype=float),  # full: only zero-cost items fit
            knap.weight(range(n)),
        ]
        weights += [knap.weight(rng.choice(n, size=min(k, n), replace=False)) for k in (1, 2, 4)]
        for weight in weights:
            mask = knap.fitting(weight)
            assert mask.dtype == bool and mask.shape == (n,)
            assert mask.tolist() == [
                knap.fits_weight(weight + knap.item_cost(i)) for i in range(n)
            ]


def test_scratch_matches_value_after_churn(cover_example, bipartite_example):
    """However the members came and went, every gain equals a fresh
    evaluation's exactly, and so does a coverage value; a probabilistic value
    is a running sum whose last bits depend on the order of the updates.
    Items at p = 1.0 drive survivals to 0.0, which adding another item
    leaves at 0.0.  An evaluator built for a set holds exactly the value of
    that set, whatever churn came before."""
    certain = BiigInstance(
        probs=(1.0, 0.0, 0.5, 1.0, 0.25),
        targets=4,
        arcs=((0, 0), (0, 1), (1, 1), (2, 0), (2, 2), (3, 2), (3, 3), (4, 0), (4, 3)),
        B=2,
        k=1,
    )
    for inst in (cover_example, bipartite_example, certain):
        orc = inst.oracle()
        ev = orc.scratch()
        rng = np.random.default_rng(0)
        for _ in range(300):
            i = int(rng.integers(orc.n))
            if i in ev.members:
                ev.remove(i)
            else:
                ev.add(i)
            if inst is cover_example:
                assert ev.value == orc.value(ev.members)
            else:
                assert ev.value == pytest.approx(orc.value(ev.members), abs=1e-12)
            assert [ev.gain(t) for t in range(orc.n)] == [
                orc.scratch(ev.members).gain(t) for t in range(orc.n)
            ]
        assert orc.scratch(ev.members).value == orc.value(ev.members)
        assert orc.scratch().value == 0.0


def test_gains_match_gain_after_churn(bipartite_example):
    """After any add/remove churn, ``gains`` gives each item's ``gain``, in
    any order and with repeats, and 0.0 for members.  Coverage gains are
    integer-valued and match bit for bit; probabilistic ones are sums that
    BLAS may add in another order, so they match to 1e-12 relative."""
    coverage = [gen_wmcig(n, 2, 0.1, seed).oracle() for n, seed in ((10, 1), (25, 2), (40, 12))]
    probabilistic = [bipartite_example.oracle()]
    probabilistic += [gen_biig(n, 2, 3, 2, 0.3, seed).oracle() for n, seed in ((8, 3), (15, 4))]
    plain = [ModularOracle((2.0, 0.0, 7.5, 1.25)), SquaredSizeOracle(5)]
    rng = np.random.default_rng(4)
    for orc in coverage + probabilistic + plain:
        ev = orc.scratch()
        for _ in range(200):
            i = int(rng.integers(orc.n))
            if i in ev.members:
                ev.remove(i)
            else:
                ev.add(i)
            items = rng.integers(0, orc.n, int(rng.integers(0, 2 * orc.n)))
            got = ev.gains(items)
            want = [ev.gain(int(i)) for i in items]
            assert got.shape == (len(items),)
            if orc in probabilistic:
                assert all(abs(g - w) <= 1e-12 * max(1.0, abs(w)) for g, w in zip(got, want))
            else:
                assert got.tolist() == want
            assert all(g == 0.0 for g, i in zip(got, items) if i in ev.members)
