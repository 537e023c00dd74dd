import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from subig import follower, lp
from subig.bruteforce import brute_force_phi
from subig.core import KnapsackSystem
from subig.follower import CUTOFF_EXCEEDED, OPTIMAL
from subig.problems import gen_biig, gen_wmcig


def test_greedy_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    s, order = follower.greedy(worc, range(3), knapsacks=cover_example.knapsacks())
    assert s == {1, 2} and order == (2, 1)
    assert worc.value(s) == 24.0

    zero = KnapsackSystem.cardinality(3, 0)
    s, order = follower.greedy(worc, range(3), knapsacks=zero)
    assert s == frozenset() and order == ()

    borc = bipartite_example.oracle()
    s, order = follower.greedy(borc, range(3), knapsacks=bipartite_example.knapsacks())
    assert s == {1, 2} and order == (1, 2)
    assert borc.value(s) == pytest.approx(1.6, abs=1e-9)


def test_greedy_extends_the_seed(cover_example):
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    s, order = follower.greedy(worc, range(3), knap, (0,))
    assert order[0] == 0 and s >= {0}
    assert len(order) == len(s) == 2


def test_greedy_is_maximal(cover_example):
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    s, _ = follower.greedy(worc, range(3), knapsacks=knap)
    for i in set(range(3)) - s:
        assert not knap.fits(s | {i})


def test_greedy_rejects_infeasible_seed(cover_example):
    with pytest.raises(ValueError, match="violates a knapsack constraint"):
        follower.greedy(cover_example.oracle(), range(3), cover_example.knapsacks(), (0, 1, 2))


def test_greedy_rejects_a_seed_that_repeats_an_item(cover_example):
    """improved_sic would take a repeated item's coefficient from a prefix
    that already holds it."""
    with pytest.raises(ValueError, match="seed repeats an item"):
        follower.greedy(cover_example.oracle(), range(3), cover_example.knapsacks(), (0, 0))


@pytest.mark.parametrize(
    "ground, seed", [([-1, 3], ()), ([12], ()), ([3], (-1,)), ([3], (12,)), ([0, 13, 2], ())]
)
def test_greedy_rejects_ids_outside_the_ground_set(ground, seed):
    """-1 used to wrap around to the last item in the fit mask and the
    evaluator, so [-1, 3] returned frozenset({-1}); 12 raised IndexError."""
    inst = gen_wmcig(12, 2, 0.1, 3)
    with pytest.raises(ValueError, match="outside ground set"):
        follower.greedy(inst.oracle(), ground, inst.knapsacks(), seed)


@pytest.mark.parametrize("items", [5, 12])
def test_follower_rejects_a_knapsack_system_of_another_size(items):
    """Too few items used to raise an IndexError mid-scan, and too many
    were accepted silently."""
    oracle = gen_wmcig(10, 2, 0.1, 3).oracle()
    knap = KnapsackSystem.cardinality(items, 2)
    with pytest.raises(ValueError, match=f"knapsack system has {items} items, the oracle 10"):
        follower.greedy(oracle, range(10), knap)
    for available in (range(10), []):
        with pytest.raises(ValueError, match=f"knapsack system has {items} items"):
            follower.solve_sep(oracle, available, knap)


def test_solve_sep_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    res = follower.solve_sep(worc, [0, 1, 2], knap)
    assert res.status == OPTIMAL and res.value == 24.0 and res.items == {1, 2}

    res = follower.solve_sep(worc, [], knap)
    assert res.status == OPTIMAL and res.value == 0.0 and res.items == frozenset()

    borc = bipartite_example.oracle()
    res = follower.solve_sep(borc, [0, 2], bipartite_example.knapsacks())
    assert res.value == pytest.approx(0.98, abs=1e-9)


def test_solve_sep_cutoff_mode(cover_example):
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    res = follower.solve_sep(worc, [0, 1, 2], knap, cutoff=10.0)
    assert res.status == CUTOFF_EXCEEDED
    assert res.value > 10.0 + 1e-6
    # cutoff at or above the optimum: only a value above it returns early
    for cutoff in (24.0, 30.0):
        res = follower.solve_sep(worc, [0, 1, 2], knap, cutoff=cutoff)
        assert res.status == OPTIMAL and res.value == 24.0


def test_solve_sep_times_out(cover_example):
    """A deadline already past, or a negative budget, stops the first LP."""
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    with pytest.raises(lp.DeadlineExceeded):
        follower.solve_sep(worc, [0, 1, 2], knap, deadline=time.monotonic() - 1.0)
    with pytest.raises(lp.DeadlineExceeded):
        follower.phi(worc, [0, 0, 0], knap, time_budget=-1.0)


def test_nan_budget_or_deadline_is_rejected(cover_example):
    """A NaN deadline would never pass, so the follower would run unlimited."""
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    with pytest.raises(ValueError, match="NaN"):
        follower.phi(worc, [0, 0, 0], knap, time_budget=math.nan)
    with pytest.raises(ValueError, match="NaN"):
        follower.solve_sep(worc, [0, 1, 2], knap, deadline=math.nan)


def test_phi_examples(cover_example, bipartite_example):
    borc = bipartite_example.oracle()
    assert follower.phi(borc, [0, 1, 0], bipartite_example.knapsacks()) == pytest.approx(
        0.98, abs=1e-9
    )
    worc = cover_example.oracle()
    assert follower.phi(worc, [1, 1, 1], cover_example.knapsacks()) == 0.0
    assert follower.phi(worc, [0, 0, 1], cover_example.knapsacks()) == 20.0
    with pytest.raises(ValueError):
        follower.phi(worc, [0.5, 0, 0], cover_example.knapsacks())
    with pytest.raises(ValueError, match="interdiction vector has 5 entries, the oracle 3 items"):
        follower.phi(worc, [0, 0, 0, 1, 0.5], cover_example.knapsacks())
    with pytest.raises(ValueError, match="interdiction vector has 2 entries, the oracle 3 items"):
        follower.phi(worc, [0, 0], cover_example.knapsacks())


def _sep_corpus():
    """(oracle, available items, knapsacks, tolerance against brute force)
    for 30 random WMCIG and BIIG followers."""
    rng = np.random.default_rng(3)
    for trial in range(30):
        if trial % 2 == 0:
            inst = gen_wmcig(int(rng.integers(6, 10)), 2, 0.2, int(rng.integers(10_000)))
            tol = 0.0
        else:
            inst = gen_biig(
                int(rng.integers(6, 10)), 2, int(rng.integers(2, 4)), 2,
                0.25, int(rng.integers(10_000)),
            )
            tol = 1e-9
        orc = inst.oracle()
        knap = inst.knapsacks()
        mask = [i for i in range(orc.n) if rng.random() < 0.8]
        yield orc, mask, knap, tol


def _two_row_case():
    """A BIIG follower under two knapsack rows of quarter-unit costs."""
    rng = np.random.default_rng(11)
    orc = gen_biig(9, 2, 3, 2, 0.25, 501).oracle()
    costs = tuple(tuple(float(c) / 4 for c in rng.integers(1, 20, orc.n)) for _ in range(2))
    knap = KnapsackSystem(costs=costs, caps=tuple(0.35 * sum(row) for row in costs))
    return orc, list(range(orc.n)), knap


def test_sep_matches_brute_force_on_random_instances():
    for orc, mask, knap, tol in _sep_corpus():
        res = follower.solve_sep(orc, mask, knap)
        ref = brute_force_phi(orc, mask, knap)
        assert res.status == OPTIMAL
        assert abs(res.value - ref) <= tol


def test_warm_started_lps_give_the_cold_value(monkeypatch):
    """Each LP after a call's first starts from the last basis of its node
    or of its parent; every value must equal that of a run whose LPs all
    start cold, and brute force."""
    cases = [*_sep_corpus(), (*_two_row_case(), 1e-9)]
    warm = [follower.solve_sep(orc, mask, knap).value for orc, mask, knap, _ in cases]
    solve_lp = follower.solve_lp
    bases = []

    def cold_solve_lp(model, fixed, basis, deadline):
        bases.append(basis)
        return solve_lp(model, fixed, None, deadline)

    monkeypatch.setattr(follower, "solve_lp", cold_solve_lp)
    for (orc, mask, knap, tol), value in zip(cases, warm):
        res = follower.solve_sep(orc, mask, knap)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(value, abs=1e-9)
        assert abs(res.value - brute_force_phi(orc, mask, knap)) <= tol
    assert any(b is not None for b in bases)  # the follower hands bases on


def test_warm_start_takes_fewer_factorizations(monkeypatch):
    orc, avail, knap = _two_row_case()
    lu_factor = lp.lu_factor
    calls = [0]

    def counted_lu_factor(B):
        calls[0] += 1
        return lu_factor(B)

    monkeypatch.setattr(lp, "lu_factor", counted_lu_factor)
    warm = follower.solve_sep(orc, avail, knap)
    warm_calls, calls[0] = calls[0], 0
    solve_lp = follower.solve_lp
    monkeypatch.setattr(
        follower, "solve_lp",
        lambda model, fixed, basis, deadline: solve_lp(model, fixed, None, deadline),
    )
    cold = follower.solve_sep(orc, avail, knap)
    assert warm.value == pytest.approx(cold.value, abs=1e-9)
    assert 0 < warm_calls < calls[0]


def test_follower_lps_pivot_little_from_their_warm_starts(monkeypatch):
    """On the follower-query benchmark's instance, under five seeded
    interdictions of B items, the follower LPs take 4.3 pivots each, against
    97 when every LP starts from the slack basis."""
    inst = gen_wmcig(40, 2, 0.1, 12)
    orc, knap = inst.oracle(), inst.knapsacks()
    rng = np.random.default_rng(0)
    solve_lp, pivots = follower.solve_lp, []

    def counted_solve_lp(model, fixed, basis, deadline):
        res = solve_lp(model, fixed, basis, deadline)
        pivots.append(res.iterations)
        return res

    monkeypatch.setattr(follower, "solve_lp", counted_solve_lp)
    for _ in range(5):
        removed = rng.choice(orc.n, inst.B, replace=False)
        follower.phi(orc, np.isin(np.arange(orc.n), removed).astype(float), knap)
    assert sum(pivots) < 10 * len(pivots)


def test_time_budget_is_checked_before_every_lp(monkeypatch):
    """Each LP here takes 10 s of a fake clock.  The root of this instance
    takes two cut rounds, and once the first LP has passed the deadline at
    5 s the second raises at its first pivot, before it factorizes."""
    inst = gen_wmcig(20, 2, 0.2, 1)
    orc, knap = inst.oracle(), inst.knapsacks()
    now = [0.0]
    fixings = []
    factorizations = []
    solve_lp = follower.solve_lp
    lu_factor = lp.lu_factor

    def slow_solve_lp(model, fixed, basis, deadline):
        res = solve_lp(model, fixed, basis, deadline)
        fixings.append((dict(fixed), len(factorizations)))
        now[0] += 10.0
        return res

    def counting_lu_factor(B):
        factorizations.append(B.shape[0])
        return lu_factor(B)

    monkeypatch.setattr(follower, "solve_lp", slow_solve_lp)
    monkeypatch.setattr(lp, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(lp, "lu_factor", counting_lu_factor)
    assert follower.solve_sep(orc, range(orc.n), knap).status == OPTIMAL
    assert [f for f, _ in fixings[:2]] == [{}, {}]  # two LPs at the root
    fixings.clear()
    factorizations.clear()
    now[0] = 0.0
    with pytest.raises(lp.DeadlineExceeded):
        follower.solve_sep(orc, range(orc.n), knap, deadline=5.0)
    assert fixings == [({}, len(factorizations))]  # the second LP factorized nothing


def test_phi_raises_once_its_lp_outlives_the_budget(monkeypatch):
    """A fake clock moves 1 s at each read.  Unlimited, this query's LPs
    read it more than 5 times; under a 5 s budget the LP that reaches the
    deadline raises at that read, not later."""
    inst = gen_wmcig(20, 2, 0.2, 1)
    orc, knap = inst.oracle(), inst.knapsacks()
    x = [0.0] * orc.n
    now = [0.0]

    def tick():
        now[0] += 1.0
        return now[0]

    monkeypatch.setattr(lp, "time", SimpleNamespace(monotonic=tick))
    monkeypatch.setattr(follower, "time", SimpleNamespace(monotonic=tick))
    value = follower.phi(orc, x, knap)
    assert now[0] > 5.0
    now[0] = 0.0
    with pytest.raises(lp.DeadlineExceeded):
        follower.phi(orc, x, knap, time_budget=5.0)
    assert now[0] == 6.0  # the budget's start at 1 s, then five LP reads
    assert follower.phi(orc, x, knap, time_budget=math.inf) == value


def test_integer_point_the_rows_cannot_cut_is_branched_on(monkeypatch):
    """With no bounding rows, every integer LP point overrates z(S).  The
    node records z(S) and branches; closing it on z(S) returned 11.08477
    here, against the optimum 11.18166."""
    inst = gen_biig(10, 2, 3, 2, 0.3, 2)
    orc, knap = inst.oracle(), inst.knapsacks()
    avail = [0, 1, 2, 4, 5, 6, 7, 9]
    monkeypatch.setattr(follower, "bounding_rows", lambda *args: [])
    res = follower.solve_sep(orc, avail, knap)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(brute_force_phi(orc, avail, knap), abs=1e-9)
    assert res.value == orc.value(res.items) and knap.fits(res.items)


def test_bounding_rows_hold_for_every_feasible_set():
    inst = gen_biig(6, 2, 3, 2, 0.3, 17)
    orc = inst.oracle()
    knap = inst.knapsacks()
    avail = [0, 1, 2, 4, 5]
    anchor_sets = [set(), {0}, {1, 2}, {0, 4, 5}, set(avail)]
    for s_hat in anchor_sets:
        rows = follower.bounding_rows(orc, avail, s_hat)
        for size in range(0, 4):
            for combo in itertools.combinations(avail, size):
                if not knap.fits(combo):
                    continue
                z = orc.value(combo)
                y = {i: 1.0 if i in combo else 0.0 for i in avail}
                for coefs, rhs in rows:
                    assert z <= rhs + sum(c * y[i] for i, c in coefs.items()) + 1e-9


def test_greedy_value_within_classical_band():
    """Single cardinality constraint: greedy is at least (1 - 1/e) of optimal."""
    for seed in range(8):
        inst = gen_wmcig(9, 2, 0.2, seed + 40)
        orc = inst.oracle()
        knap = inst.knapsacks()
        s, _ = follower.greedy(orc, range(orc.n), knapsacks=knap)
        opt = brute_force_phi(orc, range(orc.n), knap)
        val = orc.value(s)
        assert val <= opt + 1e-9
        assert val >= (1.0 - 1.0 / np.e) * opt - 1e-9


def test_two_row_knapsack_with_non_unit_costs():
    rng = np.random.default_rng(11)
    for trial in range(8):
        if trial % 2 == 0:
            orc = gen_wmcig(9, 2, 0.2, 500 + trial).oracle()
        else:
            orc = gen_biig(9, 2, 3, 2, 0.25, 500 + trial).oracle()
        n = orc.n
        costs = tuple(tuple(float(c) / 4 for c in rng.integers(1, 20, n)) for _ in range(2))
        caps = tuple(0.35 * sum(row) for row in costs)
        knap = KnapsackSystem(costs=costs, caps=caps)

        items = rng.choice(n, size=4, replace=False).tolist()
        hand = [sum(row[i] for i in items) for row in costs]
        assert knap.weight(items).tolist() == pytest.approx(hand, abs=1e-12)
        assert knap.fits(items) == all(h <= c + 1e-9 for h, c in zip(hand, caps))
        for i, j in itertools.product(range(n), repeat=2):
            assert knap.cost_le(i, j) == all(row[i] <= row[j] for row in costs)

        avail = [i for i in range(n) if rng.random() < 0.8]
        res = follower.solve_sep(orc, avail, knap)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(brute_force_phi(orc, avail, knap), abs=1e-9)
        assert knap.fits(res.items)
        s, _ = follower.greedy(orc, avail, knapsacks=knap)
        assert knap.fits(s)
    assert not knap.item_cost(0).flags.writeable
