import itertools

import numpy as np
import pytest

from subig import follower
from subig.bruteforce import brute_force_phi
from subig.core import KnapsackSystem
from subig.follower import CUTOFF_EXCEEDED, OPTIMAL, TIMED_OUT
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


def test_greedy_extends_seed_order(cover_example):
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    s, order = follower.greedy(worc, range(3), knap, {0}, (0,))
    assert order[0] == 0 and s >= {0}
    assert len(order) == len(s) == 2


def test_greedy_is_maximal(cover_example):
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    s, _ = follower.greedy(worc, range(3), knapsacks=knap)
    for i in set(range(3)) - s:
        assert not knap.fits(s | {i})


def test_greedy_rejects_infeasible_seed(cover_example):
    with pytest.raises(ValueError):
        follower.greedy(
            cover_example.oracle(), range(3), cover_example.knapsacks(), {0, 1, 2}, (0, 1, 2)
        )


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
    # cutoff above the optimum: runs to completion
    res = follower.solve_sep(worc, [0, 1, 2], knap, cutoff=30.0)
    assert res.status == OPTIMAL and res.value == 24.0


def test_solve_sep_times_out(cover_example):
    worc = cover_example.oracle()
    res = follower.solve_sep(worc, [0, 1, 2], cover_example.knapsacks(), time_budget=-1.0)
    assert res.status == TIMED_OUT
    assert res.bound >= res.value


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


def test_sep_matches_brute_force_on_random_instances():
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
        res = follower.solve_sep(orc, mask, knap)
        ref = brute_force_phi(orc, mask, knap)
        assert res.status == OPTIMAL
        assert abs(res.value - ref) <= tol


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
