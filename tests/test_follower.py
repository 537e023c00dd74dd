import itertools
import math
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from subig import follower, lp
from subig.bruteforce import brute_force_phi
from subig.core import KnapsackSystem
from subig.follower import CUTOFF_EXCEEDED, OPTIMAL
from subig.problems import gen_biig, gen_wmcig

from conftest import random_knapsack


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
    for 30 random WMCIG and BIIG followers under their own budgets, then 40
    under 1-3 row knapsacks of quarter-unit costs, zeros included, so that
    an item may cost nothing in some row and count in full in its bound."""
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
    rng = np.random.default_rng(23)
    for trial in range(40):
        if trial % 2 == 0:
            orc = gen_wmcig(int(rng.integers(6, 11)), 2, 0.2, int(rng.integers(10_000))).oracle()
            tol = 0.0
        else:
            orc = gen_biig(int(rng.integers(6, 11)), 2, 3, 2, 0.25, int(rng.integers(10_000))).oracle()
            tol = 1e-9
        knap = random_knapsack(rng, orc.n)
        yield orc, [i for i in range(orc.n) if rng.random() < 0.8], knap, tol


def test_sep_matches_brute_force_on_random_instances():
    for orc, mask, knap, tol in _sep_corpus():
        res = follower.solve_sep(orc, mask, knap)
        ref = brute_force_phi(orc, mask, knap)
        assert res.status == OPTIMAL
        assert abs(res.value - ref) <= tol
        assert res.value == orc.value(res.items) and knap.fits(res.items)
        assert res.items <= set(mask)


def test_node_bound_is_never_below_the_best_extension(monkeypatch):
    """At every node the search bounds, no set of its open items that fits
    with its chosen set has a larger value than the bound."""
    bound = follower._bound
    nodes = []

    def recorded_bound(ev, open_items, gains, knapsacks, weight):
        value = bound(ev, open_items, gains, knapsacks, weight)
        nodes.append((frozenset(ev.members), open_items.tolist(), value))
        return value

    monkeypatch.setattr(follower, "_bound", recorded_bound)
    rng = np.random.default_rng(5)
    checked = 0
    for trial in range(12):
        if trial % 2 == 0:
            orc = gen_wmcig(8, 2, 0.25, 300 + trial).oracle()
        else:
            orc = gen_biig(8, 2, 3, 2, 0.3, 300 + trial).oracle()
        knap = random_knapsack(rng, orc.n)
        nodes.clear()
        follower.solve_sep(orc, range(orc.n), knap)
        for chosen, open_items, value in nodes:
            best = max(
                orc.value(chosen.union(extra))
                for size in range(len(open_items) + 1)
                for extra in itertools.combinations(open_items, size)
                if knap.fits(chosen.union(extra))
            )
            assert best <= value + 1e-9
        checked += len(nodes)
    assert checked > 50


def test_node_bound_is_the_fractional_knapsack_value():
    """The bound is z(S) plus the least, over the rows, of a fractional
    knapsack over the open items' gains, items that cost nothing in a row
    counting in full there; zero costs and zero gains raise no float warning."""
    rng = np.random.default_rng(11)
    orc = gen_wmcig(12, 2, 0.2, 3).oracle()
    for _ in range(300):
        knap = random_knapsack(rng, orc.n)
        ev = orc.scratch(rng.choice(orc.n, int(rng.integers(0, 3)), replace=False).tolist())
        weight = knap.weight(ev.members)
        open_items = np.flatnonzero(knap.fitting(weight) & (rng.random(orc.n) < 0.7))
        gains = rng.integers(0, 4, open_items.size) * rng.random(open_items.size)
        expected = math.inf
        for costs, room in zip(knap.matrix[:, open_items], knap.limits - weight):
            total = 0.0
            for k in sorted(range(open_items.size), key=lambda k: (
                    -math.inf if costs[k] == 0.0 else -gains[k] / costs[k], k)):
                share = 1.0 if costs[k] == 0.0 else min(1.0, max(0.0, room / costs[k]))
                total += share * gains[k]
                room -= costs[k]
            expected = min(expected, total)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = follower._bound(ev, open_items, gains, knap, weight)
        assert bound == pytest.approx(ev.value + expected, rel=1e-12, abs=1e-12)


def test_search_value_is_the_value_of_its_set():
    """The search moves one evaluator from node to node, so its running
    probabilistic value picks up rounding along the way; the value it
    returns is still exactly the oracle's value of the returned set."""
    rng = np.random.default_rng(1)
    for seed in range(60):
        orc = gen_biig(10, 2, 3, 2, 0.3, seed).oracle()
        knap = random_knapsack(rng, orc.n)
        res = follower.solve_sep(orc, [i for i in range(orc.n) if rng.random() < 0.8], knap)
        assert res.value == orc.value(res.items)


def test_time_budget_is_checked_before_every_lp(monkeypatch):
    """The search builds one evaluator, then reads the clock once per node,
    before it moves that evaluator to the node.  Each read here moves a fake
    clock 10 s, so under a deadline at 25 s the fourth node's read, at 30 s,
    raises before that node does anything."""
    inst = gen_wmcig(20, 2, 0.2, 1)
    orc, knap = inst.oracle(), inst.knapsacks()
    now, events = [0.0], []

    def clock():
        events.append("read")
        now[0] += 10.0
        return now[0] - 10.0

    scratch = orc.scratch

    def logged(name, method):
        def call(*args):
            events.append(name)
            return method(*args)

        return call

    def logged_scratch(items=()):
        events.append("scratch")
        ev = scratch(items)
        for name in ("add", "remove", "gains"):
            setattr(ev, name, logged(name, getattr(ev, name)))
        return ev

    monkeypatch.setattr(lp, "time", SimpleNamespace(monotonic=clock))
    monkeypatch.setattr(orc, "scratch", logged_scratch)
    assert follower.solve_sep(orc, range(orc.n), knap).status == OPTIMAL
    start = events.index("read")
    setup, search = events[:start], events[start:]
    nodes = search.count("read")
    # the greedy start, its value and the search's evaluator; then, per
    # node, one read and that evaluator's moves and gains (the greedy set is
    # optimal here, so no node builds an evaluator for a new incumbent)
    assert setup.count("scratch") == 3 and "scratch" not in search and nodes > 4
    assert {"add", "remove", "gains"} <= set(search)
    fourth = [k for k, e in enumerate(search) if e == "read"][3]
    events.clear()
    now[0] = 0.0
    with pytest.raises(lp.DeadlineExceeded):
        follower.solve_sep(orc, range(orc.n), knap, deadline=25.0)
    assert events == setup + search[: fourth + 1]


def test_phi_raises_once_its_lp_outlives_the_budget(monkeypatch):
    """A fake clock moves 1 s at each read.  Unlimited, this query's search
    reads it at each of its 5 nodes; under a 3 s budget the node that
    reaches the deadline raises at its read, and no later node reads."""
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
    assert now[0] == 5.0
    now[0] = 0.0
    with pytest.raises(lp.DeadlineExceeded):
        follower.phi(orc, x, knap, time_budget=3.0)
    assert now[0] == 4.0  # the budget's start at 1 s, then three node reads
    assert follower.phi(orc, x, knap, time_budget=math.inf) == value


def test_cutoff_returns_at_the_first_value_above_it(monkeypatch):
    """A cutoff below the greedy value returns the greedy set before any
    node; one between the greedy value (469) and the optimum (482) returns
    at the first node above it, before the search ends."""
    inst = gen_wmcig(20, 2, 0.2, 25)
    orc, knap = inst.oracle(), inst.knapsacks()
    reads = []
    monkeypatch.setattr(lp, "time", SimpleNamespace(monotonic=lambda: reads.append(None) or 0.0))
    start, _ = follower.greedy(orc, range(orc.n), knap)
    res = follower.solve_sep(orc, range(orc.n), knap, cutoff=orc.value(start) - 1.0)
    assert res.status == CUTOFF_EXCEEDED and res.items == start and reads == []
    assert follower.solve_sep(orc, range(orc.n), knap).value == 482.0
    nodes = len(reads)
    reads.clear()
    res = follower.solve_sep(orc, range(orc.n), knap, cutoff=470.0)
    assert res.status == CUTOFF_EXCEEDED and res.value > 470.0
    assert res.value == orc.value(res.items) and knap.fits(res.items)
    assert 0 < len(reads) < nodes


def test_follower_search_takes_few_nodes(monkeypatch):
    """On the follower-query benchmark's instance, under five seeded
    interdictions of B items, the search takes 29, 15, 25, 15 and 29 nodes.
    Counted as reads of a fake clock, one per node.  With the knapsack term
    dropped from the bound (every open item's gain counted in full), the
    same queries took 177,265 nodes in all."""
    inst = gen_wmcig(40, 2, 0.1, 12)
    orc, knap = inst.oracle(), inst.knapsacks()
    rng = np.random.default_rng(0)
    reads = []
    monkeypatch.setattr(lp, "time", SimpleNamespace(monotonic=lambda: reads.append(None) or 0.0))
    for _ in range(5):
        removed = rng.choice(orc.n, inst.B, replace=False)
        follower.phi(orc, np.isin(np.arange(orc.n), removed).astype(float), knap)
    assert len(reads) == 29 + 15 + 25 + 15 + 29


def test_query_that_broke_the_follower_lp_ends(monkeypatch):
    """The follower's LP branch-and-cut raised SolverError ("singular basis
    matrix") on this query at the 41,350th read of a clock.  Under a budget
    of 42,000 reads of a fake clock, the search ends with a value or at its
    deadline."""
    inst = gen_wmcig(100, 2, 0.1, 1)
    orc, knap = inst.oracle(), inst.knapsacks()
    x = np.zeros(orc.n)
    x[[5, 33, 38, 49, 51, 53, 61, 62, 65, 97]] = 1.0
    reads = []

    def tick():
        reads.append(None)
        return float(len(reads))

    monkeypatch.setattr(lp, "time", SimpleNamespace(monotonic=tick))
    monkeypatch.setattr(follower, "time", SimpleNamespace(monotonic=lambda: 0.0))
    start, _ = follower.greedy(orc, np.flatnonzero(x == 0.0), knap)
    try:
        value = follower.phi(orc, x, knap, time_budget=42_000.0)
    except lp.DeadlineExceeded:
        assert len(reads) == 42_000
    else:
        assert value >= orc.value(start)


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
