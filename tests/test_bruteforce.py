import dataclasses

import pytest

from subig import bruteforce
from subig.problems import gen_wmcig

from conftest import value_table


def test_phi_examples(cover_example, bipartite_example):
    borc = bipartite_example.oracle()
    got = bruteforce.brute_force_phi(borc, [0, 2], bipartite_example.knapsacks())
    assert got == pytest.approx(0.98, abs=1e-12)
    worc = cover_example.oracle()
    assert bruteforce.brute_force_phi(worc, [], cover_example.knapsacks()) == 0.0
    assert bruteforce.brute_force_phi(worc, [0, 1, 2], cover_example.knapsacks()) == 24.0


def test_phi_guard():
    inst = gen_wmcig(30, 2, 0.1, 0)
    with pytest.raises(ValueError):
        bruteforce.brute_force_phi(inst.oracle(), range(30), inst.knapsacks())


def test_solve_examples(cover_example, bipartite_example):
    res = bruteforce.brute_force_solve(cover_example, cover_example.oracle())
    assert res.value == 15.0 and res.x == (0, 1, 0)
    res = bruteforce.brute_force_solve(bipartite_example, bipartite_example.oracle())
    assert res.value == pytest.approx(0.98, abs=1e-12)
    assert res.x == (0, 1, 0)
    k0 = dataclasses.replace(cover_example, k=0)
    res = bruteforce.brute_force_solve(k0, k0.oracle())
    assert res.value == 24.0 and res.x == (0, 0, 0)


def test_solve_guard():
    inst = gen_wmcig(21, 2, 0.1, 0)
    with pytest.raises(ValueError):
        bruteforce.brute_force_solve(inst, inst.oracle())


def test_value_table(cover_example):
    res = bruteforce.brute_force_solve(cover_example, cover_example.oracle())
    table = value_table(cover_example, cover_example.oracle())
    assert table[(0, 0, 0)] == 24.0
    assert table[(0, 1, 0)] == 15.0
    assert min(table.values()) == res.value
    assert len(table) == 4  # empty set plus three singles at k = 1


def test_phi_monotone_in_availability(cover_example):
    orc = cover_example.oracle()
    knap = cover_example.knapsacks()
    full = bruteforce.brute_force_phi(orc, range(3), knap)
    for sub in ([], [0], [0, 2], [1, 2]):
        assert bruteforce.brute_force_phi(orc, sub, knap) <= full + 1e-12


def test_leader_value_monotone_in_budget():
    inst = gen_wmcig(8, 2, 0.2, seed=9)
    prev = None
    for k in range(0, 4):
        variant = dataclasses.replace(inst, k=k)
        val = bruteforce.brute_force_solve(variant, variant.oracle()).value
        if prev is not None:
            assert val <= prev + 1e-12
        prev = val
