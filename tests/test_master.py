import dataclasses

import numpy as np
import pytest

from subig import bruteforce, follower, master
from subig.cuts import DominatingLists
from subig.master import SolverConfig
from subig.problems import WmcigInstance, gen_biig, gen_wmcig


def cfg(setting, **kw):
    return SolverConfig.from_setting(setting, **kw)


def test_solve_cover_example(cover_example):
    res = master.solve(cover_example, cover_example.oracle(), cfg("I-S1"))
    assert res.status == "optimal"
    assert res.value == 15.0
    assert res.lower_bound == 15.0
    assert res.best_x == (0, 1, 0)
    assert res.gap == 0.0


def test_solve_with_zero_budget(cover_example):
    inst = dataclasses.replace(cover_example, k=0)
    res = master.solve(inst, inst.oracle(), cfg("B-S1"))
    assert res.value == 24.0 and res.best_x == (0, 0, 0)


def test_solve_bipartite_example(bipartite_example):
    res = master.solve(bipartite_example, bipartite_example.oracle(), cfg("ILDAE-S2"))
    assert res.value == pytest.approx(0.98, abs=1e-9)
    assert res.best_x == (0, 1, 0)


def test_separate_integer_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    built, phi_val = master.separate_integer(
        worc, cover_example.knapsacks(), cfg("I-S1"), 0.0, [0, 1, 0], DominatingLists.empty(), {}
    )
    assert len(built) == 1
    assert built[0].c0 == 15.0
    assert built[0].source_set == {0, 2}
    assert phi_val == 15.0  # exact path solves the follower to optimality

    built, phi_val = master.separate_integer(
        worc, cover_example.knapsacks(), cfg("I-S1"), 15.0, [0, 1, 0], DominatingLists.empty(), {}
    )
    assert built == [] and phi_val == 15.0

    borc = bipartite_example.oracle()
    built, _ = master.separate_integer(
        borc, bipartite_example.knapsacks(), cfg("I-S1"), 1.0, [0, 0, 0], DominatingLists.empty(), {}
    )
    assert len(built) == 1
    assert built[0].c0 == pytest.approx(1.6, abs=1e-9)
    assert built[0].source_set == {1, 2}


def test_separate_integer_enhanced_uses_greedy(cover_example):
    worc = cover_example.oracle()
    built, phi_val = master.separate_integer(
        worc, cover_example.knapsacks(), cfg("IE-S1"), 10.0, [0, 1, 0], DominatingLists.empty(), {}
    )
    assert len(built) == 1 and built[0].c0 == 15.0
    assert phi_val is None  # greedy shortcut skips the exact solve


def test_separate_integer_enhanced_paths(cover_example, bipartite_example):
    """The E paths beyond the greedy shortcut of the test above."""
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    none = DominatingLists.empty()
    # no violated cut at w* = phi: the cutoff solve runs to optimality
    phi_val = follower.phi(worc, [0, 1, 0], knap)
    built, got = master.separate_integer(worc, knap, cfg("IE-S1"), phi_val, [0, 1, 0], none, {})
    assert built == [] and got == phi_val

    # the BIIG example: greedy over {0, 2} already beats w* = 0.5
    borc = bipartite_example.oracle()
    built, _ = master.separate_integer(
        borc, bipartite_example.knapsacks(), cfg("IE-S1"), 0.5, [0, 1, 0], none, {}
    )
    assert borc.value(built[0].source_set) == pytest.approx(0.98, abs=1e-9)

    # greedy stops at 8 < w* = 9 < phi = 10: the cutoff solve finds the cut
    trap = WmcigInstance(
        profits=(2, 3, 3, 2),
        cover=(frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2})),
        B=2,
        k=1,
    )
    torc = trap.oracle()
    greedy_set, _ = follower.greedy(torc, range(3), knapsacks=trap.knapsacks())
    assert torc.value(greedy_set) == 8.0
    built, _ = master.separate_integer(
        torc, trap.knapsacks(), cfg("IE-S1"), 9.0, [0, 0, 0], none, {}
    )
    assert built[0].source_set == {0, 1} and built[0].c0 == 10.0


def test_fractional_candidate_s1(cover_example):
    worc = cover_example.oracle()
    s, order = master.fractional_candidate(
        worc, [0.5, 0.0, 0.0], "S1", "improved",
        cover_example.knapsacks(), cover_example.leader_rows(),
    )
    assert s == {1, 2} and order == (2, 1)


def test_fractional_candidate_s2(cover_example):
    worc = cover_example.oracle()
    s, order = master.fractional_candidate(
        worc, [0.6, 0.4, 0.0], "S2", "improved",
        cover_example.knapsacks(), cover_example.leader_rows(),
    )
    assert s == {1, 2} and order == (2, 1)


def test_fractional_candidate_s3_all_zero_matches_greedy(cover_example):
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    s3 = master.fractional_candidate(worc, [0.0] * 3, "S3", "improved", knap, [])
    assert s3 == follower.greedy(worc, range(3), knapsacks=knap)


def test_fractional_candidate_s3_basic_stops_on_negative_score(cover_example):
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    # every site fully interdicted in the relaxation: scores rho_i(S) - rho_i(0)
    # start at zero for the first pick, then go negative
    s, order = master.fractional_candidate(worc, [1.0, 1.0, 1.0], "S3", "basic", knap, [])
    assert len(s) <= 2


def test_separate_fractional_examples(cover_example):
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    rows = cover_example.leader_rows()
    dom = cover_example.dominating_lists()
    got = master.separate_fractional(
        worc, knap, rows, cfg("I-S1"), dom, 0.0, [0.5, 0.5, 0.5]
    )
    assert len(got) == 1
    cut = got[0]
    assert cut.c0 == 24.0 and cut.g == {2: -15.0, 1: -9.0}
    assert cut.rhs([0.5, 0.5, 0.5]) == pytest.approx(12.0)

    # no violation once w* already matches the candidate bound
    got = master.separate_fractional(
        worc, knap, rows, cfg("I-S1"), dom, 24.0, [0.5, 0.5, 0.5]
    )
    assert got == []


def test_dominance_preprocess_directions(bipartite_example):
    pairs = master.dominance_preprocess(bipartite_example, bipartite_example.oracle())
    assert (2, 0) in pairs  # item 2 superior to item 0: x_2 >= x_0
    assert all(i != j for i, j in pairs)

    nested = WmcigInstance(
        profits=(3, 4), cover=(frozenset({0}), frozenset({0, 1})), B=1, k=1
    )
    assert master.dominance_preprocess(nested, nested.oracle()) == [(1, 0)]

    disjoint = WmcigInstance(
        profits=(3, 4), cover=(frozenset({0}), frozenset({1})), B=1, k=1
    )
    assert master.dominance_preprocess(disjoint, disjoint.oracle()) == []


def test_dominance_preprocess_keeps_one_direction():
    twins = WmcigInstance(
        profits=(3,), cover=(frozenset({0}), frozenset({0})), B=1, k=1
    )
    pairs = master.dominance_preprocess(twins, twins.oracle())
    assert pairs == [(0, 1)]  # both directions hold; min-id >= max-id kept


def test_gap_formula():
    assert master.gap(24.0, 24.0) == 0.0
    assert master.gap(100.0, 97.0) == pytest.approx(100 * 3 / 100.1)
    assert master.gap(0.0, 0.0) == 0.0
    assert master.gap(None, 0.0) == 100.0


def test_config_setting_roundtrip():
    for s in ("B-S1", "I-S2", "ILDAE-S3", "BDA-S1", "ILE-S2"):
        assert SolverConfig.from_setting(s).setting() == s
    with pytest.raises(ValueError):
        SolverConfig.from_setting("XQ-S9")
    with pytest.raises(ValueError):
        SolverConfig.from_setting("LID-S1")


def test_bounds_monotone_over_run():
    inst = gen_wmcig(10, 2, 0.2, 21)
    inst = dataclasses.replace(inst, B=3, k=2)
    res = master.solve(inst, inst.oracle(), cfg("I-S1"))
    lbs = [e["lb"] for e in res.events]
    incs = [e["incumbent"] for e in res.events if e["incumbent"] is not None]
    assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(lbs, lbs[1:]))
    assert all(v2 <= v1 + 1e-9 for v1, v2 in zip(incs, incs[1:]))
    assert res.lower_bound <= res.value + 1e-6


def test_setting_consistency_small():
    inst = gen_biig(7, 2, 2, 2, 0.25, 13)
    orc = inst.oracle()
    values = set()
    for s in ("B-S1", "I-S1", "IL-S2", "ILD-S2", "ILDA-S3", "ILDAE-S3", "BE-S2", "BLDAE-S1"):
        res = master.solve(inst, orc, cfg(s))
        values.add(round(res.value, 9))
    assert len(values) == 1


def test_dominance_safety_small():
    inst = gen_wmcig(9, 2, 0.2, 33)
    orc = inst.oracle()
    with_d = master.solve(inst, orc, cfg("ID-S1")).value
    without = master.solve(inst, orc, cfg("I-S1")).value
    assert with_d == without


def test_node_limit_status():
    inst = gen_wmcig(12, 2, 0.2, 8)
    inst = dataclasses.replace(inst, B=3, k=3)
    res = master.solve(inst, inst.oracle(), cfg("B-S1", node_limit=1))
    assert res.status == "node_limit"
    assert res.lower_bound <= (res.value if res.value is not None else np.inf) + 1e-9


def test_node_fixings_leave_the_model_bounds_unchanged():
    inst = dataclasses.replace(gen_wmcig(12, 2, 0.2, 8), B=3, k=3)
    solver = master.InterdictionSolver(inst, inst.oracle(), cfg("B-S1", node_limit=4))
    lb, ub = list(solver.model.lb), list(solver.model.ub)
    res = solver.solve()
    # every node after the root is solved with at least one fixing
    assert res.status == "node_limit" and res.nodes == 4
    assert solver.model.lb == lb and solver.model.ub == ub


def test_time_limit_status():
    inst = gen_wmcig(12, 2, 0.2, 8)
    res = master.solve(inst, inst.oracle(), cfg("B-S1", time_limit=0.0))
    assert res.status == "time_limit"


def test_solver_matches_brute_force_spot():
    for seed in (0, 1, 2):
        inst = gen_wmcig(9, 3, 0.2, seed)
        inst = dataclasses.replace(inst, B=2, k=2)
        orc = inst.oracle()
        ref = bruteforce.brute_force_solve(inst, orc)
        res = master.solve(inst, orc, cfg("ILDAE-S2"))
        assert res.value == ref.value
        # the solver's interdiction achieves the reported value
        assert follower.phi(orc, res.best_x, inst.knapsacks()) == res.value


def test_run_log_csv(tmp_path):
    inst = gen_wmcig(8, 2, 0.2, 5)
    res = master.solve(inst, inst.oracle(), cfg("I-S1"))
    path = tmp_path / "log.csv"
    master.write_run_log(res, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("node,bound,lb,incumbent")
    assert len(lines) == len(res.events) + 1


def test_all_added_cuts_are_globally_valid():
    """Every cut row accumulated during a run stays below the true defended
    value at every feasible interdiction."""
    inst = gen_wmcig(8, 2, 0.2, 77)
    inst = dataclasses.replace(inst, B=2, k=2)
    orc = inst.oracle()
    solver = master.InterdictionSolver(inst, orc, cfg("ILDAE-S2"))
    solver.solve()
    table = bruteforce.brute_force_solve(inst, orc, with_table=True).table
    wcol = solver.wcol
    cut_rows = [
        (coefs, rhs)
        for coefs, rhs in zip(solver.model.rows, solver.model.rhs)
        if coefs.get(wcol) == -1.0
    ]
    assert cut_rows
    for coefs, rhs in cut_rows:
        for x, phi_val in table.items():
            lhs = sum(c * x[j] for j, c in coefs.items() if j != wcol)
            # row is  sum g_j x_j - w <= -c0  ==>  c0 + sum g_j x_j <= w=phi(x)
            assert lhs - rhs <= phi_val + 1e-9


def test_solve_is_deterministic():
    inst = gen_biig(9, 2, 3, 2, 0.2, 55)
    orc = inst.oracle()
    a = master.solve(inst, orc, cfg("ILDAE-S1"))
    b = master.solve(inst, orc, cfg("ILDAE-S1"))
    assert a.value == b.value
    assert a.nodes == b.nodes
    assert a.cuts_by_family == b.cuts_by_family
    assert a.best_x == b.best_x
