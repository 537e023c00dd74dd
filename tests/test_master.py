import dataclasses
import heapq
import math
from types import SimpleNamespace

import numpy as np
import pytest

from subig import bruteforce, cuts, follower, lp, master
from subig.core import KnapsackSystem
from subig.master import SolverConfig
from subig.problems import WmcigInstance, gen_biig, gen_wmcig

from conftest import ModularOracle, leader_feasible_vectors, random_knapsack, value_table


def cfg(setting, **kw):
    return SolverConfig.from_setting(setting, **kw)


def sep_state(inst, setting, **attrs):
    """A stand-in for the solver attributes that the separation functions
    read: the instance's oracle, knapsacks and leader budget, the setting's
    config, no dominance lists and an empty phi cache, unless given."""
    state = dict(
        oracle=inst.oracle(), knapsacks=inst.knapsacks(), leader=inst.leader_budget(),
        config=cfg(setting), dominating={}, phi_cache={},
    )
    return SimpleNamespace(**{**state, **attrs})


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
    built, phi_val = master.separate_integer(sep_state(cover_example, "I-S1"), 0.0, [0, 1, 0])
    assert len(built) == 1
    assert built[0].c0 == 15.0
    assert set(built[0].source) == {0, 2}
    assert phi_val == 15.0  # exact path solves the follower to optimality

    built, phi_val = master.separate_integer(sep_state(cover_example, "I-S1"), 15.0, [0, 1, 0])
    assert built == [] and phi_val == 15.0

    built, _ = master.separate_integer(sep_state(bipartite_example, "I-S1"), 1.0, [0, 0, 0])
    assert len(built) == 1
    assert built[0].c0 == pytest.approx(1.6, abs=1e-9)
    assert set(built[0].source) == {1, 2}


def test_alternative_cut_at_an_integer_point_has_no_pairs(cover_example, bipartite_example):
    """At a binary x every member of the follower set is uninterdicted, so
    no exchange spread x_a - x_b is positive: the alternative cut is its
    base, and separate_integer under A builds the main cut alone."""
    for inst in (cover_example, bipartite_example):
        orc, knap = inst.oracle(), inst.knapsacks()
        for x in leader_feasible_vectors(orc.n, inst.k):
            avail = [i for i in range(orc.n) if x[i] == 0]
            for cutoff in (None, -1.0):  # the exact set and the greedy one
                s_hat = follower.solve_sep(orc, avail, knap, cutoff=cutoff).items
                if not s_hat:
                    continue
                for base in (cuts.basic_sic(orc, s_hat),
                             cuts.improved_sic(orc, s_hat, cuts.default_ordering(orc, s_hat))):
                    assert cuts.alternative_sic(orc, base, x, knap) is base
            built, _ = master.separate_integer(sep_state(inst, "IA-S1", oracle=orc), -1.0, x)
            assert len(built) == 1 and built[0].family == "improved"


def test_separate_integer_builds_no_alternative_cut(monkeypatch, cover_example, bipartite_example):
    """At an integer point the alternative cut would equal its base (see the
    test above), so separate_integer does not build it under A; the
    fractional separation still does."""
    calls = []
    real_alternative = cuts.alternative_sic

    def counting_alternative(*args, **kwargs):
        calls.append(args)
        return real_alternative(*args, **kwargs)

    monkeypatch.setattr(cuts, "alternative_sic", counting_alternative)
    for inst in (cover_example, bipartite_example):
        for setting in ("IA-S1", "BLDA-S2", "ILDAE-S3"):
            for x in leader_feasible_vectors(inst.n, inst.k):
                built, _ = master.separate_integer(sep_state(inst, setting), -1.0, x)
                assert len(built) == 1
    assert calls == []
    master.separate_fractional(sep_state(cover_example, "IA-S1"), 0.0, [0.5, 0.5, 0.5])
    assert len(calls) == 1


def test_separate_integer_enhanced_uses_greedy(cover_example):
    built, phi_val = master.separate_integer(sep_state(cover_example, "IE-S1"), 10.0, [0, 1, 0])
    assert len(built) == 1 and built[0].c0 == 15.0
    assert phi_val is None  # greedy shortcut skips the exact solve


def _greedy_trap():
    """Greedy opens {1, 2} for 8; the optimum {0, 1} is worth 10."""
    return WmcigInstance(
        profits=(2, 3, 3, 2),
        cover=(frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2})),
        B=2,
        k=1,
    )


def test_separate_integer_enhanced_paths(cover_example, bipartite_example):
    """The E paths beyond the greedy shortcut of the test above."""
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    # no violated cut at w* = phi: the cutoff solve runs to optimality
    phi_val = follower.phi(worc, [0, 1, 0], knap)
    built, got = master.separate_integer(sep_state(cover_example, "IE-S1"), phi_val, [0, 1, 0])
    assert built == [] and got == phi_val

    # the BIIG example: greedy over {0, 2} already beats w* = 0.5
    borc = bipartite_example.oracle()
    built, _ = master.separate_integer(sep_state(bipartite_example, "IE-S1"), 0.5, [0, 1, 0])
    assert borc.value(set(built[0].source)) == pytest.approx(0.98, abs=1e-9)

    # greedy stops at 8 < w* = 9 < phi = 10: the cutoff solve finds the cut
    trap = _greedy_trap()
    torc = trap.oracle()
    greedy_set, _ = follower.greedy(torc, range(3), knapsacks=trap.knapsacks())
    assert torc.value(greedy_set) == 8.0
    built, _ = master.separate_integer(sep_state(trap, "IE-S1", oracle=torc), 9.0, [0, 0, 0])
    assert set(built[0].source) == {0, 1} and built[0].c0 == 10.0


def test_separate_integer_enhanced_runs_greedy_once(monkeypatch):
    """Under E the greedy start of the cutoff solve is the only greedy run,
    also when it does not beat w*."""
    calls = []
    real_greedy = follower.greedy

    def counting_greedy(*args, **kwargs):
        calls.append(args[1])
        return real_greedy(*args, **kwargs)

    monkeypatch.setattr(follower, "greedy", counting_greedy)
    trap = _greedy_trap()
    built, _ = master.separate_integer(sep_state(trap, "IE-S1"), 9.0, [0, 0, 0])
    assert built[0].c0 == 10.0
    assert len(calls) == 1


def test_separate_integer_builds_a_violated_cut_from_the_cache(cover_example, monkeypatch):
    """A point accepted at one node can come back at another node's LP below
    its value.  The cut then comes from the cached follower set, with no
    follower solve; closing that node on its LP bound without the cut could
    lose a better point in its subtree."""
    def no_solve(*args, **kwargs):
        raise AssertionError("the cached point needs no follower solve")

    monkeypatch.setattr(follower, "solve_sep", no_solve)
    worc = cover_example.oracle()
    s_hat = frozenset({0, 2})
    cache = {frozenset({0, 2}): (15.0, s_hat)}  # x = (0, 1, 0) leaves 0 and 2
    w_star = 15.0 - 2 * master.VIOL_TOL
    built, phi_val = master.separate_integer(
        sep_state(cover_example, "I-S1", oracle=worc, phi_cache=cache), w_star, [0, 1, 0]
    )
    assert len(built) == 1 and set(built[0].source) == s_hat
    assert built[0].rhs([0, 1, 0]) == 15.0 > w_star
    assert phi_val == 15.0


def test_fractional_candidate_s1(cover_example):
    s, order = master.fractional_candidate(sep_state(cover_example, "I-S1"), [0.5, 0.0, 0.0])
    assert s == {1, 2} and order == (2, 1)


def test_fractional_candidate_s2(cover_example):
    s, order = master.fractional_candidate(sep_state(cover_example, "I-S2"), [0.6, 0.4, 0.0])
    assert s == {1, 2} and order == (2, 1)


def test_fractional_candidate_s3_all_zero_matches_greedy(cover_example):
    worc = cover_example.oracle()
    knap = cover_example.knapsacks()
    s3 = master.fractional_candidate(sep_state(cover_example, "I-S3", oracle=worc), [0.0] * 3)
    assert s3 == follower.greedy(worc, range(3), knapsacks=knap)


def test_fractional_candidate_s3_basic_stops_on_negative_score(cover_example):
    # every site fully interdicted in the relaxation: scores rho_i(S) - rho_i(0)
    # start at zero for the first pick, then go negative
    s, order = master.fractional_candidate(sep_state(cover_example, "B-S3"), [1.0, 1.0, 1.0])
    assert len(s) <= 2


def _s3_reference(oracle, x_star, cut_family, knapsacks):
    """S3 as a loop of its own that tests each candidate's fit separately."""
    rho0 = oracle.rho_empty()
    ev = oracle.scratch()
    weight = np.zeros(knapsacks.L)
    chosen = []
    while True:
        best = None
        for i in range(oracle.n):
            if i in chosen or not knapsacks.fits_weight(weight + knapsacks.item_cost(i)):
                continue
            g = ev.gain(i)
            if cut_family == "improved":
                score = g * (1.0 - x_star[i])
            else:
                score = g - float(rho0[i]) * x_star[i]
            if best is None or score > best[0] + 1e-12:
                best = (score, i)
        if best is None or best[0] < 0.0:
            return tuple(chosen)
        chosen.append(best[1])
        ev.add(best[1])
        weight += knapsacks.item_cost(best[1])


def test_fractional_candidate_s3_matches_a_per_candidate_loop():
    rng = np.random.default_rng(29)
    picks = 0
    for trial in range(16):
        if trial % 2 == 0:
            inst = gen_wmcig(10, 2, 0.2, 700 + trial)
        else:
            inst = gen_biig(10, 2, 3, 2, 0.25, 700 + trial)
        orc = inst.oracle()
        knap = random_knapsack(rng, orc.n)
        x = rng.random(orc.n)
        x[rng.random(orc.n) < 0.25] = 0.0
        x[rng.random(orc.n) < 0.15] = 1.0
        x_star = x.tolist()
        for setting in ("I-S3", "B-S3"):
            state = sep_state(inst, setting, oracle=orc, knapsacks=knap)
            expected = _s3_reference(orc, x_star, state.config.cut_family, knap)
            s, order = master.fractional_candidate(state, x_star)
            assert order == expected and s == frozenset(expected)
            picks += len(order)
    assert picks > 0


def test_separate_fractional_examples(cover_example):
    state = sep_state(cover_example, "I-S1", dominating=cover_example.dominating_lists())
    got = master.separate_fractional(state, 0.0, [0.5, 0.5, 0.5])
    assert len(got) == 1
    cut = got[0]
    assert cut.c0 == 24.0 and cut.g == {2: -15.0, 1: -9.0}
    assert cut.rhs([0.5, 0.5, 0.5]) == pytest.approx(12.0)

    # no violation once w* already matches the candidate bound
    got = master.separate_fractional(state, 24.0, [0.5, 0.5, 0.5])
    assert got == []


def _dominance_pairs(inst):
    return master.dominance_preprocess(inst.dominating_lists(), inst.leader_budget())


def test_dominance_preprocess_directions(bipartite_example):
    pairs = _dominance_pairs(bipartite_example)
    assert (2, 0) in pairs  # item 2 superior to item 0: x_2 >= x_0
    assert all(i != j for i, j in pairs)

    nested = WmcigInstance(
        profits=(3, 4), cover=(frozenset({0}), frozenset({0, 1})), B=1, k=1
    )
    assert _dominance_pairs(nested) == [(1, 0)]

    disjoint = WmcigInstance(
        profits=(3, 4), cover=(frozenset({0}), frozenset({1})), B=1, k=1
    )
    assert _dominance_pairs(disjoint) == []


def test_dominance_preprocess_keeps_one_direction():
    twins = WmcigInstance(
        profits=(3,), cover=(frozenset({0}), frozenset({0})), B=1, k=1
    )
    pairs = _dominance_pairs(twins)
    assert pairs == [(0, 1)]  # both directions hold; min-id >= max-id kept


def test_gap_formula():
    assert master.gap(24.0, 24.0) == 0.0
    assert master.gap(100.0, 97.0) == pytest.approx(100 * 3 / 100.1)
    assert master.gap(0.0, 0.0) == 0.0
    assert master.gap(None, 0.0) == 100.0


def test_config_setting_roundtrip():
    for s in ("B-S1", "I-S2", "ILDAE-S3", "BDA-S1", "ILE-S2"):
        assert SolverConfig.from_setting(s).setting == s
    assert SolverConfig.from_setting(" ILE-S2\n").setting == "ILE-S2"
    assert SolverConfig().setting == "I-S1"
    with pytest.raises(ValueError):
        SolverConfig.from_setting("XQ-S9")
    with pytest.raises(ValueError):
        SolverConfig.from_setting("LID-S1")
    with pytest.raises(ValueError, match="malformed setting"):
        SolverConfig(" B-S1")  # only from_setting strips


@pytest.mark.parametrize(
    "setting, parts",
    [("B-S1", ("basic", False, False, False, False, "S1")),
     ("ILE-S2", ("improved", True, False, False, True, "S2")),
     ("BDA-S3", ("basic", False, True, True, False, "S3")),
     ("ILDAE-S2", ("improved", True, True, True, True, "S2"))],
)
def test_config_reads_each_part_of_the_setting(setting, parts):
    config = SolverConfig.from_setting(setting)
    assert (config.cut_family, config.enable_lift, config.enable_dominance,
            config.enable_alternative, config.enable_enhanced_int_sep,
            config.frac_strategy) == parts


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
    lb, ub = solver.model.lb.tolist(), solver.model.ub.tolist()
    res = solver.solve()
    # every node after the root is solved with at least one fixing
    assert res.status == "node_limit" and res.nodes == 4
    assert solver.model.lb.tolist() == lb and solver.model.ub.tolist() == ub


@pytest.mark.parametrize(
    "x_star, pick",
    [
        ([0.5, 0.25, 0.0, 0.0], 1),  # 0.25 * 5 beats the most fractional 0.5 * 1
        ([0.5, 0.0, 0.0, 0.75], 3),  # (1 - 0.75) * 3 beats 0.5 * 1
        ([0.5, 0.0, 0.25, 0.0], 0),  # 0.5 * 1 ties 0.25 * 2: the lower id
    ],
)
def test_node_branches_on_the_item_that_can_cost_the_follower_most(monkeypatch, x_star, pick):
    """A fractional node that separation leaves unchanged branches on the
    item with the largest rho_i(empty) * min(x*_i, 1 - x*_i), not on the most
    fractional one: on a modular follower rho(empty) is the weight vector."""
    weights = [1.0, 5.0, 2.0, 3.0]
    budget = KnapsackSystem.cardinality(len(weights), 2)
    inst = SimpleNamespace(knapsacks=lambda: budget, leader_budget=lambda: budget)
    solver = master.InterdictionSolver(inst, ModularOracle(weights), cfg("B-S1"))
    lp_point = lp.LpResult(lp.OPTIMAL, np.array([*x_star, 1.0]), 1.0, basis="parent's")
    monkeypatch.setattr(master, "solve_lp", lambda model, fixed, basis, deadline: lp_point)
    monkeypatch.setattr(master, "separate_fractional", lambda solver, w_star, x_star: [])
    node = master._Node(bound=0.0, seq=0, fixings={})
    bound, incumbent, children, basis = solver._process_node(node, None, math.inf)
    assert (bound, incumbent, basis) == (1.0, None, "parent's")
    assert children == [{pick: 0}, {pick: 1}]


def test_branching_closes_a_coverage_instance_in_few_nodes():
    """On this seeded WMCIG instance under B-S1 the weighted rule closes the
    gap in 39 nodes; branching on the most fractional item took 557."""
    inst = gen_wmcig(30, 2, 0.1, 12)
    res = master.solve(inst, inst.oracle(), cfg("B-S1"))
    assert res.status == "optimal" and res.value == 857.0
    assert res.nodes < 150


@pytest.mark.parametrize(
    "limits, what",
    [({"time_limit": float("nan")}, "time limit"), ({"time_limit": -3.0}, "time limit"),
     ({"node_limit": -1}, "node limit")],
)
def test_nan_or_negative_limits_are_rejected(limits, what):
    with pytest.raises(ValueError, match=what):
        SolverConfig.from_setting("B-S1", **limits)
    # zero and an infinite time limit stay valid
    for ok in ({"time_limit": 0.0}, {"time_limit": float("inf")}, {"node_limit": 0}):
        assert SolverConfig.from_setting("B-S1", **ok).setting == "B-S1"


def test_time_limit_status():
    inst = gen_wmcig(12, 2, 0.2, 8)
    res = master.solve(inst, inst.oracle(), cfg("B-S1", time_limit=0.0))
    assert res.status == "time_limit"


def test_follower_timeout_inside_a_node_stops_the_run(monkeypatch):
    """A deadline reached in a node's exact separation ends the run with
    status time_limit; the node goes back on the heap, so the lower bound
    stays a valid bound."""
    inst = dataclasses.replace(gen_wmcig(9, 3, 0.2, 0), B=2, k=2)
    orc = inst.oracle()
    optimum = bruteforce.brute_force_solve(inst, orc).value
    calls = []
    real_solve_sep = follower.solve_sep

    def second_call_times_out(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise lp.DeadlineExceeded("the LP reached its deadline")
        return real_solve_sep(*args, **kwargs)

    monkeypatch.setattr(follower, "solve_sep", second_call_times_out)
    res = master.solve(inst, orc, cfg("I-S1"))
    assert len(calls) == 2
    assert res.status == "time_limit"
    assert res.lower_bound <= optimum
    if res.value is not None:
        assert res.lower_bound <= res.value


def test_node_out_of_time_before_its_lp(monkeypatch, cover_example):
    """The clock runs out after the run starts and before the root LP's
    first pivot: the LP raises before it factorizes, and the run stops with
    the root's bound open."""
    monkeypatch.setattr(master, "time", SimpleNamespace(monotonic=lambda: 0.0))
    monkeypatch.setattr(lp, "time", SimpleNamespace(monotonic=lambda: 100.0))
    factorizations = []
    monkeypatch.setattr(lp, "lu_factor", lambda B: factorizations.append(B))
    res = master.solve(cover_example, cover_example.oracle(), cfg("I-S1", time_limit=10.0))
    assert res.status == "time_limit" and factorizations == []
    assert res.nodes == 0 and res.value is None and res.lower_bound == 0.0


def test_clock_running_out_inside_a_master_lp_stops_the_run(monkeypatch):
    """A fake clock passes the deadline at a pivot in the middle of a master
    LP.  The run ends with status time_limit, counts only the nodes it
    completed, and its lower bound stays valid.  The stopping read is taken
    from a run that never stops: the second read of the first master LP
    that starts after a completed node and reads the clock twice or more."""
    inst = dataclasses.replace(gen_wmcig(9, 3, 0.2, 0), B=2, k=2)
    orc = inst.oracle()
    optimum = bruteforce.brute_force_solve(inst, orc).value
    full = master.solve(inst, orc, cfg("I-S1"))
    reads, last_zero = [], [math.inf]

    def clock():
        reads.append(None)
        return 0.0 if len(reads) <= last_zero[0] else 100.0

    completed, stopped_in, lps = [], [], []
    process_node = master.InterdictionSolver._process_node
    solve_lp = master.solve_lp

    def counting_process_node(self, *args):
        completed.append(process_node(self, *args))
        return completed[-1]

    def master_lp(model, fixed, basis, deadline):
        start = len(reads)
        try:
            return solve_lp(model, fixed, basis, deadline)
        except lp.DeadlineExceeded:
            stopped_in.append(len(reads) - start)
            raise
        finally:
            lps.append((len(completed), start, len(reads) - start))

    monkeypatch.setattr(master, "time", SimpleNamespace(monotonic=lambda: 0.0))
    monkeypatch.setattr(lp, "time", SimpleNamespace(monotonic=clock))
    monkeypatch.setattr(master.InterdictionSolver, "_process_node", counting_process_node)
    monkeypatch.setattr(master, "solve_lp", master_lp)
    master.solve(inst, orc, cfg("I-S1", time_limit=10.0))
    last_zero[0] = next(start + 1 for done, start, count in lps if done > 0 and count >= 2)
    reads.clear()
    completed.clear()
    res = master.solve(inst, orc, cfg("I-S1", time_limit=10.0))
    assert stopped_in == [2]  # at the second pivot of a master LP
    assert res.status == "time_limit"
    assert 0 < res.nodes == len(completed) < full.nodes
    assert res.lower_bound <= optimum


@pytest.mark.parametrize("setting, reported", [("I-S1", True), ("IE-S1", False)])
def test_integer_point_whose_cuts_are_all_rows_is_accepted_at_phi(
    monkeypatch, cover_example, setting, reported
):
    """When every cut an integer separation returns is already a row, the
    node accepts its point at the exact defended value: the one the
    separation reports, or else (E mode may report none) the one the phi
    cache holds or one exact follower.solve_sep run puts there."""
    orc = cover_example.oracle()
    knap = cover_example.knapsacks()
    solver = master.InterdictionSolver(cover_example, orc, cfg(setting))
    x_hat = (0, 1, 0)
    phi_exact = follower.phi(orc, x_hat, knap)
    s0, _ = follower.greedy(orc, range(orc.n), knapsacks=knap)
    root_cut = cuts.improved_sic(orc, s0, cuts.default_ordering(orc, s0))
    monkeypatch.setattr(
        master, "separate_integer",
        lambda *args, **kwargs: ([root_cut], phi_exact if reported else None),
    )
    sep_calls = []
    real_solve_sep = follower.solve_sep

    def counting_solve_sep(*args, **kwargs):
        sep_calls.append(args)
        return real_solve_sep(*args, **kwargs)

    monkeypatch.setattr(follower, "solve_sep", counting_solve_sep)
    rows = solver.model.n_rows
    node = master._Node(bound=0.0, seq=0, fixings=dict(enumerate(x_hat)))
    _, incumbent, children, _ = solver._process_node(node, None, math.inf)
    assert solver.model.n_rows == rows  # the cut was a duplicate
    assert incumbent == (phi_exact, x_hat) and children == []
    assert len(sep_calls) == (0 if reported else 1)
    if not reported:
        assert solver.phi_cache[frozenset({0, 2})][0] == phi_exact
        # the same point at another node reads the cache
        _, incumbent, _, _ = solver._process_node(node, None, math.inf)
        assert incumbent == (phi_exact, x_hat) and len(sep_calls) == 1


@pytest.mark.parametrize("example", ["cover_example", "bipartite_example"])
def test_warm_started_lps_give_the_cold_value(request, monkeypatch, example):
    """Each node's LPs start from the last basis; every ladder setting must
    reach the value of a run whose LPs all start cold."""
    inst = request.getfixturevalue(example)
    warm = {s: master.solve(inst, inst.oracle(), cfg(s)).value for s in master.LADDER_SETTINGS}
    solve_lp = master.solve_lp
    bases = []

    def cold_solve_lp(model, fixed, basis, deadline):
        bases.append(basis)
        return solve_lp(model, fixed, None, deadline)

    monkeypatch.setattr(master, "solve_lp", cold_solve_lp)
    for setting in master.LADDER_SETTINGS:
        assert master.solve(inst, inst.oracle(), cfg(setting)).value == pytest.approx(
            warm[setting], abs=1e-9
        )
    assert any(b is not None for b in bases)  # the master hands bases on


def test_master_lps_pivot_little_from_their_warm_starts(monkeypatch):
    """The master's warm starts keep its LPs short: on this seeded BIIG
    instance 2.89 pivots per LP over 149 LPs, against 5.51 when every LP
    starts from the slack basis."""
    inst = gen_biig(15, 2, 5, 5, 0.07, 0)
    solve_lp, pivots = master.solve_lp, []

    def counted_solve_lp(model, fixed, basis, deadline):
        res = solve_lp(model, fixed, basis, deadline)
        pivots.append(res.iterations)
        return res

    monkeypatch.setattr(master, "solve_lp", counted_solve_lp)
    assert master.solve(inst, inst.oracle(), cfg("I-S1")).status == "optimal"
    assert sum(pivots) < 4 * len(pivots)


def test_open_nodes_hold_basis_inverses_within_a_budget(monkeypatch):
    """Children keep their parent's basis inverse while the open nodes times
    its bytes stay within INVERSE_HEAP_BYTES, and refactorize when popped
    past it; the inverses the heap holds never pass the budget by more than
    two of the latest size, and the value does not change."""
    inst = gen_biig(15, 2, 5, 5, 0.07, 0)
    value = master.solve(inst, inst.oracle(), cfg("I-S1")).value
    budget, excess, kept = 100_000, [], set()

    def recorded_push(heap, node):
        heapq.heappush(heap, node)
        if node.basis is not None:
            kept.add(node.basis.inverse is not None)
            inverses = [n.basis.inverse for n in heap if n.basis and n.basis.inverse is not None]
            held = {id(inv): inv.nbytes for inv in inverses}
            excess.append(sum(held.values()) - budget - 2 * max(held.values(), default=0))

    monkeypatch.setattr(master, "INVERSE_HEAP_BYTES", budget)
    monkeypatch.setattr(master, "heapq", SimpleNamespace(heappush=recorded_push, heappop=heapq.heappop))
    assert master.solve(inst, inst.oracle(), cfg("I-S1")).value == pytest.approx(value, abs=1e-9)
    assert kept == {True, False} and max(excess) <= 0


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


def test_all_added_cuts_are_globally_valid():
    """Every cut row accumulated during a run stays below the true defended
    value at every feasible interdiction."""
    inst = gen_wmcig(8, 2, 0.2, 77)
    inst = dataclasses.replace(inst, B=2, k=2)
    orc = inst.oracle()
    solver = master.InterdictionSolver(inst, orc, cfg("ILDAE-S2"))
    solver.solve()
    table = value_table(inst, orc)
    w = solver.w
    model = solver.model
    cut_rows = [(row, rhs) for row, rhs in zip(model.A, model.rhs) if row[w] == -1.0]
    assert cut_rows
    for row, rhs in cut_rows:
        for x, phi_val in table.items():
            lhs = float(np.dot(row[:w], x))
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


def test_limited_run_reports_the_least_open_bound():
    """A stopped run's lower bound is the least bound among its open nodes
    (capped by the incumbent), not the largest bound popped so far."""
    inst = gen_wmcig(30, 2, 0.1, 1)
    solver = master.InterdictionSolver(inst, inst.oracle(), cfg("I-S1", node_limit=5))
    res = solver.solve()
    assert res.status == "node_limit" and res.nodes == 5
    assert res.lower_bound == pytest.approx(709.1783, abs=1e-4)
    assert res.lower_bound <= 992.0  # the optimum, which I-S1 proves without a limit
    assert res.lower_bound == res.events[-1]["lb"]
