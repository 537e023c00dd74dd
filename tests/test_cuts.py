import itertools

import numpy as np
import pytest

from subig import cuts
from subig.bruteforce import brute_force_phi
from subig.problems import gen_wmcig

from conftest import ModularOracle, all_binary_vectors


def test_basic_sic_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    cut = cuts.basic_sic(worc, {0, 1})
    assert cut.c0 == 20.0 and cut.g == {0: -11.0, 1: -14.0}
    assert cut.family == "basic"
    empty = cuts.basic_sic(worc, set())
    assert empty.c0 == 0.0 and empty.g == {}
    borc = bipartite_example.oracle()
    bcut = cuts.basic_sic(borc, {0, 1})
    assert bcut.c0 == pytest.approx(1.15, abs=1e-9)
    assert bcut.g[0] == pytest.approx(-0.3, abs=1e-9)
    assert bcut.g[1] == pytest.approx(-1.0, abs=1e-9)


def test_improved_sic_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    c1 = cuts.improved_sic(worc, {0, 1}, (0, 1))
    assert c1.c0 == 20.0 and c1.g == {0: -11.0, 1: -9.0}
    c2 = cuts.improved_sic(worc, {0, 1}, (1, 0))
    assert c2.c0 == 20.0 and c2.g == {0: -6.0, 1: -14.0}
    borc = bipartite_example.oracle()
    c3 = cuts.improved_sic(borc, {0, 1}, (0, 1))
    assert c3.c0 == pytest.approx(1.15, abs=1e-9)
    assert c3.g[1] == pytest.approx(-0.85, abs=1e-9)


def test_improved_sic_rejects_non_permutation(cover_example):
    orc = cover_example.oracle()
    with pytest.raises(ValueError):
        cuts.improved_sic(orc, {0, 1}, (0,))
    with pytest.raises(ValueError):
        cuts.improved_sic(orc, {0, 1}, (0, 0))


def test_default_ordering(cover_example):
    orc = cover_example.oracle()
    assert cuts.default_ordering(orc, {2}) == (2,)
    assert cuts.default_ordering(orc, {0, 1}) == (1, 0)  # gains 11 vs 14
    # exact ties fall back to ascending id
    mod = ModularOracle((5.0, 1.0, 5.0, 2.0))
    assert cuts.default_ordering(mod, {2, 0}) == (0, 2)


def test_lift_sic_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    base = cuts.improved_sic(worc, {0, 1}, (0, 1))
    lifted = cuts.lift_sic(worc, {0, 1}, base, [0.0, 0.0, 0.0], cover_example.dominating_lists())
    # + 4 (1 - x_2) folded: constant 24, coefficient -4
    assert lifted.family == "lifted"
    assert lifted.pairs == ((0, 2, 4.0),)
    assert lifted.c0 == 24.0 and lifted.g == {0: -11.0, 1: -9.0, 2: -4.0}

    unchlifted = cuts.lift_sic(worc, {0, 1}, base, [0.0, 0.0, 0.0], {})
    assert unchlifted is base

    borc = bipartite_example.oracle()
    bbase = cuts.improved_sic(borc, {0, 1}, (0, 1))
    blift = cuts.lift_sic(borc, {0, 1}, bbase, [0.0, 0.0, 0.0], bipartite_example.dominating_lists())
    assert len(blift.pairs) == 1
    a, b, coef = blift.pairs[0]
    assert (a, b) == (0, 2)
    assert coef == pytest.approx(0.45, abs=1e-9)
    assert blift.rhs([0.0, 0.0, 0.0]) == pytest.approx(1.6, abs=1e-9)


def test_lift_skips_interdicted_replacements(cover_example):
    worc = cover_example.oracle()
    base = cuts.improved_sic(worc, {0, 1}, (0, 1))
    lifted = cuts.lift_sic(worc, {0, 1}, base, [0.0, 0.0, 1.0], cover_example.dominating_lists())
    assert lifted is base  # (1 - x_b) = 0 kills the only candidate pair


def test_alternative_sic_example(cover_example):
    worc = cover_example.oracle()
    base = cuts.improved_sic(worc, {0, 1}, (0, 1))
    alt = cuts.alternative_sic(worc, {0, 1}, base, [0.5, 0.0, 0.0], cover_example.knapsacks())
    assert alt.family == "alternative"
    assert alt.pairs == ((0, 2, 10.0),)
    assert alt.rhs([1, 0, 0]) == pytest.approx(19.0)
    assert alt.rhs([0, 0, 1]) == pytest.approx(10.0)
    # members interdicted nowhere: every spread is non-positive, no pair fits
    same = cuts.alternative_sic(worc, {0, 1}, base, [0.0, 0.0, 0.7], cover_example.knapsacks())
    assert same is base


def test_relative_violation(cover_example):
    worc = cover_example.oracle()
    basic = cuts.basic_sic(worc, {0, 1})
    assert cuts.relative_violation(basic, basic.rhs([0, 1, 0]), [0, 1, 0]) == 0.0
    assert cuts.relative_violation(basic, 0.0, [0, 0, 0]) == pytest.approx(20.0 / 20.1)
    base = cuts.improved_sic(worc, {0, 1}, (0, 1))
    alt = cuts.alternative_sic(worc, {0, 1}, base, [0.5, 0.0, 0.0], cover_example.knapsacks())
    assert cuts.relative_violation(alt, 15.0, [1, 0, 0]) == pytest.approx(4.0 / 19.1)
    # satisfied cuts read negative
    assert cuts.relative_violation(basic, 25.0, [0, 0, 0]) == pytest.approx(-5.0 / 20.1)


def test_canonical_folding_is_exact(cover_example):
    """Unfolding (c0, g) must reproduce the term-by-term construction."""
    worc = cover_example.oracle()
    base = cuts.improved_sic(worc, {0, 1}, (0, 1))
    lifted = cuts.lift_sic(worc, {0, 1}, base, [0.0] * 3, cover_example.dominating_lists())
    assert lifted.c0 == pytest.approx(base.c0 + sum(c for _, _, c in lifted.pairs), abs=1e-12)
    for _, b, coef in lifted.pairs:
        assert lifted.g[b] == pytest.approx(base.g.get(b, 0.0) - coef, abs=1e-12)
    alt = cuts.alternative_sic(worc, {0, 1}, base, [0.5, 0.0, 0.0], cover_example.knapsacks())
    assert alt.c0 == base.c0
    for a, b, coef in alt.pairs:
        assert alt.g[a] == pytest.approx(base.g.get(a, 0.0) + coef, abs=1e-12)
        assert alt.g[b] == pytest.approx(base.g.get(b, 0.0) - coef, abs=1e-12)


def _random_feasible_set(oracle, knapsacks, rng):
    order = rng.permutation(oracle.n)
    chosen = []
    for i in order:
        if knapsacks.fits(chosen + [int(i)]):
            chosen.append(int(i))
            if rng.random() < 0.4:
                break
    return set(chosen)


def test_validity_on_small_instances():
    """All four families stay below the true defended value at every binary x."""
    rng = np.random.default_rng(7)
    for seed in range(6):
        inst = gen_wmcig(6, 2, 0.2, seed)
        orc = inst.oracle()
        knap = inst.knapsacks()
        dom = inst.dominating_lists()
        phi_at = {}
        for x in all_binary_vectors(6):
            avail = [i for i in range(6) if not x[i]]
            phi_at[x] = brute_force_phi(orc, avail, knap)
        for _ in range(8):
            s_hat = _random_feasible_set(orc, knap, rng)
            if not s_hat:
                continue
            x_star = rng.random(6)
            ordering = cuts.default_ordering(orc, s_hat)
            base = cuts.improved_sic(orc, s_hat, ordering)
            family_cuts = [
                cuts.basic_sic(orc, s_hat),
                base,
                cuts.lift_sic(orc, s_hat, base, x_star, dom),
                cuts.alternative_sic(orc, s_hat, base, x_star, knap),
            ]
            for cut in family_cuts:
                for x, phi_val in phi_at.items():
                    assert cut.rhs(x) <= phi_val + 1e-9


def test_improved_dominates_basic_pointwise(cover_example):
    orc = cover_example.oracle()
    for ordering in itertools.permutations((0, 1)):
        basic = cuts.basic_sic(orc, {0, 1})
        improved = cuts.improved_sic(orc, {0, 1}, ordering)
        for x in all_binary_vectors(3):
            assert improved.rhs(x) >= basic.rhs(x) - 1e-12


def test_prefix_dominance_of_improved(cover_example):
    """A longer generating set with a prefix-compatible ordering dominates."""
    inst = gen_wmcig(7, 3, 0.2, seed=2)
    orc = inst.oracle()
    rng = np.random.default_rng(5)
    for _ in range(20):
        order = [int(i) for i in rng.permutation(7)[: rng.integers(2, 6)]]
        cut_full = cuts.improved_sic(orc, set(order), tuple(order))
        for k in range(1, len(order)):
            prefix = order[:-k]
            cut_prefix = cuts.improved_sic(orc, set(prefix), tuple(prefix))
            for x in all_binary_vectors(7):
                assert cut_full.rhs(x) >= cut_prefix.rhs(x) - 1e-9


def test_maximal_basic_cut_does_not_dominate(cover_example):
    """Existence regression: a maximal set's basic cut can be strictly worse
    than a subset's at some binary point."""
    orc = cover_example.oracle()
    maximal = cuts.basic_sic(orc, {0, 1})   # maximal under B=2
    subset = cuts.basic_sic(orc, {1})
    x = (1, 0, 0)
    assert maximal.rhs(x) < subset.rhs(x)
