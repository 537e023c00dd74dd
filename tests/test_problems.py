import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from subig import problems
from subig.problems import (
    BiigInstance,
    WmcigInstance,
    dump_instance,
    gen_biig,
    gen_wmcig,
    parse_instance,
    write_instance,
)

from conftest import check_submodular_monotone


def test_oracle_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    assert worc.value({0, 1, 2}) == 24.0
    assert worc.value(set()) == 0.0
    borc = bipartite_example.oracle()
    assert borc.value({1, 2}) == pytest.approx(1.6, abs=1e-12)


def test_oracle_matches_closed_form(bipartite_example):
    inst = gen_biig(9, 3, 3, 2, 0.2, 4)
    orc = inst.oracle()
    arcs = set(inst.arcs)
    rng = np.random.default_rng(0)
    for _ in range(50):
        S = {i for i in range(inst.n) if rng.random() < 0.5}
        closed = 0.0
        for j in range(inst.targets):
            prod = 1.0
            for i in sorted(S):
                if (i, j) in arcs:
                    prod *= 1.0 - inst.probs[i]
            closed += 1.0 - prod
        assert orc.value(S) == pytest.approx(closed, abs=1e-12)
    # coverage: the profit of the covered customers, exactly
    inst = gen_wmcig(30, 2, 0.1, 4)
    orc = inst.oracle()
    for _ in range(50):
        S = {i for i in range(inst.n) if rng.random() < 0.3}
        covered = set().union(*(inst.cover[i] for i in S))
        assert orc.value(S) == sum(inst.profits[j] for j in covered)


def test_wmcig_superiority(cover_example):
    dom = cover_example.dominating_lists()
    assert dom.get(0) == (2,)  # site 2's coverage contains site 0's
    assert 1 not in dom
    disjoint = WmcigInstance(profits=(1, 1), cover=(frozenset({0}), frozenset({1})), B=1, k=1)
    assert disjoint.dominating_lists() == {}


def test_wmcig_replaced_site_gains_nothing_next_to_its_replacement():
    """A coverage site b that may replace a covers every customer a covers,
    so rho_a({b}) is exactly zero."""
    pairs = 0
    for seed in range(20):
        inst = gen_wmcig(20, 2, 0.1, seed)
        orc = inst.oracle()
        dom = inst.dominating_lists()
        for a in range(inst.n):
            for b in dom.get(a, ()):
                assert orc.scratch({b}).gain(a) == 0.0
                pairs += 1
    assert pairs > 0


def test_biig_superiority(bipartite_example):
    dom = bipartite_example.dominating_lists()
    assert 2 in dom[0]  # neighbors {0} within {0,2}, prob 0.4 >= 0.3
    assert 1 in dom[0]
    assert 1 not in dom


def test_gen_wmcig_params_and_determinism():
    a = gen_wmcig(50, 2, 0.1, seed=123)
    b = gen_wmcig(50, 2, 0.1, seed=123)
    assert a == dataclasses.replace(b, name=a.name)
    assert a.n == a.m == 50
    assert a.B == 5 and a.k == 5
    assert all(1 <= p <= 100 for p in a.profits)
    assert all(i in a.cover[i] for i in range(a.n))  # co-located site covers itself
    c = gen_wmcig(50, 2, 0.2, seed=123)
    assert c.k == 10
    with pytest.raises(ValueError):
        gen_wmcig(1, 2, 0.1, 0)
    with pytest.raises(ValueError):
        gen_wmcig(50, 5, 0.1, 0)
    with pytest.raises(ValueError):
        gen_wmcig(50, 2, 1.5, 0)


def test_gen_wmcig_is_submodular_monotone():
    inst = gen_wmcig(12, 2, 0.1, seed=3)
    assert check_submodular_monotone(inst.oracle(), 500, 0).ok


def test_gen_biig_params_and_determinism():
    a = gen_biig(20, 2, 5, 5, 0.07, seed=9)
    b = gen_biig(20, 2, 5, 5, 0.07, seed=9)
    assert a == dataclasses.replace(b, name=a.name)
    assert a.m == 40
    assert all(0.0 <= p <= 1.0 for p in a.probs)
    # arc count within a 6-sigma band of the binomial mean 56
    assert 20 <= len(a.arcs) <= 100
    with pytest.raises(ValueError):
        gen_biig(20, 2, 5, 5, 1.5, 0)
    with pytest.raises(ValueError):
        gen_biig(0, 2, 5, 5, 0.1, 0)


@pytest.mark.parametrize("B, k", [(-1, 1), (1, -1)])
def test_gen_biig_rejects_a_negative_budget(B, k):
    with pytest.raises(ValueError, match="budgets must be non-negative"):
        gen_biig(6, 2, B, k, 0.3, 1)


def test_wmcig_file_roundtrip(tmp_path, cover_example):
    path = tmp_path / "ex.wmcig"
    write_instance(cover_example, str(path))
    back = problems.load_instance(str(path))
    assert back.profits == cover_example.profits
    assert back.cover == cover_example.cover
    assert (back.B, back.k) == (cover_example.B, cover_example.k)


def test_biig_file_roundtrip(tmp_path):
    inst = gen_biig(11, 3, 4, 2, 0.15, seed=6)
    path = tmp_path / "x.biig"
    write_instance(inst, str(path))
    back = problems.load_instance(str(path))
    assert back.targets == inst.targets
    assert tuple(sorted(back.arcs)) == tuple(sorted(inst.arcs))
    assert back.probs == pytest.approx(inst.probs, abs=1e-11)
    assert (back.B, back.k) == (inst.B, inst.k)


def test_provenance_comment_ignored():
    inst = gen_wmcig(6, 1, 0.2, seed=1)
    text = dump_instance(inst)
    assert text.startswith("# gen seed=1")
    again = parse_instance(text)
    assert again.cover == inst.cover


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_instance("HELLO 1 2 3 4\n")
    with pytest.raises(ValueError):
        parse_instance("")


# more sites than memory could hold: the file's end must be found first
HUGE_HEADER = "WMCIG 99999999999999999999 0 0 0\nP\n"

MALFORMED = {
    "wmcig header only": ("WMCIG 3 4 2 1\n", 1),
    "biig header only": ("BIIG 3 4 2 1\n", 1),
    "repeated site": ("WMCIG 2 2 1 1\nP 5 9\nC 0 1 0\nC 0 1 1\n", 4),
    "site past n": ("WMCIG 2 2 1 1\nP 5 9\nC 0 1 0\nC 2 1 1\n", 4),
    "negative site": ("WMCIG 2 2 1 1\nP 5 9\nC -1 1 0\nC 0 1 1\n", 3),
    "missing profit line": ("WMCIG 2 2 1 1\nC 0 1 0\nC 1 1 1\n", 2),
    "missing arc count line": ("BIIG 2 2 1 1\nP 0.5 0.5\n0 1\n", 3),
    "short arc list": ("# gen\nBIIG 2 2 1 1\nP 0.5 0.5\nA 3\n0 0\n\n1 1\n", 7),
    "zero profit": ("WMCIG 2 2 1 1\nP 0 5\nC 0 1 0\nC 1 1 1\n", 2),
    "probability above 1": ("# gen\nBIIG 2 2 1 1\nP 0.5 1.5\nA 0\n", 3),
    "negative budget": ("WMCIG 2 2 -1 1\nP 5 9\nC 0 1 0\nC 1 1 1\n", 1),
    "negative leader budget": ("BIIG 2 2 1 -1\nP 0.5 0.5\nA 0\n", 1),
    "no items": ("\nWMCIG 0 2 1 1\nP 5 9\n", 2),
    "huge site count": (HUGE_HEADER, 2),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parse_names_the_line_at_fault(case):
    text, line = MALFORMED[case]
    with pytest.raises(ValueError, match=rf"^line {line}: "):
        parse_instance(text)


def test_repeated_arc_names_both_lines():
    # it used to parse to arcs ((0, 1), (0, 1))
    text = "BIIG 2 2 1 1\nP 0.5 0.5\nA 3\n0 1\n# note\n1 0\n0 1\n"
    with pytest.raises(ValueError, match=r"^line 7: arc \(0,1\) repeats line 4$"):
        parse_instance(text)


_VALID = (
    "WMCIG 3 4 2 1\nP 5 9 6 4\nC 0 2 0 2\nC 1 2 0 1\nC 2 3 0 2 3\n",
    "BIIG 3 4 2 1\nP 0.3 0.5 0.4\nA 3\n0 0\n1 1\n2 2\n",
)
_TOKENS = st.one_of(
    st.sampled_from(["WMCIG", "BIIG", "biig", "P", "C", "A", "#", "nan", "inf", "1e400", "0.5"]),
    st.integers(-2, 5).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.text(max_size=3),
)


@st.composite
def _instance_texts(draw):
    """A valid file with some tokens replaced, dropped or added, or lines of
    random tokens."""
    if draw(st.booleans()):
        lines = [ln.split() for ln in draw(st.sampled_from(_VALID)).splitlines()]
        for _ in range(draw(st.integers(0, 3))):
            row = lines[draw(st.integers(0, len(lines) - 1))]
            at = draw(st.integers(0, len(row)))
            edit = draw(st.sampled_from(["replace", "drop", "insert"]))
            if edit == "insert" or at == len(row):
                row.insert(at, draw(_TOKENS))
            elif edit == "replace":
                row[at] = draw(_TOKENS)
            else:
                del row[at]
    else:
        lines = draw(st.lists(st.lists(_TOKENS, max_size=6), max_size=8))
    return "\n".join(" ".join(row) for row in lines)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(text=st.one_of(_instance_texts(), st.text()))
@example(text=HUGE_HEADER)
def test_parse_accepts_or_names_the_line(text):
    try:
        parse_instance(text)
    except ValueError as exc:
        assert re.match(r"line \d+: ", str(exc)) or str(exc) == "empty instance file"


def test_empty_instance_rejected():
    with pytest.raises(ValueError):
        WmcigInstance(profits=(), cover=(), B=1, k=1)
    with pytest.raises(ValueError):
        BiigInstance(probs=(), targets=2, arcs=(), B=1, k=1)


def test_superiority_lists_are_sound():
    """For each listed replacement pair (i -> j), swapping i out for j never
    raises any third item's marginal gain, over sampled member sets."""
    rng = np.random.default_rng(42)
    for seed in (0, 1, 2):
        for inst in (
            gen_wmcig(7, 2, 0.2, 300 + seed),
            gen_biig(7, 2, 3, 2, 0.3, 300 + seed),
        ):
            orc = inst.oracle()
            dom = inst.dominating_lists()
            checked = 0
            for i, cands in dom.items():
                for j in cands:
                    for _ in range(200):
                        S = {t for t in range(inst.n) if rng.random() < 0.5}
                        S.add(i)
                        S.discard(j)
                        swapped = (S - {i}) | {j}
                        for t in range(inst.n):
                            if t in S or t == j:
                                continue
                            assert orc.scratch(swapped).gain(t) <= orc.scratch(S).gain(t) + 1e-9
                            checked += 1
            if dom:
                assert checked > 0
