import dataclasses

import numpy as np
import pytest

from subig import core, problems
from subig.problems import (
    BiigInstance,
    WmcigInstance,
    dump_instance,
    export_miblp,
    gen_biig,
    gen_wmcig,
    parse_instance,
    parse_miblp,
    write_instance,
)


def test_oracle_examples(cover_example, bipartite_example):
    worc = cover_example.oracle()
    assert worc.value({0, 1, 2}) == 24.0
    assert worc.value(set()) == 0.0
    borc = bipartite_example.oracle()
    assert borc.value({1, 2}) == pytest.approx(1.6, abs=1e-12)


def test_oracle_matches_closed_form(bipartite_example):
    inst = gen_biig(9, 3, 3, 2, 0.2, 4)
    orc = inst.oracle()
    nb = inst.neighbor_targets()
    rng = np.random.default_rng(0)
    for _ in range(50):
        S = {i for i in range(inst.n) if rng.random() < 0.5}
        closed = 0.0
        for j in range(inst.targets):
            prod = 1.0
            for i in sorted(S):
                if j in nb[i]:
                    prod *= 1.0 - inst.probs[i]
            closed += 1.0 - prod
        assert orc.value(S) == pytest.approx(closed, abs=1e-12)


def test_wmcig_superiority(cover_example):
    dom = problems.wmcig_superiority(cover_example)
    assert dom.zero_replacement_gain
    assert dom.candidates(0) == (2,)  # site 2's coverage contains site 0's
    assert dom.candidates(1) == ()
    disjoint = WmcigInstance(profits=(1, 1), cover=(frozenset({0}), frozenset({1})), B=1, k=1)
    assert dict(problems.wmcig_superiority(disjoint).lists) == {}


def test_biig_superiority(bipartite_example):
    dom = problems.biig_superiority(bipartite_example)
    assert not dom.zero_replacement_gain
    assert 2 in dom.candidates(0)  # neighbors {0} within {0,2}, prob 0.4 >= 0.3
    assert 1 in dom.candidates(0)
    assert dom.candidates(1) == ()


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
    assert core.check_submodular_monotone(inst.oracle(), 500, 0).ok


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


MALFORMED = {
    "wmcig header only": ("WMCIG 3 4 2 1\n", 1),
    "biig header only": ("BIIG 3 4 2 1\n", 1),
    "repeated site": ("WMCIG 2 2 1 1\nP 5 9\nC 0 1 0\nC 0 1 1\n", 4),
    "site past n": ("WMCIG 2 2 1 1\nP 5 9\nC 0 1 0\nC 2 1 1\n", 4),
    "negative site": ("WMCIG 2 2 1 1\nP 5 9\nC -1 1 0\nC 0 1 1\n", 3),
    "missing profit line": ("WMCIG 2 2 1 1\nC 0 1 0\nC 1 1 1\n", 2),
    "missing arc count line": ("BIIG 2 2 1 1\nP 0.5 0.5\n0 1\n", 3),
    "short arc list": ("# gen\nBIIG 2 2 1 1\nP 0.5 0.5\nA 3\n0 0\n\n1 1\n", 7),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parse_names_the_line_at_fault(case):
    text, line = MALFORMED[case]
    with pytest.raises(ValueError, match=rf"^line {line}: "):
        parse_instance(text)


def test_export_miblp_row_counts(cover_example):
    model_text, aux_text = export_miblp(cover_example)
    rows, rhs, obj = parse_miblp(model_text)
    # 1 budget + 4 coverage + 3 linking + 1 leader
    assert len(rows) == 9
    assert set(obj) == {f"z_{j}" for j in range(4)}
    assert rhs["budget"] == 2.0 and rhs["leader"] == 1.0
    assert rows["cover_3"] == {"z_3": 1.0, "y_2": -1.0}
    assert rows["link_0"] == {"y_0": 1.0, "x_0": 1.0}
    aux_lines = aux_text.strip().splitlines()
    assert "y_0" in aux_lines and "cover_0" in aux_lines and "leader" not in aux_lines


def test_export_miblp_roundtrip_matrix(cover_example):
    model_text, _ = export_miblp(cover_example)
    rows, rhs, obj = parse_miblp(model_text)
    # re-deriving the matrix from the instance reproduces every coefficient
    for j in range(cover_example.m):
        expected = {"z_%d" % j: 1.0}
        for i in range(cover_example.n):
            if j in cover_example.cover[i]:
                expected[f"y_{i}"] = -1.0
        assert rows[f"cover_{j}"] == expected
        assert obj[f"z_{j}"] == cover_example.profits[j]


def test_export_miblp_rejects_other_models(bipartite_example):
    with pytest.raises(TypeError):
        export_miblp(bipartite_example)


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
            for i, cands in dom.lists.items():
                for j in cands:
                    for _ in range(200):
                        S = {t for t in range(inst.n) if rng.random() < 0.5}
                        S.add(i)
                        S.discard(j)
                        swapped = (S - {i}) | {j}
                        for t in range(inst.n):
                            if t in S or t == j:
                                continue
                            assert orc.gain(swapped, t) <= orc.gain(S, t) + 1e-9
                            checked += 1
            if dom.lists:
                assert checked > 0
