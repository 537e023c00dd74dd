"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s`` to see them)."""

import csv
import dataclasses
import itertools
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from subig import bruteforce, cli, cuts, follower, master, problems
from subig.master import SolverConfig
from subig.problems import BiigInstance, WmcigInstance, gen_biig, gen_wmcig

from conftest import all_binary_vectors, check_submodular_monotone, leader_feasible_vectors

WMCIG_TOL = 0.0
BIIG_TOL = 1e-6


def _report(num, name, ok, extra=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" [{extra}]"
    print(line, flush=True)
    assert ok, line


def cover_instance():
    return WmcigInstance(
        profits=(5, 9, 6, 4),
        cover=(frozenset({0, 2}), frozenset({0, 1}), frozenset({0, 2, 3})),
        B=2,
        k=1,
        name="cover-example",
    )


def bipartite_instance():
    return BiigInstance(
        probs=(0.3, 0.5, 0.4),
        targets=4,
        arcs=((0, 0), (1, 0), (1, 1), (2, 0), (2, 2)),
        B=2,
        k=1,
        name="bipartite-example",
    )


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_worked_example_regression():
    t0 = time.monotonic()
    tol = 1e-9
    ok = True

    binst = bipartite_instance()
    borc = binst.oracle()
    basic_b = cuts.basic_sic(borc, {0, 1})
    ok &= abs(basic_b.c0 - 1.15) <= tol
    ok &= abs(basic_b.g[0] + 0.3) <= tol and abs(basic_b.g[1] + 1.0) <= tol
    improved_b = cuts.improved_sic(borc, {0, 1}, (0, 1))
    ok &= abs(improved_b.c0 - 1.15) <= tol
    ok &= abs(improved_b.g[0] + 0.3) <= tol and abs(improved_b.g[1] + 0.85) <= tol
    lifted_b = cuts.lift_sic(borc, improved_b, [0.0, 0.0, 0.0], binst.dominating_lists())
    ok &= lifted_b.pairs and abs(lifted_b.pairs[0][2] - 0.45) <= tol
    ok &= abs(lifted_b.c0 - 1.6) <= tol and abs(lifted_b.g[2] + 0.45) <= tol

    winst = cover_instance()
    worc = winst.oracle()
    basic_w = cuts.basic_sic(worc, {0, 1})
    ok &= abs(basic_w.c0 - 20.0) <= tol
    ok &= abs(basic_w.g[0] + 11.0) <= tol and abs(basic_w.g[1] + 14.0) <= tol
    imp_12 = cuts.improved_sic(worc, {0, 1}, (0, 1))
    ok &= abs(imp_12.g[0] + 11.0) <= tol and abs(imp_12.g[1] + 9.0) <= tol
    imp_21 = cuts.improved_sic(worc, {0, 1}, (1, 0))
    ok &= abs(imp_21.g[0] + 6.0) <= tol and abs(imp_21.g[1] + 14.0) <= tol
    lifted_w = cuts.lift_sic(worc, imp_12, [0.0, 0.0, 0.0], winst.dominating_lists())
    ok &= lifted_w.pairs and abs(lifted_w.pairs[0][2] - 4.0) <= tol
    ok &= abs(lifted_w.c0 - 24.0) <= tol and abs(lifted_w.g[2] + 4.0) <= tol
    alt = cuts.alternative_sic(worc, imp_12, [0.5, 0.0, 0.0], winst.knapsacks())
    ok &= alt.pairs == ((0, 2, 10.0),)
    ok &= abs(alt.rhs([1, 0, 0]) - 19.0) <= tol
    ok &= abs(alt.rhs([0, 0, 1]) - 10.0) <= tol

    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report(1, "worked-example regression", ok, f"{elapsed:.3f}s")


# ------------------------------------------------------ corpus (criteria 2/5/7)

def _settings_universe():
    no_d, with_d = [], []
    for fam, L, D, A, E, S in itertools.product(
        "BI", ("", "L"), ("", "D"), ("", "A"), ("", "E"), "123"
    ):
        s = f"{fam}{L}{D}{A}{E}-S{S}"
        (with_d if D else no_d).append(s)
    return [x for pair in zip(no_d, with_d) for x in pair]


SETTINGS = _settings_universe()


def _corpus_specs():
    specs = []
    for t in range(200):
        specs.append(
            ("wmcig", dict(n=6 + t % 7, r=1 + t % 3, B=2 + t % 2, k=1 + t % 3, seed=1000 + t))
        )
    for t in range(200):
        specs.append(
            (
                "biig",
                dict(
                    n=6 + t % 5,
                    m_mult=2 + t % 2,
                    B=2 + t % 2,
                    k=1 + t % 2,
                    d=(0.1, 0.2, 0.3)[t % 3],
                    seed=2000 + t,
                ),
            )
        )
    return specs


def _build_instance(kind, params):
    if kind == "wmcig":
        inst = gen_wmcig(params["n"], params["r"], 0.1, params["seed"])
        return dataclasses.replace(inst, B=params["B"], k=params["k"])
    return gen_biig(
        params["n"], params["m_mult"], params["B"], params["k"], params["d"], params["seed"]
    )


def _corpus_worker(job):
    index, kind, params = job
    inst = _build_instance(kind, params)
    oracle = inst.oracle()
    reference = bruteforce.brute_force_solve(inst, oracle)
    assigned = [SETTINGS[(10 * index + r) % 96] for r in range(10)]
    values = {}
    for setting in assigned:
        res = master.solve(inst, oracle, SolverConfig.from_setting(setting))
        values[setting] = (res.value, res.status)
    check = check_submodular_monotone(oracle, trials=1000, rng_seed=index)
    return {
        "index": index,
        "kind": kind,
        "reference": reference.value,
        "values": values,
        "submodular_ok": check.ok,
    }


@pytest.fixture(scope="module")
def corpus_results():
    jobs = [(i, kind, params) for i, (kind, params) in enumerate(_corpus_specs())]
    t0 = time.monotonic()
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_corpus_worker, jobs, chunksize=8))
    elapsed = time.monotonic() - t0
    return results, elapsed


def test_criterion_2_oracle_equivalence(corpus_results):
    results, elapsed = corpus_results
    counts = Counter()
    mismatches = []
    for res in results:
        tol = WMCIG_TOL if res["kind"] == "wmcig" else BIIG_TOL
        for setting, (value, status) in res["values"].items():
            counts[setting] += 1
            if status != "optimal" or value is None or abs(value - res["reference"]) > tol:
                mismatches.append((res["index"], setting, value, res["reference"]))
    coverage_ok = len(counts) == 96 and min(counts.values()) >= 40
    ok = not mismatches and coverage_ok and len(results) == 400
    extra = f"400 instances, {sum(counts.values())} solves, {elapsed:.0f}s"
    if mismatches:
        extra += f"; first mismatch {mismatches[0]}"
    _report(2, "oracle equivalence", ok, extra)


def test_criterion_5_dominance_safety(corpus_results):
    results, _ = corpus_results
    bad = []
    for res in results:
        with_d = {v for s, (v, _) in res["values"].items() if "D" in s.split("-")[0]}
        without = {v for s, (v, _) in res["values"].items() if "D" not in s.split("-")[0]}
        if not with_d or not without or with_d != without or len(with_d) != 1:
            bad.append(res["index"])
    _report(5, "dominance-inequality safety", not bad,
            f"{len(results)} instances" + (f"; bad {bad[:3]}" if bad else ""))


def test_criterion_7_submodularity_suite(corpus_results):
    results, _ = corpus_results
    bad = [r["index"] for r in results if not r["submodular_ok"]]
    _report(7, "submodularity suite", not bad,
            f"{len(results)} oracles x 1000 triples" + (f"; bad {bad[:3]}" if bad else ""))


# ---------------------------------------------------------------- criterion 3

def _random_feasible_set(oracle, knapsacks, rng):
    chosen = []
    for i in rng.permutation(oracle.n):
        if knapsacks.fits(chosen + [int(i)]):
            chosen.append(int(i))
            if rng.random() < 0.35:
                break
    return set(chosen)


def test_criterion_3_cut_validity():
    rng = np.random.default_rng(77)
    violations = 0
    checked = 0
    for idx in range(50):
        if idx % 2 == 0:
            inst = gen_wmcig(6 + idx % 4, 1 + idx % 3, 0.2, 4000 + idx)
            inst = dataclasses.replace(inst, B=2 + idx % 2, k=1 + idx % 2)
            tol = 1e-9
        else:
            inst = gen_biig(6 + idx % 4, 2, 2 + idx % 2, 1 + idx % 2, 0.25, 4100 + idx)
            tol = 1e-9
        oracle = inst.oracle()
        knap = inst.knapsacks()
        dom = inst.dominating_lists()
        xs = leader_feasible_vectors(inst.n, inst.k)
        phi_at = {
            x: bruteforce.brute_force_phi(oracle, [i for i in range(inst.n) if not x[i]], knap)
            for x in xs
        }
        for _ in range(20):
            s_hat = _random_feasible_set(oracle, knap, rng)
            if not s_hat:
                continue
            x_star = rng.random(inst.n)
            ordering = cuts.default_ordering(oracle, s_hat)
            base = cuts.improved_sic(oracle, s_hat, ordering)
            family_cuts = [
                cuts.basic_sic(oracle, s_hat),
                base,
                cuts.lift_sic(oracle, base, x_star, dom),
                cuts.alternative_sic(oracle, base, x_star, knap),
            ]
            for cut in family_cuts:
                for x, phi_val in phi_at.items():
                    checked += 1
                    if cut.rhs(x) > phi_val + tol:
                        violations += 1
    _report(3, "cut-validity property suite", violations == 0,
            f"{checked} cut evaluations, {violations} violations")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_dominance_order_properties():
    failures = []
    rng = np.random.default_rng(55)

    # improved >= basic and lifted >= improved (positive lift coefficients)
    lifted_seen = 0
    for idx in range(60):
        inst = gen_wmcig(7, 2 + idx % 2, 0.2, 5000 + idx)
        inst = dataclasses.replace(inst, B=3, k=2)
        oracle = inst.oracle()
        knap = inst.knapsacks()
        dom = inst.dominating_lists()
        s_hat, _ = follower.greedy(
            oracle, rng.permutation(inst.n)[: 1 + int(rng.integers(inst.n))],
            knapsacks=knap,
        )
        if not s_hat:
            continue
        ordering = cuts.default_ordering(oracle, s_hat)
        basic = cuts.basic_sic(oracle, s_hat)
        improved = cuts.improved_sic(oracle, s_hat, ordering)
        lifted = cuts.lift_sic(oracle, improved, [0.0] * inst.n, dom)
        if lifted.pairs:
            lifted_seen += 1
            if not all(coef > 0 for _, _, coef in lifted.pairs):
                failures.append(f"non-positive lift coefficient at idx {idx}")
        for x in all_binary_vectors(inst.n):
            if improved.rhs(x) < basic.rhs(x) - 1e-9:
                failures.append(f"improved < basic at idx {idx}, x={x}")
            if lifted.pairs and lifted.rhs(x) < improved.rhs(x) - 1e-9:
                failures.append(f"lifted < improved at idx {idx}, x={x}")
    if lifted_seen < 5:
        failures.append(f"only {lifted_seen} lifted cuts sampled")

    # prefix dominance on 100 sampled (set, prefix) pairs
    pairs_checked = 0
    inst = gen_wmcig(7, 3, 0.2, 5900)
    oracle = inst.oracle()
    xs = all_binary_vectors(7)
    while pairs_checked < 100:
        size = int(rng.integers(2, 7))
        order = [int(i) for i in rng.permutation(7)[:size]]
        cut_full = cuts.improved_sic(oracle, set(order), tuple(order))
        drop = int(rng.integers(1, size))
        prefix = order[:-drop]
        cut_prefix = cuts.improved_sic(oracle, set(prefix), tuple(prefix))
        if any(cut_full.rhs(x) < cut_prefix.rhs(x) - 1e-9 for x in xs):
            failures.append(f"prefix dominance broken for order {order}, drop {drop}")
        pairs_checked += 1

    # constructed counterexample: the maximal set's basic cut loses somewhere
    worc = cover_instance().oracle()
    maximal = cuts.basic_sic(worc, {0, 1})
    subset = cuts.basic_sic(worc, {1})
    if not maximal.rhs((1, 0, 0)) < subset.rhs((1, 0, 0)) - 1e-9:
        failures.append("maximal-set basic cut unexpectedly dominates")

    _report(4, "dominance-order properties", not failures,
            f"{pairs_checked} prefix pairs, {lifted_seen} lifted cuts"
            + (f"; {failures[0]}" if failures else ""))


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_sep_exactness():
    rng = np.random.default_rng(99)
    bad = 0
    for t in range(500):
        if t % 2 == 0:
            inst = gen_wmcig(6 + t % 7, 1 + t % 3, 0.1, 6000 + t)
            inst = dataclasses.replace(inst, B=2 + t % 2, k=1)
            tol = 0.0
        else:
            inst = gen_biig(6 + t % 5, 2, 2 + t % 2, 1, (0.1, 0.2, 0.3)[t % 3], 6500 + t)
            tol = 1e-9
        oracle = inst.oracle()
        knap = inst.knapsacks()
        mask = [i for i in range(inst.n) if rng.random() < 0.85]
        res = follower.solve_sep(oracle, mask, knap)
        ref = bruteforce.brute_force_phi(oracle, mask, knap)
        if res.status != "optimal" or abs(res.value - ref) > tol:
            bad += 1
    _report(6, "SEP exactness", bad == 0, f"500 pairs, {bad} mismatches")


# ---------------------------------------------------------------- criterion 8

APPENDIX_COLUMNS = {"time_s", "UB", "LB", "gap_pct", "rgap_pct", "nodes", "sic_total"}


def test_criterion_8_consistency_benchmark(tmp_path):
    # Large-scale wall-clock comparisons against commercial MIP machinery
    # and external bilevel solvers are out of scope at desk scale (they need
    # those solvers, hour-long limits, and fixed hardware).  The substitute
    # is the preceding criteria plus this consistency benchmark.
    paths = []
    for seed in range(1, 11):
        inst = gen_wmcig(30, 2, 0.1, seed)
        p = tmp_path / f"bench-{seed}.wmcig"
        problems.write_instance(inst, str(p))
        paths.append(p)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "\n".join(f"{p} {s}" for p in paths for s in master.LADDER_SETTINGS) + "\n"
    )
    out_csv = tmp_path / "bench.csv"
    t0 = time.monotonic()
    rc = cli.main(["bench", str(manifest), "--out", str(out_csv), "--threads", "2"])
    elapsed = time.monotonic() - t0
    ok = rc == 0
    with open(out_csv) as fh:
        reader = csv.DictReader(fh)
        ok &= APPENDIX_COLUMNS <= set(reader.fieldnames)
        rows = list(reader)
    ok &= len(rows) == len(paths) * len(master.LADDER_SETTINGS)
    by_instance = {}
    for row in rows:
        ok &= row["status"] == "optimal"
        by_instance.setdefault(row["instance"], set()).add(row["UB"])
    ok &= len(by_instance) == 10
    ok &= all(len(vals) == 1 for vals in by_instance.values())
    _report(8, "consistency benchmark (large-scale tables out of scope)", ok,
            f"{len(rows)} runs over {len(master.LADDER_SETTINGS)} settings, {elapsed:.0f}s")
