import itertools

import numpy as np
import pytest
from scipy.linalg import lu_factor

from subig import lp
from subig.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpModel, solve_lp


def test_single_lower_bound_row():
    m = LpModel("min")
    w = m.add_var(0.0, np.inf, obj=1.0)
    m.add_row({w: -1.0}, -5.0)  # w >= 5
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(5.0, abs=1e-9)


def test_two_variable_cut_row():
    m = LpModel("min")
    x1 = m.add_var(0.0, 1.0)
    x2 = m.add_var(0.0, 1.0)
    w = m.add_var(0.0, np.inf, obj=1.0)
    m.add_row({w: -1.0, x1: -11.0, x2: -14.0}, -20.0)  # w >= 20 - 11x1 - 14x2
    m.add_row({x1: 1.0, x2: 1.0}, 1.0)
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(6.0, abs=1e-7)
    assert res.x[x2] == pytest.approx(1.0, abs=1e-7)
    assert res.x[x1] == pytest.approx(0.0, abs=1e-7)


def test_infeasible_rows():
    m = LpModel("min")
    w = m.add_var(0.0, np.inf, obj=1.0)
    m.add_row({w: 1.0}, -1.0)  # w <= -1 against w >= 0
    assert solve_lp(m).status == INFEASIBLE


def test_duplicate_rows_are_collapsed():
    m = LpModel("min")
    a = m.add_var(0.0, 1.0, obj=1.0)
    b = m.add_var(0.0, 1.0)
    assert m.add_row({a: 1.0, b: 2.0}, 3.0) is True
    assert m.add_row({b: 2.0, a: 1.0}, 3.0) is False
    assert m.n_rows == 1
    assert m.add_row({a: 1.0, b: 2.0}, 4.0) is True  # different rhs is a new row
    assert m.n_rows == 2


def test_fix_unfix_roundtrip():
    m = LpModel("min")
    x1 = m.add_var(0.0, 1.0)
    x2 = m.add_var(0.0, 1.0)
    w = m.add_var(0.0, np.inf, obj=1.0)
    m.add_row({w: -1.0, x1: -11.0, x2: -14.0}, -20.0)
    base = solve_lp(m)
    assert base.status == OPTIMAL and base.objective == pytest.approx(0.0, abs=1e-9)
    fixed = solve_lp(m, {x1: 1.0})
    assert fixed.status == OPTIMAL
    assert fixed.objective == pytest.approx(0.0, abs=1e-9)
    assert fixed.x[x1] == 1.0
    # any optimal vertex must push x2 far enough to cover the row at w = 0
    assert 9.0 - 14.0 * fixed.x[x2] <= 1e-7
    # the fixing held for that one solve only
    assert m.lb == [0.0, 0.0, 0.0] and m.ub == [1.0, 1.0, np.inf]
    again = solve_lp(m)
    assert again.objective == base.objective
    assert np.array_equal(again.x, base.x)  # bit-identical re-solve


def test_unfix_unknown_raises():
    m = LpModel("min")
    m.add_var(0.0, 1.0)
    with pytest.raises(ValueError):
        solve_lp(m, {7: 0.0})
    with pytest.raises(ValueError):
        solve_lp(m, {-1: 0.0})  # numpy would take -1 as the last column


def test_resolve_is_bit_identical():
    m = LpModel("max")
    xs = [m.add_var(0.0, 1.0, obj=c) for c in (1.0, -2.0, 0.5)]
    m.add_row({xs[0]: 1.0, xs[2]: 1.0}, 1.2)
    first = solve_lp(m)
    second = solve_lp(m)
    assert first.objective == second.objective
    assert np.array_equal(first.x, second.x)


def _vertices(rows, rhs, lows, ups):
    """All vertices of {A x <= b, l <= x <= u} in three dimensions, by
    intersecting triples of tight constraints."""
    planes = []
    for coefs, b in zip(rows, rhs):
        planes.append((np.array(coefs, dtype=float), float(b)))
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        planes.append((e.copy(), ups[j]))
        planes.append((-e, -lows[j]))
    pts = []
    for trio in itertools.combinations(planes, 3):
        A = np.array([p[0] for p in trio])
        b = np.array([p[1] for p in trio])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        feas = all(np.dot(c, x) <= bb + 1e-7 for c, bb in planes)
        if feas:
            pts.append(x)
    return pts


def test_against_vertex_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = LpModel("min")
        lows = [0.0] * 3
        ups = [float(rng.integers(1, 4)) for _ in range(3)]
        xs = [m.add_var(lows[j], ups[j], obj=float(rng.normal())) for j in range(3)]
        rows, rhs = [], []
        for _ in range(int(rng.integers(1, 5))):
            coefs = [float(np.round(rng.normal(), 2)) for _ in range(3)]
            b = float(np.round(rng.normal() + 1.0, 2))
            m.add_row({xs[j]: coefs[j] for j in range(3) if coefs[j] != 0.0}, b)
            rows.append(coefs)
            rhs.append(b)
        res = solve_lp(m)
        verts = _vertices(rows, rhs, lows, ups)
        if not verts:
            assert res.status == INFEASIBLE
            continue
        assert res.status == OPTIMAL
        best = min(float(np.dot(m.obj, v)) for v in verts)
        assert res.objective == pytest.approx(best, abs=1e-6)
        # optimum never exceeds any feasible vertex objective
        for v in verts:
            assert res.objective <= float(np.dot(m.obj, v)) + 1e-6


def test_rowless_model():
    m = LpModel("min")
    a = m.add_var(0.0, 2.0, obj=-1.0)
    res = solve_lp(m)
    assert res.status == OPTIMAL and res.x[a] == 2.0


def test_rowless_free_variable():
    m = LpModel("min")
    m.add_var(-np.inf, np.inf, obj=1.0)
    assert solve_lp(m).status == UNBOUNDED
    m = LpModel("max")
    v = m.add_var(-np.inf, 3.0, obj=1.0)
    res = solve_lp(m)
    assert res.status == OPTIMAL and res.x[v] == 3.0


def _random_lp(rng):
    """A seeded LP of up to benchmark size: mostly boxed columns plus a few
    half-bounded, free and fixed ones, and up to 60 sparse rows.  The rows
    hold at a random point inside the bounds, yet about a third have
    negative right-hand sides, so phase 1 runs; some repeat at a scale of 2 or 3,
    which makes bases degenerate; and one LP in five gets a contradictory
    pair of rows."""
    n = int(rng.integers(1, 41))
    lows, ups, point = [], [], []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.75:
            lo, hi = 0.0, float(rng.integers(1, 4))
        elif kind < 0.85:
            lo, hi = -float(rng.integers(0, 3)), float(rng.integers(0, 3))
        elif kind < 0.93:
            lo, hi = 0.0, np.inf
        elif kind < 0.96:
            lo, hi = -np.inf, np.inf
        else:
            lo = hi = float(rng.integers(0, 2))
        lows.append(lo)
        ups.append(hi)
        point.append(rng.uniform(max(lo, -2.0), min(hi, 2.0)))
    obj = np.round(rng.normal(size=n), 1)
    rows, rhs = [], []
    for _ in range(int(rng.integers(1, 61))):
        k = int(rng.integers(1, min(n, 8) + 1))
        coefs = np.zeros(n)
        coefs[rng.choice(n, k, replace=False)] = np.round(rng.normal(size=k), 1)
        b = np.ceil(10.0 * (coefs @ point + rng.uniform(0.0, 1.0))) / 10.0
        rows.append(coefs)
        rhs.append(b)
        if rng.random() < 0.2:
            scale = float(rng.integers(2, 4))
            rows.append(scale * coefs)
            rhs.append(scale * b)
    if rng.random() < 0.2:
        rows.append(-rows[0])
        rhs.append(-rhs[0] - 0.5)
    return "min" if rng.random() < 0.5 else "max", obj, lows, ups, np.array(rows), np.array(rhs)


def _solve_embedded(sense, obj, lows, ups, rows, rhs):
    m = LpModel(sense)
    for j in range(len(obj)):
        m.add_var(lows[j], ups[j], obj=float(obj[j]))
    for coefs, b in zip(rows, rhs):
        m.add_row({j: float(c) for j, c in enumerate(coefs) if c != 0.0}, float(b))
    return solve_lp(m)


_DIFFERENTIAL_LPS = 150


def test_against_highs():
    from scipy.optimize import linprog  # the package itself never loads scipy.optimize

    rng = np.random.default_rng(2021)
    statuses = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}
    seen = set()
    for _ in range(_DIFFERENTIAL_LPS):
        sense, obj, lows, ups, rows, rhs = _random_lp(rng)
        res = _solve_embedded(sense, obj, lows, ups, rows, rhs)
        sign = 1.0 if sense == "min" else -1.0
        ref = linprog(sign * obj, A_ub=rows, b_ub=rhs, bounds=list(zip(lows, ups)), method="highs")
        assert res.status == statuses[ref.status]
        if res.status == OPTIMAL:
            assert res.objective == pytest.approx(sign * ref.fun, abs=1e-7)
        seen.add(res.status)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_bland_fallback_matches_default(monkeypatch):
    """Bland's rule from the first degenerate pivot reaches the same status
    and objective on the differential LPs, through different pivots."""
    factorizations = []

    def counting_lu_factor(B):
        factorizations.append(B.shape[0])
        return lu_factor(B)

    monkeypatch.setattr(lp, "lu_factor", counting_lu_factor)

    def run_all():
        rng = np.random.default_rng(2021)
        start = len(factorizations)
        out = [_solve_embedded(*_random_lp(rng)) for _ in range(_DIFFERENTIAL_LPS)]
        return out, len(factorizations) - start

    default, default_iters = run_all()
    monkeypatch.setattr(lp, "DEGENERATE_LIMIT", 1)
    bland, bland_iters = run_all()
    assert bland_iters != default_iters  # the fallback took over somewhere
    for a, b in zip(default, bland):
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert a.objective == pytest.approx(b.objective, abs=1e-7)
