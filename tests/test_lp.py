import itertools
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from subig import lp
from subig.lp import INFEASIBLE, OPTIMAL, LpModel, solve_lp


def test_single_lower_bound_row():
    m = LpModel([0.0], [np.inf], [1.0])
    w = 0
    m.add_row({w: -1.0}, -5.0)  # w >= 5
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(5.0, abs=1e-9)


def test_two_variable_cut_row():
    m = LpModel([0.0, 0.0, 0.0], [1.0, 1.0, np.inf], [0.0, 0.0, 1.0])
    x1, x2, w = 0, 1, 2
    m.add_row({w: -1.0, x1: -11.0, x2: -14.0}, -20.0)  # w >= 20 - 11x1 - 14x2
    m.add_row({x1: 1.0, x2: 1.0}, 1.0)
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(6.0, abs=1e-7)
    assert res.x[x2] == pytest.approx(1.0, abs=1e-7)
    assert res.x[x1] == pytest.approx(0.0, abs=1e-7)


def test_deadline_is_checked_at_every_pivot(monkeypatch):
    """The LP of the test above pivots more than once from one factorization
    of its slack basis; how many times depends on how rounding breaks a tie
    between two leaving rows, so the unlimited run counts them.  With a
    fake clock that passes the deadline after the first pivot, the second
    raises before it pivots; with no deadline the LP ends where it ends by
    default."""
    m = LpModel([0.0, 0.0, 0.0], [1.0, 1.0, np.inf], [0.0, 0.0, 1.0])
    m.add_row({2: -1.0, 0: -11.0, 1: -14.0}, -20.0)
    m.add_row({0: 1.0, 1: 1.0}, 1.0)
    default = solve_lp(m)
    reads, factorizations = [], []
    lu_factor = lp.lu_factor

    def clock():
        reads.append(None)
        return 0.0 if len(reads) == 1 else 10.0

    def counting_lu_factor(B):
        factorizations.append(B.shape[0])
        return lu_factor(B)

    monkeypatch.setattr(lp, "time", SimpleNamespace(monotonic=clock))
    monkeypatch.setattr(lp, "lu_factor", counting_lu_factor)
    unlimited = solve_lp(m, deadline=math.inf)
    assert unlimited.iterations >= 2
    assert len(reads) == unlimited.iterations + 1  # one read per pivot, and the last
    assert factorizations == [2]  # the slack start; each pivot updates the inverse
    assert unlimited.objective == default.objective and np.array_equal(unlimited.x, default.x)
    reads.clear()
    factorizations.clear()
    with pytest.raises(lp.DeadlineExceeded):
        solve_lp(m, deadline=5.0)
    assert len(reads) == 2 and len(factorizations) == 1
    with pytest.raises(ValueError, match="NaN"):
        solve_lp(m, deadline=math.nan)


def test_infeasible_rows():
    m = LpModel([0.0], [np.inf], [1.0])
    m.add_row({0: 1.0}, -1.0)  # w <= -1 against w >= 0
    assert solve_lp(m).status == INFEASIBLE


def test_duplicate_rows_are_collapsed():
    m = LpModel([0.0, 0.0], [1.0, 1.0], [1.0, 0.0])
    a, b = 0, 1
    assert m.add_row({a: 1.0, b: 2.0}, 3.0) is True
    assert m.add_row({b: 2.0, a: 1.0}, 3.0) is False
    assert m.n_rows == 1
    assert m.add_row({a: 1.0, b: 2.0}, 4.0) is True  # different rhs is a new row
    assert m.n_rows == 2
    # a zero entry, stored as -0.0 or 0.0, is the same row as no entry
    assert m.add_row({a: 1.0}, 5.0) is True
    assert m.add_row({a: 1.0, b: 0.0}, 5.0) is False
    assert m.add_row({a: 1.0, b: -0.0}, 5.0) is False
    assert m.add_row({a: 1.0, b: -0.0}, 0.0) is True
    assert m.add_row({a: 1.0, b: 0.0}, -0.0) is False
    assert m.n_rows == 4
    assert np.array_equal(m.A, [[1.0, 2.0], [1.0, 2.0], [1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(m.rhs, [3.0, 4.0, 5.0, 0.0])
    # past the first 8 rows the row array doubles; its unused rows never match
    for k in range(6):
        assert m.add_row({a: float(k)}, 10.0 + k) is True
    assert m.n_rows == 10
    assert m.add_row({a: 1.0, b: 2.0}, 3.0) is False
    assert m.add_row({}, 0.0) is True
    assert m.n_rows == 11


def test_fix_unfix_roundtrip():
    m = LpModel([0.0, 0.0, 0.0], [1.0, 1.0, np.inf], [0.0, 0.0, 1.0])
    x1, x2, w = 0, 1, 2
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
    assert m.lb.tolist() == [0.0, 0.0, 0.0] and m.ub.tolist() == [1.0, 1.0, np.inf]
    again = solve_lp(m)
    assert again.objective == base.objective
    assert np.array_equal(again.x, base.x)  # bit-identical re-solve


def test_unfix_unknown_raises():
    m = LpModel([0.0], [1.0], [0.0])
    with pytest.raises(ValueError):
        solve_lp(m, {7: 0.0})
    with pytest.raises(ValueError):
        solve_lp(m, {-1: 0.0})  # numpy would take -1 as the last column


def test_fixing_outside_the_bounds_is_infeasible():
    m = LpModel([0.0, 0.0], [1.0, np.inf], [0.0, 1.0])
    x, w = 0, 1
    m.add_row({w: -1.0, x: 1.0}, 0.0)  # w >= x
    assert solve_lp(m, {x: 2.0}).status == INFEASIBLE
    assert solve_lp(m, {x: -0.5}).status == INFEASIBLE
    at_bound = solve_lp(m, {x: 1.0})
    assert at_bound.status == OPTIMAL and at_bound.objective == pytest.approx(1.0, abs=1e-9)


def test_resolve_is_bit_identical():
    m = LpModel([0.0] * 3, [1.0] * 3, [-1.0, 2.0, -0.5])
    m.add_row({0: 1.0, 2: 1.0}, 1.2)
    first = solve_lp(m)
    second = solve_lp(m)
    assert first.objective == second.objective
    assert np.array_equal(first.x, second.x)


def test_basis_that_is_not_dual_feasible_reaches_the_cold_optimum():
    m = LpModel([0.0, 0.0], [1.0, 1.0], [-1.0, -2.0])
    x1, x2 = 0, 1
    m.add_row({x1: 1.0, x2: 1.0}, 1.5)
    fixed = solve_lp(m, {x2: 0.0})
    assert fixed.status == OPTIMAL and fixed.objective == pytest.approx(-1.0, abs=1e-9)
    # released, x2 sits at 0 with reduced cost -2: the start is not dual feasible
    warm = solve_lp(m, basis=fixed.basis)
    cold = solve_lp(m)
    assert warm.status == OPTIMAL and warm.objective == pytest.approx(-2.5, abs=1e-9)
    assert np.array_equal(warm.x, cold.x)  # the unique optimum


def test_slack_basis_that_is_not_dual_feasible():
    # min -x over x >= 0: at the slack basis x sits at 0 and improves by
    # rising, with no upper bound to flip to, so the model is rejected when
    # it is built, whatever rows would have bounded it
    with pytest.raises(ValueError, match="without an upper bound"):
        LpModel([0.0], [np.inf], [-1.0])
    # an unbounded column whose objective favours its lower bound is fine
    for obj in (1.0, 0.0):
        assert LpModel([0.0], [np.inf], [obj]).n_vars == 1


def test_wrong_sign_boxed_start_flips_to_the_optimum():
    # min -x over x in [0, 5] with x <= 3: at the slack basis x sits at 0
    # with reduced cost -1; it flips to 5, and one dual pivot brings it to 3
    m = LpModel([0.0], [5.0], [-1.0])
    x = 0
    m.add_row({x: 1.0}, 3.0)
    res = solve_lp(m)
    assert res.status == OPTIMAL and res.objective == pytest.approx(-3.0, abs=1e-9)
    assert res.x[x] == pytest.approx(3.0, abs=1e-9)


def test_released_fixing_of_an_unbounded_column_raises():
    # min x - 2y with x >= 0, y in [0, 1] and y <= x: solved with x fixed at
    # 0, then from that basis without the fixing, x sits at 0 with reduced
    # cost -1 and no upper bound to flip to
    m = LpModel([0.0, 0.0], [np.inf, 1.0], [1.0, -2.0])
    x, y = 0, 1
    m.add_row({y: 1.0, x: -1.0}, 0.0)
    fixed = solve_lp(m, {x: 0.0})
    assert fixed.status == OPTIMAL and fixed.objective == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(lp.SolverError, match="without an upper bound"):
        solve_lp(m, basis=fixed.basis)
    cold = solve_lp(m)
    assert cold.status == OPTIMAL and cold.objective == pytest.approx(-1.0, abs=1e-9)


def test_wrong_sign_at_a_feasible_basis_flips_to_the_optimum():
    # min x1 with 1e-3 x1 + 5e-11 x2 >= 5e-4: x2's coefficient is below the
    # pivot tolerance, so x1 enters; at x1 = 0.5 the basis is primal
    # feasible, but x2 has reduced cost -5e-8, beyond the dual tolerance.
    # x2 flips to 1 and x1 falls to the exact optimum.
    m = LpModel([0.0, 0.0], [1.0, 1.0], [1.0, 0.0])
    m.add_row({0: -1e-3, 1: -5e-11}, -5e-4)
    res = solve_lp(m)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx((5e-4 - 5e-11) / 1e-3, abs=1e-9)
    assert res.x.tolist() == pytest.approx([(5e-4 - 5e-11) / 1e-3, 1.0], abs=1e-9)


def test_dual_degenerate_flipped_start_reaches_the_optimum():
    # a cold LP of the former follower branch-and-cut, with its bounding
    # rows: every y_j costs 0, so after theta flips to its upper bound the
    # ratio test ties at 0 on each pivot; without the relative pivot
    # tolerance a column with |alpha_j| of 4.7e-10 (the largest eligible
    # was 1.8e4) entered and the next basis was singular
    rows = [
        [1, 1, 1, 1, 1, 1, 1, 1, 1, 0],
        [-89, 0, -45, -211, 0, 0, 0, -89, -211, 1],
        [-304, -144, -282, -211, -298, -91, -174, -275, -211, 1],
        [-304, -144, -282, -211, -298, -335, -253, -275, -211, 1],
        [-304, -354, -282, -211, -298, 0, -219, -275, -211, 1],
        [-164, -354, -282, -211, -298, -335, -298, -275, -211, 1],
        [-304, -354, -282, -211, -298, -335, -368, -275, -211, 1],
        [-304, -354, -45, -211, -298, -335, -226, -275, -211, 1],
        [-304, -354, -282, -211, -298, -335, -368, -89, -211, 1],
    ]
    rhs = [2, 1398, 836, 662, 696, 687, 840, 689, 547]
    m = LpModel([0.0] * 10, [1.0] * 9 + [2040.0], [0.0] * 9 + [-1.0])
    for coefs, b in zip(rows, rhs):
        m.add_row({j: float(c) for j, c in enumerate(coefs) if c != 0}, float(b))
    res = solve_lp(m)
    assert res.status == OPTIMAL and res.objective == pytest.approx(-1216.0, abs=1e-7)


def test_basis_from_a_larger_model_is_rejected():
    m = LpModel([0.0], [1.0], [1.0])
    m.add_row({0: 1.0}, 1.0)
    big = solve_lp(m)
    small = LpModel([0.0], [1.0], [1.0])
    with pytest.raises(ValueError, match="another model"):
        solve_lp(small, basis=big.basis)
    # one row, as in the basis, but another column count
    for n in (2, 0):
        other = LpModel([0.0] * n, [1.0] * n, [1.0] * n)
        other.add_row({j: 1.0 for j in range(n)}, 1.0)
        with pytest.raises(ValueError, match="another model"):
            solve_lp(other, basis=big.basis)


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
        lows = [0.0] * 3
        ups = [float(rng.integers(1, 4)) for _ in range(3)]
        m = LpModel(lows, ups, [float(rng.normal()) for _ in range(3)])
        rows, rhs = [], []
        for _ in range(int(rng.integers(1, 5))):
            coefs = [float(np.round(rng.normal(), 2)) for _ in range(3)]
            b = float(np.round(rng.normal() + 1.0, 2))
            m.add_row({j: coefs[j] for j in range(3) if coefs[j] != 0.0}, b)
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


# A rowless model inverts a 0x0 basis, and must do so without a word on
# stderr.
def test_rowless_model(capfd):
    m = LpModel([0.0], [2.0], [-1.0])
    res = solve_lp(m)
    assert res.status == OPTIMAL and res.x[0] == 2.0
    assert capfd.readouterr().err == ""


def test_rowless_free_variable(capfd):
    with pytest.raises(ValueError, match="without an upper bound"):
        LpModel([0.0], [np.inf], [-1.0])
    m = LpModel([-2.0], [3.0], [-1.0])
    res = solve_lp(m)
    assert res.status == OPTIMAL and res.x[0] == 3.0
    assert capfd.readouterr().err == ""


def test_singular_basis_raises():
    with pytest.raises(lp.SolverError, match="singular"):
        lp.lu_factor([[1, 2], [2, 4]])


def test_singular_start_basis_raises():
    """A start basis without its inverse, as an open master node keeps it,
    whose columns are dependent: the first pivot's factorization raises."""
    m = LpModel([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
    m.add_row({0: -1.0, 1: -1.0}, -1.0)
    m.add_row({0: -2.0, 1: -2.0}, -2.0)
    start = lp.Basis(np.array([0, 1]), np.zeros(4, dtype=np.int8), None, 0)
    with pytest.raises(lp.SolverError, match="singular"):
        solve_lp(m, basis=start)
    assert solve_lp(m).objective == pytest.approx(1.0, abs=1e-9)


def test_drifted_inverse_is_refactorized_at_its_first_pivot():
    """A carried inverse 1e-6 off its basis fails the entering column's
    residual check at the first pivot, so both children refactorize and
    reach the cold optimum; trusted, it ends 2e-6 and 6e-5 off."""
    obj, lows, ups, rows, rhs = _random_lp(np.random.default_rng(17))
    m = _embed(obj, lows, ups, rows, rhs)
    parent = solve_lp(m).basis
    drifted = lp.Basis(parent.basic, parent.stat, parent.inverse + 1e-6, 1)
    for value in (lows[0], ups[0]):
        child, cold = solve_lp(m, {0: value}, drifted), solve_lp(m, {0: value})
        assert child.iterations > 0 and child.objective == pytest.approx(cold.objective, abs=1e-9)


def test_drifted_optimum_is_refactorized_before_it_is_returned(monkeypatch):
    """The slack start's factorization comes back as (I + E) B^-1, E being
    1e-7 off the diagonal: each pivot row still has 1 at its leaving column,
    so the pivot's drift test passes, but the basic values are off.  The LP
    reaches its optimum in two pivots; its rows miss it, so the solve
    refactorizes and returns HiGHS's value.  Trusted, it ends 1.1e-6 off."""
    from scipy.optimize import linprog

    obj, lows, ups, rows, rhs = _random_lp(np.random.default_rng(2))
    m = _embed(obj, lows, ups, rows, rhs)
    factorizations = []
    lu_factor = lp.lu_factor

    def drifting_lu_factor(B):
        inv = lu_factor(B)
        factorizations.append(B.shape[0])
        if len(factorizations) == 1:
            off = np.full(inv.shape, 1e-7)
            np.fill_diagonal(off, 0.0)
            inv = inv + off @ inv
        return inv

    monkeypatch.setattr(lp, "lu_factor", drifting_lu_factor)
    res = solve_lp(m)
    ref = linprog(obj, A_ub=rows, b_ub=rhs, bounds=list(zip(lows, ups)), method="highs")
    assert res.status == OPTIMAL and res.iterations > 0
    assert len(factorizations) == 2
    assert res.objective == pytest.approx(ref.fun, abs=1e-9)


def test_cycling_master_lp_is_solved():
    """A master LP of a WMCIG n=75 solve (setting I-S1, seed 7), 194 integral
    rows over 76 columns with 7 columns fixed at 0.  Without the cost
    perturbation the dual loop cycles from the slack basis, smallest-index
    picks and all, until the iteration limit; with it the solve ends at
    HiGHS's value, 3017."""
    from scipy.optimize import linprog

    data = np.load(Path(__file__).parent / "data" / "cycling_master_lp.npz")
    m = _embed(data["obj"], data["lb"], data["ub"], data["A"], data["rhs"])
    assert m.n_rows == 194 and m.n_vars == 76
    fixed = {int(j): 0.0 for j in data["fixed_at_zero"]}
    res = solve_lp(m, fixed)
    bounds = [(0.0, 0.0) if j in fixed else b for j, b in enumerate(zip(data["lb"], data["ub"]))]
    ref = linprog(data["obj"], A_ub=data["A"], b_ub=data["rhs"], bounds=bounds, method="highs")
    assert ref.fun == pytest.approx(3017.0, abs=1e-9)
    assert res.status == OPTIMAL and res.objective == pytest.approx(ref.fun, abs=1e-7)


def test_basis_inverse_stays_accurate_along_a_warm_chain():
    """A 72-row LP solved once per added row, each solve from the last
    basis: the carried inverse takes up to REFACTOR_EVERY - 1 = 49 rank-1
    updates and row extensions before it is refactorized, and still inverts
    its basis, ||B B^-1 - I|| (max row sum) staying below 1e-9."""
    obj, lows, ups, rows, rhs = _random_lp(np.random.default_rng(0))
    m, basis, updates = LpModel(lows, ups, obj), None, []
    for coefs, b in zip(rows, rhs):
        m.add_row({j: float(c) for j, c in enumerate(coefs) if c != 0.0}, float(b))
        basis = solve_lp(m, basis=basis).basis
        full = np.hstack([m.A, np.eye(m.n_rows)])
        err = np.abs(full[:, basis.basic] @ basis.inverse - np.eye(m.n_rows)).sum(axis=1).max()
        assert err < 1e-9
        updates.append(basis.updates)
    assert max(updates) == lp.REFACTOR_EVERY - 1


def test_children_leave_their_shared_basis_unchanged():
    """Two children solved from one parent basis, after a new row and with
    opposite fixings, each continue its inverse's updates; the parent's
    arrays stay bit-identical."""
    obj, lows, ups, rows, rhs = _random_lp(np.random.default_rng(17))
    m = _embed(obj, lows, ups, rows[:-1], rhs[:-1])  # 24 rows
    parent = solve_lp(m).basis
    kept = [a.copy() for a in (parent.basic, parent.stat, parent.inverse)]
    m.add_row({j: float(c) for j, c in enumerate(rows[-1]) if c != 0.0}, float(rhs[-1]))
    for value in (lows[0], ups[0]):
        child = solve_lp(m, {0: value}, parent)
        assert child.status == OPTIMAL and child.iterations > 0
        assert child.basis.updates == parent.updates + child.iterations
    assert all(np.array_equal(a, b) for a, b in zip(kept, (parent.basic, parent.stat, parent.inverse)))


@pytest.mark.parametrize(
    "build",
    [
        lambda m: m.add_row({0: np.nan}, 1.0),
        lambda m: m.add_row({0: 1.0}, np.inf),
        lambda m: LpModel([0.0], [1.0], [np.nan]),
        lambda m: LpModel([np.nan], [1.0], [0.0]),
        lambda m: LpModel([0.0], [np.nan], [0.0]),
        lambda m: LpModel([np.inf], [np.inf], [0.0]),
        lambda m: LpModel([-np.inf], [1.0], [0.0]),
        lambda m: LpModel([2.0], [1.0], [0.0]),
        lambda m: solve_lp(m, {0: np.nan}),
        lambda m: solve_lp(m, {0: np.inf}),
    ],
    ids=[
        "nan-coef", "inf-rhs", "nan-obj", "nan-bound", "nan-upper-bound",
        "inf-lower-bound", "minus-inf-lower-bound", "empty-range", "nan-fixing", "inf-fixing",
    ],
)
def test_non_finite_data_is_rejected(build):
    m = LpModel([0.0], [np.inf], [1.0])  # an infinite fixing is inside its bounds
    with pytest.raises(ValueError):
        build(m)
    assert m.n_vars == 1 and m.n_rows == 0


def test_non_finite_optimum_raises():
    m = LpModel([0.0], [1e308], [-1e308])  # finite data, objective overflows
    with np.errstate(over="ignore"), pytest.raises(lp.SolverError, match="not finite"):
        solve_lp(m)


def _random_lp(rng):
    """A seeded LP of up to benchmark size: mostly boxed columns plus a few
    half-bounded and fixed ones, and up to 60 sparse rows.  Each
    half-bounded column's objective favours its lower bound, so the LP is
    bounded (``LpModel`` rejects it otherwise); a coin flip negates the
    objective first, which keeps the draws of the former max models.  The rows
    hold at a random point inside the bounds, yet about a third have
    negative right-hand sides, so the slack basis is primal infeasible and dual
    pivots run; some repeat at a scale of 2 or 3, which makes bases
    degenerate; and one LP in five gets a contradictory pair of rows."""
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
            lo, hi = -float(rng.integers(1, 3)), np.inf
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
    if rng.random() >= 0.5:
        obj = -obj
    half = np.isinf(ups)
    obj[half] = np.abs(obj[half])
    return obj, lows, ups, np.array(rows), np.array(rhs)


def _embed(obj, lows, ups, rows, rhs):
    m = LpModel(lows, ups, obj)
    for coefs, b in zip(rows, rhs):
        m.add_row({j: float(c) for j, c in enumerate(coefs) if c != 0.0}, float(b))
    return m


_DIFFERENTIAL_LPS = 150


def test_against_highs():
    # imported here only: the package never loads scipy (see
    # tests/test_cli.py::test_cli_import_leaves_scipy_optimize_unloaded)
    from scipy.optimize import linprog

    rng = np.random.default_rng(2021)
    statuses = {0: OPTIMAL, 2: INFEASIBLE}
    seen = set()
    pivots = 0
    for _ in range(_DIFFERENTIAL_LPS):
        obj, lows, ups, rows, rhs = _random_lp(rng)
        model = _embed(obj, lows, ups, rows, rhs)
        res = solve_lp(model)
        pivots += res.iterations
        ref = linprog(obj, A_ub=rows, b_ub=rhs, bounds=list(zip(lows, ups)), method="highs")
        assert res.status == statuses[ref.status]
        if res.status == OPTIMAL:
            assert res.objective == pytest.approx(ref.fun, abs=1e-7)
            # the tableau's slack block inverts the basis it returns
            full = np.hstack([model.A, np.eye(model.n_rows)])
            product = res.basis.inverse @ full[:, res.basis.basic]
            assert np.abs(product - np.eye(model.n_rows)).max() < 1e-9
        seen.add(res.status)
    assert seen == {OPTIMAL, INFEASIBLE}
    # the two-phase primal start with artificial columns took 5,175
    assert pivots < 5175


def _grown_lp(rng):
    """A `_random_lp` model solved with half its rows, then given the rest
    and random fixings inside the bounds (about one column in six).
    Returns the data with the fixed bounds, the full model, the fixings and
    the basis of the half-row solve."""
    obj, lows, ups, rows, rhs = _random_lp(rng)
    m = LpModel(lows, ups, obj)

    def add(coefs, b):
        m.add_row({j: float(c) for j, c in enumerate(coefs) if c != 0.0}, float(b))

    half = len(rows) // 2
    for coefs, b in zip(rows[:half], rhs[:half]):
        add(coefs, b)
    basis = solve_lp(m).basis
    for coefs, b in zip(rows[half:], rhs[half:]):
        add(coefs, b)
    fixed = {}
    for j in np.flatnonzero(rng.random(len(obj)) < 0.15).tolist():
        value = rng.uniform(max(lows[j], -2.0), min(ups[j], 2.0))
        fixed[j] = float(np.round(value)) if rng.random() < 0.7 else float(value)
    fixed_lows = [fixed.get(j, lo) for j, lo in enumerate(lows)]
    fixed_ups = [fixed.get(j, hi) for j, hi in enumerate(ups)]
    return (obj, fixed_lows, fixed_ups, rows, rhs), m, fixed, basis


def test_warm_resolve_matches_cold_and_highs():
    """After rows are added and columns fixed, a re-solve from the earlier
    optimal basis reaches the cold solve's and HiGHS's status and objective,
    in fewer pivots than the cold solves from the slack basis."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(2022)
    statuses = {0: OPTIMAL, 2: INFEASIBLE}
    seen = set()
    warm_iters = cold_iters = 0
    for _ in range(_DIFFERENTIAL_LPS):
        (obj, lows, ups, rows, rhs), m, fixed, basis = _grown_lp(rng)
        warm = solve_lp(m, fixed, basis)
        cold = solve_lp(m, fixed)
        if basis is not None:
            warm_iters += warm.iterations
            cold_iters += cold.iterations
        ref = linprog(obj, A_ub=rows, b_ub=rhs, bounds=list(zip(lows, ups)), method="highs")
        assert warm.status == cold.status == statuses[ref.status]
        if warm.status == OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)
            assert warm.objective == pytest.approx(ref.fun, abs=1e-7)
        seen.add(warm.status)
    assert seen == {OPTIMAL, INFEASIBLE}
    assert warm_iters < 0.9 * cold_iters


def test_bland_fallback_matches_default(monkeypatch):
    """Bland's rule from the first degenerate pivot reaches the same status
    and objective on the differential LPs and on their warm re-solves,
    through different pivots."""

    def run_all(solve_args):
        rng = np.random.default_rng(2021)
        out, iters = [], 0
        for _ in range(_DIFFERENTIAL_LPS):
            out.append(solve_lp(*solve_args(rng)))
            iters += out[-1].iterations
        return out, iters

    cold = lambda rng: (_embed(*_random_lp(rng)),)
    warm = lambda rng: _grown_lp(rng)[1:]
    for solve_args in (cold, warm):
        monkeypatch.setattr(lp, "DEGENERATE_LIMIT", 1000)
        default, default_iters = run_all(solve_args)
        monkeypatch.setattr(lp, "DEGENERATE_LIMIT", 1)
        bland, bland_iters = run_all(solve_args)
        assert bland_iters != default_iters  # the fallback took over somewhere
        for a, b in zip(default, bland):
            assert a.status == b.status
            if a.status == OPTIMAL:
                assert a.objective == pytest.approx(b.objective, abs=1e-7)
