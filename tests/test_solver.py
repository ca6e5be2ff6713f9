"""Simplex solver: exact rational oracle, scipy cross-checks, determinism."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from tropstat import DescentConfig, LinearProgram, minimize_convex, solve_lp
from tropstat.solver import INFEASIBLE, MAX, MIN, OPTIMAL, UNBOUNDED, _pivot, _simplex

scipy_opt = pytest.importorskip("scipy.optimize")


def exact_lp_optimum(lp: LinearProgram):
    """Exact optimum by enumerating basic solutions over the rationals.

    Converts to the form min c.x, A x <= b with x free by treating every
    A_ub row, both directions of every A_eq row, and every finite bound as
    a row, then intersects all n-subsets of rows.  Exponential; only for
    tiny LPs.
    """
    n = lp.n_vars()
    sign = 1 if lp.sense == MIN else -1
    c = [Fraction(v).limit_denominator(10**9) * sign for v in lp.objective]
    rows = []
    for A, b, both in ((lp.A_ub, lp.b_ub, False), (lp.A_eq, lp.b_eq, True)):
        for row, rhs in zip(A.tolist(), b.tolist()):
            r = [Fraction(v).limit_denominator(10**9) for v in row]
            q = Fraction(rhs).limit_denominator(10**9)
            rows.append((r, q))
            if both:
                rows.append(([-v for v in r], -q))
    for j, (lo, hi) in enumerate(lp.bounds or [(None, None)] * n):
        if lo is not None:
            r = [Fraction(0)] * n
            r[j] = Fraction(-1)
            rows.append((r, -Fraction(lo).limit_denominator(10**9)))
        if hi is not None:
            r = [Fraction(0)] * n
            r[j] = Fraction(1)
            rows.append((r, Fraction(hi).limit_denominator(10**9)))

    def feasible(x):
        return all(sum(a * v for a, v in zip(r, x)) <= b for r, b in rows)

    def solve_square(subset):
        A = [rows[i][0][:] for i in subset]
        b = [rows[i][1] for i in subset]
        # Gaussian elimination over Fraction
        x = [Fraction(0)] * n
        M = [A[i][:] + [b[i]] for i in range(n)]
        for col in range(n):
            piv = next((r for r in range(col, n) if M[r][col] != 0), None)
            if piv is None:
                return None
            M[col], M[piv] = M[piv], M[col]
            inv = M[col][col]
            M[col] = [v / inv for v in M[col]]
            for r in range(n):
                if r != col and M[r][col] != 0:
                    f = M[r][col]
                    M[r] = [v - f * w for v, w in zip(M[r], M[col])]
        for i in range(n):
            x[i] = M[i][n]
        return x

    best = None
    for subset in combinations(range(len(rows)), n):
        x = solve_square(subset)
        if x is None or not feasible(x):
            continue
        val = sum(ci * xi for ci, xi in zip(c, x))
        if best is None or val < best:
            best = val
    if best is None:
        return None
    return float(best) * sign


def random_lp(rng, n, m, with_bounds=True):
    """m random rows: 60 % "<=", 30 % ">=" (negated into A_ub), 10 % "="."""
    ub, eq = [], []
    for _ in range(m):
        coeffs = rng.integers(-4, 5, size=n).astype(float)
        rel = rng.choice(["<=", ">=", "="], p=[0.6, 0.3, 0.1])
        rhs = float(rng.integers(-6, 7))
        if rel == "=":
            eq.append((coeffs, rhs))
        else:
            sign = 1.0 if rel == "<=" else -1.0
            ub.append((sign * coeffs, sign * rhs))
    bounds = None
    if with_bounds:
        bounds = []
        for _ in range(n):
            kind = rng.integers(0, 4)
            lo = float(rng.integers(-5, 1)) if kind in (1, 3) else None
            hi = float(rng.integers(0, 6)) if kind in (2, 3) else None
            if lo is not None and hi is not None and hi < lo:
                lo, hi = hi, lo
            bounds.append((lo, hi))
    obj = list(rng.integers(-3, 4, size=n).astype(float))
    sense = MIN if rng.integers(0, 2) == 0 else MAX

    def block(rows):
        return (np.array([r for r, _ in rows], dtype=float).reshape(len(rows), n),
                np.array([b for _, b in rows], dtype=float))

    return LinearProgram(sense, obj, *block(ub), *block(eq), bounds)


def scipy_solve(lp: LinearProgram):
    n = lp.n_vars()
    sign = 1.0 if lp.sense == MIN else -1.0
    c = sign * np.asarray(lp.objective, dtype=float)
    res = scipy_opt.linprog(
        c,
        A_ub=lp.A_ub if len(lp.A_ub) else None,
        b_ub=lp.b_ub if len(lp.b_ub) else None,
        A_eq=lp.A_eq if len(lp.A_eq) else None,
        b_eq=lp.b_eq if len(lp.b_eq) else None,
        bounds=lp.bounds or [(None, None)] * n,
        method="highs",
    )
    if res.status == 0:
        return OPTIMAL, sign * res.fun
    if res.status == 2:
        return INFEASIBLE, None
    if res.status == 3:
        return UNBOUNDED, None
    raise RuntimeError(f"scipy status {res.status}")


class TestBasics:
    def test_simple_min(self):
        lp = LinearProgram(
            MIN, [1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [-1.0, -2.0],
            bounds=[(0.0, None), (0.0, None)],
        )
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_free_variables(self):
        lp = LinearProgram(MIN, [1.0], [[-1.0]], [5.0])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(MIN, [1.0], [[-1.0], [1.0]], [-2.0, 1.0])
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram(MAX, [1.0], [[-1.0]], [0.0])
        assert solve_lp(lp).status == UNBOUNDED

    def test_equality_rows(self):
        lp = LinearProgram(
            MAX, [1.0, 1.0], [[1.0, -1.0]], [1.0], [[1.0, 1.0]], [4.0],
            [(0.0, None), (0.0, None)],
        )
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(4.0, abs=1e-9)

    def test_crossed_bounds_infeasible(self):
        lp = LinearProgram(MIN, [1.0], np.zeros((0, 1)), np.zeros(0), bounds=[(2.0, 1.0)])
        assert solve_lp(lp).status == INFEASIBLE

    @pytest.mark.parametrize("sense, status", [(MIN, OPTIMAL), (MAX, UNBOUNDED)])
    def test_no_rows(self, sense, status):
        lp = LinearProgram(sense, [1.0, 0.0], np.zeros((0, 2)), np.zeros(0),
                           bounds=[(1.0, None), (None, None)])
        sol = solve_lp(lp)
        assert sol.status == status
        if status == OPTIMAL:
            assert sol.x.tolist() == [1.0, 0.0]

    def test_solution_satisfies_constraints(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            lp = random_lp(rng, 3, 4)
            sol = solve_lp(lp)
            if sol.status != OPTIMAL:
                continue
            assert (lp.A_ub @ sol.x <= lp.b_ub + 1e-7).all()
            assert (np.abs(lp.A_eq @ sol.x - lp.b_eq) <= 1e-7).all()

    @pytest.mark.parametrize(
        "objective, row",
        [([np.nan, 1.0], [1.0, 0.0]), ([1.0, 1.0], [np.inf, 0.0]),
         ([1.0, 1.0], [0.0, np.nan])],
    )
    def test_non_finite_coefficients_rejected(self, objective, row):
        lp = LinearProgram(MIN, objective, [row], [1.0])
        with pytest.raises(ValueError, match="must be finite"):
            solve_lp(lp)

    @pytest.mark.parametrize(
        "args, message",
        [(([[1.0]], [1.0]), "row length mismatch"),
         (([[1.0, 0.0]], [1.0, 2.0]), "rhs length mismatch"),
         (([[1.0, 0.0]], [1.0], [[1.0]], [1.0]), "row length mismatch"),
         (([[1.0, 0.0]], [1.0], [[1.0, 1.0]], None), "rhs length mismatch"),
         (([[1.0, 0.0]], [np.inf]), "rhs must be finite"),
         (([[1.0, 0.0]], [1.0], None, None, [(0.0, None)]), "bounds length mismatch")],
    )
    def test_bad_shapes_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            solve_lp(LinearProgram(MIN, [1.0, 1.0], *args))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_reduced_costs_raise(self):
        # red = [-1e308 - 1e308, 0] overflows before the first pivot
        T = np.array([[1.0, 1.0, 1.0]])
        with pytest.raises(RuntimeError, match="after 0 pivots"):
            _simplex(T, [1], np.array([-1e308, 1e308]), 2)

    def test_constraints_counts_both_blocks(self):
        lp = LinearProgram(MIN, [1.0, 1.0], [[1.0, 0.0]], [1.0], [[1.0, 1.0], [0.0, 1.0]], [2.0, 1.0])
        assert len(lp.constraints) == 3

    def test_pivot_matches_row_by_row_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            T = rng.normal(size=(12, 9))
            T[rng.random(T.shape) < 0.5] = 0.0
            row, col = int(rng.integers(12)), int(rng.integers(8))
            T[row, col] = rng.uniform(0.5, 2.0)
            ref = T.copy()
            ref[row, :] /= ref[row, col]
            for i in range(12):
                if i != row and ref[i, col] != 0.0:
                    ref[i, :] -= ref[i, col] * ref[row, :]
            basis = list(range(12))
            _pivot(T, basis, row, col)
            assert np.array_equal(T, ref)
            assert basis[row] == col


class TestExactOracle:
    """Exact Fraction enumeration on tiny instances."""

    def test_small_random_lps(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 25:
            lp = random_lp(rng, 2, 3)
            sol = solve_lp(lp)
            ref_status, ref_val = scipy_solve(lp)
            if sol.status != OPTIMAL or ref_status != OPTIMAL:
                assert sol.status == ref_status
                continue
            exact = exact_lp_optimum(lp)
            if exact is None:
                continue  # optimum not at an n-row intersection (flat objective)
            assert sol.objective_value == pytest.approx(exact, abs=1e-7)
            checked += 1


class TestScipyCrossCheck:
    def test_random_suite(self):
        rng = np.random.default_rng(41)
        agree = 0
        for _ in range(100):
            lp = random_lp(rng, int(rng.integers(2, 6)), int(rng.integers(1, 8)))
            sol = solve_lp(lp)
            ref_status, ref_val = scipy_solve(lp)
            assert sol.status == ref_status
            if sol.status == OPTIMAL:
                assert sol.objective_value == pytest.approx(ref_val, abs=1e-6)
                agree += 1
        assert agree > 30  # the suite must contain real optima

    def test_determinism(self):
        rng = np.random.default_rng(7)
        lp = random_lp(rng, 4, 6)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.status == b.status
        if a.status == OPTIMAL:
            assert np.array_equal(a.x, b.x)


class TestConvexMinimizer:
    def test_quadratic_bowl(self):
        def f(z):
            return float(z @ z), 2.0 * z

        z, val = minimize_convex(f, 3, [[5.0, -3.0, 2.0]])
        assert val < 1e-6
        assert np.max(np.abs(z)) < 1e-3

    def test_piecewise_linear_abs(self):
        target = np.array([1.0, -2.0])

        def f(z):
            d = z - target
            return float(np.abs(d).sum()), np.sign(d)

        z, val = minimize_convex(f, 2, [[0.0, 0.0], [4.0, 4.0]])
        assert val < 1e-6

    def test_best_of_multiple_starts(self):
        def f(z):
            return float(np.abs(z).sum()), np.sign(z)

        _, far = minimize_convex(
            f, 1, [[100.0]], DescentConfig(max_iters=10, min_step=0.5)
        )
        _, near = minimize_convex(
            f, 1, [[100.0], [0.5]], DescentConfig(max_iters=10, min_step=0.5)
        )
        assert near <= far

    def test_rejects_non_finite(self):
        def f(z):
            return float("nan"), z

        with pytest.raises(ValueError):
            minimize_convex(f, 1, [[0.0]])
