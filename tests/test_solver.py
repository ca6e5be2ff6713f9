"""Simplex solver: exact rational oracle, scipy cross-checks, determinism."""

import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import lattice_points_3d, ultrametric_points
from tropstat import (
    DescentConfig,
    LinearProgram,
    SimConfig,
    TropicalPoint,
    frechet_mean,
    location,
    make_two_class_sample,
    minimize_convex,
    solve_lp,
)
from tropstat.solver import INFEASIBLE, MAX, MIN, OPTIMAL, UNBOUNDED, _pivot, _simplex
from tropstat.svm import SectorAssignment, _assignment_array, _svm_lp

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

    def test_non_finite_reduced_costs_raise(self):
        # red = [-1e308 - 1e308, 0] overflows before the first pivot, and
        # numpy prints no overflow warning
        T = np.array([[1.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match="after 0 pivots"):
                _simplex(T, [1], np.array([-1e308, 1e308]), 2)

    def test_cycling_soft_svm_lp_raises(self):
        # the soft-margin LP of assignment 5 at C = 1e100 on the CLI's 5+5
        # training file: Bland's rule revisits a basis on round-off
        two = make_two_class_sample(
            SimConfig(4, 1.0, 2, 5), SimConfig(4, 1.0, 102, 5), separation=1.0
        )
        X = np.array([[float(f"{v:.12g}") for v in u.values] for u in two.ultrametrics])
        asg = SectorAssignment(*_assignment_array(X.shape[1])[5].tolist())
        with pytest.raises(RuntimeError, match="pivots"):
            solve_lp(_svm_lp(X, two.labels, asg, 1e100))

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
        def f(Z):
            return (Z * Z).sum(axis=1), 2.0 * Z

        z, val = minimize_convex(f, 3, [[5.0, -3.0, 2.0]])
        assert val < 1e-6
        assert np.max(np.abs(z)) < 1e-3

    def test_piecewise_linear_abs(self):
        target = np.array([1.0, -2.0])

        def f(Z):
            d = Z - target
            return np.abs(d).sum(axis=1), np.sign(d)

        z, val = minimize_convex(f, 2, [[0.0, 0.0], [4.0, 4.0]])
        assert val < 1e-6

    def test_best_of_multiple_starts(self):
        def f(Z):
            return np.abs(Z).sum(axis=1), np.sign(Z)

        _, far = minimize_convex(
            f, 1, [[100.0]], DescentConfig(max_iters=10, min_step=0.5)
        )
        _, near = minimize_convex(
            f, 1, [[100.0], [0.5]], DescentConfig(max_iters=10, min_step=0.5)
        )
        assert near <= far

    def test_rejects_non_finite(self):
        def f(Z):
            return np.full(len(Z), np.nan), Z

        with pytest.raises(ValueError):
            minimize_convex(f, 1, [[0.0]])


def reference_minimize_convex(f, dim, starts, config=None):
    """The per-start loop minimize_convex ran before its starts advanced in
    lockstep; f takes one point and returns its value and subgradient."""
    cfg = config or DescentConfig()
    best_z = None
    best_val = np.inf
    for start in starts:
        z, val = reference_descend(f, np.asarray(start, dtype=float), dim, cfg)
        if val < best_val:
            best_val, best_z = val, z
    return best_z, best_val


def reference_descend(f, z0, dim, cfg):
    def evaluate(z):
        val, g = f(z)
        if not np.isfinite(val):
            raise ValueError("objective returned a non-finite value")
        return float(val), np.asarray(g, dtype=float)

    if z0.shape != (dim,):
        raise ValueError("start point dimension mismatch")
    z = z0.copy()
    val, g = evaluate(z)
    best_val, best_z = val, z.copy()
    step = cfg.initial_step
    stall = 0
    for _ in range(cfg.max_iters):
        val, g = evaluate(z)
        if val < best_val - cfg.tol:
            best_val, best_z, stall = val, z.copy(), 0
        else:
            stall += 1
            if stall >= cfg.stall_limit:
                step *= 0.5
                if step < cfg.min_step:
                    break
                z = best_z.copy()
                stall = 0
                val, g = evaluate(z)
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        z = z - step * (g / gn)
    return best_z, best_val


def reference_frechet_oracle(V):
    """frechet_mean's one-point oracle before it took batches."""

    def f(z):
        diff = z[None, :] - V
        imax = diff.argmax(axis=1)
        imin = diff.argmin(axis=1)
        d = diff[np.arange(len(V)), imax] - diff[np.arange(len(V)), imin]
        g = np.zeros_like(z)
        np.add.at(g, imax, 2.0 * d)
        np.add.at(g, imin, -2.0 * d)
        return float((d * d).sum()), g

    return f


class TestLockstepDescent:
    """The lockstep minimize_convex and frechet_mean against the per-start
    reference loop, bit for bit."""

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        """The number of batched oracle calls of each frechet_mean run."""
        calls = []
        oracle = location._frechet_oracle

        def counted(V):
            f = oracle(V)
            calls.append(0)

            def g(Z):
                calls[-1] += 1
                return f(Z)

            return g

        monkeypatch.setattr(location, "_frechet_oracle", counted)
        return calls

    @staticmethod
    def assert_frechet_matches(V):
        V = np.asarray(V, dtype=float)
        starts = [row for row in V] + [np.median(V, axis=0)]
        z, val = reference_minimize_convex(reference_frechet_oracle(V), V.shape[1], starts)
        res = frechet_mean([TropicalPoint(tuple(v)) for v in V.tolist()])
        assert res.diagnostics["raw_point"] == tuple(z.tolist())
        assert res.objective == val

    @pytest.mark.parametrize("n_leaves, s", [(4, 1), (4, 7), (5, 10), (6, 3), (8, 20)])
    def test_tree_samples(self, n_leaves, s):
        for seed in range(2):
            self.assert_frechet_matches([p.coords for p in ultrametric_points(n_leaves, 40 + seed, s)])

    def test_lattice_samples_run_max_iters(self, oracle_calls):
        rng = np.random.default_rng(4321)  # criterion 5's generator
        for _ in range(3):
            self.assert_frechet_matches([p.coords for p in lattice_points_3d(rng, int(rng.integers(2, 11)))])
        # a start ran all its iterations: the initial call, then one per later iteration
        assert DescentConfig().max_iters in oracle_calls

    def test_gaussian_samples(self):
        rng = np.random.default_rng(8)
        for s, e in [(1, 2), (2, 5), (9, 4), (15, 10), (30, 6)]:
            self.assert_frechet_matches(rng.normal(size=(s, e)))

    def test_one_point_stops_on_zero_subgradient(self, oracle_calls):
        self.assert_frechet_matches([[0.0, -1.0, 3.0]])
        assert oracle_calls == [1]

    def test_ties_go_to_the_first_start(self):
        def flat(z):
            return 0.0, np.zeros_like(z)

        def batched(Z):
            return np.zeros(len(Z)), np.zeros_like(Z)

        starts = [[2.0], [1.0]]
        z, val = minimize_convex(batched, 1, starts)
        assert (z.tolist(), val) == ([2.0], 0.0)
        assert reference_minimize_convex(flat, 1, starts)[0].tolist() == [2.0]

    def test_row_blocks(self, monkeypatch):
        s, e = 12, 10
        sizes = []
        frechet_block = location._frechet_block

        def block(Z, V):
            sizes.append(len(Z))
            return frechet_block(Z, V)

        monkeypatch.setattr(location, "_CUBE_BLOCK", 4 * s * e)
        monkeypatch.setattr(location, "_frechet_block", block)
        rng = np.random.default_rng(12)
        self.assert_frechet_matches(rng.normal(size=(s, e)))
        assert max(sizes) == 4 and sizes[:4] == [4, 4, 4, 1]  # s + 1 starts

    @pytest.mark.parametrize("config", [
        DescentConfig(max_iters=0), DescentConfig(max_iters=30), DescentConfig(stall_limit=1),
        DescentConfig(tol=-1e-3, max_iters=200), DescentConfig(initial_step=1e-9, tol=1.0),
        DescentConfig(tol=0.0, min_step=1e-3),
    ])
    def test_configs(self, config):
        # the one-point oracle applied row by row isolates the loop
        rng = np.random.default_rng(5)
        V = rng.normal(size=(8, 5))
        one = reference_frechet_oracle(V)

        def batched(Z):
            vals, G = zip(*map(one, Z))
            return np.array(vals), np.array(G)

        starts = [row for row in V] + [np.median(V, axis=0)]
        z, val = minimize_convex(batched, 5, starts, config)
        z_ref, val_ref = reference_minimize_convex(one, 5, starts, config)
        assert np.array_equal(z, z_ref)
        assert val == val_ref
