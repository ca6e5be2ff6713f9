"""The dense reference simplex (tests/dense_simplex.py): exact rational
oracle, scipy cross-checks, the general solver it replaced, determinism;
and the convex minimizer behind the Frechet mean."""

import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import scipy.optimize as scipy_opt

from conftest import fw_lp, lattice_points_3d, ultrametric_points
from dense_simplex import (
    FEAS_TOL,
    INFEASIBLE,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    LinearProgram,
    Solution,
    _pivot,
    _simplex,
    solve_lp,
    svm_lp,
)
from tropstat import (
    SimConfig,
    TropicalPoint,
    fermat_weber,
    frechet_mean,
    location,
    make_two_class_sample,
    minimize_convex,
    solver,
)
from tropstat.svm import SectorAssignment, _assignment_array


def exact_lp_optimum(lp: LinearProgram):
    """Exact optimum by enumerating basic solutions over the rationals.

    Converts to the form min c.x, A x <= b with x free by treating every
    A_ub row and the sign of every nonnegative variable as a row, then
    intersects all n-subsets of rows.  Exponential; only for tiny LPs.
    """
    n = lp.n_vars()
    c = [Fraction(v).limit_denominator(10**9) for v in lp.objective]
    rows = []
    for row, rhs in zip(lp.A_ub.tolist(), lp.b_ub.tolist()):
        rows.append(([Fraction(v).limit_denominator(10**9) for v in row],
                     Fraction(rhs).limit_denominator(10**9)))
    for j in range(lp.n_free, n):
        r = [Fraction(0)] * n
        r[j] = Fraction(-1)
        rows.append((r, Fraction(0)))

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
    return float(best)


def random_lp(rng, n, m, with_bounds=True):
    """m random relations over n variables: 60 % "<=", 30 % ">=" (a negated
    row), 10 % "=" (two opposite rows).  with_bounds: a random number of
    leading variables is free and the rest nonnegative, and each variable
    may get a lower bound, an upper bound or both, each written as a row."""
    rows = []
    for _ in range(m):
        coeffs = rng.integers(-4, 5, size=n).astype(float)
        rel = rng.choice(["<=", ">=", "="], p=[0.6, 0.3, 0.1])
        rhs = float(rng.integers(-6, 7))
        if rel == "=":
            rows += [(coeffs, rhs), (-coeffs, -rhs)]
        else:
            sign = 1.0 if rel == "<=" else -1.0
            rows.append((sign * coeffs, sign * rhs))
    n_free = n
    if with_bounds:
        n_free = int(rng.integers(0, n + 1))
        for unit in np.eye(n):
            kind = rng.integers(0, 4)
            if kind in (1, 3):
                rows.append((-unit, -float(rng.integers(-5, 1))))
            if kind in (2, 3):
                rows.append((unit, float(rng.integers(0, 6))))
    obj = rng.integers(-3, 4, size=n).astype(float)
    A = np.array([r for r, _ in rows], dtype=float).reshape(len(rows), n)
    return LinearProgram(obj, A, np.array([b for _, b in rows], dtype=float), n_free)


def scipy_solve(lp: LinearProgram):
    n = lp.n_vars()
    res = scipy_opt.linprog(
        lp.objective,
        A_ub=lp.A_ub if len(lp.A_ub) else None,
        b_ub=lp.b_ub if len(lp.b_ub) else None,
        bounds=[(None, None)] * lp.n_free + [(0.0, None)] * (n - lp.n_free),
        method="highs",
    )
    if res.status == 0:
        return OPTIMAL, res.fun
    if res.status == 2:
        return INFEASIBLE, None
    if res.status == 3:
        return UNBOUNDED, None
    raise RuntimeError(f"scipy status {res.status}")


def reference_solve_lp(sense, objective, A_ub, b_ub, A_eq=None, b_eq=None, bounds=None):
    """solve_lp as it was when it took scipy.optimize.linprog's shapes:
    "min" or "max", A_ub @ x <= b_ub, A_eq @ x == b_eq, and one (lo, hi)
    bound per variable (None: unbounded on that side; all free if None)."""
    n = len(objective)
    A_eq = np.zeros((0, n)) if A_eq is None else np.asarray(A_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    R = np.vstack([np.asarray(A_ub, dtype=float), A_eq])
    rhs = np.concatenate([np.asarray(b_ub, dtype=float), b_eq])
    n_ub = len(A_ub)

    # Rewrite the variables over nonnegative columns p as x = off + M @ p:
    #   free        -> x = p - m            (two columns)
    #   lo <= x     -> x = lo + p           (shift)
    #   x <= hi     -> x = hi - p           (flip)
    #   lo<=x<=hi   -> x = lo + p, row p <= hi - lo
    off = np.zeros(n)
    cols = []  # (variable, sign) per column
    box = []  # (column, hi - lo) per boxed variable
    for j, (lo, hi) in enumerate(bounds or [(None, None)] * n):
        if lo is None and hi is None:
            cols += [(j, 1.0), (j, -1.0)]
            continue
        if lo is not None and hi is not None:
            if hi < lo:
                return Solution(INFEASIBLE, None, None)
            box.append((len(cols), float(hi) - float(lo)))
        off[j] = lo if lo is not None else hi
        cols.append((j, 1.0 if lo is not None else -1.0))
    ncols = len(cols)
    M = np.zeros((n, ncols))
    for k, (j, sign) in enumerate(cols):
        M[j, k] = sign

    m = len(R) + len(box)
    c = np.asarray(objective, dtype=float) @ M
    if sense == "max":
        c = -c

    # Equality form: a +1 slack column for each A_ub and box row, none for
    # the A_eq rows; then make rhs nonnegative.
    slack = np.ones(m)
    slack[n_ub : len(R)] = 0.0
    A = np.hstack([np.vstack([R @ M, np.eye(ncols)[[k for k, _ in box]]]), np.diag(slack)])
    b = np.concatenate([rhs - R @ off, [ub for _, ub in box]])
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    total = ncols + m
    basis = [ncols + i if A[i, ncols + i] == 1.0 else -1 for i in range(m)]
    need_art = [i for i in range(m) if basis[i] == -1]
    n_art = len(need_art)
    T = np.zeros((m, total + n_art + 1))
    T[:, :total] = A
    T[:, -1] = b
    for k, i in enumerate(need_art):
        T[i, total + k] = 1.0
        basis[i] = total + k
    ntot = total + n_art

    if n_art:
        cost = np.zeros(ntot)
        cost[total:] = 1.0
        status = _simplex(T, basis, cost, ntot)
        if status == UNBOUNDED:
            return Solution(INFEASIBLE, None, None)
        if sum(cost[b] * T[i, -1] for i, b in enumerate(basis)) > FEAS_TOL:
            return Solution(INFEASIBLE, None, None)
        for i in range(m):
            if basis[i] >= total:
                nz = (np.abs(T[i, :total]) > PIVOT_TOL).nonzero()[0]
                if nz.size == 0:
                    T[i, :] = 0.0
                else:
                    _pivot(T, basis, i, int(nz[0]))
        T[:, total:ntot] = 0.0

    cost = np.zeros(ntot)
    cost[:total] = np.concatenate([c, np.zeros(m)])
    status = _simplex(T, basis, cost, total)
    if status == UNBOUNDED:
        return Solution(UNBOUNDED, None, None)

    xcols = np.zeros(total)
    basis = np.array(basis, dtype=int)
    basic = basis < total
    xcols[basis[basic]] = T[basic, -1]
    x = off + M @ xcols[:ncols]
    return Solution(OPTIMAL, x, float(np.dot(np.asarray(objective, dtype=float), x)))


class TestBasics:
    def test_simple_min(self):
        lp = LinearProgram([1.0, 1.0], [[-1.0, 0.0], [0.0, -1.0]], [-1.0, -2.0], n_free=0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_free_variables(self):
        lp = LinearProgram([1.0], [[-1.0]], [5.0], n_free=1)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram([1.0], [[-1.0], [1.0]], [-2.0, 1.0], n_free=1)
        assert solve_lp(lp).status == INFEASIBLE

    def test_unbounded(self):
        lp = LinearProgram([-1.0], [[-1.0]], [0.0], n_free=1)
        assert solve_lp(lp).status == UNBOUNDED

    @pytest.mark.parametrize("sense, status", [("min", OPTIMAL), ("max", UNBOUNDED)])
    def test_no_rows(self, sense, status):
        # x_0 free with no cost, x_1 >= 0: min x_1 is 0, max x_1 unbounded
        sign = 1.0 if sense == "min" else -1.0
        lp = LinearProgram([0.0, sign], np.zeros((0, 2)), np.zeros(0), n_free=1)
        sol = solve_lp(lp)
        assert sol.status == status
        if status == OPTIMAL:
            assert sol.x.tobytes() == np.array([0.0, 0.0]).tobytes()

    def test_solution_satisfies_constraints(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            lp = random_lp(rng, 3, 4)
            sol = solve_lp(lp)
            if sol.status != OPTIMAL:
                continue
            assert (lp.A_ub @ sol.x <= lp.b_ub + 1e-7).all()
            assert (sol.x[lp.n_free :] >= 0.0).all()

    @pytest.mark.parametrize(
        "objective, row",
        [([np.nan, 1.0], [1.0, 0.0]), ([1.0, 1.0], [np.inf, 0.0]),
         ([1.0, 1.0], [0.0, np.nan])],
    )
    def test_non_finite_coefficients_rejected(self, objective, row):
        lp = LinearProgram(objective, [row], [1.0], n_free=2)
        with pytest.raises(ValueError, match="must be finite"):
            solve_lp(lp)

    @pytest.mark.parametrize(
        "args, message",
        [(([[1.0]], [1.0], 2), "row length mismatch"),
         (([[1.0, 0.0]], [1.0, 2.0], 2), "rhs length mismatch"),
         (([1.0, 0.0], [1.0], 2), "row length mismatch"),
         (([[1.0, 0.0], [0.0, 1.0]], [[1.0, 2.0]], 2), "rhs length mismatch"),
         (([[1.0, 0.0]], [np.inf], 2), "rhs must be finite"),
         (([[1.0, 0.0]], [1.0], 3), "n_free 3 is not in 0..2"),
         (([[1.0, 0.0]], [1.0], -1), "n_free -1 is not in 0..2")],
    )
    def test_bad_shapes_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            solve_lp(LinearProgram([1.0, 1.0], *args))

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
            solve_lp(svm_lp(X, two.labels, asg, 1e100))

    def test_constraints_are_the_rows(self):
        # perfbench/tracer.py sizes a solve as len(lp.constraints) * lp.n_vars()
        lp = LinearProgram([1.0, 1.0, 0.0], [[1.0, 0.0, 0.0], [1.0, 1.0, 1.0]], [1.0, 2.0], 1)
        assert lp.constraints.tolist() == lp.A_ub and lp.n_vars() == 3

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


def svm_sample(tie_step=None):
    two = make_two_class_sample(
        SimConfig(4, 1.0, 1, 2), SimConfig(4, 1.0, 101, 2), separation=1.0
    )
    X = np.array([u.values for u in two.ultrametrics])
    if tie_step is not None:
        X = np.round(X / tie_step) * tie_step
    return X, two.labels


class TestReferenceSolver:
    """solve_lp against the general solver it replaced, bit for bit, on the
    full SVM assignment LPs and on the Fermat-Weber reference LP."""

    @staticmethod
    def assert_same(lp, ref, sense):
        """solve_lp(lp) against ref, the reference's solution of the same
        LP in its old shape; returns the status."""
        sol = solve_lp(lp)
        assert sol.status == ref.status
        if ref.status == OPTIMAL:
            assert sol.x.tobytes() == ref.x.tobytes()
            value = sol.objective_value if sense == "min" else 0.0 - sol.objective_value
            assert np.float64(value).tobytes() == np.float64(ref.objective_value).tobytes()
        return ref.status

    @staticmethod
    def reference_svm(X, labels, asg, C):
        """The assignment LP as the reference took it: max z, or
        z - C * total slack, over free omega and z and nonnegative slacks."""
        lp = svm_lp(X, labels, asg, C)
        n, e = X.shape
        if C is None:
            return reference_solve_lp("max", np.eye(e + 1)[e], lp.A_ub, lp.b_ub)
        objective = np.concatenate([np.eye(e + 1)[e], np.full(n * e, -C)])
        bounds = [(None, None)] * (e + 1) + [(0.0, None)] * (n * e)
        return reference_solve_lp("max", objective, lp.A_ub, lp.b_ub, bounds=bounds)

    def test_fw_lps(self):
        rng = np.random.default_rng(9)
        samples = [[p.coords for p in ultrametric_points(n, seed, 2 + 3 * seed)]
                   for n in (4, 5, 6) for seed in range(4)]
        samples += [rng.normal(size=(s, e)) for s, e in [(1, 3), (3, 4), (6, 6), (9, 5)]]
        for V in samples:
            lp = fw_lp(np.array(V, dtype=float))
            # every variable was free
            ref = reference_solve_lp("min", lp.objective, lp.A_ub, lp.b_ub)
            assert self.assert_same(lp, ref, "min") == OPTIMAL

    @pytest.mark.parametrize("C", [None, 10.0])
    @pytest.mark.parametrize("tie_step", [None, 0.25])
    def test_svm_assignment_lps(self, C, tie_step):
        X, labels = svm_sample(tie_step)
        statuses = []
        for row in _assignment_array(X.shape[1]).tolist():
            asg = SectorAssignment(*row)
            ref = self.reference_svm(X, labels, asg, C)
            statuses.append(self.assert_same(svm_lp(X, labels, asg, C), ref, "max"))
        assert len(statuses) == 750 and OPTIMAL in statuses

    def test_cycling_stops_at_the_same_pivot(self):
        # the LP of test_cycling_soft_svm_lp_raises
        two = make_two_class_sample(
            SimConfig(4, 1.0, 2, 5), SimConfig(4, 1.0, 102, 5), separation=1.0
        )
        X = np.array([[float(f"{v:.12g}") for v in u.values] for u in two.ultrametrics])
        asg = SectorAssignment(*_assignment_array(X.shape[1])[5].tolist())
        messages = []
        for solve in (lambda: solve_lp(svm_lp(X, two.labels, asg, 1e100)),
                      lambda: self.reference_svm(X, two.labels, asg, 1e100)):
            with pytest.raises(RuntimeError) as info:
                solve()
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestConvexMinimizer:
    def test_quadratic_bowl(self):
        def f(z):
            return (z * z).sum(), 2.0 * z

        z, val = minimize_convex(f, [5.0, -3.0, 2.0])
        assert val < 1e-6
        assert np.max(np.abs(z)) < 1e-3

    def test_piecewise_linear_abs(self):
        target = np.array([1.0, -2.0])

        def f(z):
            d = z - target
            return np.abs(d).sum(), np.sign(d)

        for start in ([0.0, 0.0], [4.0, 4.0]):
            z, val = minimize_convex(f, start)
            assert val < 1e-6

    def test_rejects_non_finite(self):
        def f(z):
            return np.nan, z

        with pytest.raises(ValueError):
            minimize_convex(f, [0.0])

    def test_no_steps_returns_the_start(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERS", 0)
        z, val = minimize_convex(lambda z: ((z * z).sum(), 2.0 * z), [3.0, 4.0])
        assert (z.tolist(), val) == ([3.0, 4.0], 25.0)


def reference_descend(f, z0):
    """minimize_convex's step rule one step at a time, with the constants
    in solver at call time; f takes one point."""

    def evaluate(z):
        val, g = f(z)
        if not np.isfinite(val):
            raise ValueError("objective returned a non-finite value")
        return float(val), np.asarray(g, dtype=float)

    z = np.asarray(z0, dtype=float).copy()
    val, g = evaluate(z)
    best_val, best_z = val, z.copy()
    gn = float(np.linalg.norm(g))
    step = 0.0 if gn == 0.0 else val / gn  # f(start) / |g(start)|
    min_step, tol = solver.MIN_STEP * step, solver.DESCENT_TOL * val
    stall = 0
    for _ in range(solver.MAX_ITERS):
        if step <= min_step or gn == 0.0:
            break
        z = z - step * (g / gn)
        val, g = evaluate(z)
        gn = float(np.linalg.norm(g))
        if val < best_val - tol:
            best_val, best_z, stall = val, z.copy(), 0
        else:
            stall += 1
            if stall >= solver.STALL_LIMIT:
                step *= 0.5
                stall = 0
    return best_z, best_val


def reference_frechet_oracle(V):
    """Value and subgradient of sum_i d(z, v_i)^2 at one point z, with
    np.add.at in place of frechet_mean's bincount."""

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


def frechet_candidates(V):
    """frechet_mean's candidate starts: the Fermat-Weber point, the sample
    rows, their median."""
    fw = fermat_weber([TropicalPoint(tuple(v)) for v in V.tolist()])
    return [np.array(fw.diagnostics["raw_point"]), *V, np.median(V, axis=0)]


class TestLockstepDescent:
    """minimize_convex and frechet_mean in lockstep with the reference
    loop and oracle: the same start, the same steps, bit for bit."""

    @pytest.fixture
    def descent_calls(self, monkeypatch):
        """The number of oracle calls of each descent frechet_mean runs."""
        calls = []

        def counted(f, start):
            calls.append(0)

            def g(z):
                calls[-1] += 1
                return f(z)

            return minimize_convex(g, start)

        monkeypatch.setattr(location, "minimize_convex", counted)
        return calls

    @staticmethod
    def assert_frechet_matches(V):
        V = np.asarray(V, dtype=float)
        one = reference_frechet_oracle(V)
        candidates = frechet_candidates(V)
        start = candidates[int(np.argmin([one(z)[0] for z in candidates]))]
        z, val = reference_descend(one, start)
        res = frechet_mean([TropicalPoint(tuple(v)) for v in V.tolist()])
        assert res.diagnostics["raw_point"] == tuple(z.tolist())
        assert res.objective == val

    @pytest.mark.parametrize("n_leaves, s", [(4, 1), (4, 7), (5, 10), (6, 3), (8, 20)])
    def test_tree_samples(self, n_leaves, s):
        for seed in range(2):
            self.assert_frechet_matches([p.coords for p in ultrametric_points(n_leaves, 40 + seed, s)])

    def test_lattice_samples_run_max_iters(self, monkeypatch, descent_calls):
        monkeypatch.setattr(solver, "MAX_ITERS", 9)
        rng = np.random.default_rng(4321)  # criterion 5's generator
        for _ in range(3):
            self.assert_frechet_matches([p.coords for p in lattice_points_3d(rng, int(rng.integers(2, 11)))])
        # each descent ran all its steps: the start, then one call per step
        assert descent_calls == [10, 10, 10]

    def test_gaussian_samples(self):
        rng = np.random.default_rng(8)
        for s, e in [(1, 2), (2, 5), (9, 4), (15, 10), (30, 6)]:
            self.assert_frechet_matches(rng.normal(size=(s, e)))

    def test_one_point_stops_on_zero_subgradient(self, descent_calls):
        self.assert_frechet_matches([[0.0, -1.0, 3.0]])
        assert descent_calls == [1]

    def test_ties_go_to_the_first_start(self, monkeypatch):
        # a flat objective ties every candidate: the Fermat-Weber point wins
        V = np.array([p.coords for p in ultrametric_points(5, 44, 6)])
        monkeypatch.setattr(location, "_frechet_oracle", lambda V: lambda z: (0.0, np.zeros_like(z)))
        res = frechet_mean([TropicalPoint(tuple(v)) for v in V.tolist()])
        assert res.diagnostics["raw_point"] == tuple(frechet_candidates(V)[0].tolist())
        assert res.objective == 0.0

    def test_never_above_a_candidate(self):
        for V in frechet_ladder():
            one = reference_frechet_oracle(V)
            res = frechet_mean([TropicalPoint(tuple(v)) for v in V.tolist()])
            assert res.objective <= min(one(z)[0] for z in frechet_candidates(V))

    def test_one_point_oracle(self):
        rng = np.random.default_rng(6)
        for V in frechet_ladder():
            f, one = location._frechet_oracle(V), reference_frechet_oracle(V)
            points = [*frechet_candidates(V), *rng.normal(size=(3, V.shape[1]))]
            for z in points:
                val, g = f(z)
                val_ref, g_ref = one(z)
                assert val == val_ref
                assert np.array_equal(g, g_ref)

    @pytest.mark.parametrize("config", [
        {"MAX_ITERS": 0}, {"MAX_ITERS": 30}, {"STALL_LIMIT": 1},
        {"DESCENT_TOL": -1e-3, "MAX_ITERS": 200}, {"DESCENT_TOL": 1.0},
        {"DESCENT_TOL": 0.0, "MIN_STEP": 1e-3},
    ])
    def test_configs(self, monkeypatch, config):
        # the step schedule's constants, patched in solver for both loops,
        # from every sample point and the median
        for name, value in config.items():
            monkeypatch.setattr(solver, name, value)
        rng = np.random.default_rng(5)
        V = rng.normal(size=(8, 5))
        one = reference_frechet_oracle(V)
        for start in [*V, np.median(V, axis=0)]:
            z, val = minimize_convex(one, start)
            z_ref, val_ref = reference_descend(one, start)
            assert np.array_equal(z, z_ref)
            assert val == val_ref


def frechet_ladder():
    """Seeded samples: trees with 4-8 leaves and 1-20 points, Gaussian rows
    up to 30 x 10, and criterion 5's 3-dim lattice samples."""
    for n_leaves, s in [(4, 1), (4, 7), (5, 10), (6, 3), (8, 20)]:
        for seed in range(40, 44):
            yield np.array([p.coords for p in ultrametric_points(n_leaves, seed, s)])
    rng = np.random.default_rng(8)
    for _ in range(2):
        for s, e in [(1, 2), (2, 5), (9, 4), (15, 10), (30, 6)]:
            yield rng.normal(size=(s, e))
    rng = np.random.default_rng(4321)
    for _ in range(10):
        yield np.array([p.coords for p in lattice_points_3d(rng, int(rng.integers(2, 11)))])


def slsqp_frechet(V):
    """Sum of squared tropical distances at the point SLSQP finds for the
    QP min sum_i (a_i - b_i)^2 subject to b_i <= z_j - v_ij <= a_i, started
    at the coordinatewise median."""
    s, e = V.shape
    z0 = np.median(V, axis=0)
    x0 = np.concatenate([z0, (z0 - V).max(axis=1), (z0 - V).min(axis=1)])
    Z, P = np.tile(np.eye(e), (s, 1)), np.repeat(np.eye(s), e, axis=0)
    O = np.zeros_like(P)
    # z_j - v_ij - b_i >= 0, then a_i - z_j + v_ij >= 0
    A = np.vstack([np.hstack([Z, O, -P]), np.hstack([-Z, P, O])])
    c = np.concatenate([-V.ravel(), V.ravel()])

    def objective(x):
        gap = x[e : e + s] - x[e + s :]
        return float(gap @ gap), np.concatenate([np.zeros(e), 2.0 * gap, -2.0 * gap])

    res = scipy_opt.minimize(
        objective, x0, jac=True, method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda x: A @ x + c, "jac": lambda x: A}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    D = res.x[:e] - V
    return float(((D.max(axis=1) - D.min(axis=1)) ** 2).sum())


class TestFrechetAccuracy:
    @pytest.mark.parametrize("scale", [2.0**-20, 1.0, 2.0**20], ids=["2^-20", "1", "2^20"])
    def test_matches_slsqp(self, scale):
        # (objective - SLSQP) / SLSQP over the ladder, in three units: the
        # mean scales bit for bit, SLSQP's stopping rule does not, so the
        # worst gap is 1.6e-6 at 2^-20, 2.7e-6 at 1 and 0 at 2^20; the bound
        # leaves about 15x headroom
        gaps = []
        for V in frechet_ladder():
            V = scale * V
            ref = slsqp_frechet(V)
            obj = frechet_mean([TropicalPoint(tuple(v)) for v in V.tolist()]).objective
            gaps.append((obj - ref) / ref if ref > 0 else obj)
        assert max(gaps) <= 4e-5
