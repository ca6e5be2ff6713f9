"""The convex minimizer (solver.minimize_convex) and the Frechet mean it
descends: step rule and stopping, lockstep against a reference loop and
oracle, and accuracy against scipy's SLSQP on the mean's QP."""

import numpy as np
import pytest
import scipy.optimize as scipy_opt

from conftest import lattice_points_3d, ultrametric_points
from tropstat import (
    TropicalPoint,
    fermat_weber,
    frechet_mean,
    location,
    minimize_convex,
    solver,
)


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
