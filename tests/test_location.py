"""Fermat-Weber points and Frechet means against grid oracles."""

from itertools import permutations

import numpy as np
import pytest
from scipy.optimize import linprog

from tropstat import (
    TropicalPoint,
    check_ultrametric_closure,
    fermat_weber,
    frechet_mean,
    frechet_objective,
    fw_objective,
    three_point_check,
    trop_distance,
)
from tropstat import location
from tropstat.core import _project
from tropstat.location import _assignment
from conftest import (
    FIG_LEFT_VECTOR,
    FIG_RIGHT_VECTOR,
    grid_minimum,
    lattice_points_3d,
    ultrametric_points,
)


def highs_fw_optimum(sample) -> float:
    """FW optimum from scipy's HiGHS on the pairwise formulation:
    minimize sum d_i subject to y_j - y_k - d_i <= v_ij - v_ik."""
    V = np.array([p.coords for p in sample])
    s, e = V.shape
    rows, rhs = [], []
    for i in range(s):
        for j in range(e):
            for k in range(e):
                if j != k:
                    row = np.zeros(e + s)
                    row[j], row[k], row[e + i] = 1.0, -1.0, -1.0
                    rows.append(row)
                    rhs.append(V[i, j] - V[i, k])
    c = np.concatenate([np.zeros(e), np.ones(s)])
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=[(None, None)] * e + [(0.0, None)] * s, method="highs")
    assert res.status == 0
    return float(res.fun)


class TestFermatWeber:
    def test_single_point(self):
        p = TropicalPoint((0.0, 2.0, 1.0))
        res = fermat_weber([p])
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert res.point.close_to(p)

    def test_two_point_example(self):
        sample = [TropicalPoint((0, 0, 0)), TropicalPoint((0, 3, 1))]
        res = fermat_weber(sample)
        # any point on the segment attains the two-point lower bound d_tr
        assert res.objective == pytest.approx(3.0, abs=1e-9)
        assert fw_objective(res.point, sample) == pytest.approx(3.0, abs=1e-9)

    def test_objective_matches_point(self):
        sample = ultrametric_points(4, 21, 6)
        res = fermat_weber(sample)
        assert fw_objective(res.point, sample) == pytest.approx(
            res.objective, abs=1e-7
        )

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(31)
        for trial in range(8):
            sample = lattice_points_3d(rng, int(rng.integers(2, 8)))
            res = fermat_weber(sample)
            oracle = grid_minimum(sample, lambda d: d, lo=-4, hi=4)
            assert res.objective == pytest.approx(oracle, abs=1e-3)

    @pytest.mark.parametrize("n_leaves, seed, count", [(4, 41, 12), (5, 42, 8), (6, 43, 5)])
    def test_matches_highs(self, n_leaves, seed, count):
        sample = ultrametric_points(n_leaves, seed, count)
        res = fermat_weber(sample)
        assert res.objective == pytest.approx(highs_fw_optimum(sample), abs=1e-7)

    def test_no_sample_point_beats_optimum(self):
        sample = ultrametric_points(5, 13, 8)
        res = fermat_weber(sample)
        for p in sample:
            assert fw_objective(p, sample) >= res.objective - 1e-9

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            fermat_weber([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            fermat_weber([TropicalPoint((0, 1)), TropicalPoint((0, 1, 2))])


class TestUltrametricClosure:
    def test_u4_samples_stay_ultrametric(self):
        for seed in range(12):
            sample = ultrametric_points(4, 100 + seed, 5)
            res = fermat_weber(sample)
            assert check_ultrametric_closure(res, 4, tol=1e-6), (
                f"seed {100 + seed}: raw point "
                f"{res.diagnostics['raw_point']} left the ultrametric locus"
            )

    def test_u5_samples_stay_ultrametric(self):
        for seed in range(4):
            sample = ultrametric_points(5, 200 + seed, 6)
            res = fermat_weber(sample)
            assert check_ultrametric_closure(res, 5, tol=1e-6)

    def test_refinement_preserves_optimality(self):
        sample = ultrametric_points(4, 104, 5)
        res = fermat_weber(sample)
        assert fw_objective(res.point, sample) == pytest.approx(
            res.objective, abs=1e-6
        )

    def test_refinement_of_non_ultrametric_optimum(self):
        # For two points every classical convex combination z satisfies
        # d(u, z) + d(z, v) = d(u, v), so the midpoint of two ultrametrics
        # with different topologies is optimal but not ultrametric; the
        # point read off the assignment is a max-plus combination instead.
        u, v = np.array(FIG_LEFT_VECTOR), np.array(FIG_RIGHT_VECTOR)
        sample = [TropicalPoint(tuple(u)), TropicalPoint(tuple(v))]
        mid = (u + v) / 2
        assert not three_point_check(mid, tol=1e-9)
        assert fw_objective(TropicalPoint(tuple(mid)), sample) == pytest.approx(
            trop_distance(*sample), abs=1e-12
        )
        res = fermat_weber(sample)
        assert check_ultrametric_closure(res, 4, tol=1e-9)
        assert res.objective == pytest.approx(trop_distance(*sample), abs=1e-12)
        assert fw_objective(res.point, sample) == pytest.approx(res.objective, abs=1e-9)

    def test_non_ultrametric_point_is_projected(self):
        # The tropical segment [u, v] is a geodesic and lies in the
        # ultrametrics, so projecting the non-ultrametric midpoint onto it
        # keeps the optimum and gives an ultrametric; the Fermat-Weber point
        # is already on the segment, a fixed point of that projection.
        u, v = np.array(FIG_LEFT_VECTOR), np.array(FIG_RIGHT_VECTOR)
        sample = [TropicalPoint(tuple(u)), TropicalPoint(tuple(v))]
        V = np.array([u, v])
        projected = _project((u + v) / 2, V)[1]
        assert three_point_check(projected, tol=1e-9)
        assert fw_objective(TropicalPoint(tuple(projected)), sample) == pytest.approx(
            trop_distance(*sample), abs=1e-9
        )
        y = fermat_weber(sample).point.as_array()
        assert np.abs(_project(y, V)[1] - y).max() <= 1e-12 * float(np.abs(V).max())

    def test_records_raw_representative(self):
        sample = ultrametric_points(4, 105, 5)
        res = fermat_weber(sample)
        ok = check_ultrametric_closure(res, 4)
        assert set(res.diagnostics) == {"raw_point", "closure"}
        assert res.diagnostics["closure"] is ok

    def test_dimension_guard(self):
        res = fermat_weber([TropicalPoint((0.0, 1.0, 2.0))])
        with pytest.raises(ValueError):
            check_ultrametric_closure(res, 4)

    def test_fewer_than_three_leaves_rejected(self):
        # C(-2, 2) = (-2)(-3)/2 = 3 is the point's dimension
        res = fermat_weber([TropicalPoint((0.0, 1.0, 2.0))])
        with pytest.raises(ValueError, match="dimension"):
            check_ultrametric_closure(res, -2)


def fw_ladder():
    """Seeded samples: trees with 4-8 leaves and 1-50 points, Gaussian rows
    up to 30 x 10, integer rows with many ties, duplicated rows and an
    all-equal sample."""
    rng = np.random.default_rng(14)
    out = [[p.coords for p in ultrametric_points(n, 300 + n + s, s)]
           for n, s in [(4, 1), (4, 50), (5, 2), (5, 30), (6, 7), (6, 20), (7, 12), (8, 5), (8, 50)]]
    out += [rng.normal(size=(s, e)) for s, e in [(2, 2), (5, 3), (12, 6), (30, 10)]]
    out += [rng.integers(0, 3, size=(s, e)).astype(float) for s, e in [(4, 3), (9, 6), (20, 10)]]
    out.append(np.repeat(rng.normal(size=(4, 6)), 3, axis=0))
    out.append(np.tile([0.0, 1.0, -2.0, 0.5], (7, 1)))
    return [[TropicalPoint(tuple(p)) for p in np.asarray(V, dtype=float)] for V in out]


class TestAssignment:
    @pytest.mark.parametrize("sample", fw_ladder())
    def test_matches_highs(self, sample):
        res = fermat_weber(sample)
        opt = highs_fw_optimum(sample)
        assert res.objective == pytest.approx(opt, rel=1e-9, abs=1e-12)
        assert fw_objective(res.point, sample) == pytest.approx(opt, rel=1e-9, abs=1e-12)
        # a fixed point of the projection onto the sample's hull
        V, y = np.array([p.coords for p in sample]), res.point.as_array()
        scale = max(1.0, float(np.abs(V).max()))
        assert np.abs(_project(y, V)[1] - y).max() <= 1e-12 * scale
        try:
            trees = all(three_point_check(V, tol=0.0))
        except ValueError:  # e is not C(N, 2)
            trees = False
        assert not trees or three_point_check(y, tol=0.0)

    def test_matches_every_permutation(self):
        # integer costs, so the sums are exact and ties are frequent
        rng = np.random.default_rng(5)
        for s in range(1, 7):
            for _ in range(20):
                C = rng.integers(-3, 4, size=(s, s)).astype(float)
                sigma, b = _assignment(np.hstack([C, np.zeros((s, 1))]))
                assert sorted(sigma.tolist()) == list(range(s))
                best = max(C[np.arange(s), list(p)].sum() for p in permutations(range(s)))
                assert C[np.arange(s), sigma].sum() == best
                # the potentials certify it: the dual objective is the optimum
                assert (C + b).max(axis=1).sum() - b.sum() == best

    def test_two_points_give_their_distance(self):
        rng = np.random.default_rng(2)
        for e in (2, 3, 6, 10):
            sample = [TropicalPoint(tuple(r)) for r in rng.normal(size=(2, e))]
            assert fermat_weber(sample).objective == trop_distance(*sample)

    def test_deterministic(self):
        sample = ultrametric_points(6, 17, 20)
        a, b = fermat_weber(sample), fermat_weber(sample)
        assert a.point.coords == b.point.coords
        assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
        assert a.diagnostics == b.diagnostics

    @pytest.mark.parametrize("s", [1, 2, 17, 60])
    def test_costs_are_the_pairwise_maxima(self, monkeypatch, s):
        # trees, Gaussian rows and integer rows with tied differences
        rng = np.random.default_rng(s)
        samples = [ultrametric_points(5, s, s),
                   [TropicalPoint(tuple(v)) for v in rng.normal(size=(s, 10))],
                   [TropicalPoint(tuple(v)) for v in rng.integers(0, 3, size=(s, 6)).astype(float)]]
        seen = []

        def capture(C):
            seen.append(C.copy())
            return _assignment(C)

        monkeypatch.setattr(location, "_assignment", capture)
        for sample in samples:
            fermat_weber(sample)
            V = np.array([p.coords for p in sample])
            want = np.hstack([np.max(V[None, :, :] - V[:, None, :], axis=2), np.zeros((s, 1))])
            assert seen.pop().tobytes() == want.tobytes()

    def test_point_off_the_optimum_raises(self, monkeypatch):
        # every distance read 1e-6 too long: the point's sum misses the optimum
        distances = location._distances
        monkeypatch.setattr(location, "_distances", lambda X, Y: distances(X, Y) + 1e-6)
        with pytest.raises(RuntimeError, match="distance sum"):
            fermat_weber(ultrametric_points(4, 3, 5))

    def test_overflowing_differences_raise(self):
        sample = [TropicalPoint((0.0, 1e308, -1e308)), TropicalPoint((1.0, -1e308, 1e308)),
                  TropicalPoint((0.0, 0.0, 0.0))]
        with pytest.raises(RuntimeError, match="not finite"):
            fermat_weber(sample)


class TestFrechetMean:
    def test_single_point(self):
        p = TropicalPoint((0.0, -1.0, 3.0))
        res = frechet_mean([p])
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert res.point.close_to(p, tol=1e-6)

    def test_two_point_midpoint(self):
        sample = [TropicalPoint((0, 0, 0)), TropicalPoint((0, 3, 1))]
        res = frechet_mean(sample)
        # squared-distance sum at the metric midpoint: 2 * (3/2)^2
        assert res.objective == pytest.approx(4.5, abs=1e-6)

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(37)
        for trial in range(6):
            sample = lattice_points_3d(rng, int(rng.integers(2, 8)))
            res = frechet_mean(sample)
            oracle = grid_minimum(sample, lambda d: d * d, lo=-4, hi=4)
            assert res.objective <= oracle + 1e-3

    def test_never_worse_than_sample_points(self):
        sample = ultrametric_points(4, 77, 7)
        res = frechet_mean(sample)
        for p in sample:
            assert res.objective <= frechet_objective(p, sample) + 1e-9

    def test_objective_matches_point(self):
        sample = ultrametric_points(4, 78, 5)
        res = frechet_mean(sample)
        assert frechet_objective(res.point, sample) == pytest.approx(
            res.objective, abs=1e-9
        )
