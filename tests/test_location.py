"""Fermat-Weber points and Frechet means against grid oracles."""

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
from tropstat.location import _refine_to_ultrametric
from tropstat.solver import solve_lp
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
        assert res.diagnostics["n_constraints"] == 2 * count * len(sample[0].coords)
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
        # with different topologies is optimal but not ultrametric.
        u, v = np.array(FIG_LEFT_VECTOR), np.array(FIG_RIGHT_VECTOR)
        sample = [TropicalPoint(tuple(u)), TropicalPoint(tuple(v))]
        raw = tuple((u + v) / 2)
        opt = trop_distance(*sample)
        assert not three_point_check(raw, tol=1e-9)
        assert fw_objective(TropicalPoint(raw), sample) == pytest.approx(opt, abs=1e-12)
        refined = _refine_to_ultrametric(np.array([u, v]), raw, opt)
        assert refined is not None
        assert three_point_check(refined, tol=1e-9)
        assert fw_objective(TropicalPoint(refined), sample) == pytest.approx(opt, abs=1e-7)

    def test_one_lp_even_when_the_vertex_is_projected(self, monkeypatch):
        # The solver is made to report the non-ultrametric midpoint of the
        # test above as its vertex: fermat_weber projects it and solves no
        # second LP.
        u, v = np.array(FIG_LEFT_VECTOR), np.array(FIG_RIGHT_VECTOR)
        sample = [TropicalPoint(tuple(u)), TropicalPoint(tuple(v))]
        calls = []

        def midpoint_vertex(lp):
            calls.append(lp)
            sol = solve_lp(lp)
            sol.x[: len(u)] = (u + v) / 2
            return sol

        monkeypatch.setattr(location, "solve_lp", midpoint_vertex)
        res = fermat_weber(sample)
        assert len(calls) == 1
        assert res.diagnostics["closure_refined"] is True
        assert check_ultrametric_closure(res, 4, tol=1e-9)
        assert res.objective == pytest.approx(trop_distance(*sample), abs=1e-12)
        assert fw_objective(res.point, sample) == pytest.approx(res.objective, abs=1e-9)

    def test_records_raw_representative(self):
        sample = ultrametric_points(4, 105, 5)
        res = fermat_weber(sample)
        ok = check_ultrametric_closure(res, 4)
        closure = res.diagnostics["ultrametric_closure"]
        assert set(closure) == {"raw"}
        assert closure["raw"] is ok

    def test_dimension_guard(self):
        res = fermat_weber([TropicalPoint((0.0, 1.0, 2.0))])
        with pytest.raises(ValueError):
            check_ultrametric_closure(res, 4)


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
