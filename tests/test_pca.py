"""Tropical principal polytopes: oracle equivalence and structure checks."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from tropstat import pca
from tropstat import (
    TropicalPoint,
    TropicalPolytope,
    check_ultrametric_cells,
    exhaustive_principal_polytope,
    fit_principal_polytope,
    in_polytope,
    pca_coordinates,
    pca_objective,
)
from conftest import (
    TIED_FARTHEST,
    reference_distance,
    reference_projection,
    seeded_samples,
    ultrametric_points,
)


def reference_objective(D, S):
    """The per-point pca_objective that the array version replaced."""
    return sum(reference_distance(u, reference_projection(u, D)[1]) for u in S)


def reference_fit(S, s):
    """The per-point fit_principal_polytope that the array version replaced,
    with its farthest-pair double loop: (vertex indices, objective, trace,
    projections)."""
    n = len(S)
    dist = np.array([[reference_distance(a, b) for b in S] for a in S])
    current = [0]
    if s >= 2:
        best = (-1.0, (0, 1))
        for i in range(n):
            for j in range(i + 1, n):
                if dist[i, j] > best[0]:
                    best = (dist[i, j], (i, j))
        current = list(best[1])
    while len(current) < s:
        scores = dist[:, current].sum(axis=1)
        scores[current] = -np.inf
        current.append(int(np.argmax(scores)))
    current = sorted(current)

    def vertices(idx):
        return TropicalPolytope(tuple(S[i] for i in idx)).matrix()

    obj = reference_objective(vertices(current), S)
    trace = [obj]
    improved = True
    while improved:
        improved = False
        for pos in range(s):
            for cand in range(n):
                if cand in current:
                    continue
                trial = sorted(current[:pos] + [cand] + current[pos + 1 :])
                trial_obj = reference_objective(vertices(trial), S)
                if trial_obj < obj - 1e-12 * obj:
                    current, obj = trial, trial_obj
                    trace.append(obj)
                    improved = True
                    break
            if improved:
                break
    projections = [reference_projection(u, vertices(current))[1] for u in S]
    return tuple(current), obj, tuple(trace), projections


def per_trial_fit(X, s):
    """The exchange loop that the stacked candidate blocks replaced, one
    _residual call per trial: (vertex indices, objective, trace)."""
    V = X - X[:, :1]
    current = pca._farthest_first(X, s)
    obj = pca._residual(X, V[current])
    trace = [obj]
    while True:
        for pos, cand in product(range(s), range(len(X))):
            if cand in current:
                continue
            trial = sorted(current[:pos] + [cand] + current[pos + 1 :])
            trial_obj = pca._residual(X, V[trial])
            if trial_obj < obj - 1e-12 * obj:
                current, obj = trial, trial_obj
                trace.append(obj)
                break
        else:
            break
    return tuple(current), obj.hex(), tuple(t.hex() for t in trace)


def reference_start(X, s):
    """The greedy start as fit_principal_polytope took it from the full
    (n, n, e) difference cube."""
    diff = X[:, None, :] - X
    dist = diff.max(axis=-1) - diff.min(axis=-1)
    current = [0]
    if s >= 2:
        rows, cols = np.triu_indices(len(X), 1)
        k = int(dist[rows, cols].argmax())
        current = [int(rows[k]), int(cols[k])]
    while len(current) < s:
        scores = dist[:, current].sum(axis=1)
        scores[current] = -np.inf
        current.append(int(np.argmax(scores)))
    return sorted(current)


def reference_weights(D, u):
    """The projection_weights helper that pca_coordinates used."""
    lam = reference_projection(u, D)[0]
    return lam - lam[0]


class TestObjective:
    def test_zero_when_sample_equals_vertices(self):
        S = ultrametric_points(4, 1, 3)
        P = TropicalPolytope(tuple(S))
        assert pca_objective(P, S) == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_proper_subset(self):
        S = ultrametric_points(4, 2, 5)
        P = TropicalPolytope((S[0],))
        assert pca_objective(P, S) > 0.0

    def test_empty_sample_rejected(self):
        P = TropicalPolytope((TropicalPoint((0, 1, 2)),))
        with pytest.raises(ValueError):
            pca_objective(P, [])


class TestFit:
    @pytest.mark.parametrize("seed,count", [(1, 6), (2, 7), (3, 8), (4, 6)])
    def test_matches_exhaustive_oracle(self, seed, count):
        S = ultrametric_points(4, seed, count)
        model = fit_principal_polytope(S, 3)
        _, oracle_obj = exhaustive_principal_polytope(S, 3)
        assert model.objective == pytest.approx(oracle_obj, abs=1e-9)

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_u5_matches_oracle(self, seed):
        S = ultrametric_points(5, seed, 7)
        model = fit_principal_polytope(S, 3)
        _, oracle_obj = exhaustive_principal_polytope(S, 3)
        assert model.objective == pytest.approx(oracle_obj, abs=1e-9)

    def test_trace_non_increasing(self):
        S = ultrametric_points(4, 5, 8)
        model = fit_principal_polytope(S, 3)
        trace = model.trace
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))

    def test_s_equals_sample_size_gives_zero(self):
        S = ultrametric_points(4, 6, 4)
        model = fit_principal_polytope(S, 4)
        assert model.objective == pytest.approx(0.0, abs=1e-9)

    def test_vertices_come_from_sample(self):
        S = ultrametric_points(4, 7, 6)
        model = fit_principal_polytope(S, 3)
        for idx, v in zip(model.vertex_indices, model.polytope.vertices):
            assert v.close_to(S[idx])

    def test_assignment_lies_in_polytope(self):
        S = ultrametric_points(4, 8, 6)
        model = fit_principal_polytope(S, 2)
        for proj in model.assignment:
            assert in_polytope(proj, model.polytope, tol=1e-7)

    def test_bad_s_rejected(self):
        S = ultrametric_points(4, 9, 3)
        with pytest.raises(ValueError):
            fit_principal_polytope(S, 0)
        with pytest.raises(ValueError):
            fit_principal_polytope(S, 4)

    def test_deterministic(self):
        S = ultrametric_points(4, 10, 7)
        a = fit_principal_polytope(S, 3)
        b = fit_principal_polytope(S, 3)
        assert a.vertex_indices == b.vertex_indices
        assert a.objective == b.objective


class TestMatchesPerPointReference:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_fit_bit_for_bit(self, seed):
        for S in seeded_samples(seed, 9):
            for s in (*range(1, 5), len(S)):
                model = fit_principal_polytope(S, s)
                indices, obj, trace, projections = reference_fit(S, s)
                assert model.vertex_indices == indices
                assert model.objective == obj
                assert model.trace == trace
                assert [p.coords for p in model.assignment] == [
                    p.coords for p in projections
                ]
                D = model.polytope.matrix()
                assert pca_objective(model.polytope, S) == reference_objective(D, S)

    def test_row_scan_start_bit_for_bit(self):
        # up to 12 vertices, so each distance sum adds 11 rows; in the
        # 200-row integer sample many pairs tie at the largest distance
        rng = np.random.default_rng(5)
        samples = [np.array([p.coords for p in S]) for S in seeded_samples(4, 9)]
        samples += [rng.integers(0, 3, size=(31, 5)).astype(float), rng.normal(size=(31, 5)),
                    rng.integers(0, 3, size=(200, 4)).astype(float)]
        for X in samples:
            for s in range(1, min(len(X), 12) + 1):
                assert pca._farthest_first(X, s) == reference_start(X, s)

    @pytest.mark.parametrize("kind", ["trees", "trees to 0.1", "integers"])
    def test_stacked_blocks_bit_for_bit(self, kind):
        # 20-leaf trees, n = 40: 8 candidates per block, so the 37 free
        # candidates of a 3-vertex position span five blocks
        rng = np.random.default_rng(7)
        for seed in (1, 2):
            if kind == "integers":  # many tied residuals
                X = rng.integers(0, 3, size=(60, 190)).astype(float)
            else:
                X = np.array([p.coords for p in ultrametric_points(20, seed, 40)])
                if kind == "trees to 0.1":
                    X = np.round(X, 1)
            assert max(1, pca._BLOCK_FLOATS // X.size) < len(X) - 3
            S = [TropicalPoint(tuple(r)) for r in X.tolist()]
            for s in (1, 3, len(X)):
                model = fit_principal_polytope(S, s)
                assert (
                    model.vertex_indices,
                    model.objective.hex(),
                    tuple(t.hex() for t in model.trace),
                ) == per_trial_fit(X, s)

    def test_farthest_pair_tie_takes_first_pair(self):
        # the search starts at (0, 5), the first of the tied pairs
        S = [TropicalPoint(p) for p in TIED_FARTHEST]
        assert fit_principal_polytope(S, 2).trace[0] == 7.0
        assert reference_fit(S, 2)[2][0] == 7.0

    def test_coordinates_bit_for_bit(self):
        for S in seeded_samples(3, 9):
            model = fit_principal_polytope(S, 3)
            D = model.polytope.matrix()
            expected = [tuple(reference_weights(D, u)[1:].tolist()) for u in S]
            assert pca_coordinates(model, S) == expected


def sample_around_medoid(n, e):
    """Row 0 is zero and the others are +-1 times unit vectors, so row 0 has
    the least distance sum and a 1-vertex fit makes one scan."""
    X = np.zeros((n, e))
    X[1:] = np.tile(np.vstack([np.eye(e), -np.eye(e)]), (n // (2 * e) + 1, 1))[: n - 1]
    return [TropicalPoint(tuple(r)) for r in X.tolist()]


@pytest.mark.parametrize(
    "make_sample, s",
    [
        # an (n, n, e) cube would take 21.9 MB
        (lambda: ultrametric_points(20, 3, 120), 3),
        # an (n, n) table would take 8 MB
        (lambda: sample_around_medoid(1000, 6), 1),
    ],
    ids=["n=120", "n=1000"],
)
def test_fit_memory_stays_blocked(make_sample, s):
    S = make_sample()
    tracemalloc.start()
    try:
        fit_principal_polytope(S, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


class TestCoordinates:
    def test_requires_three_vertices(self):
        S = ultrametric_points(4, 1, 5)
        model = fit_principal_polytope(S, 2)
        with pytest.raises(ValueError):
            pca_coordinates(model, S)

    def test_one_pair_per_sample(self):
        S = ultrametric_points(4, 1, 6)
        model = fit_principal_polytope(S, 3)
        coords = pca_coordinates(model, S)
        assert len(coords) == len(S)
        assert all(len(c) == 2 for c in coords)

    def test_vertex_maps_to_lattice_corner(self):
        S = ultrametric_points(4, 2, 6)
        model = fit_principal_polytope(S, 3)
        coords = pca_coordinates(model, S)
        # the first chosen vertex projects to itself; weights stay finite
        for c in coords:
            assert np.isfinite(c).all()


class TestUltrametricCells:
    def test_closure_on_ultrametric_polytopes(self):
        for seed in range(5):
            S = ultrametric_points(4, 50 + seed, 3)
            P = TropicalPolytope(tuple(S))
            assert check_ultrametric_cells(P, trials=200, seed=seed)

    def test_rejects_non_ultrametric_vertices(self):
        P = TropicalPolytope(
            (TropicalPoint((1.0, 2.0, 3.0)), TropicalPoint((0.0, 1.0, 1.0)))
        )
        with pytest.raises(ValueError):
            check_ultrametric_cells(P, trials=10, seed=0)
