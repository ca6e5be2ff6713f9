"""Experimental tropical LDA and regression heuristics."""

from itertools import product

import numpy as np
import pytest

from tropstat import experimental
from tropstat.experimental import (
    fit_lda,
    fit_regression,
    lda_objective,
    regression_objective,
    trop_predict,
)
from tropstat import (
    TropicalPolytope,
    canonicalize,
    fermat_weber,
    trop_distance,
)
from conftest import (
    reference_distance,
    reference_projection,
    seeded_samples,
    ultrametric_points,
)


def reference_lda(w, S1, S2, grid):
    """The per-point lda_objective that the array version replaced:
    (mu1, mu2, s1, s2, objective)."""
    D = w.matrix()
    proj1 = [reference_projection(u, D)[1] for u in S1]
    proj2 = [reference_projection(u, D)[1] for u in S2]
    spread = max(
        [reference_distance(a, b) for a in w.vertices for b in w.vertices] + [1.0]
    )
    axis = [-spread + 2.0 * spread * k / grid for k in range(grid + 1)]

    def inner_min(projs):
        best = None
        for tail in product(*([axis] * (w.n_vertices - 1))):
            lam = np.asarray((0.0,) + tail)
            z = canonicalize((D + lam[:, None]).max(axis=0))
            val = sum(reference_distance(z, p) for p in projs)
            if best is None or val < best[1]:
                best = (z, val)
        return best

    mu1, s1 = inner_min(proj1)
    mu2, s2 = inner_min(proj2)
    return mu1.coords, mu2.coords, s1, s2, reference_distance(mu1, mu2) - s1 - s2


def reference_fit_lda(S1, S2, seed, grid, max_iters):
    """fit_lda over reference_lda, building a polytope per trial."""
    rng = np.random.default_rng(seed)
    v1 = fermat_weber(S1).point.as_array()
    v2 = fermat_weber(S2).point.as_array()
    if canonicalize(v1).close_to(canonicalize(v2)):
        v2 = v2 + 1.0 / np.arange(1, len(v2) + 1)
    data = np.array([p.coords for p in list(S1) + list(S2)])
    scale = 0.1 * max(float(np.ptp(data)), 1.0)

    def evaluate(a, b):
        w = TropicalPolytope((canonicalize(a), canonicalize(b)))
        return reference_lda(w, S1, S2, grid) + (w.matrix().tolist(),)

    best = evaluate(v1, v2)
    verts = [v1.copy(), v2.copy()]
    for _ in range(max_iters):
        which = int(rng.integers(0, 2))
        coord = int(rng.integers(0, len(v1)))
        delta = float(rng.choice([-scale, scale]))
        trial = [verts[0].copy(), verts[1].copy()]
        trial[which][coord] += delta
        cand = evaluate(trial[0], trial[1])
        if cand[4] > best[4] + 1e-12:
            best, verts = cand, trial
    return best


def shorten_lda(monkeypatch, grid, max_iters):
    """Set fit_lda's lattice resolution and number of trial moves."""
    monkeypatch.setattr(experimental, "LDA_GRID", grid)
    monkeypatch.setattr(experimental, "LDA_MAX_ITERS", max_iters)


def candidate_tuple(c):
    return c.mu1.coords, c.mu2.coords, c.s1, c.s2, c.objective


class TestPredict:
    def test_max_plus_form(self):
        assert trop_predict((1.0, 0.5), (2.0,)) == 2.5
        assert trop_predict((5.0, 0.5), (2.0,)) == 5.0

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            trop_predict((1.0,), (2.0,))


class TestRegression:
    def test_perfect_fit(self):
        beta = (1.0, 0.5)
        data = [((float(x),), trop_predict(beta, (float(x),))) for x in range(-3, 4)]
        model = fit_regression(data, seed=0)
        assert model.residual_sum < 1e-6
        assert model.experimental is True

    def test_objective_recomputes(self):
        data = [((0.0,), 1.0), ((1.0,), 2.0), ((2.0,), 2.5)]
        model = fit_regression(data, seed=0)
        assert regression_objective(model.beta, data) == pytest.approx(
            model.residual_sum, abs=1e-9
        )

    def test_two_features(self):
        beta = (0.0, 1.0, -1.0)
        rng = np.random.default_rng(4)
        data = [
            (tuple(x), trop_predict(beta, x))
            for x in rng.uniform(-2, 2, size=(12, 2))
        ]
        model = fit_regression(data, seed=1)
        assert model.residual_sum < 1e-4

    def test_seeded_determinism(self):
        data = [((0.0,), 1.0), ((1.0,), 3.0), ((2.0,), 2.0)]
        a = fit_regression(data, seed=5)
        b = fit_regression(data, seed=5)
        assert a.beta == b.beta

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_regression([], seed=0)


class TestLda:
    def test_objective_fields(self):
        S1 = ultrametric_points(4, 1, 3)
        S2 = ultrametric_points(4, 2, 3)
        w = TropicalPolytope((S1[0], S2[0]))
        cand = lda_objective(w, S1, S2, grid=4)
        assert cand.objective == pytest.approx(
            trop_distance(cand.mu1, cand.mu2) - cand.s1 - cand.s2, abs=1e-9
        )
        assert cand.experimental is True

    def test_identical_classes_nonpositive(self, monkeypatch):
        shorten_lda(monkeypatch, 4, 10)
        S = ultrametric_points(4, 3, 4)
        cand = fit_lda(S, S, seed=0)
        assert cand.objective <= 1e-9

    def test_nested_lattice_refinement_never_hurts(self):
        S1 = ultrametric_points(4, 4, 3)
        S2 = ultrametric_points(4, 5, 3)
        w = TropicalPolytope((S1[0], S2[0]))
        coarse = lda_objective(w, S1, S2, grid=4)
        fine = lda_objective(w, S1, S2, grid=8)
        # the fine lattice contains the coarse one, so inner minima improve
        assert fine.s1 <= coarse.s1 + 1e-9
        assert fine.s2 <= coarse.s2 + 1e-9

    def test_seeded_determinism(self, monkeypatch):
        shorten_lda(monkeypatch, 4, 15)
        S1 = ultrametric_points(4, 6, 3)
        S2 = ultrametric_points(4, 7, 3)
        a = fit_lda(S1, S2, seed=9)
        b = fit_lda(S1, S2, seed=9)
        assert a.objective == b.objective

    @pytest.mark.parametrize("grid", [3, 8])
    def test_objective_bit_for_bit(self, grid):
        for S in seeded_samples(4, 9):
            S1, S2 = S[: len(S) // 2], S[len(S) // 2 :]
            for w in (TropicalPolytope((S[0], S[-1])), TropicalPolytope(tuple(S[1:4]))):
                cand = lda_objective(w, S1, S2, grid=grid)
                assert candidate_tuple(cand) == reference_lda(w, S1, S2, grid)
                assert cand.polytope is w

    def test_fit_bit_for_bit(self, monkeypatch):
        shorten_lda(monkeypatch, 4, 15)
        for k, S in enumerate(seeded_samples(5, 3)):
            half = len(S) // 2
            cand = fit_lda(S[:half], S[half:], seed=k)
            ref = reference_fit_lda(S[:half], S[half:], k, 4, 15)
            assert candidate_tuple(cand) == ref[:5]
            assert cand.polytope.matrix().tolist() == ref[5]

    def test_empty_class_rejected(self):
        S = ultrametric_points(4, 8, 3)
        with pytest.raises(ValueError):
            fit_lda(S, [], seed=0)
