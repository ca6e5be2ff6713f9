"""Experimental tropical LDA and regression heuristics."""

from itertools import product

import numpy as np
import pytest

from tropstat import experimental
from tropstat.experimental import (
    _line_min,
    fit_lda,
    fit_regression,
    lda_objective,
    regression_objective,
    trop_predict,
)
from tropstat import (
    TropicalPoint,
    TropicalPolytope,
    canonicalize,
    fermat_weber,
    in_polytope,
    project_onto_polytope,
    trop_distance,
)
from conftest import (
    reference_distance,
    reference_projection,
    seeded_samples,
    ultrametric_points,
)


def reference_lda(w, S1, S2, grid):
    """The best point of a deterministic lattice of tropical combinations
    of w's vertices for each class's projections, an upper bound on the
    exact constrained Fermat-Weber sum: (mu1, mu2, s1, s2, objective)."""
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


def reference_median_lda(w, S1, S2):
    """The per-point exact lda_objective: each class's projection at the
    lower median of its distances from the first vertex, and that point's
    distance sum (mu1, mu2, s1, s2, objective)."""
    D = w.matrix()
    a = w.vertices[0]

    def inner_min(S):
        projs = [reference_projection(u, D)[1] for u in S]
        g = [reference_distance(p, a) for p in projs]
        mu = projs[sorted(range(len(projs)), key=g.__getitem__)[(len(projs) - 1) // 2]]
        return mu, sum(reference_distance(p, mu) for p in projs)

    mu1, s1 = inner_min(S1)
    mu2, s2 = inner_min(S2)
    return mu1.coords, mu2.coords, s1, s2, reference_distance(mu1, mu2) - s1 - s2


def reference_fit_lda(S1, S2, seed, max_iters):
    """fit_lda over reference_median_lda, building a polytope per trial."""
    rng = np.random.default_rng(seed)
    v1 = fermat_weber(S1).point.as_array()
    v2 = fermat_weber(S2).point.as_array()
    spread = float(np.ptp(np.array([p.coords for p in list(S1) + list(S2)]), axis=1).max())
    if canonicalize(v1).close_to(canonicalize(v2), 1e-9 * spread):
        v2 = v2 + 0.5 * spread / np.arange(1, len(v2) + 1)
    scale = 0.1 * spread

    def evaluate(a, b):
        w = TropicalPolytope((canonicalize(a), canonicalize(b)))
        return reference_median_lda(w, S1, S2) + (w.matrix().tolist(),)

    best = evaluate(v1, v2)
    verts = [v1.copy(), v2.copy()]
    for _ in range(max_iters):
        which = int(rng.integers(0, 2))
        coord = int(rng.integers(0, len(v1)))
        delta = float(rng.choice([-scale, scale]))
        trial = [verts[0].copy(), verts[1].copy()]
        trial[which][coord] += delta
        cand = evaluate(trial[0], trial[1])
        if cand[4] > best[4] + 1e-12 * spread:
            best, verts = cand, trial
    return best


def shorten_lda(monkeypatch, max_iters):
    """Set fit_lda's number of trial moves."""
    monkeypatch.setattr(experimental, "LDA_MAX_ITERS", max_iters)


def lda_cases(seed, count):
    """(segment, class 1, class 2) triples cycling through ultrametrics on
    5 leaves, Gaussian rows at scales 0.1-10 and integer rows in {0, 1, 2}
    (many ties); classes hold 1-9 points, and every fourth case has a class
    of one point."""
    rng = np.random.default_rng(seed)
    pool = np.array([p.coords for p in ultrametric_points(5, seed, 200)])
    for t in range(count):
        n1, n2 = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        if t % 4 == 3:
            n1 = 1
        kind = t % 3
        if kind == 0:
            X = pool[rng.integers(0, len(pool), size=n1 + n2 + 2)]
        elif kind == 1:
            X = rng.normal(scale=10.0 ** rng.uniform(-1, 1), size=(n1 + n2 + 2, int(rng.integers(3, 8))))
        else:
            X = rng.integers(0, 3, size=(n1 + n2 + 2, int(rng.integers(3, 7)))).astype(float)
        P = [TropicalPoint(tuple(r)) for r in X.tolist()]
        yield TropicalPolytope(tuple(P[:2])), P[2 : 2 + n1], P[2 + n1 :]


def candidate_tuple(c):
    return c.mu1.coords, c.mu2.coords, c.s1, c.s2, c.objective


class TestPredict:
    def test_max_plus_form(self):
        assert trop_predict((1.0, 0.5), (2.0,)) == 2.5
        assert trop_predict((5.0, 0.5), (2.0,)) == 5.0

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            trop_predict((1.0,), (2.0,))


def line_cases(seed, count):
    """Seeded (b, r) for _line_min, 1-9 points: Gaussian, integer (tied
    breakpoints), all breakpoints equal, every r below its breakpoint (the
    minimum is the constant stretch), no breakpoints (-inf, an
    intercept-only fit), and Gaussian at scale 0.01 about 1e6."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        n, kind = 1 + case % 9, case % 6
        b, r = rng.normal(0, 3, n), rng.normal(0, 3, n)
        if kind == 1:
            b, r = rng.integers(0, 4, n).astype(float), rng.integers(0, 4, n).astype(float)
        elif kind == 2:
            b[:] = b[0]
        elif kind == 3:
            r = b - rng.uniform(0, 3, n)
        elif kind == 4:
            b[:] = -np.inf
        elif kind == 5:
            b, r = 1e6 + b / 300, 1e6 + r / 300
        yield b, r


def line_objective(t, b, r):
    return float(((np.maximum(t, b) - r) ** 2).sum())


def regression_data(seed):
    """A seeded max-plus data set: 5-60 points with 1-4 features, Gaussian
    at scales 0.5-20 or integer in {0, 1, 2} with rounded responses, and
    noise up to 5."""
    rng = np.random.default_rng(seed)
    n, e = int(rng.integers(5, 61)), int(rng.integers(1, 5))
    scale, noise = rng.uniform(0.5, 20), rng.uniform(0, 5)
    beta = rng.normal(0, scale, e + 1)
    integer = seed % 3 == 2
    X = rng.integers(0, 3, (n, e)).astype(float) if integer else rng.normal(0, scale, (n, e))
    y = np.maximum(beta[0], (beta[1:] + X).max(axis=1)) + noise * rng.normal(size=n)
    if integer:
        y = np.round(y)
    return [(tuple(x), v) for x, v in zip(X.tolist(), y.tolist())]


def coordinate_gain(beta, data):
    """The most the residual sum falls, over 1 + its value, when one
    coordinate of beta moves to one of its breakpoints or to the mean of
    the r's at or below a breakpoint: 0 for a coordinate-wise optimum."""
    Z = np.array([(0.0, *x) for x, _ in data])
    y = np.array([v for _, v in data])
    beta = np.array(beta)

    def sse(b):
        return float((((b + Z).max(axis=1) - y) ** 2).sum())

    value, gain = sse(beta), 0.0
    for k in range(len(beta)):
        b = np.delete(beta + Z, k, axis=1).max(axis=1, initial=-np.inf) - Z[:, k]
        r = y - Z[:, k]
        for t in [*b[np.isfinite(b)], *(r[b <= c].mean() for c in b)]:
            trial = beta.copy()
            trial[k] = t
            gain = max(gain, (value - sse(trial)) / (1.0 + value))
    return gain


class TestLineMin:
    def test_matches_direct_evaluation(self):
        # against every breakpoint, every stretch's clipped mean and a grid
        for b, r in line_cases(20, 900):
            t = _line_min(b, r)
            ends = np.sort(b)
            hi = np.append(ends[1:], np.inf)
            means = [r[b <= c].mean() for c in ends]
            finite = np.concatenate((b, r))[np.isfinite(np.concatenate((b, r)))]
            grid = np.linspace(finite.min() - 1.0, finite.max() + 1.0, 401)
            cands = [*b[np.isfinite(b)], *np.clip(means, ends, hi), *grid]
            best = min(line_objective(c, b, r) for c in cands)
            assert line_objective(t, b, r) <= best + 1e-9 * (1.0 + best)

    @pytest.mark.parametrize("c", [1e308, -1e308])
    def test_responses_near_the_float_limit(self, c):
        # a sum of two such responses overflows, but f only shifts with b
        # and r together, so the exact fit t = c is found
        for b in ([c, c, c], [-np.inf] * 3, [-np.inf, c, -np.inf, c]):
            b, r = np.array(b), np.full(len(b), c)
            t = _line_min(b, r)
            assert t == c and line_objective(t, b, r) == 0.0


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

    @pytest.mark.parametrize("seed", range(24))
    def test_coordinate_wise_optimal(self, seed):
        data = regression_data(seed)
        model = fit_regression(data, seed=seed)
        assert coordinate_gain(model.beta, data) <= 1e-9
        assert model.residual_sum == pytest.approx(
            regression_objective(model.beta, data), rel=1e-12, abs=1e-12)

    def test_intercept_only(self):
        data = [((), 1.0), ((), 2.0), ((), 4.0), ((), 4.0)]
        model = fit_regression(data, seed=0)
        assert model.beta == (pytest.approx(2.75),)
        assert model.residual_sum == pytest.approx(6.75)

    def test_offset_responses(self):
        # responses near 1e6 give the same fit, shifted, as near 0
        data = regression_data(7)
        near = [(x, y + 1e6) for x, y in data]
        model, shifted = fit_regression(data, seed=0), fit_regression(near, seed=0)
        assert coordinate_gain(shifted.beta, near) <= 1e-9
        assert shifted.residual_sum == pytest.approx(model.residual_sum, rel=1e-6)


class TestLda:
    def test_objective_fields(self):
        S1 = ultrametric_points(4, 1, 3)
        S2 = ultrametric_points(4, 2, 3)
        w = TropicalPolytope((S1[0], S2[0]))
        cand = lda_objective(w, S1, S2)
        assert cand.objective == pytest.approx(
            trop_distance(cand.mu1, cand.mu2) - cand.s1 - cand.s2, abs=1e-9
        )
        assert cand.experimental is True

    def test_identical_classes_nonpositive(self, monkeypatch):
        shorten_lda(monkeypatch, 10)
        S = ultrametric_points(4, 3, 4)
        cand = fit_lda(S, S, seed=0)
        assert cand.objective <= 1e-9

    def test_seeded_determinism(self, monkeypatch):
        shorten_lda(monkeypatch, 15)
        S1 = ultrametric_points(4, 6, 3)
        S2 = ultrametric_points(4, 7, 3)
        a = fit_lda(S1, S2, seed=9)
        b = fit_lda(S1, S2, seed=9)
        assert a.objective == b.objective

    def test_constrained_fermat_weber_points_are_exact(self):
        """mu'_k is the median reference bit for bit, lies on the segment,
        has the Fermat-Weber sum of the class's projections, and does no
        worse than any point of the coefficient lattice."""
        for w, S1, S2 in lda_cases(11, 1000):
            cand = lda_objective(w, S1, S2)
            assert candidate_tuple(cand) == reference_median_lda(w, S1, S2)
            assert cand.polytope is w
            lattice = [reference_lda(w, S1, S2, grid) for grid in (3, 8, 16)]
            for mu, s, S, k in ((cand.mu1, cand.s1, S1, 2), (cand.mu2, cand.s2, S2, 3)):
                fw = fermat_weber([project_onto_polytope(u, w) for u in S]).objective
                assert abs(s - fw) <= 1e-9 * fw + 1e-12, (s, fw)
                assert in_polytope(mu, w, tol=1e-9)
                assert all(s <= ref[k] + 1e-9 * ref[k] + 1e-12 for ref in lattice)

    @pytest.mark.parametrize("n_vertices", [1, 3])
    def test_objective_needs_two_vertices(self, n_vertices):
        S = ultrametric_points(4, 10, 4)
        with pytest.raises(ValueError, match="2 vertices"):
            lda_objective(TropicalPolytope(tuple(S[:n_vertices])), S[:2], S[2:])

    def test_fit_bit_for_bit(self, monkeypatch):
        shorten_lda(monkeypatch, 15)
        for k, S in enumerate(seeded_samples(5, 3)):
            half = len(S) // 2
            cand = fit_lda(S[:half], S[half:], seed=k)
            ref = reference_fit_lda(S[:half], S[half:], k, 15)
            assert candidate_tuple(cand) == ref[:5]
            assert cand.polytope.matrix().tolist() == ref[5]

    def test_empty_class_rejected(self):
        S = ultrametric_points(4, 8, 3)
        with pytest.raises(ValueError):
            fit_lda(S, [], seed=0)

    def test_any_representative(self):
        # the move size is a ratio of the largest coordinate range of one
        # point, which adding a constant to a row does not change; the fit
        # moves only by the round-off of the shifted row
        S = ultrametric_points(5, 3, 12)
        moved = [S[0].shifted(10.0)] + S[1:]
        fits = [fit_lda(T[:6], T[6:], seed=1).objective for T in (S, moved)]
        assert fits[1] == pytest.approx(fits[0], rel=1e-12)
