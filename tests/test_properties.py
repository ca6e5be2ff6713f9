"""Property-based checks: metric axioms, quotient invariance, projections,
and statistics that scale with their sample's units."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropstat import (
    TropicalPoint,
    TropicalPolytope,
    cophenetic,
    fermat_weber,
    fit_principal_polytope,
    frechet_mean,
    fw_objective,
    in_polytope,
    project_onto_polytope,
    three_point_check,
    trop_distance,
    trop_segment,
    tropical_combination,
)
from tropstat.experimental import fit_lda, fit_regression
from tropstat.treeio import _build_tree, _leaf_names

from conftest import ultrametric_points

finite_coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def points(dim):
    return st.tuples(*([finite_coord] * dim)).map(TropicalPoint)


@st.composite
def ultrametric_pairs(draw):
    """Two ultrametrics on 4-6 leaves: the single-linkage (subdominant)
    ultrametrics of two random dissimilarity maps."""
    n = draw(st.integers(4, 6))
    names = tuple(_leaf_names(n))
    dissimilarity = st.lists(st.floats(0.0, 10.0), min_size=n * (n - 1) // 2,
                             max_size=n * (n - 1) // 2)
    return [cophenetic(_build_tree(draw(dissimilarity), names)).as_array() for _ in range(2)]


@st.composite
def point_triples(draw, dim=4):
    return draw(points(dim)), draw(points(dim)), draw(points(dim))


class TestMetricAxioms:
    @given(points(4))
    def test_identity(self, p):
        assert trop_distance(p, p) == 0.0

    @given(points(4), points(4))
    def test_symmetry(self, a, b):
        assert trop_distance(a, b) == trop_distance(b, a)

    @given(points(4), points(4))
    def test_nonnegativity(self, a, b):
        assert trop_distance(a, b) >= 0.0

    @given(point_triples())
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert trop_distance(a, c) <= trop_distance(a, b) + trop_distance(b, c) + 1e-9

    @given(points(4), points(4), finite_coord, finite_coord)
    def test_quotient_invariance(self, a, b, s, t):
        d = trop_distance(a, b)
        assert trop_distance(a.shifted(s), b.shifted(t)) == pytest.approx(d, abs=1e-7)


class TestSegments:
    @given(points(4), points(4))
    @settings(max_examples=50)
    def test_length_additivity(self, a, b):
        seg = trop_segment(a, b)
        assert seg.length() == pytest.approx(trop_distance(a, b), abs=1e-7)

    @given(points(4), points(4))
    @settings(max_examples=50)
    def test_breakpoints_lie_on_segment_hull(self, a, b):
        P = TropicalPolytope((a, b))
        for bp in trop_segment(a, b).breakpoints:
            assert in_polytope(bp, P, tol=1e-6)

    @given(points(4), points(4))
    @settings(max_examples=50)
    def test_endpoints(self, a, b):
        seg = trop_segment(a, b)
        assert seg.source.close_to(a, tol=1e-9)
        assert seg.target.close_to(b, tol=1e-9)


class TestProjection:
    @given(st.lists(points(4), min_size=1, max_size=4), points(4))
    @settings(max_examples=60)
    def test_idempotence(self, verts, x):
        P = TropicalPolytope(tuple(verts))
        pi = project_onto_polytope(x, P)
        again = project_onto_polytope(pi, P)
        assert trop_distance(pi, again) <= 1e-9

    @given(st.lists(points(4), min_size=1, max_size=3), points(4), st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_optimality_vs_sampled_members(self, verts, x, seed):
        P = TropicalPolytope(tuple(verts))
        pi = project_onto_polytope(x, P)
        d_star = trop_distance(x, pi)
        rng = np.random.default_rng(seed)
        lams = rng.uniform(-50.0, 50.0, size=(30, P.n_vertices))
        for lam in lams:
            z = tropical_combination(lam, P)
            assert trop_distance(x, z) >= d_star - 1e-9

    @given(st.lists(points(4), min_size=1, max_size=5), points(4))
    @settings(max_examples=60)
    def test_moves_no_point_farther_from_a_vertex(self, verts, x):
        P = TropicalPolytope(tuple(verts))
        pi = project_onto_polytope(x, P)
        for v in P.vertices:
            assert trop_distance(pi, v) <= trop_distance(x, v) + 1e-9

    @given(st.lists(points(4), min_size=1, max_size=4))
    @settings(max_examples=40)
    def test_vertices_project_to_themselves(self, verts):
        P = TropicalPolytope(tuple(verts))
        for v in P.vertices:
            assert project_onto_polytope(v, P).close_to(v, tol=1e-9)


class TestFermatWeberOfTwoTrees:
    @given(ultrametric_pairs())
    @settings(max_examples=60)
    def test_point_is_ultrametric_and_optimal(self, pair):
        # the Fermat-Weber optimum of {u, v} is d(u, v), and the point read
        # off the assignment is a max-plus combination of u and v
        sample = [TropicalPoint(tuple(x)) for x in pair]
        res = fermat_weber(sample)
        opt = trop_distance(*sample)
        assert three_point_check(res.point.coords, tol=1e-9)
        assert res.objective == pytest.approx(opt, abs=1e-9)
        assert fw_objective(res.point, sample) == pytest.approx(opt, abs=1e-9)


def scaling_samples():
    """Tree samples on 5 leaves (15 trees) and 8 leaves (20 trees), and
    Gaussian 14 x 6 and integer 17 x 6 rows."""
    rng = np.random.default_rng(23)
    yield np.array([p.coords for p in ultrametric_points(5, 31, 15)])
    yield np.array([p.coords for p in ultrametric_points(8, 32, 20)])
    yield rng.normal(size=(14, 6))
    yield rng.integers(0, 5, size=(17, 6)).astype(float)


def statistics(X):
    """Each statistic of the sample X, as lists of floats: Fermat-Weber
    and Frechet raw points and objectives, the PCA vertex indices and
    trace, the LDA vertices and objective of the two halves, and the
    regression of the last column on the others."""
    S = [TropicalPoint(tuple(r)) for r in X.tolist()]
    fw, fr = fermat_weber(S), frechet_mean(S)
    pca = fit_principal_polytope(S, 3)
    lda = fit_lda(S[: len(S) // 2], S[len(S) // 2 :], seed=1)
    reg = fit_regression([(tuple(r[:-1]), r[-1]) for r in X.tolist()], seed=1)
    return {
        "fw": (list(fw.diagnostics["raw_point"]), [fw.objective]),
        "frechet": (list(fr.diagnostics["raw_point"]), [fr.objective]),
        "pca": (list(pca.vertex_indices), list(pca.trace)),
        "lda": (lda.polytope.matrix().ravel().tolist(), [lda.objective]),
        "regression": (list(reg.beta), [reg.residual_sum]),
    }


class TestUnitFree:
    @pytest.mark.parametrize("sample", range(4))
    def test_power_of_two_scaling(self, sample):
        # d(cx, cy) = c d(x, y): scaling the sample by c = 2^k scales each
        # point by c and each objective by c (sums of distances) or c^2
        # (sums of squares), bit for bit; PCA picks the same rows
        X = list(scaling_samples())[sample]
        unit, moved = statistics(X), []
        for k in (-30, -10, -4, 4, 10, 30):
            c = 2.0**k
            powers = {"fw": (c, c), "frechet": (c, c * c), "pca": (1.0, c),
                      "lda": (c, c), "regression": (c, c * c)}
            for name, (point, value) in statistics(c * X).items():
                cp, cv = powers[name]
                if (point, value) != ([cp * v for v in unit[name][0]],
                                      [cv * v for v in unit[name][1]]):
                    moved.append((name, k))
        assert moved == []
