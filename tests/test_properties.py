"""Property-based checks: metric axioms, quotient invariance, projections."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropstat import (
    TropicalPoint,
    TropicalPolytope,
    cophenetic,
    fermat_weber,
    fw_objective,
    in_polytope,
    project_onto_polytope,
    three_point_check,
    trop_distance,
    trop_segment,
    tropical_combination,
)
from tropstat.treeio import _build_tree, _leaf_names

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
