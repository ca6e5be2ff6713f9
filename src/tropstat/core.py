"""Max-plus arithmetic and geometry on the tropical projective torus.

Points live in R^e modulo the all-ones direction.  The canonical
representative of a class pins the first coordinate to 0; all operations
below return canonical points regardless of the representative they were
handed.  Coordinate and sector indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

NEG_INF = float("-inf")

#: absolute tolerance for point equality and "max attained twice" ties
EQ_TOL = 1e-9


def trop_add(a: float, b: float) -> float:
    """Tropical addition: max. -inf is the additive identity."""
    return max(a, b)


def trop_mul(a: float, b: float) -> float:
    """Tropical multiplication: ordinary sum. -inf absorbs, 0 is the unit."""
    return a + b


@dataclass(frozen=True)
class TropicalPoint:
    """A representative of a point of R^e / R*1.

    Coordinates must be finite and there must be at least two of them.
    Representatives are not forced into canonical form on construction;
    use :func:`canonicalize` or :meth:`canonical` to pin the first
    coordinate to 0.
    """

    coords: tuple[float, ...]

    def __post_init__(self):
        if len(self.coords) < 2:
            raise ValueError("a tropical point needs at least 2 coordinates")
        if not all(math.isfinite(c) for c in self.coords):
            raise ValueError("tropical point coordinates must be finite")
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)

    def canonical(self) -> "TropicalPoint":
        return canonicalize(self.coords)

    def is_canonical(self, tol: float = 0.0) -> bool:
        return abs(self.coords[0]) <= tol

    def shifted(self, c: float) -> "TropicalPoint":
        """The representative obtained by adding c to every coordinate."""
        return TropicalPoint(tuple(x + c for x in self.coords))

    def close_to(self, other: "TropicalPoint", tol: float = EQ_TOL) -> bool:
        """Equality in the quotient: canonical forms agree within tol."""
        if self.dim != other.dim:
            return False
        a = self.canonical().as_array()
        b = other.canonical().as_array()
        return bool(np.max(np.abs(a - b)) <= tol)


def canonicalize(v) -> TropicalPoint:
    """Pin the first coordinate to exactly 0 by a 1-shift."""
    if isinstance(v, TropicalPoint):
        arr = v.as_array()
    else:
        arr = np.asarray(list(v), dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("expected a vector of length >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    return TropicalPoint(tuple(arr - arr[0]))


def _check_dims(v: TropicalPoint, w: TropicalPoint):
    if v.dim != w.dim:
        raise ValueError(f"dimension mismatch: {v.dim} vs {w.dim}")


def scalar_mul(a: float, v: TropicalPoint) -> TropicalPoint:
    """a (x) v, coordinatewise a + v_i, returned canonicalized.

    In the quotient this is the identity map.
    """
    if not math.isfinite(a):
        raise ValueError("scalar must be finite for a stored point")
    return canonicalize(v.as_array() + a)


def trop_combine(a: float, v: TropicalPoint, b: float, w: TropicalPoint) -> TropicalPoint:
    """a (x) v (+) b (x) w: coordinatewise max of the shifted points.

    a or b may be -inf, meaning the corresponding point is unused.
    """
    _check_dims(v, w)
    if a == NEG_INF and b == NEG_INF:
        raise ValueError("at least one coefficient must be finite")
    return canonicalize(_combine(np.array([a, b]), np.array([v.coords, w.coords])))


def trop_distance(v: TropicalPoint, w: TropicalPoint) -> float:
    """Tropical metric: max_i(v_i - w_i) - min_i(v_i - w_i)."""
    _check_dims(v, w)
    return float(_distances(v.as_array(), w.as_array()))


def _sample_arrays(sample: Sequence[TropicalPoint]) -> np.ndarray:
    """The (n, e) matrix of a nonempty sample of points of one dimension."""
    if not sample:
        raise ValueError("empty sample")
    dims = {p.dim for p in sample}
    if len(dims) != 1:
        raise ValueError("sample points must share one dimension")
    return np.array([p.coords for p in sample], dtype=float)


def _distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Tropical distances between the rows of X and Y, broadcast over the
    leading axes: max(x - y) - min(x - y) along the last axis.  Scans over
    all pairs pass one row x at a time, so no (n, n, e) array is built."""
    diff = X - Y
    return diff.max(axis=-1) - diff.min(axis=-1)


def _spread(X: np.ndarray) -> float:
    """The largest coordinate range of one row of X, the sample's scale."""
    return float(np.ptp(X, axis=1).max())


def _combine(lam: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Canonical tropical combinations max_l(lam_l + D_l) of the rows of D,
    one per row of lam."""
    Z = (D + lam[..., :, None]).max(axis=-2)
    return Z - Z[..., :1]


def _project(X: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest points of the rows of X on tconv of the rows of D (Develin &
    Sturmfels, 2004): the weights lam_l = min_j(x_j - D_lj), one row per
    point, and the canonical combinations of D with those weights."""
    lam = (X[..., None, :] - D).min(axis=-1)
    return lam, _combine(lam, D)


@dataclass(frozen=True)
class TropicalSegment:
    """Breakpoint polyline of the tropical segment between two points."""

    breakpoints: tuple[TropicalPoint, ...]

    @property
    def source(self) -> TropicalPoint:
        return self.breakpoints[0]

    @property
    def target(self) -> TropicalPoint:
        return self.breakpoints[-1]

    def length(self) -> float:
        bps = self.breakpoints
        return sum(trop_distance(bps[i], bps[i + 1]) for i in range(len(bps) - 1))


def trop_segment(v: TropicalPoint, w: TropicalPoint) -> TropicalSegment:
    """The tropical geodesic from v to w as its breakpoint polyline.

    Breakpoints sit at the distinct values of w_i - v_i (after shifting the
    minimum to 0); ties merge breakpoints.
    """
    _check_dims(v, w)
    va = v.canonical().as_array()
    wa = w.canonical().as_array()
    shift = (wa - va) - (wa - va).min()  # w' - v with min 0
    points: list[TropicalPoint] = []
    for d in sorted(np.unique(shift), reverse=True):
        pt = canonicalize(np.maximum(va, va + shift - d))
        if not points or not points[-1].close_to(pt, tol=0.0):
            points.append(pt)
    return TropicalSegment(tuple(points))


@dataclass(frozen=True)
class TropicalPolytope:
    """Tropical convex hull generated by a finite, ordered vertex list."""

    vertices: tuple[TropicalPoint, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a tropical polytope needs at least one vertex")
        dims = {v.dim for v in self.vertices}
        if len(dims) != 1:
            raise ValueError("all vertices must share one dimension")
        object.__setattr__(
            self, "vertices", tuple(v.canonical() for v in self.vertices)
        )

    @property
    def dim(self) -> int:
        return self.vertices[0].dim

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def matrix(self) -> np.ndarray:
        return _sample_arrays(self.vertices)


def tropical_combination(lambdas: Sequence[float], P: TropicalPolytope) -> TropicalPoint:
    """(+)_l lambda_l (x) D^(l).  -inf coefficients mark unused vertices."""
    lam = list(lambdas)
    if len(lam) != P.n_vertices:
        raise ValueError("one coefficient per vertex required")
    if all(v == NEG_INF for v in lam):
        raise ValueError("at least one coefficient must be finite")
    return canonicalize(_combine(np.asarray(lam, dtype=float), P.matrix()))


def project_onto_polytope(x: TropicalPoint, P: TropicalPolytope) -> TropicalPoint:
    """Nearest-point map onto tconv(P): lambda_l = min_j(x_j - D^(l)_j)."""
    if x.dim != P.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {P.dim}")
    return canonicalize(_project(x.as_array(), P.matrix())[1])


def in_polytope(x: TropicalPoint, P: TropicalPolytope, tol: float = EQ_TOL) -> bool:
    """Membership via the projection: true iff x is its own projection."""
    return trop_distance(x, project_onto_polytope(x, P)) <= tol


@dataclass(frozen=True)
class TropicalHyperplane:
    """Locus where max_i(omega_i + x_i) is attained at least twice."""

    normal: TropicalPoint

    def __post_init__(self):
        object.__setattr__(self, "normal", self.normal.canonical())


def sector_of(x: TropicalPoint, H: TropicalHyperplane, tol: float = EQ_TOL):
    """Index of the open sector containing x, or None when x is on H.

    The sector index is the (0-based) argmax of x + omega; None means the
    max is attained at least twice within tol.
    """
    if x.dim != H.normal.dim:
        raise ValueError("dimension mismatch")
    vals = x.as_array() + H.normal.as_array()
    order = np.argsort(-vals, kind="stable")
    if vals[order[0]] - vals[order[1]] <= tol:
        return None
    return int(order[0])


def distance_to_hyperplane(x: TropicalPoint, H: TropicalHyperplane) -> float:
    """Tropical distance from x to H: largest minus second largest of x + omega."""
    if x.dim != H.normal.dim:
        raise ValueError("dimension mismatch")
    vals = np.sort(x.as_array() + H.normal.as_array())
    return float(vals[-1] - vals[-2])
