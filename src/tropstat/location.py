"""Tropical Fermat-Weber points and Frechet means.

The Fermat-Weber point is read off the potentials of an optimal
assignment, the dual of the location LP, and lies in the sample's
tropical convex hull; the Frechet mean is computed by direct convex
minimization of the squared tropical distance sum, one descent from the
best of the Fermat-Weber point, the sample points and their median.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import TropicalPoint, _distances, _sample_arrays, canonicalize
from .solver import minimize_convex
from .treeio import three_point_check

FW_LP = "FW_LP"
FRECHET_DESCENT = "FRECHET_DESCENT"


@dataclass
class LocationResult:
    point: TropicalPoint  # canonical representative
    objective: float
    method: str
    diagnostics: dict = field(default_factory=dict)


def fw_objective(z: TropicalPoint, sample: Sequence[TropicalPoint]) -> float:
    """Sum of tropical distances from z to the sample."""
    return float(_distances(z.as_array(), _sample_arrays(sample)).sum())


def frechet_objective(z: TropicalPoint, sample: Sequence[TropicalPoint]) -> float:
    """Sum of squared tropical distances from z to the sample."""
    d = _distances(z.as_array(), _sample_arrays(sample))
    return float((d * d).sum())


def fermat_weber(sample: Sequence[TropicalPoint]) -> LocationResult:
    """One optimal Fermat-Weber point, from the dual of the location LP.

    That dual is an s x s assignment problem (Comaneci & Joswig, *Tropical
    medians by transportation*, 2022): the optimum is the max over
    permutations sigma of sum_i c[i, sigma(i)], c[i, k] = max_j (v_kj - v_ij).

    The point is y = max_k (b_k + v_k) for the assignment's column
    potentials b, whose row potentials a give c[i, k] <= a_i - b_k with
    equality on sigma.  So max_j (y_j - v_ij) <= a_i and
    min_j (y_j - v_ij) >= b_i, and sum_i d(y, v_i) <= sum_i (a_i - b_i),
    the optimum.  y is a max-plus combination of the sample, so it lies in
    the sample's tropical convex hull; ultrametrics are tropically convex
    (Lin, Sturmfels, Tang & Yoshida, *Convexity in tree spaces*, 2017),
    and float rounding is monotone, so y of an ultrametric sample is
    ultrametric.  C is filled one row at a time, each from one (s, e) difference."""
    V = _sample_arrays(sample)
    s, e = V.shape
    C = np.zeros((s, s + 1))  # the last column stays zero for _assignment
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(s):
            np.max(V - V[i], axis=1, out=C[i, :s])
        if not np.isfinite(C).all():
            raise RuntimeError("Fermat-Weber costs are not finite: coordinate differences overflow")
        sigma, b = _assignment(C)
        opt = float(C[np.arange(s), sigma].sum())
        y = (V + b[:, None]).max(axis=0)
        total = float(_distances(y, V).sum())
    tol = s * e * 1e-12 * float(np.abs(V).max())
    if not abs(total - opt) <= tol:  # also False when either is not finite
        raise RuntimeError(f"Fermat-Weber point: distance sum {total!r}, optimum {opt!r}")
    raw = tuple(y.tolist())
    return LocationResult(canonicalize(raw), opt, FW_LP, {"raw_point": raw})


def _assignment(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For an (s, s + 1) C whose zero last column is every path's virtual
    start, the permutation sigma maximizing sum_i C[i, sigma(i)] and column
    potentials b with C[i, k] <= a_i - b_k for row potentials a, equal on
    sigma: shortest augmenting paths with potentials (Kuhn, 1955; Jonker &
    Volgenant, 1987), one vectorized pass over the columns per step.  Ties go
    to the first free column, else to the first, which keeps tied paths short."""
    s = len(C)
    u, v = np.zeros(s), -C.max(axis=0)  # column reduction
    row_of = np.full(s + 1, -1)  # the row matched to each column
    for i in range(s):
        row_of[s], col = i, s
        dist, way, done = np.full(s + 1, np.inf), np.full(s + 1, s), np.zeros(s + 1, dtype=bool)
        dist[s] = 0.0
        while row_of[col] >= 0:  # Dijkstra on the reduced costs -C - u - v >= 0
            done[col] = True
            cur = dist[col] - C[row_of[col]] - u[row_of[col]] - v
            better = ~done & (cur < dist)
            dist[better], way[better] = cur[better], col
            cand = np.where(done, np.inf, dist)  # nearest column, a free one first
            col = int(np.where(cand == cand.min(), row_of >= 0, 2).argmin())
        shift = dist[col] - dist[done]
        u[row_of[done]] += shift
        v[done] -= shift
        while col != s:  # flip the matching along the path
            row_of[col], col = row_of[way[col]], way[col]
    return np.argsort(row_of[:s]), v[:s]


def frechet_mean(sample: Sequence[TropicalPoint]) -> LocationResult:
    """Subgradient descent on the squared-distance sum from one start.

    The start is the best of the Fermat-Weber point, the sample points and
    their coordinatewise median, the first on ties, so no sample point can
    beat the result.
    """
    V = _sample_arrays(sample)
    f = _frechet_oracle(V)
    fw = np.array(fermat_weber(sample).diagnostics["raw_point"])
    candidates = [fw, *V, np.median(V, axis=0)]
    start = candidates[int(np.argmin([f(z)[0] for z in candidates]))]
    z, val = minimize_convex(f, start)
    raw = tuple(float(v) for v in z)
    return LocationResult(
        point=canonicalize(raw),
        objective=float(val),
        method=FRECHET_DESCENT,
        diagnostics={"raw_point": raw},
    )


def _frechet_oracle(V: np.ndarray):
    """Value and subgradient of sum_i d(z, v_i)^2 at one point z."""
    pair = np.arange(len(V))

    def f(z: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises in the solver
            diff = z - V
            # lexicographically smallest extremal indices on ties (np.arg* default)
            imax, imin = diff.argmax(axis=1), diff.argmin(axis=1)
            d = diff[pair, imax] - diff[pair, imin]
            # one bincount adds every point's argmax term, then its argmin
            # term, in point order, as np.add.at would
            g = np.bincount(np.concatenate([imax, imin]),
                            np.concatenate([2.0 * d, -2.0 * d]), len(z))
            return (d * d).sum(), g

    return f


def check_ultrametric_closure(
    result: LocationResult, n_leaves: int, tol: float = 1e-6
) -> bool:
    """Three-point condition on the solver's raw representative, also
    recorded in result.diagnostics["closure"]."""
    e = n_leaves * (n_leaves - 1) // 2
    if n_leaves < 3 or result.point.dim != e:
        raise ValueError(f"dimension {result.point.dim} is not C({n_leaves},2)")
    raw = result.diagnostics.get("raw_point", result.point.coords)
    ok = three_point_check(raw, tol=tol)
    result.diagnostics["closure"] = ok
    return ok
