"""Tropical Fermat-Weber points and Frechet means.

The Fermat-Weber point is recovered from an optimal assignment, the dual
of the location LP, or, when that point of an all-ultrametric sample is
not ultrametric, is its tropical projection onto the sample's hull; the
Frechet mean is computed by direct convex minimization of the squared
tropical distance sum with deterministic multi-start, all starts evaluated
together by one batched oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import _CUBE_BLOCK, TropicalPoint, _distances, _project, _sample_arrays, canonicalize
from .solver import minimize_convex
from .treeio import _leaves_for, three_point_check

FW_LP = "FW_LP"
FRECHET_DESCENT = "FRECHET_DESCENT"
_BF_TOL = 1e-12  # Bellman-Ford stops when no label drops by this times max |v_ij|


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
    _fw_point recovers a point attaining it, and _refine_to_ultrametric may
    replace that point by an ultrametric one."""
    V = _sample_arrays(sample)
    s, e = V.shape
    per = max(1, _CUBE_BLOCK // (s * e))
    with np.errstate(over="ignore"):
        C = np.vstack([(V - V[lo : lo + per, None, :]).max(axis=2) for lo in range(0, s, per)])
        if not np.isfinite(C).all():
            raise RuntimeError("Fermat-Weber costs are not finite: coordinate differences overflow")
        sigma = _assignment(C)
        opt = float(C[np.arange(s), sigma].sum())
    raw = tuple(_fw_point(V, sigma, opt).tolist())
    refined = _refine_to_ultrametric(V, raw, opt)
    raw = raw if refined is None else refined
    return LocationResult(canonicalize(raw), opt, FW_LP,
                          {"raw_point": raw, "closure_refined": refined is not None})


def _assignment(C: np.ndarray) -> np.ndarray:
    """The permutation sigma maximizing sum_i C[i, sigma(i)]: shortest
    augmenting paths with potentials (Kuhn, 1955; Jonker & Volgenant, 1987),
    one vectorized pass over the columns per step.  Ties go to the first
    free column, else to the first column, which keeps tied paths short."""
    s = len(C)
    C = np.hstack([C, np.zeros((s, 1))])  # column s: the virtual start of every path
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
    return np.argsort(row_of[:s])


def _fw_point(V: np.ndarray, sigma: np.ndarray, opt: float) -> np.ndarray:
    """A point y with sum_i d(y, v_i) = opt for an optimal assignment sigma.

    With k = sigma(i) and j* the first argmax of v_kj - v_ij, complementary
    slackness puts the max of row i of y - V and the min of row k at j*:
    y_j - y_j* <= v_ij - v_ij* and y_j* - y_j <= v_kj* - v_kj for every j.
    Bellman-Ford from a virtual source solves these difference constraints;
    its tolerance absorbs round-off cycles at the data's scale."""
    s, e = V.shape
    star = (V[sigma] - V).argmax(axis=1)
    W = np.where(np.eye(e, dtype=bool), 0.0, np.inf)  # W[a, b] bounds y_b - y_a
    with np.errstate(over="ignore", invalid="ignore"):
        np.minimum.at(W, (star[:, None], np.arange(e)), V - V[np.arange(s), star][:, None])
        np.minimum.at(W, (np.arange(e), star[:, None]), V[sigma, star][:, None] - V[sigma])
        tol = _BF_TOL * float(np.abs(V).max())
        y = np.zeros(e)
        for _ in range(e):
            y, last = (y[:, None] + W).min(axis=0), y
            if (last - y).max() <= tol:
                break
        else:
            raise RuntimeError(f"Fermat-Weber point: no convergence in {e} Bellman-Ford rounds")
        total = float(_distances(y, V).sum())
    if not abs(total - opt) <= s * e * tol:  # also False when either is not finite
        raise RuntimeError(f"Fermat-Weber point: distance sum {total!r}, optimum {opt!r}")
    return y


def _refine_to_ultrametric(V: np.ndarray, raw, opt: float):
    """Equally optimal ultrametric point for an all-ultrametric sample whose
    optimum raw is not ultrametric: the tropical projection of raw onto
    tconv(V).  Returns None when refinement does not apply.

    With lam_l = min_j(raw_j - v_lj), the projection z is at most raw in
    every coordinate and z - v_i >= lam_i, so no distance d(z, v_i)
    exceeds d(raw, v_i) and z is optimal too.  Ultrametrics are tropically
    convex (Lin, Sturmfels, Tang & Yoshida, *Convexity in tree spaces*,
    2017), so z is ultrametric.
    """
    try:
        _leaves_for(V.shape[1])
    except ValueError:
        return None
    if three_point_check(raw, tol=1e-9) or not all(three_point_check(V, tol=1e-9)):
        return None
    z = _project(np.asarray(raw), V)[1]
    if _distances(z, V).sum() <= opt + 1e-7:
        return tuple(z.tolist())
    return None


def frechet_mean(sample: Sequence[TropicalPoint]) -> LocationResult:
    """Multi-start subgradient descent on the squared-distance sum.

    Starts at every sample point plus their coordinatewise median.
    """
    V = _sample_arrays(sample)
    starts = np.vstack([V, np.median(V, axis=0)])
    z, val = minimize_convex(_frechet_oracle(V), V.shape[1], starts)
    raw = tuple(float(v) for v in z)
    return LocationResult(
        point=canonicalize(raw),
        objective=float(val),
        method=FRECHET_DESCENT,
        diagnostics={"raw_point": raw, "n_starts": len(starts)},
    )


def _frechet_oracle(V: np.ndarray):
    """Value and subgradient of sum_i d(z, v_i)^2 at each row z of Z, in
    blocks of rows whose (rows, s, e) differences fit in _CUBE_BLOCK."""
    s, e = V.shape
    per = max(1, _CUBE_BLOCK // (s * e))

    def f(Z: np.ndarray):
        val, G = np.empty(len(Z)), np.empty((len(Z), e))
        for lo in range(0, len(Z), per):
            val[lo : lo + per], G[lo : lo + per] = _frechet_block(Z[lo : lo + per], V)
        return val, G

    return f


def _frechet_block(Z, V):
    diff = Z[:, None, :] - V
    # lexicographically smallest extremal indices on ties (np.arg* default)
    imax, imin = diff.argmax(axis=2), diff.argmin(axis=2)
    flat, pair = diff.reshape(-1, V.shape[1]), np.arange(imax.size)
    d = (flat[pair, imax.ravel()] - flat[pair, imin.ravel()]).reshape(imax.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite raises in the solver
        val = (d * d).sum(axis=1)
    # one bincount adds every point's argmax term, then its argmin term, to
    # its row in point order, as np.add.at on a single row would
    base = np.arange(len(Z))[:, None] * V.shape[1]
    G = np.bincount(np.concatenate([(base + imax).ravel(), (base + imin).ravel()]),
                    np.concatenate([(2.0 * d).ravel(), (-2.0 * d).ravel()]), Z.size)
    return val, G.reshape(Z.shape)


def check_ultrametric_closure(
    result: LocationResult, n_leaves: int, tol: float = 1e-6
) -> bool:
    """Three-point condition on the solver's raw representative, also
    recorded in result.diagnostics["ultrametric_closure"]."""
    e = n_leaves * (n_leaves - 1) // 2
    if n_leaves < 3 or result.point.dim != e:
        raise ValueError(f"dimension {result.point.dim} is not C({n_leaves},2)")
    raw = result.diagnostics.get("raw_point", result.point.coords)
    ok = three_point_check(raw, tol=tol)
    result.diagnostics["ultrametric_closure"] = {"raw": ok}
    return ok
