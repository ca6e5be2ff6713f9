"""Tropical Fermat-Weber points and Frechet means.

The Fermat-Weber point is one optimal vertex of the location LP, or,
when that vertex of an all-ultrametric sample is not ultrametric, its
tropical projection onto the sample's tropical convex hull; the
Frechet mean is computed by direct convex minimization of the squared
tropical distance sum with deterministic multi-start, all starts evaluated
together by one batched oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import _CUBE_BLOCK, TropicalPoint, _distances, _project, _sample_arrays, canonicalize
from .solver import OPTIMAL, LinearProgram, minimize_convex, solve_lp
from .treeio import _leaves_for, three_point_check

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


def build_fw_lp(sample: Sequence[TropicalPoint]) -> LinearProgram:
    """The compact Fermat-Weber LP: minimize sum (a_i - b_i) over free y, a, b
    subject to b_i <= y_j - v_ij <= a_i.

    At the optimum a_i - b_i is the tropical distance from y to v_i.  There
    are 2 rows per sample point and coordinate (2*s*e rows, e + 2*s
    variables), the formulation of Lin & Yoshida, *Tropical Fermat-Weber
    points* (2018).
    """
    return _fw_lp(_sample_arrays(sample))


def _fw_lp(V: np.ndarray) -> LinearProgram:
    """The compact FW LP of the sample rows V.

    The s*e upper-bound rows y_j - a_i <= v_ij (point-major) come first,
    then the s*e lower-bound rows b_i - y_j <= -v_ij.  Row order steers
    Bland's rule to one of the optimal vertices, so it fixes the pivots
    and the vertex that seeded output reports.
    """
    s, e = V.shape
    Yrep = np.tile(np.eye(e), (s, 1))
    point = np.repeat(np.eye(s), e, axis=0)
    zero = np.zeros_like(point)
    rows = np.vstack([np.hstack([Yrep, -point, zero]), np.hstack([-Yrep, zero, point])])
    rhs = np.concatenate([V.ravel(), -V.ravel()])
    objective = np.concatenate([np.zeros(e), np.ones(s), -np.ones(s)])
    return LinearProgram(objective, rows, rhs, n_free=e + 2 * s)


def fermat_weber(sample: Sequence[TropicalPoint]) -> LocationResult:
    """One optimal Fermat-Weber vertex via the deterministic simplex.

    The optimal set is a polytope.  When the sample is all ultrametric and
    the vertex is not, the vertex is replaced by its tropical projection
    onto tconv(sample), which is an equally optimal ultrametric point (see
    _refine_to_ultrametric).  Exactly one LP is solved.
    """
    V = _sample_arrays(sample)
    s, e = V.shape
    sol = solve_lp(build_fw_lp(sample))
    if sol.status != OPTIMAL:
        raise RuntimeError(f"Fermat-Weber LP returned {sol.status}; inputs are finite "
                           "so this signals a solver defect")
    raw = tuple(float(v) for v in sol.x[:e])
    opt = float(sol.objective_value)
    diagnostics = {"raw_point": raw, "lp_status": sol.status,
                   "n_constraints": 2 * s * e, "closure_refined": False}
    refined = _refine_to_ultrametric(V, raw, opt)
    if refined is not None:
        raw = refined
        diagnostics["raw_point"] = raw
        diagnostics["closure_refined"] = True
    return LocationResult(
        point=canonicalize(raw),
        objective=opt,
        method=FW_LP,
        diagnostics=diagnostics,
    )


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
