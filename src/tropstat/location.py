"""Tropical Fermat-Weber points and Frechet means.

The Fermat-Weber point is one optimal vertex of the location LP; the
Frechet mean is computed by direct convex minimization of the squared
tropical distance sum with deterministic multi-start, all starts evaluated
together by one batched oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import TropicalPoint, _distances, _sample_arrays, canonicalize
from .solver import (
    MIN,
    OPTIMAL,
    LinearProgram,
    minimize_convex,
    solve_lp,
)
from .treeio import _CUBE_BLOCK, _leaves_for, _single_linkage, _square, three_point_check

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
    V = _sample_arrays(sample)
    return _fw_lp(V, np.eye(V.shape[1]), np.zeros((0, V.shape[1])))


def _fw_lp(V: np.ndarray, Y: np.ndarray, E: np.ndarray) -> LinearProgram:
    """The compact FW LP with y = Y @ u over free variables u, a, b.

    The s*e upper-bound rows y_j - a_i <= v_ij (point-major) come first,
    then the s*e lower-bound rows b_i - y_j <= -v_ij, then the rows
    E @ u <= 0.  Row order steers Bland's rule to one of the optimal
    vertices: with the upper-bound block first, the plain vertex was
    ultrametric on every seeded tree sample tried, so the cone refinement
    seldom has to run.
    """
    s, e = V.shape
    Yrep = np.tile(Y, (s, 1))
    point = np.repeat(np.eye(s), e, axis=0)
    zero = np.zeros_like(point)
    rows = np.vstack([np.hstack([Yrep, -point, zero]), np.hstack([-Yrep, zero, point]),
                      np.hstack([E, np.zeros((len(E), 2 * s))])])
    rhs = np.concatenate([V.ravel(), -V.ravel(), np.zeros(len(E))])
    objective = np.concatenate([np.zeros(Y.shape[1]), np.ones(s), -np.ones(s)])
    return LinearProgram(MIN, objective, rows, rhs)


def fermat_weber(sample: Sequence[TropicalPoint]) -> LocationResult:
    """One optimal Fermat-Weber vertex via the deterministic simplex.

    The optimal set is a polytope; for an all-ultrametric sample it contains
    ultrametric points, so when the plain vertex falls outside the
    three-point locus an equally optimal vertex inside it is selected by
    re-solving over the cone of a candidate tree topology.
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
    """Equally optimal ultrametric vertex for an all-ultrametric sample.

    Candidate topologies come from single linkage on the plain optimum
    (then on each sample point); the LP is re-solved with coordinates tied
    to node heights of the candidate tree, which confines it to that
    topology's cone.  Returns None when refinement does not apply.
    """
    s, e = V.shape
    try:
        _leaves_for(e)
    except ValueError:
        return None
    if not all(three_point_check(row, tol=1e-9) for row in V):
        return None
    if three_point_check(raw, tol=1e-9):
        return None
    for cand in [np.asarray(raw)] + [V[i] for i in range(s)]:
        node_of, edges = _merge_nodes(cand)
        sol = solve_lp(_cone_fw_lp(V, node_of, edges))
        if sol.status == OPTIMAL and sol.objective_value <= opt + 1e-7:
            return tuple(2.0 * float(sol.x[m]) for m in node_of)
    return None


def _merge_nodes(vec):
    """Merge node of each leaf pair (in pair order) and the child->parent
    node edges of the single-linkage tree of vec; node k is the k-th merge."""
    D = _square(vec, np.inf)
    n = len(D)
    cluster = np.arange(n)
    node = np.empty((n, n), dtype=int)
    top = {}  # cluster -> its newest node
    edges = []
    for k, (a, b, _) in enumerate(_single_linkage(D)):
        in_a, in_b = cluster == a, cluster == b
        node[np.ix_(in_a, in_b)] = node[np.ix_(in_b, in_a)] = k
        cluster[in_b] = a
        edges += [(top[c], k) for c in (a, b) if c in top]
        top[a] = k
    return node[np.triu_indices(n, 1)].tolist(), edges


def _cone_fw_lp(V, node_of, edges):
    """The FW LP with y_p = 2 * height(merge node of pair p), and every child
    node no higher than its parent, for a fixed topology."""
    e = V.shape[1]
    n_nodes = max(node_of) + 1
    Y = np.zeros((e, n_nodes))
    Y[np.arange(e), node_of] = 2.0
    child, parent = np.array(edges, dtype=int).reshape(-1, 2).T
    unit = np.eye(n_nodes)
    return _fw_lp(V, Y, unit[child] - unit[parent])


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
    if result.point.dim != e:
        raise ValueError(f"dimension {result.point.dim} is not C({n_leaves},2)")
    raw = result.diagnostics.get("raw_point", result.point.coords)
    ok = three_point_check(raw, tol=tol)
    result.diagnostics["ultrametric_closure"] = {"raw": ok}
    return ok
