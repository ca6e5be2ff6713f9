"""Tropical principal polytopes: objective, heuristic fit, exhaustive oracle.

The fit restricts candidate vertices to sample points and runs a
first-improvement vertex-exchange local search; the exhaustive oracle
scans every vertex subset and is intended for small fixtures only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import (
    TropicalPoint,
    TropicalPolytope,
    project_onto_polytope,
    trop_distance,
    tropical_combination,
)
from .treeio import three_point_check


@dataclass
class PcaModel:
    polytope: TropicalPolytope
    objective: float
    assignment: tuple[TropicalPoint, ...]  # projection of each sample point
    trace: tuple[float, ...]  # objective after init and each accepted move
    vertex_indices: tuple[int, ...] = ()  # sample indices of the vertices


def pca_objective(P: TropicalPolytope, S: Sequence[TropicalPoint]) -> float:
    """Total projection residual: sum of d_tr(u, proj(u)) over the sample."""
    if not S:
        raise ValueError("empty sample")
    return sum(trop_distance(u, project_onto_polytope(u, P)) for u in S)


def _subset_objective(S, indices) -> float:
    P = TropicalPolytope(tuple(S[i] for i in indices))
    return pca_objective(P, S)


def exhaustive_principal_polytope(
    S: Sequence[TropicalPoint], s: int
) -> tuple[tuple[int, ...], float]:
    """Best s-subset of sample points by brute force (oracle; |S| small)."""
    if not (1 <= s <= len(S)):
        raise ValueError("vertex count out of range")
    best = None
    for indices in combinations(range(len(S)), s):
        obj = _subset_objective(S, indices)
        if best is None or obj < best[1] - 0.0:
            best = (indices, obj)
    return best


def fit_principal_polytope(S: Sequence[TropicalPoint], s: int) -> PcaModel:
    """Vertex-exchange local search over s-subsets of the sample.

    Greedy farthest-point initialization, then first-improvement sweeps in
    deterministic scan order until a sweep makes no strict improvement.
    """
    n = len(S)
    if not (1 <= s <= n):
        raise ValueError("vertex count out of range")
    dist = np.array([[trop_distance(a, b) for b in S] for a in S])

    current = [0]
    if s >= 2:
        # farthest pair, smallest indices on ties
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

    obj = _subset_objective(S, current)
    trace = [obj]
    improved = True
    while improved:
        improved = False
        for pos in range(s):
            for cand in range(n):
                if cand in current:
                    continue
                trial = sorted(current[:pos] + [cand] + current[pos + 1 :])
                trial_obj = _subset_objective(S, trial)
                if trial_obj < obj - 1e-12:
                    current, obj = trial, trial_obj
                    trace.append(obj)
                    improved = True
                    break
            if improved:
                break

    P = TropicalPolytope(tuple(S[i] for i in current))
    assignment = tuple(project_onto_polytope(u, P) for u in S)
    return PcaModel(
        polytope=P,
        objective=obj,
        assignment=assignment,
        trace=tuple(trace),
        vertex_indices=tuple(current),
    )


def projection_weights(P: TropicalPolytope, u: TropicalPoint) -> np.ndarray:
    """Combination weights of the nearest-point map, shifted so the first is 0."""
    lam = (u.as_array()[None, :] - P.matrix()).min(axis=1)
    return lam - lam[0]


def pca_coordinates(
    model: PcaModel, S: Sequence[TropicalPoint]
) -> list[tuple[float, float]]:
    """2-D plotting coordinates from normalized projection weights (s = 3)."""
    if model.polytope.n_vertices != 3:
        raise ValueError("2-D coordinates require a 3-vertex polytope")
    out = []
    for u in S:
        lam = projection_weights(model.polytope, u)
        out.append((float(lam[1]), float(lam[2])))
    return out


def check_ultrametric_cells(
    P: TropicalPolytope, trials: int, seed: int, tol: float = 1e-9
) -> bool:
    """Sampled check that tconv of ultrametric vertices stays ultrametric."""
    for v in P.vertices:
        if not three_point_check(v.coords, tol=tol):
            raise ValueError("polytope vertex fails the three-point condition")
    rng = np.random.default_rng(seed)
    spread = max(
        trop_distance(a, b) for a in P.vertices for b in P.vertices
    )
    spread = max(spread, 1.0)
    for _ in range(trials):
        lam = rng.uniform(-spread, spread, size=P.n_vertices)
        z = tropical_combination(lam, P)
        if not three_point_check(z.coords, tol=tol):
            return False
    return True
