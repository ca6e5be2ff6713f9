"""Tropical principal polytopes: objective, heuristic fit, exhaustive oracle.

The fit restricts candidate vertices to sample points and runs a
first-improvement vertex-exchange local search that restarts its scan
after every accepted exchange; the exhaustive oracle scans every vertex
subset and is intended for small fixtures only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import (
    TropicalPoint,
    TropicalPolytope,
    _combine,
    _distances,
    _project,
    _sample_arrays,
)
from .treeio import three_point_check

# Floats per stacked block of candidates: a block's (candidates, n, e)
# temporary holds at most 512 KB, about an L2 cache.  At n = 15 with 5
# leaves a position's candidates fit in one block; at n = 200 with 20
# leaves a block holds one candidate, and blocks of 6 were 30 % slower.
_BLOCK_FLOATS = 2**16


@dataclass
class PcaModel:
    polytope: TropicalPolytope
    objective: float
    assignment: tuple[TropicalPoint, ...]  # projection of each sample point
    trace: tuple[float, ...]  # objective after init and each accepted move
    vertex_indices: tuple[int, ...] = ()  # sample indices of the vertices


def _residual(X: np.ndarray, D: np.ndarray) -> float:
    """Sum of d_tr(x, proj(x)) over the rows of X, by Python's sum of the
    list (left to right before Python 3.12, compensated from 3.12 on)."""
    return sum(_distances(X, _project(X, D)[1]).tolist())


def pca_objective(P: TropicalPolytope, S: Sequence[TropicalPoint]) -> float:
    """Total projection residual: sum of d_tr(u, proj(u)) over the sample."""
    return _residual(_sample_arrays(S), P.matrix())


def exhaustive_principal_polytope(
    S: Sequence[TropicalPoint], s: int
) -> tuple[tuple[int, ...], float]:
    """Best s-subset of sample points by brute force (oracle; |S| small)."""
    if not (1 <= s <= len(S)):
        raise ValueError("vertex count out of range")
    X = _sample_arrays(S)
    V = X - X[:, :1]  # canonical rows, the candidate vertices
    fits = ((idx, _residual(X, V[list(idx)])) for idx in combinations(range(len(S)), s))
    return min(fits, key=lambda fit: fit[1])  # the first minimal subset


def fit_principal_polytope(S: Sequence[TropicalPoint], s: int) -> PcaModel:
    """Vertex-exchange local search over s-subsets of the sample.

    Greedy farthest-point initialization, then a scan of the trials
    (position, candidate) in row-major order that takes the first gain over
    1e-12 of the objective and starts again from (0, 0), until a scan finds none.
    Vertices are row indices of the sample matrix.  Every trial objective
    has the bits of _residual on that trial: see _first_gain.
    """
    n = len(S)
    if not (1 <= s <= n):
        raise ValueError("vertex count out of range")
    X = _sample_arrays(S)
    V = X - X[:, :1]
    current = _farthest_first(X, s)
    obj = _residual(X, V[current])
    trace = [obj]
    pos = 0
    free = np.delete(np.arange(n), current)
    while pos < s:
        others = current[:pos] + current[pos + 1 :]
        gain = _first_gain(X, V, others, free, obj)
        if gain is None:
            pos += 1
        else:
            cand, obj = gain
            current = sorted(others + [cand])
            free = np.delete(np.arange(n), current)
            trace.append(obj)
            pos = 0

    P = TropicalPolytope(tuple(S[i] for i in current))
    proj = _project(X, V[current])[1]
    return PcaModel(
        polytope=P,
        objective=obj,
        assignment=tuple(TropicalPoint(tuple(p)) for p in proj.tolist()),
        trace=tuple(trace),
        vertex_indices=tuple(current),
    )


def _first_gain(
    X: np.ndarray,
    V: np.ndarray,
    others: list[int],
    free: np.ndarray,
    obj: float,
) -> tuple[int, float] | None:
    """(candidate, objective) of the first of the free rows, in increasing
    order, whose swap into the vertex set `others` gives a residual below
    obj - 1e-12 * obj, or None.

    The candidates are scored a block at a time in one stacked pass.  Each
    projection is max(Zo, lam_c + V[c]), with lam_c = min_j(X - V[c]) and
    Zo the other vertices' part, then canonicalized as in _combine.  These
    are _project's operations and max is exact, so each residual, summed
    by the same sum of a list, has the bits of _residual.
    """
    Vo = V[others]
    lam = (X[:, None, :] - Vo).min(axis=-1)
    Zo = (lam[:, :, None] + Vo).max(axis=1, initial=-np.inf)
    step = max(1, _BLOCK_FLOATS // X.size)
    for k in range(0, len(free), step):
        block = free[k : k + step]
        Vb = V[block, None, :]
        Z = X - Vb
        lam = Z.min(axis=-1)
        np.add(lam[:, :, None], Vb, out=Z)
        np.maximum(Z, Zo, out=Z)
        Z -= Z[..., :1]
        np.subtract(X, Z, out=Z)
        d = Z.max(axis=-1) - Z.min(axis=-1)
        for cand, row in zip(block.tolist(), d.tolist()):
            trial_obj = sum(row)
            if trial_obj < obj - 1e-12 * obj:
                return cand, trial_obj
    return None


def _farthest_first(X: np.ndarray, s: int) -> list[int]:
    """Sorted row indices of the greedy start: the farthest pair (the first
    row-major maximum over i < j), then the row with the largest distance
    sum to the rows chosen, until s are chosen.

    The pair is found one row i at a time, from its distances to the rows
    after it, so the largest temporary is one (n, e) difference.  Each sum
    adds the chosen rows' distances in the order they were chosen.
    """
    current = [0]
    if s >= 2:
        best = -np.inf
        for i in range(len(X) - 1):
            d = _distances(X[i], X[i + 1 :])
            j = int(d.argmax())
            if d[j] > best:  # strict, so an earlier row keeps a tie
                best, current = d[j], [i, i + 1 + j]
    total = sum(_distances(X[c], X) for c in current)
    while len(current) < s:
        scores = total.copy()
        scores[current] = -np.inf
        current.append(int(np.argmax(scores)))
        total += _distances(X[current[-1]], X)
    return sorted(current)


def pca_coordinates(
    model: PcaModel, S: Sequence[TropicalPoint]
) -> list[tuple[float, float]]:
    """2-D plotting coordinates from normalized projection weights (s = 3)."""
    if model.polytope.n_vertices != 3:
        raise ValueError("2-D coordinates require a 3-vertex polytope")
    lam = _project(_sample_arrays(S), model.polytope.matrix())[0]
    lam = lam - lam[:, :1]
    return [(a, b) for a, b in lam[:, 1:].tolist()]


def check_ultrametric_cells(
    P: TropicalPolytope, trials: int, seed: int, tol: float = 1e-9
) -> bool:
    """Sampled check that tconv of ultrametric vertices stays ultrametric."""
    D = P.matrix()
    if not all(three_point_check(D, tol=tol)):
        raise ValueError("polytope vertex fails the three-point condition")
    rng = np.random.default_rng(seed)
    spread = float(_distances(D[:, None, :], D).max())
    lam = rng.uniform(-spread, spread, size=(trials, P.n_vertices))
    return all(three_point_check(_combine(lam, D), tol=tol))
