"""Heuristics for the open-problem formulations: tropical LDA and regression.

Both features evaluate their stated objectives exactly but optimize them
with replaceable heuristics; every serialized output carries an
EXPERIMENTAL flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .core import (
    TropicalPoint,
    TropicalPolytope,
    _combine,
    _distances,
    _project,
    _sample_arrays,
    canonicalize,
)
from .location import fermat_weber

EXPERIMENTAL = True

# regression coordinate descent: starts, cycles per start, the improvement
# below which a start stops, and the half-width of each line search
N_STARTS = 4
MAX_CYCLES = 60
CYCLE_TOL = 1e-10
SPAN = 4.0

# LDA local search: the lattice resolution of each candidate's inner
# minima, and the number of trial moves
LDA_GRID = 8
LDA_MAX_ITERS = 120


@dataclass
class LdaCandidate:
    polytope: TropicalPolytope
    mu1: TropicalPoint
    mu2: TropicalPoint
    s1: float
    s2: float
    objective: float
    experimental: bool = EXPERIMENTAL


@dataclass
class RegressionModel:
    beta: tuple[float, ...]  # (intercept, slope shifts)
    residual_sum: float
    experimental: bool = EXPERIMENTAL


def trop_predict(beta: Sequence[float], x: Sequence[float]) -> float:
    """max(beta_0, beta_1 + x_1, ..., beta_e + x_e)."""
    beta = list(beta)
    x = list(x)
    if len(beta) != len(x) + 1:
        raise ValueError("beta must have one more entry than x")
    return max([beta[0]] + [b + v for b, v in zip(beta[1:], x)])


def regression_objective(beta, data) -> float:
    """Sum of squared residuals of the max-plus prediction."""
    if not data:
        raise ValueError("empty data")
    return sum((trop_predict(beta, x) - y) ** 2 for x, y in data)


def _golden_section(fun, lo, hi, iters=60):
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    mid = (a + b) / 2.0
    return mid, fun(mid)


def fit_regression(data, seed: int = 0) -> RegressionModel:
    """Cyclic coordinate descent with golden-section line search per beta."""
    if not data:
        raise ValueError("empty data")
    e = len(data[0][0])
    ys = [y for _, y in data]
    rng = np.random.default_rng(seed)

    starts = []
    med_y = float(np.median(ys))
    heur = [med_y] + [
        float(np.median([y - x[k] for x, y in data])) for k in range(e)
    ]
    starts.append(np.asarray(heur))
    scale = max(1.0, float(np.ptp(ys)))
    for _ in range(N_STARTS - 1):
        starts.append(np.asarray(heur) + rng.uniform(-scale, scale, size=e + 1))

    best_beta, best_val = None, np.inf
    for beta in starts:
        beta = beta.copy()
        val = regression_objective(beta, data)
        for _ in range(MAX_CYCLES):
            prev = val
            for k in range(e + 1):
                def fun(t, k=k):
                    trial = beta.copy()
                    trial[k] = t
                    return regression_objective(trial, data)

                t, ft = _golden_section(fun, beta[k] - SPAN, beta[k] + SPAN)
                if ft < val:
                    beta[k], val = t, ft
            if prev - val < CYCLE_TOL:
                break
        if val < best_val:
            best_beta, best_val = beta.copy(), val
    return RegressionModel(tuple(float(b) for b in best_beta), float(best_val))


def _lattice(grid: int, spread: float, s: int):
    """Nested coefficient lattice: doubling grid refines the previous one."""
    axis = [-spread + 2.0 * spread * k / grid for k in range(grid + 1)]
    return product(*([axis] * (s - 1)))


def _lda(D: np.ndarray, X1: np.ndarray, X2: np.ndarray, grid: int, w=None):
    """The LDA candidate w, with canonical vertex rows D, for the class
    matrices X1 and X2.

    Each class is projected onto the polytope in one call, and its
    constrained Fermat-Weber point mu'_k is the first best point of a
    deterministic lattice of tropical combinations of the vertices.
    """
    spread = max(float(_distances(D[:, None, :], D).max()), 1.0)
    lam = np.array([(0.0,) + tail for tail in _lattice(grid, spread, len(D))])
    Z = _combine(lam, D)

    def inner_min(X):
        proj = _project(X, D)[1]
        sums = [sum(row) for row in _distances(Z[:, None, :], proj).tolist()]
        k = sums.index(min(sums))
        return Z[k], sums[k]

    (mu1, s1), (mu2, s2) = inner_min(X1), inner_min(X2)
    return LdaCandidate(
        polytope=w,
        mu1=TropicalPoint(tuple(mu1.tolist())),
        mu2=TropicalPoint(tuple(mu2.tolist())),
        s1=s1,
        s2=s2,
        objective=float(_distances(mu1, mu2)) - s1 - s2,
    )


def lda_objective(
    w: TropicalPolytope,
    S1: Sequence[TropicalPoint],
    S2: Sequence[TropicalPoint],
    grid: int = 8,
) -> LdaCandidate:
    """Evaluate the tropical LDA objective on a candidate polytope.

    The constrained Fermat-Weber points mu'_k are approximated over a
    deterministic lattice of tropical combinations of w's vertices.
    """
    if not S1 or not S2:
        raise ValueError("both samples must be nonempty")
    return _lda(w.matrix(), _sample_arrays(S1), _sample_arrays(S2), grid, w)


def fit_lda(
    S1: Sequence[TropicalPoint],
    S2: Sequence[TropicalPoint],
    seed: int = 0,
) -> LdaCandidate:
    """Local search over 2-vertex polytopes seeded at the class FW points."""
    if not S1 or not S2:
        raise ValueError("both samples must be nonempty")
    rng = np.random.default_rng(seed)
    X1, X2 = _sample_arrays(S1), _sample_arrays(S2)
    v1 = fermat_weber(S1).point.as_array()
    v2 = fermat_weber(S2).point.as_array()
    if canonicalize(v1).close_to(canonicalize(v2)):
        v2 = v2 + 1.0 / np.arange(1, len(v2) + 1)  # degenerate seed split
    scale = 0.1 * max(float(np.ptp(np.vstack([X1, X2]))), 1.0)

    def evaluate(verts):  # the polytope is built for the winner only
        return _lda(np.array([v - v[0] for v in verts]), X1, X2, LDA_GRID)

    verts = [v1.copy(), v2.copy()]
    best = evaluate(verts)
    for _ in range(LDA_MAX_ITERS):
        which = int(rng.integers(0, 2))
        coord = int(rng.integers(0, len(v1)))
        delta = float(rng.choice([-scale, scale]))
        trial = [verts[0].copy(), verts[1].copy()]
        trial[which][coord] += delta
        cand = evaluate(trial)
        if cand.objective > best.objective + 1e-12:
            best, verts = cand, trial
    best.polytope = TropicalPolytope(tuple(map(canonicalize, verts)))
    return best
