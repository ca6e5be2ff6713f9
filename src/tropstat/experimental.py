"""Heuristics for the open-problem formulations: tropical LDA and regression.

Both features evaluate their stated objectives exactly but optimize them
with replaceable heuristics (regression by exact coordinate steps) whose
steps and thresholds are fractions of the data's range, so each fit scales
with the data; every serialized output carries an EXPERIMENTAL flag.

An LDA candidate is a tropical segment, a geodesic of the tropical metric
(Develin & Sturmfels, *Tropical convexity*, 2004), so the constrained
Fermat-Weber point of a class's projections is their median along it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    EQ_TOL,
    TropicalPoint,
    TropicalPolytope,
    _distances,
    _project,
    _sample_arrays,
    _spread,
    canonicalize,
)
from .location import fermat_weber

EXPERIMENTAL = True

# regression coordinate descent: starts, cycles (one step each) per start,
# and the improvement, as a ratio of the residual sum, at which a start stops
N_STARTS = 4
MAX_CYCLES = 60
CYCLE_TOL = 1e-10

# LDA local search: the number of trial moves
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


def _line_min(b, r) -> float:
    """A minimizer of f(t) = sum_i (max(t, b_i) - r_i)^2, constant below
    every breakpoint b.  Past the m lowest (stable order), f is
    m (t - mean_m)^2 + M2_m + the rest's (b_i - r_i)^2, minimal at mean_m
    clipped to the stretch; M2_m, the squared deviations of those r about
    their mean, adds nonnegative increments, so no offset of all r cancels.
    f only shifts with t, b and r, so the sums run on b and r less r_0 and
    stay within the data's spread: responses near 1e308 do not overflow."""
    order = np.argsort(b, kind="stable")
    c = r[0]
    b, r = b[order] - c, r[order] - c
    m = np.arange(1.0, len(b) + 1)
    mean = np.cumsum(r) / m
    m2 = np.cumsum((m - 1) / m * (r - np.concatenate((mean[:1], mean[:-1]))) ** 2)
    rest = np.concatenate((np.cumsum(((b - r) ** 2)[::-1])[-2::-1], [0.0]))
    t = np.clip(mean, b, np.append(b[1:], np.inf))
    return float(t[np.argmin(m * (t - mean) ** 2 + m2 + rest)] + c)


def fit_regression(data, seed: int = 0) -> RegressionModel:
    """Coordinate descent from N_STARTS starts.  Along beta_k = t point i
    predicts max(t, o_i - x_ik) + x_ik, o_i its largest other term, so
    `_line_min` minimizes exactly; each cycle takes the step along the beta_k
    that lowers the recomputed objective most, if any (Gauss-Southwell)."""
    if not data:
        raise ValueError("empty data")
    Z = np.array([(0.0, *x) for x, _ in data])
    Y = np.array([y for _, y in data], dtype=float)
    rng = np.random.default_rng(seed)
    heur = np.median(Y[:, None] - Z, axis=0)
    scale = float(np.ptp(Y))
    starts = [heur] + [heur + rng.uniform(-scale, scale, size=len(heur))
                       for _ in range(N_STARTS - 1)]

    def objective(beta):
        return float((((beta + Z).max(axis=1) - Y) ** 2).sum())

    def step(beta, k):
        o = np.delete(beta + Z, k, axis=1).max(axis=1, initial=-np.inf)
        trial = beta.copy()
        trial[k] = _line_min(o - Z[:, k], Y - Z[:, k])
        return objective(trial), trial

    def descend(beta):
        val = objective(beta)
        for _ in range(MAX_CYCLES):
            prev = val
            ft, trial = min((step(beta, k) for k in range(len(beta))), key=lambda fit: fit[0])
            if ft < val:
                beta, val = trial, ft
            if prev - val <= CYCLE_TOL * prev:
                break
        return val, beta

    val, beta = min(map(descend, starts), key=lambda fit: fit[0])
    return RegressionModel(tuple(beta.tolist()), val)


def _lda(D: np.ndarray, X1: np.ndarray, X2: np.ndarray, w=None):
    """The LDA candidate w, with the two canonical vertex rows D = (a, b),
    for the class matrices X1 and X2.

    Each class is projected onto the segment [a, b] in one call.  With g =
    d(a, p) for each projection p, d(p, q) = |g_p - g_q| on the segment, so
    pairing the projections from both ends of the order g and applying the
    triangle inequality gives sum_i d(z, p_i) >= sum_i |g_i - g_med| for
    every z in the torus.  The projection at the lower median of g (stable
    order) attains that bound: it is the constrained Fermat-Weber point
    mu'_k, and s_k its sum of distances, added left to right.
    """

    def inner_min(X):
        proj = _project(X, D)[1]
        order = np.argsort(_distances(proj, D[0]), kind="stable")
        mu = proj[order[(len(order) - 1) // 2]]
        return mu, sum(_distances(proj, mu).tolist())

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
) -> LdaCandidate:
    """Evaluate the tropical LDA objective on a candidate polytope with two
    vertices; the constrained Fermat-Weber points mu'_k are exact."""
    if w.n_vertices != 2:
        raise ValueError(f"an LDA polytope has 2 vertices, got {w.n_vertices}")
    if not S1 or not S2:
        raise ValueError("both samples must be nonempty")
    return _lda(w.matrix(), _sample_arrays(S1), _sample_arrays(S2), w)


def fit_lda(
    S1: Sequence[TropicalPoint],
    S2: Sequence[TropicalPoint],
    seed: int = 0,
) -> LdaCandidate:
    """Local search over 2-vertex polytopes seeded at the class FW points;
    the result depends on which optimal FW point fermat_weber returns, not
    only on the FW optimum, since a sample's FW points need not be unique,
    and on mu'_k being the lower median; s_k depends on neither."""
    if not S1 or not S2:
        raise ValueError("both samples must be nonempty")
    rng = np.random.default_rng(seed)
    X1, X2 = _sample_arrays(S1), _sample_arrays(S2)
    v1 = fermat_weber(S1).point.as_array()
    v2 = fermat_weber(S2).point.as_array()
    spread = _spread(np.vstack([X1, X2]))
    if canonicalize(v1).close_to(canonicalize(v2), EQ_TOL * spread):
        v2 = v2 + 0.5 * spread / np.arange(1, len(v2) + 1)  # degenerate seed split
    scale = 0.1 * spread

    def evaluate(verts):  # the polytope is built for the winner only
        return _lda(np.array([v - v[0] for v in verts]), X1, X2)

    verts = [v1.copy(), v2.copy()]
    best = evaluate(verts)
    for _ in range(LDA_MAX_ITERS):
        which = int(rng.integers(0, 2))
        coord = int(rng.integers(0, len(v1)))
        delta = float(rng.choice([-scale, scale]))
        trial = [verts[0].copy(), verts[1].copy()]
        trial[which][coord] += delta
        cand = evaluate(trial)
        if cand.objective > best.objective + 1e-12 * spread:
            best, verts = cand, trial
    best.polytope = TropicalPolytope(tuple(map(canonicalize, verts)))
    return best
