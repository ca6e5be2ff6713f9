"""Deterministic dense simplex LP solver and a convex piecewise-smooth minimizer.

The simplex converts to standard form (free variables split into positive
and negative parts, bounds turned into shifts or rows), runs a two-phase
method, and uses Bland's pivoting rule throughout, so results are
deterministic and optima are vertex solutions of the lifted polyhedron.

The minimizer runs a shrinking-step subgradient descent from several
starts at once, calling a batched value-and-subgradient oracle once per
iteration on the starts still running.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

MIN = "min"
MAX = "max"

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8


@dataclass
class LinearProgram:
    """Dense LP in scipy.optimize.linprog's shapes: optimize objective . x
    subject to A_ub @ x <= b_ub and A_eq @ x == b_eq.

    A greater-or-equal row is written as a negated A_ub row.  bounds
    holds one (lower, upper) pair per variable; None means unbounded on
    that side.  Variables default to free.
    """

    sense: str
    objective: Sequence[float]
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: Optional[np.ndarray] = None
    b_eq: Optional[np.ndarray] = None
    bounds: Optional[list[tuple[Optional[float], Optional[float]]]] = None

    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def constraints(self) -> np.ndarray:
        """Every row, A_ub then A_eq.  perfbench/tracer.py sizes each solve
        as len(lp.constraints) * lp.n_vars(), so the name stays."""
        return self.validate()[0]

    def validate(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Check the LP; return its rows (A_ub, then A_eq) and right-hand
        sides as float arrays, and the number of A_ub rows."""
        if self.sense not in (MIN, MAX):
            raise ValueError(f"bad sense {self.sense!r}")
        n = self.n_vars()
        if n == 0:
            raise ValueError("LP has no variables")
        blocks = []
        for A, b in ((self.A_ub, self.b_ub), (self.A_eq, self.b_eq)):
            A = np.asarray(np.zeros((0, n)) if A is None else A, dtype=float)
            b = np.asarray([] if b is None else b, dtype=float)
            if A.ndim != 2 or A.shape[1] != n:
                raise ValueError("constraint row length mismatch")
            if b.shape != (len(A),):
                raise ValueError("rhs length mismatch")
            blocks += [A, b]
        A_ub, b_ub, A_eq, b_eq = blocks
        R, rhs = np.vstack([A_ub, A_eq]), np.concatenate([b_ub, b_eq])
        if not (np.isfinite(self.objective).all() and np.isfinite(R).all()):
            raise ValueError("objective and row coefficients must be finite")
        if not np.isfinite(rhs).all():
            raise ValueError("rhs must be finite")
        if self.bounds is not None and len(self.bounds) != n:
            raise ValueError("bounds length mismatch")
        return R, rhs, len(A_ub)


@dataclass
class Solution:
    status: str
    x: Optional[np.ndarray]
    objective_value: Optional[float]


def solve_lp(lp: LinearProgram) -> Solution:
    """Two-phase dense simplex with Bland's rule (deterministic)."""
    R, rhs, n_ub = lp.validate()
    n = lp.n_vars()

    # Rewrite the variables over nonnegative columns p as x = off + M @ p:
    #   free        -> x = p - m            (two columns)
    #   lo <= x     -> x = lo + p           (shift)
    #   x <= hi     -> x = hi - p           (flip)
    #   lo<=x<=hi   -> x = lo + p, row p <= hi - lo
    off = np.zeros(n)
    cols = []  # (variable, sign) per column
    box = []  # (column, hi - lo) per boxed variable
    for j, (lo, hi) in enumerate(lp.bounds or [(None, None)] * n):
        if lo is None and hi is None:
            cols += [(j, 1.0), (j, -1.0)]
            continue
        if lo is not None and hi is not None:
            if hi < lo:
                return Solution(INFEASIBLE, None, None)
            box.append((len(cols), float(hi) - float(lo)))
        off[j] = lo if lo is not None else hi
        cols.append((j, 1.0 if lo is not None else -1.0))
    ncols = len(cols)
    M = np.zeros((n, ncols))
    for k, (j, sign) in enumerate(cols):
        M[j, k] = sign

    m = len(R) + len(box)
    c = np.asarray(lp.objective, dtype=float) @ M
    if lp.sense == MAX:
        c = -c

    # Equality form: a +1 slack column for each A_ub and box row, none for
    # the A_eq rows; then make rhs nonnegative.
    slack = np.ones(m)
    slack[n_ub : len(R)] = 0.0
    A = np.hstack([np.vstack([R @ M, np.eye(ncols)[[k for k, _ in box]]]), np.diag(slack)])
    b = np.concatenate([rhs - R @ off, [ub for _, ub in box]])
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    total = ncols + m
    # Slack columns that survived with +1 entries give a starting basis.
    basis = [ncols + i if A[i, ncols + i] == 1.0 else -1 for i in range(m)]
    need_art = [i for i in range(m) if basis[i] == -1]
    n_art = len(need_art)
    T = np.zeros((m, total + n_art + 1))
    T[:, :total] = A
    T[:, -1] = b
    for k, i in enumerate(need_art):
        T[i, total + k] = 1.0
        basis[i] = total + k
    ntot = total + n_art

    if n_art:
        # Phase 1: minimize sum of artificials.
        cost = np.zeros(ntot)
        cost[total:] = 1.0
        status = _simplex(T, basis, cost, ntot)
        if status == UNBOUNDED:  # cannot happen for phase 1
            return Solution(INFEASIBLE, None, None)
        if sum(cost[b] * T[i, -1] for i, b in enumerate(basis)) > FEAS_TOL:
            return Solution(INFEASIBLE, None, None)
        # Drive remaining artificials out of the basis.
        for i in range(m):
            if basis[i] >= total:
                nz = (np.abs(T[i, :total]) > PIVOT_TOL).nonzero()[0]
                if nz.size == 0:
                    T[i, :] = 0.0  # redundant row
                else:
                    _pivot(T, basis, i, int(nz[0]))
        # Freeze artificial columns at zero.
        T[:, total:ntot] = 0.0

    cost = np.zeros(ntot)
    cost[:total] = np.concatenate([c, np.zeros(m)])
    status = _simplex(T, basis, cost, total)
    if status == UNBOUNDED:
        return Solution(UNBOUNDED, None, None)

    xcols = np.zeros(total)
    basis = np.array(basis, dtype=int)
    basic = basis < total
    xcols[basis[basic]] = T[basic, -1]
    x = off + M @ xcols[:ncols]
    return Solution(OPTIMAL, x, float(np.dot(np.asarray(lp.objective, dtype=float), x)))


def _pivot(T, basis, row, col):
    """Gauss-Jordan pivot on T[row, col]; rows with a zero in the pivot
    column are skipped, the rest take one multiply-subtract per element."""
    T[row, :] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    T[rows] -= np.outer(factors[rows], T[row])
    basis[row] = col


def _simplex(T, basis, cost, k: int) -> str:
    """Minimize cost over the tableau's first k columns with Bland's rule.

    Exact Bland's rule never returns to a basis; RuntimeError is raised when
    round-off does (bases compared by hash) or overflows the reduced costs.
    """
    seen = set()
    for pivots in itertools.count():
        # Reduced costs: c_j - c_B . B^-1 A_j; an overflow is caught below
        with np.errstate(over="ignore", invalid="ignore"):
            red = cost[:k] - cost[basis] @ T[:, :k]
        key = hash(tuple(basis))
        if key in seen or not np.isfinite(red).all():
            raise RuntimeError(f"simplex stopped after {pivots} pivots: round-off "
                               "repeated a basis or overflowed the reduced costs")
        seen.add(key)
        eligible = (red < -PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return OPTIMAL
        entering = int(eligible[0])  # Bland: smallest eligible index
        col = T[:, entering]
        cand = (col > PIVOT_TOL).nonzero()[0]
        if cand.size == 0:
            return UNBOUNDED
        best_ratio = None
        leaving = None
        for i, ratio in zip(cand.tolist(), (T[cand, -1] / col[cand]).tolist()):
            if (
                best_ratio is None
                or ratio < best_ratio - PIVOT_TOL
                or (abs(ratio - best_ratio) <= PIVOT_TOL and basis[i] < basis[leaving])
            ):
                best_ratio = ratio
                leaving = i
        _pivot(T, basis, leaving, entering)


@dataclass
class DescentConfig:
    """Step schedule for the shrinking-step subgradient method."""

    max_iters: int = 4000
    tol: float = 1e-12
    initial_step: float = 1.0
    min_step: float = 1e-8
    stall_limit: int = 6


def minimize_convex(
    f: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    dim: int,
    starts: Sequence[Sequence[float]],
    config: Optional[DescentConfig] = None,
) -> tuple[np.ndarray, float]:
    """Minimize a finite convex function given a batched value-and-subgradient
    oracle.

    f takes a (k, dim) array of points and returns their values, shape (k,),
    and one subgradient per point, shape (k, dim).  Each row's results must
    not depend on the other rows of the batch.

    From each start: normalized subgradient steps with a geometrically
    shrinking step length, tracking the best point seen, so the reported
    value is monotone across iterations.  The starts advance in lockstep,
    one oracle call per iteration on the starts still running; a start
    stops when its step falls below min_step, its subgradient is zero or
    it has run max_iters iterations.  Returns the best point and value of
    the first start whose best value is smallest.  Deterministic given the
    starts and config.
    """
    cfg = config or DescentConfig()
    Z = np.array(starts, dtype=float, ndmin=2)
    if Z.shape[1:] != (dim,):
        raise ValueError("start point dimension mismatch")
    # One row per running start, rows[i] being its start.  The first
    # iteration reuses the values at the starts, and a reset to the best
    # point reuses the subgradient recorded there.
    val, G = _eval(f, Z)
    rows, best_Z, best_val, best_G = np.arange(len(Z)), Z.copy(), val, G.copy()
    step, stall = np.full(len(Z), cfg.initial_step), np.zeros(len(Z), dtype=int)
    out_Z, out_val = np.empty_like(Z), np.empty_like(val)
    for it in range(cfg.max_iters):
        if it:
            val, G = _eval(f, Z)
        better = val < best_val - cfg.tol
        best_val = np.where(better, val, best_val)
        best_Z[better], best_G[better] = Z[better], G[better]
        stall = np.where(better, 0, stall + 1)
        halve = ~better & (stall >= cfg.stall_limit)
        step[halve] *= 0.5
        done = halve & (step < cfg.min_step)
        reset = halve & ~done
        Z[reset], G[reset], stall[reset] = best_Z[reset], best_G[reset], 0
        # sqrt of a stacked (1, dim) @ (dim, 1) product rounds like
        # np.linalg.norm of each row
        gn = np.sqrt(G[:, None, :] @ G[:, :, None]).reshape(-1)
        done |= gn == 0.0
        out_Z[rows[done]], out_val[rows[done]] = best_Z[done], best_val[done]
        go = ~done
        rows, best_Z, best_val, best_G = rows[go], best_Z[go], best_val[go], best_G[go]
        step, stall = step[go], stall[go]
        Z = Z[go] - step[:, None] * (G[go] / gn[go, None])
        if not len(rows):
            break
    out_Z[rows], out_val[rows] = best_Z, best_val
    i = int(np.argmin(out_val))
    return out_Z[i], float(out_val[i])


def _eval(f, Z):
    val, G = f(Z)
    val = np.array(val, dtype=float).reshape(len(Z))
    if not np.isfinite(val).all():
        raise ValueError("objective returned a non-finite value")
    return val, np.array(G, dtype=float).reshape(Z.shape)
