"""Deterministic dense simplex LP solver and a convex piecewise-smooth minimizer.

The simplex solves one LP shape, the one every tropstat LP has: minimize
over <= rows, with some variables free and the rest nonnegative.  It
splits each free variable into positive and negative parts, adds a slack
per row, runs a two-phase method, and uses Bland's pivoting rule
throughout, so results are deterministic and optima are vertex solutions
of the lifted polyhedron.

The minimizer runs a shrinking-step subgradient descent from one start,
calling a one-point value-and-subgradient oracle once per step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8


@dataclass
class LinearProgram:
    """Dense LP: minimize objective . x subject to A_ub @ x <= b_ub, with
    x[:n_free] free and x[n_free:] >= 0.

    A greater-or-equal row is written as a negated A_ub row, a maximum as
    the minimum of the negated objective.
    """

    objective: Sequence[float]
    A_ub: np.ndarray
    b_ub: np.ndarray
    n_free: int

    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def constraints(self) -> np.ndarray:
        """The rows A_ub.  perfbench/tracer.py sizes each solve as
        len(lp.constraints) * lp.n_vars(), so the name stays."""
        return self.validate()[0]

    def validate(self) -> tuple[np.ndarray, np.ndarray]:
        """Check the LP; return A_ub and b_ub as float arrays."""
        n = self.n_vars()
        if n == 0:
            raise ValueError("LP has no variables")
        if not 0 <= self.n_free <= n:
            raise ValueError(f"n_free {self.n_free} is not in 0..{n}")
        A = np.asarray(self.A_ub, dtype=float)
        b = np.asarray(self.b_ub, dtype=float)
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError("constraint row length mismatch")
        if b.shape != (len(A),):
            raise ValueError("rhs length mismatch")
        if not (np.isfinite(self.objective).all() and np.isfinite(A).all()):
            raise ValueError("objective and row coefficients must be finite")
        if not np.isfinite(b).all():
            raise ValueError("rhs must be finite")
        return A, b


@dataclass
class Solution:
    status: str
    x: Optional[np.ndarray]
    objective_value: Optional[float]


def solve_lp(lp: LinearProgram) -> Solution:
    """Two-phase dense simplex with Bland's rule (deterministic)."""
    R, rhs = lp.validate()
    n, n_free = lp.n_vars(), lp.n_free

    # x = M @ p over nonnegative columns p: free x_j = p_2j - p_2j+1, then
    # one column per nonnegative variable.
    ncols = n + n_free
    M = np.zeros((n, ncols))
    M[:n_free, : 2 * n_free] = np.kron(np.eye(n_free), [1.0, -1.0])
    M[n_free:, 2 * n_free :] = np.eye(n - n_free)

    m = len(R)
    c = np.asarray(lp.objective, dtype=float) @ M

    # Equality form: a +1 slack column per row; then make rhs nonnegative.
    A = np.hstack([R @ M, np.eye(m)])
    b = rhs.copy()
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
    x = M @ xcols[:ncols] + 0.0  # + 0.0 turns a -0.0 coordinate into 0.0
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


# Step schedule of minimize_convex's shrinking-step subgradient method
MAX_ITERS = 4000
DESCENT_TOL = 1e-12
INITIAL_STEP = 1.0
MIN_STEP = 1e-8
STALL_LIMIT = 24


def minimize_convex(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    start: Sequence[float],
) -> tuple[np.ndarray, float]:
    """Minimize a finite convex function from one start, given an oracle
    f(z) that returns the value and a subgradient at the point z.

    Normalized subgradient steps, tracking the best point seen.  After
    STALL_LIMIT steps without an improvement of more than DESCENT_TOL the
    step halves, and the descent goes on from the current point.  It stops
    when the step is below MIN_STEP, when the subgradient is zero or after
    MAX_ITERS steps, and returns the best point and its value.  A
    non-finite value raises ValueError.
    """
    z = np.array(start, dtype=float)
    best_z, best_val = z, np.inf
    step, stall = INITIAL_STEP, 0
    for _ in range(MAX_ITERS + 1):  # the start, then one call per step
        val, g = f(z)
        if not np.isfinite(val):
            raise ValueError("objective returned a non-finite value")
        if val < best_val - DESCENT_TOL:
            best_z, best_val, stall = z, float(val), 0
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                step, stall = 0.5 * step, 0
        gn = np.linalg.norm(g)
        if step < MIN_STEP or gn == 0.0:
            break
        z = z - step * (g / gn)
    return best_z, best_val
