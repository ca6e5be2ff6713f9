"""Deterministic dense simplex LP solver and a convex piecewise-smooth minimizer.

The simplex converts to standard form (free variables split into positive
and negative parts, bounds turned into shifts or rows), runs a two-phase
method, and uses Bland's pivoting rule throughout, so results are
deterministic and optima are vertex solutions of the lifted polyhedron.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Dense LP: optimize objective . x subject to rows (coeffs, rel, rhs).

    rel is one of "<=", ">=", "=".  bounds holds one (lower, upper) pair
    per variable; None means unbounded on that side.  Variables default to
    free.
    """

    sense: str
    objective: Sequence[float]
    constraints: list[tuple[Sequence[float], str, float]]
    bounds: Optional[list[tuple[Optional[float], Optional[float]]]] = None

    def n_vars(self) -> int:
        return len(self.objective)

    def validate(self):
        if self.sense not in (MIN, MAX):
            raise ValueError(f"bad sense {self.sense!r}")
        n = self.n_vars()
        if n == 0:
            raise ValueError("LP has no variables")
        for row, rel, rhs in self.constraints:
            if len(row) != n:
                raise ValueError("constraint row length mismatch")
            if rel not in ("<=", ">=", "="):
                raise ValueError(f"bad relation {rel!r}")
            if not np.isfinite(rhs):
                raise ValueError("rhs must be finite")
        if self.bounds is not None and len(self.bounds) != n:
            raise ValueError("bounds length mismatch")


@dataclass
class Solution:
    status: str
    x: Optional[np.ndarray]
    objective_value: Optional[float]


def solve_lp(lp: LinearProgram) -> Solution:
    """Two-phase dense simplex with Bland's rule (deterministic)."""
    lp.validate()
    n = lp.n_vars()
    bounds = lp.bounds or [(None, None)] * n

    # Rewrite each variable in terms of nonnegative columns:
    #   free        -> x = p - m            (two columns)
    #   lo <= x     -> x = lo + p           (shift)
    #   x <= hi     -> x = hi - p           (flip)
    #   lo<=x<=hi   -> x = lo + p, row p <= hi - lo
    col_map = []  # per variable: (kind, col index(es), offset)
    ncols = 0
    extra_rows: list[tuple[np.ndarray, str, float]] = []
    for j, (lo, hi) in enumerate(bounds):
        if lo is None and hi is None:
            col_map.append(("split", (ncols, ncols + 1), 0.0))
            ncols += 2
        elif lo is not None:
            col_map.append(("shift", (ncols,), float(lo)))
            if hi is not None:
                if hi < lo:
                    return Solution(INFEASIBLE, None, None)
                extra_rows.append((j, "ub", float(hi) - float(lo)))
            ncols += 1
        else:  # hi only
            col_map.append(("flip", (ncols,), float(hi)))
            ncols += 1

    def expand_row(row) -> np.ndarray:
        """Map a row over original variables to the nonnegative columns."""
        out = np.zeros(ncols)
        shift = 0.0
        for j, a in enumerate(row):
            if a == 0.0:
                continue
            kind, cols, off = col_map[j]
            if kind == "split":
                out[cols[0]] += a
                out[cols[1]] -= a
            elif kind == "shift":
                out[cols[0]] += a
                shift += a * off
            else:  # flip: x = off - p
                out[cols[0]] -= a
                shift += a * off
        return out, shift

    rows = []
    rels = []
    rhss = []
    for row, rel, rhs in lp.constraints:
        out, shift = expand_row(row)
        rows.append(out)
        rels.append(rel)
        rhss.append(float(rhs) - shift)
    for j, _tag, ub in extra_rows:
        out = np.zeros(ncols)
        out[col_map[j][1][0]] = 1.0
        rows.append(out)
        rels.append("<=")
        rhss.append(ub)

    m = len(rows)
    obj_row, obj_shift = expand_row(lp.objective)
    minimize = lp.sense == MIN
    c = obj_row if minimize else -obj_row

    if m == 0:
        # Unconstrained over the nonnegative columns: bounded iff c >= 0.
        if np.all(c >= -PIVOT_TOL):
            xcols = np.zeros(ncols)
            return _recover(lp, col_map, xcols)
        return Solution(UNBOUNDED, None, None)

    # Equality form with slack columns; make rhs nonnegative.
    A = np.zeros((m, ncols + m))
    b = np.zeros(m)
    slack_sign = np.zeros(m)
    for i in range(m):
        A[i, :ncols] = rows[i]
        b[i] = rhss[i]
        if rels[i] == "<=":
            slack_sign[i] = 1.0
        elif rels[i] == ">=":
            slack_sign[i] = -1.0
        A[i, ncols + i] = slack_sign[i]
        if b[i] < 0:
            A[i, :] *= -1.0
            b[i] *= -1.0
    # Drop all-zero slack columns (equalities) by keeping width; harmless.

    total = ncols + m
    basis = [-1] * m
    # Slack columns that survived with +1 entries give a starting basis.
    for i in range(m):
        col = ncols + i
        if A[i, col] == 1.0:
            basis[i] = col
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
        if _objective_of(T, basis, cost) > FEAS_TOL:
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
    for i in range(m):
        if basis[i] < total:
            xcols[basis[i]] = T[i, -1]
    return _recover(lp, col_map, xcols[:ncols])


def _recover(lp: LinearProgram, col_map, xcols: np.ndarray) -> Solution:
    n = lp.n_vars()
    x = np.zeros(n)
    for j in range(n):
        kind, cols, off = col_map[j]
        if kind == "split":
            x[j] = xcols[cols[0]] - xcols[cols[1]]
        elif kind == "shift":
            x[j] = off + xcols[cols[0]]
        else:
            x[j] = off - xcols[cols[0]]
    val = float(np.dot(np.asarray(lp.objective, dtype=float), x))
    return Solution(OPTIMAL, x, val)


def _objective_of(T, basis, cost) -> float:
    return float(sum(cost[basis[i]] * T[i, -1] for i in range(len(basis))))


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
    """Minimize cost over the tableau's first k columns with Bland's rule."""
    while True:
        # Reduced costs: c_j - c_B . B^-1 A_j
        red = cost[:k] - cost[basis] @ T[:, :k]
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
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    dim: int,
    starts: Sequence[Sequence[float]],
    config: Optional[DescentConfig] = None,
) -> tuple[np.ndarray, float]:
    """Minimize a finite convex function given a value-and-subgradient oracle.

    Normalized subgradient steps with a geometrically shrinking step length;
    the best point seen is tracked, so the reported value is monotone across
    iterations.  Deterministic given the starts and config.
    """
    cfg = config or DescentConfig()
    best_z = None
    best_val = np.inf
    for start in starts:
        z, val = _descend(f, np.asarray(start, dtype=float), dim, cfg)
        if val < best_val:
            best_val, best_z = val, z
    return best_z, best_val


def _descend(f, z0, dim, cfg):
    if z0.shape != (dim,):
        raise ValueError("start point dimension mismatch")
    z = z0.copy()
    val, g = _eval(f, z)
    best_val, best_z = val, z.copy()
    step = cfg.initial_step
    stall = 0
    for _ in range(cfg.max_iters):
        val, g = _eval(f, z)
        if val < best_val - cfg.tol:
            best_val, best_z, stall = val, z.copy(), 0
        else:
            stall += 1
            if stall >= cfg.stall_limit:
                step *= 0.5
                if step < cfg.min_step:
                    break
                z = best_z.copy()
                stall = 0
                val, g = _eval(f, z)
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        z = z - step * (g / gn)
    return best_z, best_val


def _eval(f, z):
    val, g = f(z)
    if not np.isfinite(val):
        raise ValueError("objective returned a non-finite value")
    return float(val), np.asarray(g, dtype=float)
