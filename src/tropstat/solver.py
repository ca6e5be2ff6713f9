"""A convex piecewise-smooth minimizer.

It runs a shrinking-step subgradient descent from one start, calling a
one-point value-and-subgradient oracle once per step.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# minimize_convex's step schedule; DESCENT_TOL and MIN_STEP are ratios
MAX_ITERS = 4000
DESCENT_TOL = 1e-12
MIN_STEP = 1e-8
STALL_LIMIT = 24


def minimize_convex(
    f: Callable[[np.ndarray], tuple[float, np.ndarray]],
    start: Sequence[float],
) -> tuple[np.ndarray, float]:
    """Minimize a finite, nonnegative convex function from one start, given
    an oracle f(z) that returns the value and a subgradient at the point z.

    Normalized subgradient steps, tracking the best point seen, from a first
    step of f/|g| at the start (0 when g is 0).  After STALL_LIMIT steps
    without an improvement of more than DESCENT_TOL f(start) the step halves,
    and the descent goes on from the current point.  It stops when the step
    is at most MIN_STEP times the first, when the subgradient is zero or
    after MAX_ITERS steps, and returns the best point and its value.  A
    non-finite value raises ValueError."""
    z = np.array(start, dtype=float)
    best_z, best_val, stall = z, np.inf, 0
    for i in range(MAX_ITERS + 1):  # the start, then one call per step
        val, g = f(z)
        if not np.isfinite(val):
            raise ValueError("objective returned a non-finite value")
        gn = np.linalg.norm(g)
        if i == 0:
            step = val / gn if gn else 0.0
            tol, min_step = DESCENT_TOL * val, MIN_STEP * step
        if val < best_val - tol:
            best_z, best_val, stall = z, float(val), 0
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                step, stall = 0.5 * step, 0
        if step <= min_step or gn == 0.0:
            break
        z = z - step * (g / gn)
    return best_z, best_val
