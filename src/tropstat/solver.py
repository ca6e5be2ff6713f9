"""A convex piecewise-smooth minimizer.

It runs a shrinking-step subgradient descent from one start, calling a
one-point value-and-subgradient oracle once per step.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

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
