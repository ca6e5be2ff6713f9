"""Independent reference computations for the output checks (numpy, scipy).

None of this calls ``tropstat``.  LPs go to HiGHS through
``scipy.optimize.linprog``; ``Highs.seconds`` totals the time spent there.
"""

from __future__ import annotations

import time
from itertools import combinations

import numpy as np

SEP_TOL = 1e-9  # the program's tie rule when classifying


def _drift(Z, V):
    """Tropical distances d_tr(z, v) for every row z of Z and v of V: (k, s)."""
    diff = np.atleast_2d(Z)[:, None, :] - V[None, :, :]
    return diff.max(axis=2) - diff.min(axis=2)


def fw_objective(z, V) -> float:
    return float(_drift(z, V).sum())


def frechet_objective(Z, V) -> np.ndarray:
    """Sum of squared tropical distances to V, one value per row of Z."""
    return (_drift(Z, V) ** 2).sum(axis=1)


def is_ultrametric(u, tol: float = 1e-9) -> bool:
    """Three-point condition: every triple's maximum is attained twice."""
    u = np.asarray(u, dtype=float)
    n = int(round((1 + np.sqrt(1 + 8 * len(u))) / 2))
    full = np.zeros((n, n))
    full[np.triu_indices(n, 1)] = u
    full = full + full.T
    i, j, k = np.array(list(combinations(range(n), 3))).T
    tri = np.stack([full[i, j], full[i, k], full[j, k]], axis=1)
    top = tri.max(axis=1, keepdims=True)
    return bool(((tri >= top - tol).sum(axis=1) >= 2).all())


def pca_objective(D, V) -> float:
    """Sum over V of d_tr(x, proj(x)), proj onto tconv of the rows of D.

    proj(x) = max_l (lambda_l + D_l) with lambda_l = min_j (x_j - D_lj).
    """
    lam = (V[:, None, :] - D[None, :, :]).min(axis=2)
    proj = (lam[:, :, None] + D[None, :, :]).max(axis=1)
    diff = V - proj
    return float((diff.max(axis=1) - diff.min(axis=1)).sum())


def hyperplane_distance(X, omega) -> np.ndarray:
    """Tropical distance of each row of X to the hyperplane with normal omega."""
    vals = np.sort(X + omega, axis=1)
    return vals[:, -1] - vals[:, -2]


def classify(P, omega, assignment) -> np.ndarray:
    vals = P + omega
    ip, iq = assignment["ip"], assignment["iq"]
    return np.where(vals[:, ip] >= vals[:, iq] - SEP_TOL, 0, 1)


def single_linkage_cophenet(U) -> np.ndarray:
    from scipy.cluster.hierarchy import cophenet, linkage

    return np.array([cophenet(linkage(u, "single")) for u in U])


def assignments(e: int):
    """Class-level sector assignments (ip, jp, iq, jq), in the program's order."""
    for ip in range(e):
        for jp in range(e):
            for iq in range(e):
                for jq in range(e):
                    if jp != ip and iq != ip and jq != iq:
                        yield ip, jp, iq, jq


class Highs:
    """HiGHS optima of the benchmark's LPs; ``seconds`` is the solve time."""

    def __init__(self):
        from scipy.optimize import linprog

        self._linprog = linprog
        self.seconds = 0.0
        self.solves = 0

    def _solve(self, c, A, b, bounds):
        t0 = time.perf_counter()
        res = self._linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        self.seconds += time.perf_counter() - t0
        self.solves += 1
        return res

    def fw_optimum(self, V) -> float:
        """Compact Fermat-Weber LP, 2*s*e rows over y, a, b (all free).

        min sum_i (a_i - b_i)  s.t.  a_i >= y_j - v_ij >= b_i  for all i, j.
        """
        s, e = V.shape
        r = np.arange(s * e)
        i, j = np.divmod(r, e)
        upper = np.zeros((s * e, e + 2 * s))
        upper[r, j] = 1.0
        upper[r, e + i] = -1.0
        lower = np.zeros((s * e, e + 2 * s))
        lower[r, j] = -1.0
        lower[r, e + s + i] = 1.0
        c = np.concatenate([np.zeros(e), np.ones(s), -np.ones(s)])
        res = self._solve(c, np.vstack([upper, lower]), np.concatenate([V.ravel(), -V.ravel()]),
                          [(None, None)] * (e + 2 * s))
        if res.status != 0:
            raise RuntimeError(f"HiGHS: Fermat-Weber LP status {res.status}")
        return float(res.fun)

    def svm_best(self, X, y, C) -> float:
        """Best hard margin (C None) or soft objective over all assignments.

        Rows per point with class pair (i, j): the margin row
        w_j - w_i + z <= x_i - x_j, the order row w_j - w_i <= x_i - x_j, and
        w_l - w_j <= x_j - x_l for every other l.  The soft LP gives every row
        its own slack, penalised by C.
        """
        n, e = X.shape
        best = -np.inf
        for ip, jp, iq, jq in assignments(e):
            rows, rhs = [], []
            for x, label in zip(X, y):
                i, j = (ip, jp) if label == 0 else (iq, jq)
                for margin in (1.0, 0.0):
                    row = np.zeros(e + 1)
                    row[j], row[i], row[e] = 1.0, -1.0, margin
                    rows.append(row)
                    rhs.append(x[i] - x[j])
                for l in range(e):
                    if l not in (i, j):
                        row = np.zeros(e + 1)
                        row[l], row[j] = 1.0, -1.0
                        rows.append(row)
                        rhs.append(x[j] - x[l])
            A = np.array(rows)
            c = np.zeros(e + 1)
            c[e] = -1.0
            bounds = [(None, None)] * (e + 1)
            if C is not None:
                m = len(rows)
                A = np.hstack([A, -np.eye(m)])
                c = np.concatenate([c, np.full(m, C)])
                bounds += [(0.0, None)] * m
            res = self._solve(c, A, np.array(rhs), bounds)
            if res.status == 0:
                best = max(best, -float(res.fun))
        return best
