"""Hard- and soft-margin tropical support vector machines.

Training enumerates class-level sector assignments (all class-P points
share the primary/secondary coordinate pair, likewise class Q); the best
feasible assignment wins, with ties broken toward the lexicographically
smallest assignment.  Each assignment's LP rows are difference
constraints, so one array kernel bounds every LP optimum from shortest
paths of that difference graph (exact in hard mode), and an LP is solved
only for an assignment whose bound can still beat the running best.  The
winner and its vector are those of the solved LPs, as with full
enumeration.  Each LP is solved through its dual, a min-cost flow with one
side constraint on at most four key nodes, by a small bounded-variable
simplex (Ahuja, Magnanti & Orlin, *Network Flows*, 1993).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TropicalHyperplane, TropicalPoint, _sample_arrays, canonicalize

HARD = "HARD"
SOFT = "SOFT"

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

SEP_TOL = 1e-9
CYCLE_TOL = 1e-6  # well above PIVOT_TOL
ROUND_TOL = 1e-9  # per unit of the data's spread
PIVOT_TOL = 1e-9  # per unit of the largest cost, bound or ratio


class NotSeparableError(Exception):
    """No class-level sector assignment separates the sample strictly."""


@dataclass(frozen=True)
class SectorAssignment:
    """Primary/secondary coordinate indices per class (0-based)."""

    ip: int
    jp: int
    iq: int
    jq: int

    def __post_init__(self):
        if self.ip == self.jp or self.iq == self.jq:
            raise ValueError("primary and secondary indices must differ")
        if self.ip == self.iq:
            raise ValueError("classes must land in distinct primary sectors")

    def pair_for(self, label: int) -> tuple[int, int]:
        return (self.ip, self.jp) if label == 0 else (self.iq, self.jq)


@dataclass
class LabeledSample:
    points: tuple[TropicalPoint, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != len(self.labels):
            raise ValueError("points and labels must align")
        if any(l not in (0, 1) for l in self.labels):
            raise ValueError("labels must be 0 or 1")
        if len({p.dim for p in self.points}) != 1:
            raise ValueError("points must share one dimension")

    @property
    def dim(self) -> int:
        return self.points[0].dim


@dataclass
class SvmModel:
    omega: TropicalPoint  # canonical normal vector
    assignment: SectorAssignment
    margin: float  # optimal z
    mode: str
    C: Optional[float] = None
    slack_summary: Optional[dict] = None
    objective: Optional[float] = None

    def hyperplane(self) -> TropicalHyperplane:
        return TropicalHyperplane(self.omega)


def _assignment_array(e: int) -> np.ndarray:
    """Every class-level assignment as one (ip, jp, iq, jq) row, in
    lexicographic order: ip != jp, iq != jq and ip != iq."""
    K = np.indices((e,) * 4).reshape(4, -1).T
    return K[(K[:, 0] != K[:, 1]) & (K[:, 2] != K[:, 3]) & (K[:, 0] != K[:, 2])]


# An assignment's four key nodes ip, jp, iq, jq are positions 0..3.  Only
# they have outgoing arcs, so every simple cycle of its difference graph,
# and every simple path between two of them, visits key nodes only.
_CYCLES = [p + p[:1] for L in (2, 3, 4)
           for p in itertools.permutations(range(4), L) if p[0] == min(p)]


def _paths(s: int, t: int) -> list[tuple[int, ...]]:
    """Every position path from s to t through at most both other keys."""
    others = [k for k in range(4) if k not in (s, t)]
    return [(s, *mid, t) for L in (0, 1, 2) for mid in itertools.permutations(others, L)]


def _cheapest(W: np.ndarray, K: np.ndarray, walks) -> np.ndarray:
    """Per assignment, the cheapest of the position walks whose nodes are
    distinct (a cycle repeats only its first node); inf if none has arcs."""
    best = np.full(len(K), np.inf)
    for w in walks:
        cost = sum(W[:, a, b] for a, b in zip(w, w[1:]))
        pos = list(dict.fromkeys(w))
        distinct = np.logical_and.reduce(
            [K[:, a] != K[:, b] for a, b in itertools.combinations(pos, 2)])
        best = np.minimum(best, np.where(distinct, cost, np.inf))
    return best


def _margin_bounds(X: np.ndarray, labels, K: np.ndarray,
                   C: Optional[float]) -> np.ndarray:
    """An upper bound on the LP optimum of every assignment row of K.

    The non-margin rows omega_a - omega_b <= c are arcs b -> a of cost c,
    the cheapest over the class's points; Mp and Mq are the classes'
    smallest margin right-hand sides, and d(s -> t) is the cheapest simple
    path.  The LP dual is a circulation carrying one unit over the margin
    arcs, so U = min(Mp + d(jp -> ip), Mq + d(jq -> iq),
    (Mp + Mq + d(jp -> iq) + d(jq -> ip)) / 2).  In hard mode U is the
    optimum when the arcs have no negative cycle, and -inf (infeasible) when
    one costs less than -CYCLE_TOL; a cycle in between gives inf, so the LP
    decides.  Soft mode with C >= 1 may also send C - 1 units around the
    cheapest cycle (no row then carries more than C), which adds
    (C - 1) * min(0, cycle + CYCLE_TOL); with C < 1 every bound is inf.
    """
    if C is not None and C < 1:
        return np.full(len(K), np.inf)
    y = np.asarray(labels)
    diff = X[:, :, None] - X[:, None, :]
    AP, AQ = diff[y == 0].min(axis=0), diff[y == 1].min(axis=0)
    ip, jp, iq, jq = (K[:, c, None, None] for c in range(4))
    u, v = K[:, :, None], K[:, None, :]
    arc_p = ((u == ip) & (v == jp)) | ((u == jp) & (v != ip) & (v != jp))
    arc_q = ((u == iq) & (v == jq)) | ((u == jq) & (v != iq) & (v != jq))
    W = np.minimum(np.where(arc_p, AP[u, v], np.inf), np.where(arc_q, AQ[u, v], np.inf))

    def d(s, t):
        return np.where(K[:, s] == K[:, t], 0.0, _cheapest(W, K, _paths(s, t)))

    Mp, Mq = AP[K[:, 0], K[:, 1]], AQ[K[:, 2], K[:, 3]]
    U = np.minimum.reduce([Mp + d(1, 0), Mq + d(3, 2), (Mp + Mq + d(1, 2) + d(3, 0)) / 2])
    cycle = _cheapest(W, K, _CYCLES)
    if C is None:
        return np.where(cycle < -CYCLE_TOL, -np.inf, np.where(cycle < 0, np.inf, U))
    with np.errstate(over="ignore", invalid="ignore"):
        return U + (C - 1) * np.minimum(cycle + CYCLE_TOL, 0.0)


def _assignment_rows(X: np.ndarray, labels, asg: SectorAssignment):
    """Every row of one assignment's LP, as (n, e) arrays plus, minus and
    rhs: the row reads omega_plus - omega_minus <= rhs, plus z on a margin
    row.  A point with pair (i, j) has, in order, the margin row (plus j,
    minus i), the sector row (plus j, minus i), then one row (plus l,
    minus j) for each other coordinate l, ascending.  X is the (n, e)
    sample matrix, one label per row."""
    n, e = X.shape
    order = np.array(
        [[i, j] + [l for l in range(e) if l not in (i, j)]
         for i, j in map(asg.pair_for, labels)]
    )
    plus = order[:, [1, *range(1, e)]]
    minus = order[:, [0, 0] + [1] * (e - 2)]
    rhs = np.take_along_axis(X, minus, 1) - np.take_along_axis(X, plus, 1)
    return plus, minus, rhs


@np.errstate(over="ignore", invalid="ignore")  # the checks catch a non-finite value
def _solve_assignment(X: np.ndarray, labels, asg: SectorAssignment,
                      C: Optional[float] = None):
    """(status, objective, x) of one assignment's LP: maximize z, or
    z - C * total slack, over free omega and z and, in soft mode, one
    nonnegative slack per row of _assignment_rows.

    Only the keys ip, jp, iq, jq are minus nodes, so a row into a non-key
    coordinate binds only its own omega.  The LP is solved through the dual
    of the rows into keys: minimize sum rhs_r y_r subject to inflow =
    outflow at every key but the first and sum y_r = 1 over the margin
    rows, 0 <= y_r <= C.  z and omega at the other keys are the multipliers
    of its final basis, omega is 0 at the first key, a non-key omega_l is
    the largest value its rows allow, and a slack is lhs - rhs on a row
    whose y_r sits at C.  x is omega, z and the slacks of the margin rows,
    the sector rows and the rest, point-major; None unless OPTIMAL.
    RuntimeError if the point misses a row or the dual value by more than
    round-off.
    """
    plus, minus, rhs = _assignment_rows(X, labels, asg)
    margin = np.zeros(plus.shape)
    margin[:, 0] = 1.0
    keys = list(dict.fromkeys((asg.ip, asg.jp, asg.iq, asg.jq)))
    kept = np.isin(plus, keys)
    p, q, c = plus[kept], minus[kept], rhs[kept]
    A = np.vstack([(p == v) * 1.0 - (q == v) for v in keys[1:]] + [margin[kept]])
    # Flows are counted in units of a power of two near C: that rounds as
    # counting in ones does, and keeps sums of flows near C finite.
    unit = 1.0 if C is None else float(np.ldexp(1.0, min(1023, int(np.frexp(C)[1]))))
    upper = np.full(len(c), np.inf if C is None else C / unit)
    status, y, pi, at_upper = _bounded_simplex(A, np.eye(len(keys))[-1] / unit, c, upper)
    if status != OPTIMAL:  # the dual's status is the reverse of the LP's
        return {INFEASIBLE: UNBOUNDED, UNBOUNDED: INFEASIBLE}[status], None, None
    omega = np.full(X.shape[1], np.inf)
    omega[keys] = np.concatenate([[0.0], pi[:-1]])
    z = float(pi[-1])
    np.minimum.at(omega, plus[~kept], omega[minus[~kept]] + rhs[~kept])
    lhs = omega[plus] - omega[minus] + z * margin
    slack = np.zeros(plus.shape)
    slack[kept] = np.where(at_upper, np.maximum(lhs[kept] - c, 0.0), 0.0)
    value = z / unit if C is None else z / unit - C / unit * float(slack.sum())
    dual = float(c @ y)
    scale = 1.0 / unit + (np.abs(c) + np.abs(lhs[kept])) @ y
    if not (np.isfinite(omega).all()
            and (lhs - slack <= rhs + ROUND_TOL * (1.0 + np.abs(rhs).max())).all()
            and abs(value - dual) <= ROUND_TOL * scale):
        raise RuntimeError(f"assignment {asg}: recovered LP value {value * unit!r}, "
                           f"dual value {dual * unit!r}")
    x = np.concatenate([omega, [z]])
    if C is not None:
        x = np.concatenate([x, slack[:, 0], slack[:, 1], slack[:, 2:].ravel()])
    # -inf if the optimum lies below the float range; + 0.0 turns -0.0 into 0.0
    return OPTIMAL, value * unit + 0.0, x + 0.0


# A ratio past the float range never blocks; any other overflow fails a check.
@np.errstate(over="ignore", invalid="ignore")
def _bounded_simplex(A: np.ndarray, b: np.ndarray, c: np.ndarray, upper: np.ndarray):
    """Minimize c @ y subject to A @ y = b and 0 <= y <= upper, where A has
    a few rows and upper may hold inf: (status, y, pi, at_upper).

    Two phases over one artificial per row; Phase 2 freezes the
    artificials by setting their upper bound to 0.  Bland's rule picks the
    smallest eligible column to enter and the smallest blocking variable
    to leave, the entering column's own bound flip included, and the basis
    is inverted afresh at every pivot.  At OPTIMAL, pi holds the
    multipliers of the final basis (pi @ B = c_B) and at_upper marks the
    columns that sit nonbasic at their upper bound.  Exact Bland's rule
    never returns to a basis; RuntimeError is raised when round-off does,
    or makes a value non-finite.
    """
    m, n = A.shape
    A = np.hstack([A, np.diag(np.where(b < 0, -1.0, 1.0))])
    hi = np.concatenate([upper, np.full(m, np.inf)])
    basis = list(range(n, n + m))
    at_hi = np.zeros(n + m, dtype=bool)
    flow = np.abs(b).max()  # the scale of the round-off in x
    seen = set()
    for phase, cost in enumerate([np.repeat([0.0, 1.0], [n, m]), np.concatenate([c, np.zeros(m)])]):
        if phase:
            if x[n:].sum() > PIVOT_TOL * flow:
                return INFEASIBLE, None, None, None
            hi[n:] = 0.0
        tol = PIVOT_TOL * max(1.0, np.abs(cost).max())
        while True:
            Binv = np.linalg.inv(A[:, basis])
            x = np.where(at_hi, hi, 0.0)
            x[basis] = Binv @ (b - A @ x)
            pi = cost[basis] @ Binv
            d = cost - pi @ A
            key = (phase, *basis, at_hi.tobytes())
            if key in seen or not (np.isfinite(x).all() and np.isfinite(d).all()):
                raise RuntimeError(f"simplex stopped after {len(seen)} pivots: round-off "
                                   "repeated a basis or made a value non-finite")
            seen.add(key)
            eligible = (hi > 0) & np.where(at_hi, d > tol, d < -tol)
            eligible[basis] = False
            if not eligible.any():
                break
            j = int(eligible.argmax())
            # x_B moves by -step * t as column j moves t away from its bound
            step = (-1.0 if at_hi[j] else 1.0) * (Binv @ A[:, j])
            xb, down, up = x[basis], step > PIVOT_TOL, step < -PIVOT_TOL
            ratio = np.full(m, np.inf)
            ratio[down] = xb[down] / step[down]
            ratio[up] = (xb[up] - hi[basis][up]) / step[up]
            ratio = np.maximum(ratio, 0.0)
            t = min(ratio.min(), hi[j])
            if t == np.inf:
                return UNBOUNDED, None, None, None
            near = t + PIVOT_TOL * (flow + t)
            leave = min([basis[i] for i in np.flatnonzero(ratio <= near)]
                        + ([j] if hi[j] <= near else []))
            if leave == j:
                at_hi[j] = not at_hi[j]
            else:
                i = basis.index(leave)
                at_hi[leave] = step[i] < 0
                basis[i] = j
                at_hi[j] = False
    return OPTIMAL, x[:n], pi, at_hi[:n]


def _check_classes(sample: LabeledSample):
    if 0 not in sample.labels or 1 not in sample.labels:
        raise ValueError("both classes must be nonempty for training")
    if sample.dim < 3:
        raise ValueError("training needs dimension >= 3")


def _train(sample: LabeledSample, C: Optional[float], tol: float):
    """(objective, assignment, x) of the best assignment, or None if no LP
    has an optimum; a later assignment wins only by more than tol.

    An assignment whose margin bound, plus a round-off allowance, is at
    most the running best + tol (at first -inf) cannot win, so its LP is
    not solved.
    """
    _check_classes(sample)
    if C is not None and not 0 < C < np.inf:
        raise ValueError(f"C must be positive and finite, got {C}")
    X = _sample_arrays(sample.points)
    K = _assignment_array(sample.dim)
    bounds = _margin_bounds(X, sample.labels, K, C) + ROUND_TOL * (1.0 + np.ptp(X))
    best = None
    for row, bound in zip(K.tolist(), bounds.tolist()):
        if bound <= (-np.inf if best is None else best[0]) + tol:
            continue
        asg = SectorAssignment(*row)
        status, obj, x = _solve_assignment(X, sample.labels, asg, C)
        if status == OPTIMAL and (best is None or obj > best[0] + tol):
            best = (obj, asg, x)
    return best


def train_hard(sample: LabeledSample, tol: float = SEP_TOL) -> SvmModel:
    """Best class-level assignment by maximal margin z; fails if z <= tol."""
    best = _train(sample, None, tol)
    if best is None or best[0] <= tol:
        raise NotSeparableError(
            "no class-level sector assignment achieves a positive margin"
        )
    z, asg, x = best
    return SvmModel(
        omega=canonicalize(x[: sample.dim]),
        assignment=asg,
        margin=z,
        mode=HARD,
        slack_summary={"alpha": 0.0, "beta": 0.0, "gamma": 0.0},
        objective=z,
    )


def train_soft(sample: LabeledSample, C: float) -> SvmModel:
    """Best class-level assignment by the slack-penalized objective."""
    best = _train(sample, C, SEP_TOL)
    if best is None:
        raise RuntimeError(f"every soft-margin LP is unbounded at C = {C}: "
                           "the slack penalty is too small to bound the margin")
    obj, asg, x = best
    e, n = sample.dim, len(sample.points)
    alpha, beta, gamma = np.split(x[e + 1 :], [n, 2 * n])
    return SvmModel(
        omega=canonicalize(x[:e]),
        assignment=asg,
        margin=float(x[e]),
        mode=SOFT,
        C=C,
        slack_summary={
            "alpha": float(alpha.sum()),
            "beta": float(beta.sum()),
            "gamma": float(gamma.sum()),
        },
        objective=obj,
    )


def _labels(model: SvmModel, X: np.ndarray, tol: float = SEP_TOL) -> np.ndarray:
    """Labels of the rows of X: 0 where the class-P designated coordinate
    of x + omega wins (ties to 0), else 1."""
    w = model.omega.as_array()
    ip, iq = model.assignment.ip, model.assignment.iq
    return np.where(X[:, ip] + w[ip] >= X[:, iq] + w[iq] - tol, 0, 1)


def classify(model: SvmModel, x: TropicalPoint, tol: float = SEP_TOL) -> int:
    """0 if the class-P designated coordinate of x + omega wins (ties to 0)."""
    if x.dim != model.omega.dim:
        raise ValueError("dimension mismatch")
    return int(_labels(model, x.as_array()[None, :], tol)[0])


def training_accuracy(model: SvmModel, sample: LabeledSample) -> float:
    hits = _labels(model, _sample_arrays(sample.points)) == sample.labels
    return int(hits.sum()) / len(sample.points)


def model_to_dict(model: SvmModel) -> dict:
    return {
        "omega": list(model.omega.coords),
        "assignment": {
            "ip": model.assignment.ip,
            "jp": model.assignment.jp,
            "iq": model.assignment.iq,
            "jq": model.assignment.jq,
        },
        "margin": model.margin,
        "mode": model.mode,
        "C": model.C,
    }


def model_from_dict(data: dict) -> SvmModel:
    omega = canonicalize(data["omega"])
    asg = SectorAssignment(**data["assignment"])
    indices = (asg.ip, asg.jp, asg.iq, asg.jq)
    if not all(type(k) is int and 0 <= k < omega.dim for k in indices):
        raise ValueError(f"assignment indices must be integers in 0..{omega.dim - 1}")
    return SvmModel(
        omega=omega,
        assignment=asg,
        margin=float(data["margin"]),
        mode=data["mode"],
        C=data.get("C"),
    )


def save_model(model: SvmModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=2)


def load_model(path: str) -> SvmModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
