"""Hard- and soft-margin tropical support vector machines.

Training enumerates class-level sector assignments (all class-P points
share the primary/secondary coordinate pair, likewise class Q); the best
feasible assignment wins, with ties broken toward the lexicographically
smallest assignment.  The hard margin is the soft-margin LP at C = inf.
Each assignment's LP rows are difference constraints, so one array kernel
bounds every LP optimum from shortest paths of that difference graph
(exact in hard mode), and an LP is solved only for an assignment whose
bound can still beat the running best.  The winner and its vector are
those of the solved LPs, as with full enumeration.  Each LP is solved
through its dual, a min-cost flow with one side constraint on at most four
key nodes, by pushing flow round the cycles through them (Ahuja, Magnanti
& Orlin, *Network Flows*, 1993, ch. 9-10).  Training thresholds are ratios
of the sample's spread, so training scales with the data.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TropicalHyperplane, TropicalPoint, _sample_arrays, _spread, canonicalize

HARD = "HARD"
SOFT = "SOFT"

OPTIMAL = "OPTIMAL"
INFEASIBLE = "INFEASIBLE"
UNBOUNDED = "UNBOUNDED"

SEP_TOL = 1e-9  # per unit of the spread in training; absolute when labeling
CYCLE_TOL = 1e-6  # per unit of the spread, well above _flow's ROUND_TOL
ROUND_TOL = 1e-9  # per unit of the spread, or of the largest right-hand side


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
# and every simple path between two of them, visits key nodes only.  The
# margin bound and the LP solver _flow both run over these cycles.
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


def _margin_bounds(X: np.ndarray, labels, K: np.ndarray, C: float) -> np.ndarray:
    """An upper bound at penalty C on the LP optimum of every row of K.

    The non-margin rows omega_a - omega_b <= c are arcs b -> a of cost c,
    the cheapest over the class's points; Mp and Mq are the classes'
    smallest margin right-hand sides, and d(s -> t) is the cheapest simple
    path.  The LP dual is a circulation carrying one unit over the margin
    arcs and at most C on any row, so with C >= 1 one feasible dual flow
    costs U = min(Mp + d(jp -> ip), Mq + d(jq -> iq),
    (Mp + Mq + d(jp -> iq) + d(jq -> ip)) / 2).  C - 1 more units may go
    around the cheapest cycle, which adds (C - 1) * (cycle + CYCLE_TOL *
    spread) where that is negative: -inf (infeasible) at C = inf, where U
    is the optimum if no cycle is negative.  With C < 1 every bound is inf.
    """
    if C < 1:
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
    cycle = _cheapest(W, K, _CYCLES) + CYCLE_TOL * _spread(X)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(cycle < 0, U + (C - 1) * cycle, U)


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
def _solve_assignment(X: np.ndarray, labels, asg: SectorAssignment, C: float):
    """(status, objective, x) of one assignment's LP: maximize
    z - C * total slack over free omega and z and one nonnegative slack per
    row of _assignment_rows; at C = inf every slack is 0, the hard margin.

    Only the keys ip, jp, iq, jq are minus nodes, so a row into a non-key
    coordinate binds only its own omega.  The rows into keys are the arcs
    minus -> plus of the LP's dual, solved by _flow with cap C and target 1;
    z and omega at the keys are its multipliers, a non-key omega_l is the
    largest value its rows allow, and a slack is lhs - rhs on a row whose
    y_r sits at C.  x is omega, z and the slacks of the margin rows, the
    sector rows and the rest, point-major; None unless OPTIMAL.  RuntimeError
    if the point misses a row or the dual value by more than round-off.
    """
    plus, minus, rhs = _assignment_rows(X, labels, asg)
    margin = np.zeros(plus.shape)
    margin[:, 0] = 1.0
    keys = list(dict.fromkeys((asg.ip, asg.jp, asg.iq, asg.jq)))
    kept = np.isin(plus, keys)
    position = np.zeros(X.shape[1], dtype=int)
    position[keys] = range(len(keys))
    c = rhs[kept]
    # Flows are counted in units of a power of two near C (1 at C = inf):
    # that rounds as counting in ones does, and keeps sums near C finite.
    unit = float(np.ldexp(1.0, min(1023, int(np.frexp(C)[1]))))
    status, y, pi, z = _flow(position[minus[kept]], position[plus[kept]], c, margin[kept],
                             len(keys), C / unit, 1.0 / unit)
    if status != OPTIMAL:
        return status, None, None
    at_upper = y == C / unit
    omega = np.full(X.shape[1], np.inf)
    omega[keys] = pi
    np.minimum.at(omega, plus[~kept], omega[minus[~kept]] + rhs[~kept])
    lhs = omega[plus] - omega[minus] + z * margin
    slack = np.zeros(plus.shape)
    slack[kept] = np.where(at_upper, np.maximum(lhs[kept] - c, 0.0), 0.0)
    # only a row at its bound carries slack, so inf * 0 is never formed
    value = z / unit - (C / unit * float(slack.sum()) if at_upper.any() else 0.0)
    dual = float(c @ y)
    scale = (np.abs(c) + np.abs(lhs[kept])) @ y
    if not (np.isfinite(omega).all()
            and (lhs - slack <= rhs + ROUND_TOL * np.abs(rhs).max()).all()
            and abs(value - dual) <= ROUND_TOL * scale):
        raise RuntimeError(f"assignment {asg}: recovered LP value {value * unit!r}, "
                           f"dual value {dual * unit!r}")
    x = np.concatenate([omega, [z], slack[:, 0], slack[:, 1], slack[:, 2:].ravel()])
    # -inf if the optimum lies below the float range; + 0.0 turns -0.0 into 0.0
    return OPTIMAL, value * unit + 0.0, x + 0.0


def _flow(tail, head, cost, margin, k, cap, target):
    """Minimize cost @ y over circulations y on key positions 0..k-1, arc r
    running tail[r] -> head[r] with 0 <= y_r <= cap, whose margin arcs
    (margin[r] = 1) carry target in total: (status, y, omega, z).  The
    status is that of the LP this is the dual of, max target * z - cap *
    total slack subject to omega[head] - omega[tail] + z * margin - slack <=
    cost; omega (0 at the first key) and z are its multipliers.

    A residual arc is a row forward (y_r < cap; cost c_r, margin count m_r)
    or backward (y_r > 0; -c_r, -m_r).  A simple cycle is one of _CYCLES
    with one residual arc per hop, the cheapest of its margin count.
    Phase A keeps the margin arcs closed and, while the cheapest cycle costs
    less than -ROUND_TOL * max|cost|, pushes its smallest residual round
    it; flows stay 0 or cap, so each push moves a whole cap and lowers the
    cost by more than the threshold, and an infinite push means the LP is
    INFEASIBLE.  Phase B sends target over the margin arcs, each time round
    the cycle of least cost per crossed unit, z; none means UNBOUNDED.  Each
    push raises the crossed flow, by at least cap unless it is the last,
    along a cycle of zero reduced cost at z, and z never falls: y stays a
    cheapest circulation for cost - z * margin, and once target has crossed
    that is the Lagrangian certificate of optimality.  omega is the
    shortest-path potential of the final residual arcs at cost - z * margin.
    """
    n = len(cost)
    ends = list(zip(np.r_[tail, head].tolist(), np.r_[head, tail].tolist()))
    c, m = np.r_[cost, -cost].tolist(), np.r_[margin, -margin].tolist()
    # costliest first, so that arcs() keeps the cheapest arc of each group
    order = sorted(range(2 * n), key=lambda a: (ends[a], m[a], c[a]), reverse=True)
    res = np.r_[np.full(n, cap), np.zeros(n)]  # arc a + n is arc a backward

    def arcs():  # the cheapest residual arc of each hop and margin count
        return list({(ends[a], m[a]): a for a in order if res[a] > 0}.values())

    def best(crossing):  # (cost per crossed unit, crossed count, arcs) or None
        hops = {}
        for a in arcs():
            if crossing or not m[a]:
                hops.setdefault(ends[a], []).append(a)
        paths = [p for cycle in _CYCLES
                 for p in itertools.product(*(hops.get(h, ()) for h in zip(cycle, cycle[1:])))]
        return min([(sum(c[a] for a in p) / max(d, 1.0), d, p) for p in paths
                    if (d := sum(m[a] for a in p)) > 0 or not crossing],
                   key=lambda cycle: cycle[0], default=None)

    def push(path, limit):
        amount = min(limit, *res[list(path)])
        for a in path:
            b = (a + n) % (2 * n)
            res[a], res[b] = (0.0, cap) if res[a] == amount else (res[a] - amount, res[b] + amount)
        return amount

    while (cycle := best(False)) and cycle[0] < -ROUND_TOL * np.abs(cost).max(initial=0.0):
        if push(cycle[2], np.inf) == np.inf:
            return INFEASIBLE, None, None, None
    left = target
    while left > 0:
        if not (cycle := best(True)):
            return UNBOUNDED, None, None, None
        z, crossed, path = cycle
        moved = push(path, left / crossed)
        left = 0.0 if moved == left / crossed else left - moved * crossed
    omega = [0.0] * k
    for a in arcs() * k:  # k rounds of Bellman-Ford
        omega[ends[a][1]] = min(omega[ends[a][1]], omega[ends[a][0]] + c[a] - z * m[a])
    return OPTIMAL, res[n:], np.array(omega) - omega[0], z


def _train(sample: LabeledSample, C: float):
    """(objective, assignment, x) of the best assignment at penalty C, or
    None if no LP has an optimum, and tol: a later assignment wins only by
    more than tol, SEP_TOL per unit of the sample's spread.

    An assignment whose margin bound, plus a round-off allowance, is at
    most the running best + tol (at first -inf) cannot win, so its LP is
    not solved.
    """
    if 0 not in sample.labels or 1 not in sample.labels:
        raise ValueError("both classes must be nonempty for training")
    if sample.dim < 3:
        raise ValueError("training needs dimension >= 3")
    X = _sample_arrays(sample.points)
    spread = _spread(X)
    tol = SEP_TOL * spread
    K = _assignment_array(sample.dim)
    bounds = _margin_bounds(X, sample.labels, K, C) + ROUND_TOL * spread
    best = None
    for row, bound in zip(K.tolist(), bounds.tolist()):
        if bound <= (-np.inf if best is None else best[0]) + tol:
            continue
        asg = SectorAssignment(*row)
        status, obj, x = _solve_assignment(X, sample.labels, asg, C)
        if status == OPTIMAL and (best is None or obj > best[0] + tol):
            best = (obj, asg, x)
    return best, tol


def _fit(sample: LabeledSample, C: float) -> SvmModel:
    """The model of the best assignment at penalty C; at C = inf, the hard
    margin, the margin must exceed tol."""
    best, tol = _train(sample, C)
    hard = C == np.inf
    if hard and (best is None or best[0] <= tol):
        raise NotSeparableError("no class-level sector assignment achieves a positive margin")
    if best is None:
        raise RuntimeError(f"every soft-margin LP is unbounded at C = {C}: "
                           "the slack penalty is too small to bound the margin")
    obj, asg, x = best
    e, n = sample.dim, len(sample.points)
    slack = np.split(x[e + 1 :], [n, 2 * n])  # alpha, beta, gamma
    return SvmModel(
        omega=canonicalize(x[:e]),
        assignment=asg,
        margin=float(x[e]),
        mode=HARD if hard else SOFT,
        C=None if hard else C,
        slack_summary={k: float(v.sum()) for k, v in zip(("alpha", "beta", "gamma"), slack)},
        objective=obj,
    )


def train_hard(sample: LabeledSample) -> SvmModel:
    """Best class-level assignment by maximal margin z: the soft-margin LP
    at C = inf.  NotSeparableError unless z exceeds SEP_TOL per unit of the
    sample's spread."""
    return _fit(sample, np.inf)


def train_soft(sample: LabeledSample, C: float) -> SvmModel:
    """Best class-level assignment by the slack-penalized objective."""
    if not 0 < C < np.inf:
        raise ValueError(f"C must be positive and finite, got {C}")
    return _fit(sample, C)


def _labels(model: SvmModel, X: np.ndarray) -> np.ndarray:
    """Labels of the rows of X: 0 where the class-P designated coordinate
    of x + omega wins (ties to 0), else 1."""
    w = model.omega.as_array()
    ip, iq = model.assignment.ip, model.assignment.iq
    return np.where(X[:, ip] + w[ip] >= X[:, iq] + w[iq] - SEP_TOL, 0, 1)


def classify(model: SvmModel, x: TropicalPoint) -> int:
    """0 if the class-P designated coordinate of x + omega wins (ties to 0)."""
    if x.dim != model.omega.dim:
        raise ValueError("dimension mismatch")
    return int(_labels(model, x.as_array()[None, :])[0])


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
    if type(data["omega"]) is not list or not all(map(_finite_number, data["omega"])):
        raise ValueError(f"omega must be an array of finite numbers, got {data['omega']!r}")
    omega = canonicalize(data["omega"])
    asg = SectorAssignment(**data["assignment"])
    indices = (asg.ip, asg.jp, asg.iq, asg.jq)
    if not all(type(k) is int and 0 <= k < omega.dim for k in indices):
        raise ValueError(f"assignment indices must be integers in 0..{omega.dim - 1}")
    mode, C, margin = data["mode"], data.get("C"), data["margin"]
    if mode not in (HARD, SOFT):
        raise ValueError(f"mode must be {HARD!r} or {SOFT!r}, got {mode!r}")
    if mode == HARD and C is not None:
        raise ValueError(f"a {HARD} model has no C, got {C!r}")
    if mode == SOFT and not (_finite_number(C) and C > 0):
        raise ValueError(f"C must be a positive finite number, got {C!r}")
    if not _finite_number(margin):
        raise ValueError(f"margin must be a finite number, got {margin!r}")
    return SvmModel(
        omega=omega,
        assignment=asg,
        margin=float(margin),
        mode=mode,
        C=None if C is None else float(C),
    )


def _finite_number(value) -> bool:
    """Whether a JSON value is a finite int or float (a bool is neither)."""
    return type(value) in (int, float) and np.isfinite(float(value))


def save_model(model: SvmModel, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, sort_keys=True, indent=2)


def load_model(path: str) -> SvmModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
