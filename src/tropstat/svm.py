"""Hard- and soft-margin tropical support vector machines.

Training enumerates class-level sector assignments (all class-P points
share the primary/secondary coordinate pair, likewise class Q) and solves
one LP per assignment; the best feasible assignment wins, with ties broken
toward the lexicographically smallest assignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import TropicalHyperplane, TropicalPoint, _sample_arrays, canonicalize
from .solver import MAX, OPTIMAL, LinearProgram, solve_lp

HARD = "HARD"
SOFT = "SOFT"

SEP_TOL = 1e-9


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


def _assignments(e: int):
    for ip in range(e):
        for jp in range(e):
            if jp == ip:
                continue
            for iq in range(e):
                if iq == ip:
                    continue
                for jq in range(e):
                    if jq == iq:
                        continue
                    yield SectorAssignment(ip, jp, iq, jq)


def _svm_lp(
    X: np.ndarray, labels, asg: SectorAssignment, C: Optional[float] = None
) -> LinearProgram:
    """The separation LP of one assignment: max z, or z - C * total slack.

    Variables are omega_0..omega_{e-1} and z, then (soft mode) one slack
    per row.  Each point with pair (i, j) gives e rows, all of the form
    omega_plus - omega_minus <= x_minus - x_plus: the margin row (plus j,
    minus i, + z), the sector row (plus j, minus i), then one row per
    other coordinate l (plus l, minus j).  Soft mode subtracts the row's
    own slack, ordered alpha (margin rows), beta (sector rows), gamma.
    X is the (n, e) sample matrix, one label per row.
    """
    n, e = X.shape
    order = np.array(
        [[i, j] + [l for l in range(e) if l not in (i, j)]
         for i, j in map(asg.pair_for, labels)]
    )
    i, j = order[:, :1], order[:, 1:2]
    plus = np.hstack([j, j, order[:, 2:]])
    minus = np.hstack([i, i, np.repeat(j, e - 2, axis=1)])
    rhs = (np.take_along_axis(X, minus, 1) - np.take_along_axis(X, plus, 1)).ravel()
    m = n * e
    rows = np.zeros((m, e + 1))
    rows[np.arange(m), plus.ravel()] = 1.0
    rows[np.arange(m), minus.ravel()] = -1.0
    rows[::e, e] = 1.0
    objective = np.zeros(e + 1)
    objective[e] = 1.0
    bounds = None
    if C is not None:
        slack = np.column_stack([np.arange(n), n + np.arange(n),
                                 2 * n + np.arange(n * (e - 2)).reshape(n, e - 2)])
        S = np.zeros((m, m))
        S[np.arange(m), slack.ravel()] = -1.0
        rows = np.hstack([rows, S])
        objective = np.concatenate([objective, np.full(m, -C)])
        bounds = [(None, None)] * (e + 1) + [(0.0, None)] * m
    return LinearProgram(MAX, objective, rows, rhs, bounds=bounds)


def _check_classes(sample: LabeledSample):
    if 0 not in sample.labels or 1 not in sample.labels:
        raise ValueError("both classes must be nonempty for training")
    if sample.dim < 3:
        raise ValueError("training needs dimension >= 3")


def _train(sample: LabeledSample, C: Optional[float], tol: float):
    """(objective, assignment, x) of the best assignment, or None if no LP
    has an optimum; a later assignment wins only by more than tol."""
    _check_classes(sample)
    if C is not None and not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    X = _sample_arrays(sample.points)
    best = None
    for asg in _assignments(sample.dim):
        sol = solve_lp(_svm_lp(X, sample.labels, asg, C))
        if sol.status != OPTIMAL:
            continue
        obj = float(sol.objective_value)
        if best is None or obj > best[0] + tol:
            best = (obj, asg, sol.x)
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
    asg = SectorAssignment(**data["assignment"])
    return SvmModel(
        omega=canonicalize(data["omega"]),
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
