"""Hard- and soft-margin tropical support vector machines.

Training enumerates class-level sector assignments (all class-P points
share the primary/secondary coordinate pair, likewise class Q) and solves
one LP per assignment; the best feasible assignment wins, with ties broken
toward the lexicographically smallest assignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import TropicalHyperplane, TropicalPoint, canonicalize
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


def _hard_lp(sample: LabeledSample, asg: SectorAssignment) -> LinearProgram:
    """max z over the three hard separation constraint families."""
    e = sample.dim
    nvars = e + 1  # omega_0..omega_{e-1}, z
    objective = [0.0] * e + [1.0]
    cons = []
    for p, label in zip(sample.points, sample.labels):
        xi = p.coords
        i, j = asg.pair_for(label)
        row = [0.0] * nvars
        row[j] += 1.0
        row[i] -= 1.0
        row[e] = 1.0
        cons.append((row, "<=", xi[i] - xi[j]))  # margin
        row = [0.0] * nvars
        row[j] += 1.0
        row[i] -= 1.0
        cons.append((row, "<=", xi[i] - xi[j]))  # sector order
        for l in range(e):
            if l in (i, j):
                continue
            row = [0.0] * nvars
            row[l] += 1.0
            row[j] -= 1.0
            cons.append((row, "<=", xi[j] - xi[l]))  # other coordinates below j
    return LinearProgram(MAX, objective, cons)


def _soft_lp(sample: LabeledSample, asg: SectorAssignment, C: float) -> LinearProgram:
    """max z - C * total slack; one (alpha, beta) per point, gammas per l."""
    e = sample.dim
    n = len(sample.points)
    n_gamma = n * (e - 2)
    nvars = e + 1 + 2 * n + n_gamma
    alpha0 = e + 1
    beta0 = alpha0 + n
    gamma0 = beta0 + n
    objective = [0.0] * e + [1.0] + [-C] * (2 * n + n_gamma)
    cons = []
    g = gamma0
    for idx, (p, label) in enumerate(zip(sample.points, sample.labels)):
        xi = p.coords
        i, j = asg.pair_for(label)
        row = [0.0] * nvars
        row[j] += 1.0
        row[i] -= 1.0
        row[e] = 1.0
        row[alpha0 + idx] = -1.0
        cons.append((row, "<=", xi[i] - xi[j]))
        row = [0.0] * nvars
        row[j] += 1.0
        row[i] -= 1.0
        row[beta0 + idx] = -1.0
        cons.append((row, "<=", xi[i] - xi[j]))
        for l in range(e):
            if l in (i, j):
                continue
            row = [0.0] * nvars
            row[l] += 1.0
            row[j] -= 1.0
            row[g] = -1.0
            cons.append((row, "<=", xi[j] - xi[l]))
            g += 1
    bounds = [(None, None)] * (e + 1) + [(0.0, None)] * (2 * n + n_gamma)
    return LinearProgram(MAX, objective, cons, bounds)


def _check_classes(sample: LabeledSample):
    if 0 not in sample.labels or 1 not in sample.labels:
        raise ValueError("both classes must be nonempty for training")
    if sample.dim < 3:
        raise ValueError("training needs dimension >= 3")


def train_hard(sample: LabeledSample, tol: float = SEP_TOL) -> SvmModel:
    """Best class-level assignment by maximal margin z; fails if z <= tol."""
    _check_classes(sample)
    e = sample.dim
    best = None
    for asg in _assignments(e):
        sol = solve_lp(_hard_lp(sample, asg))
        if sol.status != OPTIMAL:
            continue
        z = float(sol.objective_value)
        if best is None or z > best[0] + tol:
            best = (z, asg, sol.x[:e])
    if best is None or best[0] <= tol:
        raise NotSeparableError(
            "no class-level sector assignment achieves a positive margin"
        )
    z, asg, omega = best
    return SvmModel(
        omega=canonicalize(omega),
        assignment=asg,
        margin=z,
        mode=HARD,
        slack_summary={"alpha": 0.0, "beta": 0.0, "gamma": 0.0},
        objective=z,
    )


def train_soft(sample: LabeledSample, C: float) -> SvmModel:
    """Best class-level assignment by the slack-penalized objective."""
    _check_classes(sample)
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    e = sample.dim
    n = len(sample.points)
    best = None
    for asg in _assignments(e):
        sol = solve_lp(_soft_lp(sample, asg, C))
        if sol.status != OPTIMAL:
            continue
        obj = float(sol.objective_value)
        if best is None or obj > best[0] + SEP_TOL:
            best = (obj, asg, sol.x)
    if best is None:
        raise RuntimeError(f"every soft-margin LP is unbounded at C = {C}: "
                           "the slack penalty is too small to bound the margin")
    obj, asg, x = best
    alpha = x[e + 1 : e + 1 + n]
    beta = x[e + 1 + n : e + 1 + 2 * n]
    gamma = x[e + 1 + 2 * n :]
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


def classify(model: SvmModel, x: TropicalPoint, tol: float = SEP_TOL) -> int:
    """0 if the class-P designated coordinate of x + omega wins (ties to 0)."""
    if x.dim != model.omega.dim:
        raise ValueError("dimension mismatch")
    vals = x.as_array() + model.omega.as_array()
    return 0 if vals[model.assignment.ip] >= vals[model.assignment.iq] - tol else 1


def training_accuracy(model: SvmModel, sample: LabeledSample) -> float:
    hits = sum(
        1
        for p, label in zip(sample.points, sample.labels)
        if classify(model, p) == label
    )
    return hits / len(sample.points)


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
