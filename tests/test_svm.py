"""Tropical SVM training, classification, and model serialization."""

import functools
from typing import NamedTuple, Sequence

import numpy as np
import pytest
import scipy.optimize as scipy_opt

from tropstat import (
    LabeledSample,
    NotSeparableError,
    SectorAssignment,
    SimConfig,
    TropicalPoint,
    classify,
    distance_to_hyperplane,
    make_two_class_sample,
    train_hard,
    train_soft,
)
from tropstat import svm
from tropstat.svm import (
    INFEASIBLE,
    OPTIMAL,
    ROUND_TOL,
    SEP_TOL,
    UNBOUNDED,
    _assignment_array,
    _assignment_rows,
    _flow,
    _labels,
    _margin_bounds,
    _solve_assignment,
    _train,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    training_accuracy,
)


def separable_sample(n_per_class=5, seed_a=2, seed_b=102):
    two = make_two_class_sample(
        SimConfig(4, 1.0, seed_a, n_per_class),
        SimConfig(4, 1.0, seed_b, n_per_class),
        separation=1.0,
    )
    points = tuple(TropicalPoint(u.values) for u in two.ultrametrics)
    return LabeledSample(points, tuple(two.labels))


def reference_assignments(e):
    """The nested loops that _assignment_array replaced."""
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


def flipped(sample, k=0):
    labels = list(sample.labels)
    labels[k] = 1 - labels[k]
    return LabeledSample(sample.points, tuple(labels))


def tied(sample, step=0.25):
    """The sample rounded to a coarse grid, so differences tie often."""
    return LabeledSample(
        tuple(TropicalPoint(tuple(np.round(np.array(p.coords) / step) * step))
              for p in sample.points),
        sample.labels,
    )


def scaled(sample, c):
    return LabeledSample(tuple(TropicalPoint(tuple(c * np.array(p.coords))) for p in sample.points),
                         sample.labels)


SAMPLES = {
    "separable": separable_sample,
    "criterion8": lambda: separable_sample(10),
    "flipped": lambda: flipped(separable_sample(4)),
    "tied": lambda: tied(separable_sample(3)),
    "tiny": lambda: scaled(separable_sample(), 2.0**-24),
}


def penalty(C):
    """The trainer's penalty for a test's C: None, the hard margin, is
    C = inf."""
    return np.inf if C is None else C


class LinearProgram(NamedTuple):
    """Minimize objective @ x subject to A_ub @ x <= b_ub, with x[:n_free]
    free and x[n_free:] >= 0.  A maximum is written as the minimum of the
    negated objective."""

    objective: Sequence[float]
    A_ub: np.ndarray
    b_ub: np.ndarray
    n_free: int


def svm_lp(X, labels, asg, C=None):
    """The full separation LP of one assignment, from the program's own
    rows (svm._assignment_rows): max z, or z - C * total slack, as the
    minimum of its negation.

    Variables are omega_0..omega_{e-1} and z, free, then (soft mode) one
    nonnegative slack per row, ordered alpha (margin rows), beta (sector
    rows), gamma; the rows are point-major.
    """
    plus, minus, rhs = _assignment_rows(X, labels, asg)
    n, e = X.shape
    m = n * e
    rows = np.zeros((m, e + 1))
    rows[np.arange(m), plus.ravel()] = 1.0
    rows[np.arange(m), minus.ravel()] = -1.0
    rows[::e, e] = 1.0
    objective = np.zeros(e + 1)
    objective[e] = -1.0
    if C is not None:
        slack = np.column_stack([np.arange(n), n + np.arange(n),
                                 2 * n + np.arange(n * (e - 2)).reshape(n, e - 2)])
        S = np.zeros((m, m))
        S[np.arange(m), slack.ravel()] = -1.0
        rows = np.hstack([rows, S])
        objective = np.concatenate([objective, np.full(m, C)])
    return LinearProgram(objective, rows, rhs.ravel(), n_free=e + 1)


def highs(lp):
    """(status, maximum) of a full assignment LP by scipy HiGHS; the
    maximum is None unless the status is OPTIMAL, and HiGHS's own status
    4 (numerical difficulties) is returned as 4."""
    n = len(lp.objective)
    res = scipy_opt.linprog(
        lp.objective, A_ub=lp.A_ub, b_ub=lp.b_ub,
        bounds=[(None, None)] * lp.n_free + [(0.0, None)] * (n - lp.n_free),
        method="highs",
    )
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, res.status)
    return status, (-res.fun if status == OPTIMAL else None)


def full_lp(sample, asg, C):
    return reference_hard_lp(sample, asg) if C is None else reference_soft_lp(sample, asg, C)


@functools.lru_cache(maxsize=None)
def every_lp(name, C):
    """A named sample and HiGHS's (status, maximum) of every assignment's
    full LP, in enumeration order."""
    sample = SAMPLES[name]()
    return sample, [highs(full_lp(sample, asg, C)) for asg in reference_assignments(sample.dim)]


def reference_train(sample, C):
    """The unpruned loop that _train replaced: every assignment's LP is
    solved, and a later one wins by more than SEP_TOL times the largest
    coordinate range of one point."""
    X = np.array([p.coords for p in sample.points])
    tol = SEP_TOL * np.ptp(X, axis=1).max()
    best = None
    for asg in reference_assignments(sample.dim):
        status, obj, x = _solve_assignment(X, sample.labels, asg, penalty(C))
        if status == OPTIMAL and (best is None or obj > best[0] + tol):
            best = (obj, asg, x)
    return best


def meets_every_row(lp, x):
    """x meets every row of the full LP and every sign constraint, within
    round-off of the right-hand sides.  x always carries a slack per row,
    so past a hard LP's variables it must be 0."""
    n = lp.A_ub.shape[1]
    tol = ROUND_TOL * np.abs(lp.b_ub).max()
    return bool((lp.A_ub @ x[:n] <= lp.b_ub + tol).all() and (x[lp.n_free:] >= 0.0).all()
                and (x[n:] == 0.0).all())


def reference_hard_lp(sample, asg):
    """The hard-margin LP, built row by row."""
    e = sample.dim
    nvars = e + 1  # omega_0..omega_{e-1}, z
    objective = [0.0] * e + [-1.0]  # max z as min -z
    rows, rhs = [], []
    for p, label in zip(sample.points, sample.labels):
        xi = p.coords
        i, j = asg.pair_for(label)
        row = [0.0] * nvars
        row[j] += 1.0
        row[i] -= 1.0
        row[e] = 1.0
        rows.append(row)
        rhs.append(xi[i] - xi[j])  # margin
        row = [0.0] * nvars
        row[j] += 1.0
        row[i] -= 1.0
        rows.append(row)
        rhs.append(xi[i] - xi[j])  # sector order
        for l in range(e):
            if l in (i, j):
                continue
            row = [0.0] * nvars
            row[l] += 1.0
            row[j] -= 1.0
            rows.append(row)
            rhs.append(xi[j] - xi[l])  # other coordinates below j
    return LinearProgram(objective, np.array(rows), np.array(rhs), n_free=nvars)


def reference_soft_lp(sample, asg, C):
    """The soft-margin LP, built row by row."""
    e = sample.dim
    n = len(sample.points)
    n_gamma = n * (e - 2)
    nvars = e + 1 + 2 * n + n_gamma
    alpha0 = e + 1
    beta0 = alpha0 + n
    gamma0 = beta0 + n
    objective = [0.0] * e + [-1.0] + [C] * (2 * n + n_gamma)  # min -(z - C * slack)
    rows, rhs = [], []
    g = gamma0
    for idx, (p, label) in enumerate(zip(sample.points, sample.labels)):
        xi = p.coords
        i, j = asg.pair_for(label)
        row = [0.0] * nvars
        row[j] += 1.0
        row[i] -= 1.0
        row[e] = 1.0
        row[alpha0 + idx] = -1.0
        rows.append(row)
        rhs.append(xi[i] - xi[j])
        row = [0.0] * nvars
        row[j] += 1.0
        row[i] -= 1.0
        row[beta0 + idx] = -1.0
        rows.append(row)
        rhs.append(xi[i] - xi[j])
        for l in range(e):
            if l in (i, j):
                continue
            row = [0.0] * nvars
            row[l] += 1.0
            row[j] -= 1.0
            row[g] = -1.0
            rows.append(row)
            rhs.append(xi[j] - xi[l])
            g += 1
    return LinearProgram(objective, np.array(rows), np.array(rhs), n_free=e + 1)


def lp_bytes(lp):
    """Every number of an LP, bit for bit, with its shapes and free count."""
    return (
        np.asarray(lp.objective, dtype=float).tobytes(),
        lp.A_ub.shape,
        lp.A_ub.tobytes(),
        lp.b_ub.tobytes(),
        lp.n_free,
    )


class TestAssignment:
    def test_rejects_equal_primary_secondary(self):
        with pytest.raises(ValueError):
            SectorAssignment(0, 0, 1, 2)

    def test_rejects_shared_primary(self):
        with pytest.raises(ValueError):
            SectorAssignment(0, 1, 0, 2)

    def test_pair_for(self):
        asg = SectorAssignment(0, 1, 2, 3)
        assert asg.pair_for(0) == (0, 1)
        assert asg.pair_for(1) == (2, 3)


class TestSampleValidation:
    def test_labels_must_be_binary(self):
        with pytest.raises(ValueError):
            LabeledSample((TropicalPoint((0, 1, 2)),), (2,))

    def test_lengths_must_align(self):
        with pytest.raises(ValueError):
            LabeledSample((TropicalPoint((0, 1, 2)),), (0, 1))

    def test_single_class_rejected_at_training(self):
        s = LabeledSample(
            (TropicalPoint((0, 1, 2)), TropicalPoint((0, 2, 1))), (0, 0)
        )
        with pytest.raises(ValueError):
            train_hard(s)


class TestBuilder:
    @pytest.mark.parametrize("name, C", [
        ("separable", None), ("separable", 10.0), ("tied", None), ("tied", 0.4), ("tied", 10.0),
    ])
    def test_matches_row_by_row_reference(self, name, C):
        """Every assignment of the 5+5 fixture and of the tied 3+3 sample,
        whose LPs have many degenerate vertices: the rows match the
        row-by-row LP bit for bit, the status and value match HiGHS on it,
        and the recovered point meets each of its rows."""
        sample, solutions = every_lp(name, C)
        X = np.array([p.coords for p in sample.points])
        statuses = []
        for asg, (want, best) in zip(reference_assignments(sample.dim), solutions):
            ref = full_lp(sample, asg, C)
            assert lp_bytes(svm_lp(X, sample.labels, asg, C)) == lp_bytes(ref)
            status, value, x = _solve_assignment(X, sample.labels, asg, penalty(C))
            assert status == want
            if status == OPTIMAL:
                assert value == pytest.approx(best, rel=1e-9, abs=1e-12)
                assert meets_every_row(ref, x)
                objective = -np.asarray(ref.objective)
                assert np.dot(objective, x[:len(objective)]) == pytest.approx(value, abs=1e-12)
            statuses.append(status)
        assert len(statuses) == 750 and OPTIMAL in statuses

    def test_solves_the_lp_on_which_the_dense_simplex_cycles(self):
        # assignment 5 at C = 1e100 on the CLI's 5+5 training file: Bland's
        # rule on the LP's dense tableau revisits a basis through round-off
        two = make_two_class_sample(
            SimConfig(4, 1.0, 2, 5), SimConfig(4, 1.0, 102, 5), separation=1.0
        )
        X = np.array([[float(f"{v:.12g}") for v in u.values] for u in two.ultrametrics])
        asg = SectorAssignment(*_assignment_array(X.shape[1])[5].tolist())
        status, value, x = _solve_assignment(X, two.labels, asg, 1e100)
        assert status == OPTIMAL and value < -1e99
        assert meets_every_row(svm_lp(X, two.labels, asg, 1e100), x)


class TestPruning:
    @staticmethod
    def bounds(sample, C):
        X = np.array([p.coords for p in sample.points])
        return _margin_bounds(X, sample.labels, _assignment_array(sample.dim), penalty(C))

    @pytest.mark.parametrize("name, C", [
        (name, C) for name in ("separable", "flipped") for C in (None, 1.0, 10.0, 1e6)
    ] + [("criterion8", None)])
    def test_bound_holds(self, name, C):
        sample, solutions = every_lp(name, C)
        X = np.array([p.coords for p in sample.points])
        allowance = ROUND_TOL * np.ptp(X, axis=1).max()
        U = self.bounds(sample, C)
        opt = [k for k, (status, _) in enumerate(solutions) if status == OPTIMAL]
        assert opt
        for k in opt:
            assert U[k] >= solutions[k][1] - allowance

    @pytest.mark.parametrize("name", ["separable", "flipped", "criterion8", "tied"])
    def test_hard_bound_is_exact(self, name):
        sample, solutions = every_lp(name, None)
        U = self.bounds(sample, None)
        for u, (status, value) in zip(U, solutions):
            assert (u == -np.inf) == (status == INFEASIBLE)
            if status == OPTIMAL:
                assert abs(u - value) <= 1e-12

    @pytest.mark.parametrize("e", [3, 4, 6, 10])
    def test_assignment_order(self, e):
        assert [SectorAssignment(*r) for r in _assignment_array(e).tolist()] == list(
            reference_assignments(e))

    def test_small_C_gives_no_bound(self):
        assert (self.bounds(separable_sample(3), 0.4) == np.inf).all()

    @pytest.mark.parametrize("name, C", [
        (name, C) for name in ("separable", "flipped", "tied", "tiny")
        for C in (None, 1.0, 10.0, 1e6)
    ] + [("tied", 0.4)])
    def test_matches_unpruned_reference(self, name, C):
        sample = SAMPLES[name]()
        ref = reference_train(sample, C)
        got, _ = _train(sample, penalty(C))
        if ref is None:
            assert got is None
            return
        assert (got[0], got[1], got[2].tobytes()) == (ref[0], ref[1], ref[2].tobytes())

    def test_few_lps_solved(self, monkeypatch):
        calls = []
        solve = svm._solve_assignment
        monkeypatch.setattr(svm, "_solve_assignment",
                            lambda *args: calls.append(args) or solve(*args))
        for train in (train_hard, lambda sample: train_soft(sample, 10.0)):
            calls.clear()
            train(separable_sample())
            assert 1 <= len(calls) <= 3  # of 750


def random_circulation(rng):
    """A small input of svm._flow: k <= 4 key positions and at most 11 arcs
    with integer costs, so ties are common, about 40 % of them margin
    arcs, and one cap of 0.5, 1, 2.5 or inf."""
    k, n = int(rng.integers(2, 5)), int(rng.integers(1, 12))
    tail = rng.integers(0, k, size=n)
    head = (tail + rng.integers(1, k, size=n)) % k
    cost = rng.integers(-3, 4, size=n).astype(float)
    margin = (rng.random(n) < 0.4).astype(float)
    return tail, head, cost, margin, k, float(rng.choice([0.5, 1.0, 2.5, np.inf]))


def circulation_primal(tail, head, cost, margin, k, cap):
    """The LP whose dual _flow solves at target 1: max z - cap * total
    slack subject to omega[head] - omega[tail] + z * margin - slack <=
    cost, over free omega and z and (cap < inf) one slack per arc."""
    n = len(cost)
    rows = np.zeros((n, k + 1))
    np.add.at(rows, (np.arange(n), head), 1.0)
    np.add.at(rows, (np.arange(n), tail), -1.0)
    rows[:, k] = margin
    objective = -np.eye(k + 1)[k]
    if cap < np.inf:
        rows = np.hstack([rows, -np.eye(n)])
        objective = np.concatenate([objective, np.full(n, cap)])
    return LinearProgram(objective, rows, cost, n_free=k + 1)


class TestFlow:
    def test_matches_highs_on_the_primal(self):
        """Status and value against HiGHS on the primal (on the dual, HiGHS
        cannot tell the primal's status where both are infeasible), and
        the flow and multipliers against the optimality conditions."""
        rng = np.random.default_rng(11)
        seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for _ in range(400):
            tail, head, cost, margin, k, cap = random_circulation(rng)
            status, y, omega, z = _flow(tail, head, cost, margin, k, cap, 1.0)
            want, best = highs(circulation_primal(tail, head, cost, margin, k, cap))
            assert status == want
            seen[status] += 1
            if status != OPTIMAL:
                continue
            assert cost @ y == pytest.approx(best, abs=1e-9)
            net = np.zeros(k)
            np.add.at(net, head, y)
            np.add.at(net, tail, -y)
            assert np.abs(net).max() <= 1e-12 and margin @ y == pytest.approx(1.0, abs=1e-12)
            assert (y >= 0.0).all() and (y <= cap).all()
            # an arc below cap costs at least its potential difference, and
            # an arc carrying flow at most
            reduced = cost - (omega[head] - omega[tail] + z * margin)
            assert (reduced[y < cap] >= -1e-9).all() and (reduced[y > 0.0] <= 1e-9).all()
            assert omega[0] == 0.0
        assert min(seen.values()) >= 30, seen


class TestHardMargin:
    def test_separable_fixture(self):
        sample = separable_sample()
        model = train_hard(sample)
        assert model.margin > 0.0
        assert training_accuracy(model, sample) == 1.0

    def test_margin_certificate(self):
        sample = separable_sample()
        model = train_hard(sample)
        H = model.hyperplane()
        min_dist = min(distance_to_hyperplane(p, H) for p in sample.points)
        assert min_dist >= model.margin - 1e-6

    def test_duplicate_point_not_separable(self):
        p = TropicalPoint((0.0, 1.0, 2.0))
        sample = LabeledSample((p, p), (0, 1))
        with pytest.raises(NotSeparableError):
            train_hard(sample)

    def test_deterministic(self):
        sample = separable_sample()
        a = train_hard(sample)
        b = train_hard(sample)
        assert a.omega.coords == b.omega.coords
        assert a.assignment == b.assignment


class TestSoftMargin:
    def test_large_c_reproduces_hard_labels(self):
        sample = separable_sample()
        hard = train_hard(sample)
        soft = train_soft(sample, C=1e6)
        for p in sample.points:
            assert classify(soft, p) == classify(hard, p)
        assert soft.slack_summary["alpha"] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("seeds", [(1, 101), (2, 102), (3, 103), (10, 110)])
    def test_huge_C_reproduces_hard_margin(self, seeds):
        # HiGHS reports numerical difficulties on these LPs, and flows of C
        # near the float range overflow unless counted in units of C
        sample = separable_sample(5, *seeds)
        hard = train_hard(sample)
        for C in (1e30, 1e100, 1e300, 1e307, 1e308, 1.7e308):
            soft = train_soft(sample, C)
            assert soft.assignment == hard.assignment
            assert soft.margin == pytest.approx(hard.margin, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_optimum_nonincreasing_in_C(self, seed):
        # no sector assignment separates these points; -inf is an optimum
        # below the float range
        X = np.random.default_rng(seed).normal(size=(10, 4))
        sample = LabeledSample(tuple(TropicalPoint(tuple(r)) for r in X.tolist()), (0, 1) * 5)
        objectives = [train_soft(sample, C).objective
                      for C in (0.5, 1.0, 10.0, 1e6, 1e30, 1e100, 1e300, 1e308, 1.7e308)]
        assert objectives[0] < 0.0
        assert all(a >= b for a, b in zip(objectives, objectives[1:]))

    def test_mislabeled_point_stays_feasible(self):
        sample = separable_sample()
        labels = list(sample.labels)
        labels[0] = 1 - labels[0]
        noisy = LabeledSample(sample.points, tuple(labels))
        model = train_soft(noisy, C=10.0)
        assert training_accuracy(model, noisy) >= (len(labels) - 1) / len(labels)

    def test_negative_c_rejected(self):
        with pytest.raises(ValueError):
            train_soft(separable_sample(2), C=-1.0)

    def test_slack_summary_nonnegative(self):
        sample = separable_sample(3)
        model = train_soft(sample, C=5.0)
        assert all(v >= -1e-9 for v in model.slack_summary.values())

    def test_zero_optimum_is_positive_zero(self):
        # the classes touch, so the best objective is exactly 0; it is the
        # negated minimum of the LP, and a plain negation would give -0.0
        X = [(-1.0, 2.0, 0.0), (0.0, -1.0, -2.0), (0.0, 1.0, 0.0), (1.0, -1.0, 1.0)]
        sample = LabeledSample(tuple(map(TropicalPoint, X)), (0, 0, 1, 1))
        assert repr(train_soft(sample, C=10.0).objective) == "0.0"


class TestClassify:
    def test_round_trip_serialization(self, tmp_path):
        sample = separable_sample(3)
        model = train_hard(sample)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert loaded.omega.close_to(model.omega)
        assert loaded.assignment == model.assignment
        for p in sample.points:
            assert classify(loaded, p) == classify(model, p)

    def test_dict_round_trip(self):
        sample = separable_sample(3)
        model = train_hard(sample)
        again = model_from_dict(model_to_dict(model))
        assert again.margin == pytest.approx(model.margin)

    def test_soft_dict_round_trip(self):
        model = train_soft(separable_sample(3), C=10.0)
        again = model_from_dict(model_to_dict(model))
        assert (again.mode, again.C, again.margin) == ("SOFT", 10.0, model.margin)

    @pytest.mark.parametrize("changes, message", [
        ({"mode": "bogus"}, "mode must be"),
        ({"mode": "hard"}, "mode must be"),
        ({"C": 1.0}, "has no C"),
        ({"mode": "SOFT"}, "C must be"),
        ({"mode": "SOFT", "C": "x"}, "C must be"),
        ({"mode": "SOFT", "C": True}, "C must be"),
        ({"mode": "SOFT", "C": 0}, "C must be"),
        ({"mode": "SOFT", "C": float("inf")}, "C must be"),
        ({"margin": float("nan")}, "margin must be"),
        ({"margin": float("inf")}, "margin must be"),
        ({"margin": False}, "margin must be"),
        ({"margin": "0.5"}, "margin must be"),
        ({"omega": "012"}, "omega must be"),
        ({"omega": ["0", "1", "2"]}, "omega must be"),
        ({"omega": [True, False, 1]}, "omega must be"),
    ])
    def test_dict_rejects_what_train_cannot_write(self, changes, message):
        data = model_to_dict(train_hard(separable_sample(3)))
        data.update(changes)
        with pytest.raises(ValueError, match=message):
            model_from_dict(data)

    def test_labels_match_per_point_reference(self):
        """The matrix kernel against the per-point rule it replaced, with
        rows placed exactly on and next to the decision boundary."""
        sample = separable_sample(3)
        model = train_hard(sample)
        w = np.array(model.omega.coords)
        ip, iq = model.assignment.ip, model.assignment.iq
        rng = np.random.default_rng(5)
        X = rng.uniform(0.0, 2.0, size=(400, sample.dim))
        X[:100, ip] = X[:100, iq] + w[iq] - w[ip] + rng.choice([-2, -1, 0], 100) * SEP_TOL
        ref = []
        for x in X.tolist():
            vals = np.array(x) + w
            ref.append(0 if vals[ip] >= vals[iq] - SEP_TOL else 1)
        assert _labels(model, X).tolist() == ref
        assert [classify(model, TropicalPoint(tuple(x))) for x in X.tolist()] == ref
        assert {0, 1} <= set(ref[:100])
        hits = sum(classify(model, p) == l for p, l in zip(sample.points, sample.labels))
        assert training_accuracy(model, sample) == hits / len(sample.points)

    def test_dimension_mismatch(self):
        sample = separable_sample(2)
        model = train_hard(sample)
        with pytest.raises(ValueError):
            classify(model, TropicalPoint((0.0, 1.0)))


def gaussian_halves():
    """A Gaussian 10 x 4 sample, the first half class 0."""
    X = np.random.default_rng(4).normal(size=(10, 4))
    return LabeledSample(tuple(TropicalPoint(tuple(r)) for r in X.tolist()), (0,) * 5 + (1,) * 5)


def fits(sample):
    """The hard fit and the fits at C = 10, 1 and 0.4 of a sample, each as
    its assignment and its omega, margin and objective, or
    NotSeparableError.  At C = 1 the optimal margin can be an interval, and
    below 1 the margin unit crosses several rows."""
    out = []
    for train in (train_hard, *(lambda s, C=C: train_soft(s, C) for C in (10.0, 1.0, 0.4))):
        try:
            m = train(sample)
        except NotSeparableError:
            out.append(NotSeparableError)
            continue
        out.append((m.assignment, np.array(m.omega.coords), m.margin, m.objective))
    return out


class TestUnitFree:
    UNIT_SAMPLES = {"separable": separable_sample, "gaussian": gaussian_halves}

    @pytest.mark.parametrize("name", UNIT_SAMPLES)
    def test_power_of_two_scaling(self, name):
        # d(cx, cy) = c d(x, y), and every training threshold is a ratio of
        # the sample's spread: at c = 2^k the same assignment wins, and
        # omega, the margin and the objective scale by c bit for bit
        sample = self.UNIT_SAMPLES[name]()
        unit, moved = fits(sample), []
        for k in (-30, -20, -10, 10, 30):
            c = 2.0**k
            for mode, a, b in zip(("hard", 10.0, 1.0, 0.4), unit, fits(scaled(sample, c))):
                if a is NotSeparableError or b is NotSeparableError:
                    same = a is b
                else:
                    same = (a[0] == b[0] and (c * a[1]).tobytes() == b[1].tobytes()
                            and (c * a[2], c * a[3]) == (b[2], b[3]))
                if not same:
                    moved.append((mode, k))
        assert moved == []

    @pytest.mark.parametrize("name", UNIT_SAMPLES)
    def test_other_representatives(self, name):
        # the LP's right-hand sides are differences within one point, so
        # another representative of a point changes nothing but round-off,
        # even where the shift dwarfs the sample
        sample = scaled(self.UNIT_SAMPLES[name](), 2.0**-30)
        points = list(sample.points)
        points[0], points[3] = points[0].shifted(3.0), points[3].shifted(-5.0)
        shifted = LabeledSample(tuple(points), sample.labels)
        for a, b in zip(fits(sample), fits(shifted)):
            if a is NotSeparableError or b is NotSeparableError:
                assert a is b
                continue
            assert a[0] == b[0]
            assert b[2] == pytest.approx(a[2], rel=1e-6)
            assert b[3] == pytest.approx(a[3], rel=1e-6)
