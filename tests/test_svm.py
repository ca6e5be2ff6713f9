"""Tropical SVM training, classification, and model serialization."""

import functools

import numpy as np
import pytest

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
from tropstat.solver import INFEASIBLE, OPTIMAL, LinearProgram, solve_lp
from tropstat.svm import (
    ROUND_TOL,
    SEP_TOL,
    _assignment_array,
    _labels,
    _margin_bounds,
    _svm_lp,
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


SAMPLES = {
    "separable": separable_sample,
    "criterion8": lambda: separable_sample(10),
    "flipped": lambda: flipped(separable_sample(4)),
    "tied": lambda: tied(separable_sample(3)),
}


@functools.lru_cache(maxsize=None)
def every_lp(name, C):
    """A named sample and the solution of every assignment's LP, in
    enumeration order."""
    sample = SAMPLES[name]()
    X = np.array([p.coords for p in sample.points])
    return sample, [solve_lp(_svm_lp(X, sample.labels, asg, C))
                    for asg in reference_assignments(sample.dim)]


def reference_train(sample, solutions, tol=SEP_TOL):
    """The unpruned loop that _train replaced, over every LP's solution."""
    best = None
    for asg, sol in zip(reference_assignments(sample.dim), solutions):
        if sol.status != OPTIMAL:
            continue
        obj = 0.0 - sol.objective_value
        if best is None or obj > best[0] + tol:
            best = (obj, asg, sol.x)
    return best


def reference_hard_lp(sample, asg):
    """The row-by-row hard-margin builder that _svm_lp replaced."""
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
    """The row-by-row soft-margin builder that _svm_lp replaced."""
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
    @pytest.mark.parametrize("C", [None, 10.0])
    def test_matches_row_by_row_reference(self, C):
        sample = separable_sample()
        X = np.array([p.coords for p in sample.points])
        n_assignments = 0
        for asg in reference_assignments(sample.dim):
            ref = (reference_hard_lp(sample, asg) if C is None
                   else reference_soft_lp(sample, asg, C))
            assert lp_bytes(_svm_lp(X, sample.labels, asg, C)) == lp_bytes(ref)
            n_assignments += 1
        assert n_assignments == 750


class TestPruning:
    @staticmethod
    def bounds(sample, C):
        X = np.array([p.coords for p in sample.points])
        return _margin_bounds(X, sample.labels, _assignment_array(sample.dim), C)

    @pytest.mark.parametrize("name, C", [
        (name, C) for name in ("separable", "flipped") for C in (None, 1.0, 10.0, 1e6)
    ] + [("criterion8", None)])
    def test_bound_holds(self, name, C):
        sample, solutions = every_lp(name, C)
        X = np.array([p.coords for p in sample.points])
        allowance = ROUND_TOL * (1.0 + np.ptp(X))
        U = self.bounds(sample, C)
        opt = [k for k, sol in enumerate(solutions) if sol.status == OPTIMAL]
        assert opt
        for k in opt:
            assert U[k] >= -solutions[k].objective_value - allowance

    @pytest.mark.parametrize("name", ["separable", "flipped", "criterion8", "tied"])
    def test_hard_bound_is_exact(self, name):
        sample, solutions = every_lp(name, None)
        U = self.bounds(sample, None)
        for u, sol in zip(U, solutions):
            assert (u == -np.inf) == (sol.status == INFEASIBLE)
            if sol.status == OPTIMAL:
                assert abs(u + sol.objective_value) <= 1e-12

    @pytest.mark.parametrize("e", [3, 4, 6, 10])
    def test_assignment_order(self, e):
        assert [SectorAssignment(*r) for r in _assignment_array(e).tolist()] == list(
            reference_assignments(e))

    def test_small_C_gives_no_bound(self):
        assert (self.bounds(separable_sample(3), 0.4) == np.inf).all()

    @pytest.mark.parametrize("name, C", [
        (name, C) for name in ("separable", "flipped", "tied")
        for C in (None, 1.0, 10.0, 1e6)
    ] + [("tied", 0.4)])
    def test_matches_unpruned_reference(self, name, C):
        sample, solutions = every_lp(name, C)
        ref = reference_train(sample, solutions)
        got = _train(sample, C, SEP_TOL)
        if ref is None:
            assert got is None
            return
        assert (got[0], got[1], got[2].tobytes()) == (ref[0], ref[1], ref[2].tobytes())

    def test_few_lps_solved(self, monkeypatch):
        calls = []
        monkeypatch.setattr(svm, "solve_lp", lambda lp: calls.append(lp) or solve_lp(lp))
        train_hard(separable_sample())
        assert 1 <= len(calls) <= 40  # of 750


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
