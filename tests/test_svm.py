"""Tropical SVM training, classification, and model serialization."""

import functools

import numpy as np
import pytest
import scipy.optimize as scipy_opt

from dense_simplex import LinearProgram, solve_lp, svm_lp
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
    _bounded_simplex,
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


SAMPLES = {
    "separable": separable_sample,
    "criterion8": lambda: separable_sample(10),
    "flipped": lambda: flipped(separable_sample(4)),
    "tied": lambda: tied(separable_sample(3)),
}


def highs(lp):
    """(status, maximum) of a full assignment LP by scipy HiGHS; the
    maximum is None unless the status is OPTIMAL, and HiGHS's own status
    4 (numerical difficulties) is returned as 4."""
    n = lp.n_vars()
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


def reference_train(sample, C, tol=SEP_TOL):
    """The unpruned loop that _train replaced: every assignment's LP is
    solved."""
    X = np.array([p.coords for p in sample.points])
    best = None
    for asg in reference_assignments(sample.dim):
        status, obj, x = _solve_assignment(X, sample.labels, asg, C)
        if status == OPTIMAL and (best is None or obj > best[0] + tol):
            best = (obj, asg, x)
    return best


def meets_every_row(lp, x):
    """x meets every row of the full LP and every sign constraint, within
    round-off of the data."""
    tol = ROUND_TOL * (1.0 + np.abs(lp.b_ub).max())
    return bool((lp.A_ub @ x <= lp.b_ub + tol).all() and (x[lp.n_free:] >= 0.0).all())


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
    @pytest.mark.parametrize("C", [None, 10.0])
    def test_matches_row_by_row_reference(self, C):
        """Every assignment of the 5+5 fixture: the rows match the
        row-by-row LP bit for bit, the status and value match HiGHS on it,
        and the recovered point meets each of its rows."""
        sample = separable_sample()
        X = np.array([p.coords for p in sample.points])
        statuses = []
        for asg in reference_assignments(sample.dim):
            ref = full_lp(sample, asg, C)
            assert lp_bytes(svm_lp(X, sample.labels, asg, C)) == lp_bytes(ref)
            status, value, x = _solve_assignment(X, sample.labels, asg, C)
            want, best = highs(ref)
            assert status == want
            if status == OPTIMAL:
                assert abs(value - best) <= 1e-9 * (1.0 + abs(best))
                assert meets_every_row(ref, x)
                assert np.dot(-np.asarray(ref.objective), x) == pytest.approx(value, abs=1e-12)
            statuses.append(status)
        assert len(statuses) == 750 and OPTIMAL in statuses

    @pytest.mark.parametrize("C", [None, 0.4, 10.0])
    def test_matches_dense_reference(self, C):
        """The tied 3+3 sample, whose LPs have many degenerate vertices:
        every assignment's status and value match the dense reference
        simplex on the full LP."""
        sample = tied(separable_sample(3))
        X = np.array([p.coords for p in sample.points])
        for asg in reference_assignments(sample.dim):
            status, value, _ = _solve_assignment(X, sample.labels, asg, C)
            ref = solve_lp(svm_lp(X, sample.labels, asg, C))
            assert status == ref.status
            if status == OPTIMAL:
                assert value == pytest.approx(-ref.objective_value, rel=1e-9, abs=1e-12)

    def test_solves_the_lp_on_which_the_dense_simplex_cycles(self):
        # assignment 5 at C = 1e100 on the CLI's 5+5 training file: Bland's
        # rule on the dense tableau revisits a basis (tests/test_solver.py)
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
        return _margin_bounds(X, sample.labels, _assignment_array(sample.dim), C)

    @pytest.mark.parametrize("name, C", [
        (name, C) for name in ("separable", "flipped") for C in (None, 1.0, 10.0, 1e6)
    ] + [("criterion8", None)])
    def test_bound_holds(self, name, C):
        sample, solutions = every_lp(name, C)
        X = np.array([p.coords for p in sample.points])
        allowance = ROUND_TOL * (1.0 + np.ptp(X))
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
        (name, C) for name in ("separable", "flipped", "tied")
        for C in (None, 1.0, 10.0, 1e6)
    ] + [("tied", 0.4)])
    def test_matches_unpruned_reference(self, name, C):
        sample = SAMPLES[name]()
        ref = reference_train(sample, C)
        got = _train(sample, C, SEP_TOL)
        if ref is None:
            assert got is None
            return
        assert (got[0], got[1], got[2].tobytes()) == (ref[0], ref[1], ref[2].tobytes())

    def test_few_lps_solved(self, monkeypatch):
        calls = []
        solve = svm._solve_assignment
        monkeypatch.setattr(svm, "_solve_assignment",
                            lambda *args: calls.append(args) or solve(*args))
        train_hard(separable_sample())
        assert 1 <= len(calls) <= 40  # of 750


def random_bounded_lp(rng):
    """A small LP min c @ y, A @ y = b, 0 <= y <= upper with integer data,
    so ties and degenerate vertices are common; some upper bounds are
    inf, and b is 0 on about half of the rows."""
    m, n = int(rng.integers(1, 5)), int(rng.integers(2, 9))
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    b = rng.integers(-3, 4, size=m) * (rng.random(m) < 0.5)
    c = rng.integers(-3, 4, size=n).astype(float)
    upper = np.where(rng.random(n) < 0.4, np.inf, rng.integers(0, 4, size=n))
    return A, b.astype(float), c, upper


def linprog_eq(A, b, c, upper):
    res = scipy_opt.linprog(c, A_eq=A, b_eq=b, bounds=[(0.0, None if u == np.inf else u)
                                                       for u in upper], method="highs")
    return {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[res.status], res.fun


class TestBoundedSimplex:
    def test_matches_linprog(self):
        rng = np.random.default_rng(11)
        seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for _ in range(600):
            A, b, c, upper = random_bounded_lp(rng)
            status, y, pi, at_upper = _bounded_simplex(A, b, c, upper)
            want, value = linprog_eq(A, b, c, upper)
            assert status == want
            seen[status] += 1
            if status != OPTIMAL:
                continue
            assert c @ y == pytest.approx(value, abs=1e-9)
            assert np.abs(A @ y - b).max() <= 1e-9
            assert (y >= -1e-12).all() and (y <= upper + 1e-12).all()
            assert (y[at_upper] == upper[at_upper]).all()
            # the multipliers certify the optimum: no column can improve it
            d = c - pi @ A
            assert (d[~at_upper & (y < upper)] >= -1e-9).all()
            assert (d[at_upper] <= 1e-9).all()
            assert pi @ b == pytest.approx(value - upper[at_upper] @ d[at_upper], abs=1e-9)
        assert min(seen.values()) >= 50, seen

    def test_degenerate_vertex(self):
        # every vertex of this LP is y = 0, and many bases represent it
        A = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
        status, y, pi, _ = _bounded_simplex(A, np.zeros(2), np.array([-1.0, 1.0, 1.0, 1.0]),
                                            np.full(4, np.inf))
        assert status == OPTIMAL and (y == 0.0).all()
        assert (np.array([-1.0, 1.0, 1.0, 1.0]) - pi @ A >= -1e-12).all()

    def test_bound_flip(self):
        # the cheapest column flips to its upper bound without a basis change
        A = np.array([[1.0, 1.0, 1.0]])
        status, y, _, at_upper = _bounded_simplex(A, np.array([3.0]), np.array([-2.0, -1.0, 0.0]),
                                                  np.array([1.0, 1.0, 5.0]))
        assert status == OPTIMAL and y.tolist() == [1.0, 1.0, 1.0]
        assert at_upper.tolist() == [True, True, False]

    @pytest.mark.parametrize("A, b, c, upper, status", [
        # y0 - y1 = 1 and y0 + y1 = -1 have no nonnegative solution
        ([[1.0, -1.0], [1.0, 1.0]], [1.0, -1.0], [1.0, 1.0], [np.inf, np.inf], INFEASIBLE),
        ([[1.0, -1.0]], [0.0], [-1.0, 0.0], [np.inf, np.inf], UNBOUNDED),
        ([[1.0, -1.0]], [0.0], [-1.0, 0.0], [2.0, np.inf], OPTIMAL),
    ])
    def test_statuses(self, A, b, c, upper, status):
        got = _bounded_simplex(np.array(A), np.array(b), np.array(c), np.array(upper))
        assert got[0] == status


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
