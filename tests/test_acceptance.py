"""Acceptance gate: one test (one pass/fail line under pytest -v) per criterion.

Each test states its tolerance inline and prints a CRITERION summary line on
success; a failing assertion marks the criterion failed.
"""

import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest

from tropstat import (
    LabeledSample,
    SimConfig,
    TropicalPoint,
    TropicalPolytope,
    check_ultrametric_cells,
    check_ultrametric_closure,
    classify,
    cophenetic,
    distance_to_hyperplane,
    exhaustive_principal_polytope,
    fermat_weber,
    fit_principal_polytope,
    frechet_mean,
    frechet_objective,
    fw_objective,
    make_two_class_sample,
    parse_newick,
    project_onto_polytope,
    serialize_newick,
    simulate_equidistant,
    three_point_check,
    topology_id,
    train_hard,
    train_soft,
    trop_add,
    trop_combine,
    trop_distance,
    trop_mul,
    trop_segment,
    tropical_combination,
    ultrametric_to_tree,
)
from tropstat.svm import training_accuracy
from conftest import (
    FIG_LEFT_NEWICK,
    FIG_LEFT_VECTOR,
    FIG_RIGHT_NEWICK,
    FIG_RIGHT_VECTOR,
    grid_minimum,
    lattice_points_3d,
    ultrametric_points,
)


def report(n, message):
    print(f"CRITERION {n}: PASS - {message}")


def test_criterion_1_worked_examples():
    """Arithmetic and metric reference values, exact to 1e-12, under 1s."""
    t0 = time.perf_counter()
    assert abs(trop_add(1.0, -3.0) - 1.0) <= 1e-12
    assert abs(trop_mul(1.0, -3.0) - (-2.0)) <= 1e-12
    v = TropicalPoint((2.0, 3.0, 4.0))
    got = trop_combine(0.0, v, float("-inf"), v)
    assert max(abs(a - b) for a, b in zip(got.coords, (0.0, 1.0, 2.0))) <= 1e-12
    d = trop_distance(TropicalPoint((0, 0, 0)), TropicalPoint((0, 3, 1)))
    assert abs(d - 3.0) <= 1e-12
    seg = trop_segment(TropicalPoint((0, 0, 0)), TropicalPoint((0, 3, 1)))
    expect = [(0.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 3.0, 1.0)]
    assert [bp.coords for bp in seg.breakpoints] == expect
    assert abs(seg.length() - 3.0) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"worked examples exact to 1e-12 in {elapsed:.3f}s")


def test_criterion_2_tree_fixtures():
    """Reference cophenetic vectors and round-trip fixpoints at 1e-9."""
    for newick, vector in (
        (FIG_LEFT_NEWICK, FIG_LEFT_VECTOR),
        (FIG_RIGHT_NEWICK, FIG_RIGHT_VECTOR),
    ):
        tree = parse_newick(newick)
        u = cophenetic(tree)
        assert max(abs(a - b) for a, b in zip(u.values, vector)) <= 1e-12
        assert three_point_check(u)
        again = cophenetic(ultrametric_to_tree(u))
        assert max(abs(a - b) for a, b in zip(again.values, u.values)) <= 1e-9
        assert serialize_newick(ultrametric_to_tree(again)) == serialize_newick(
            ultrametric_to_tree(u)
        )
    report(2, "both reference vectors reproduced; round trips fixpoints at 1e-9")


def test_criterion_3_topology_count():
    """5000 seed-7 N=4 trees hit exactly the 15 enumerated topologies, <10s."""
    t0 = time.perf_counter()
    trees = simulate_equidistant(SimConfig(4, 1.0, 7, 5000))
    seen = {topology_id(t) for t in trees}
    # enumeration oracle: every rooted binary shape on leaves t1..t4
    labels = ["t1", "t2", "t3", "t4"]
    oracle = set()
    for cherry in combinations(labels, 2):
        rest = [l for l in labels if l not in cherry]
        # balanced: ((cherry),(rest)), children sorted as strings
        kids = sorted([
            "({},{})".format(*sorted(cherry)),
            "({},{})".format(*sorted(rest)),
        ])
        oracle.add(f"({kids[0]},{kids[1]})")
        # caterpillars: cherry joined by one of the remaining leaves first
        for nxt in rest:
            last = [l for l in rest if l != nxt][0]
            inner = "(({},{}),{})".format(*sorted(cherry), nxt)
            oracle.add(f"({inner},{last})")
    assert len(oracle) == 15
    assert seen == oracle
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, f"15 of 15 topologies in {elapsed:.2f}s")


def test_criterion_4_fermat_weber():
    """FW vs grid oracle within 1e-3 (50 samples); closure at 1e-6 (100); <60s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    for _ in range(50):
        sample = lattice_points_3d(rng, int(rng.integers(2, 11)))
        res = fermat_weber(sample)
        oracle = grid_minimum(sample, lambda d: d, lo=-4, hi=4)
        assert abs(res.objective - oracle) <= 1e-3
    checked = 0
    seed = 0
    while checked < 100:
        n_leaves = 4 if checked % 2 == 0 else 5
        sample = ultrametric_points(n_leaves, 1000 + seed, int(3 + seed % 3))
        seed += 1
        res = fermat_weber(sample)
        assert check_ultrametric_closure(res, n_leaves, tol=1e-6), (
            f"closure failed at seed {999 + seed}"
        )
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, f"50 grid matches at 1e-3, 100 closures at 1e-6, {elapsed:.1f}s")


def test_criterion_5_frechet():
    """Frechet descent within 1e-3 of the grid oracle; never beaten by samples."""
    rng = np.random.default_rng(4321)
    for _ in range(50):
        sample = lattice_points_3d(rng, int(rng.integers(2, 11)))
        res = frechet_mean(sample)
        oracle = grid_minimum(sample, lambda d: d * d, lo=-4, hi=4)
        assert res.objective <= oracle + 1e-3
        for p in sample:
            assert res.objective <= frechet_objective(p, sample) + 1e-9
    report(5, "50 grid matches at 1e-3; mean never beaten by a sample point")


def test_criterion_6_projection():
    """Idempotence at 1e-12; minimality vs 1e4 samples at 1e-9; cell closure."""
    rng = np.random.default_rng(99)
    for _ in range(20):
        dim = int(rng.integers(3, 6))
        k = int(rng.integers(1, 5))
        P = TropicalPolytope(
            tuple(TropicalPoint(tuple(rng.normal(size=dim))) for _ in range(k))
        )
        x = TropicalPoint(tuple(rng.normal(size=dim)))
        pi = project_onto_polytope(x, P)
        assert trop_distance(pi, project_onto_polytope(pi, P)) <= 1e-12
        d_star = trop_distance(x, pi)
        lams = rng.uniform(-20.0, 20.0, size=(500, k))
        for lam in lams:
            z = tropical_combination(lam, P)
            assert trop_distance(x, z) >= d_star - 1e-9
    for seed in range(10):
        S = ultrametric_points(4, 300 + seed, 3)
        P = TropicalPolytope(tuple(S))
        assert check_ultrametric_cells(P, trials=1000, seed=seed, tol=1e-9)
    report(6, "idempotent at 1e-12; minimal vs 10^4 samples; 10^4 combos closed")


def test_criterion_7_pca_oracle():
    """Exchange heuristic equals the exhaustive optimum on all |S| <= 8 fixtures."""
    fixtures = [
        (4, 1, 6), (4, 2, 7), (4, 3, 8), (4, 4, 6),
        (5, 11, 7), (5, 12, 7), (5, 13, 8), (5, 14, 6),
    ]
    for n_leaves, seed, count in fixtures:
        S = ultrametric_points(n_leaves, seed, count)
        model = fit_principal_polytope(S, 3)
        _, oracle_obj = exhaustive_principal_polytope(S, 3)
        assert abs(model.objective - oracle_obj) <= 1e-9
        trace = model.trace
        assert all(
            trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1)
        )
    report(7, "heuristic attains the exhaustive optimum on all 8 fixtures")


def test_criterion_8_svm():
    """Hard margin, soft-to-hard limit, and one-mislabel robustness (10+10)."""
    two = make_two_class_sample(
        SimConfig(4, 1.0, 2, 10), SimConfig(4, 1.0, 102, 10), separation=1.0
    )
    points = tuple(TropicalPoint(u.values) for u in two.ultrametrics)
    sample = LabeledSample(points, tuple(two.labels))

    hard = train_hard(sample)
    assert hard.margin > 0.0
    assert training_accuracy(hard, sample) == 1.0
    H = hard.hyperplane()
    min_dist = min(distance_to_hyperplane(p, H) for p in sample.points)
    assert min_dist >= hard.margin - 1e-6

    soft = train_soft(sample, C=1e6)
    assert all(classify(soft, p) == classify(hard, p) for p in sample.points)

    labels = list(sample.labels)
    labels[0] = 1 - labels[0]
    noisy = LabeledSample(sample.points, tuple(labels))
    soft_noisy = train_soft(noisy, C=10.0)
    assert training_accuracy(soft_noisy, noisy) >= 19 / 20
    report(
        8,
        f"hard z*={hard.margin:.4f}, certificate holds at 1e-6, "
        "soft limit and mislabel robustness verified",
    )


def test_criterion_9_determinism(tmp_path):
    """Every seeded CLI command is byte-identical across two runs."""
    u4 = tmp_path / "u4.csv"
    trees = simulate_equidistant(SimConfig(4, 1.0, 3, 6))
    u4.write_text(
        "\n".join(
            ",".join(f"{v:.12g}" for v in cophenetic(t).values) for t in trees
        )
        + "\n"
    )
    c1 = tmp_path / "c1.csv"
    trees1 = simulate_equidistant(SimConfig(4, 1.0, 8, 3))
    c1.write_text(
        "\n".join(
            ",".join(f"{v:.12g}" for v in cophenetic(t).values) for t in trees1
        )
        + "\n"
    )
    reg = tmp_path / "reg.csv"
    reg.write_text("\n".join(f"{x},{max(1.0, 0.5 + x)}" for x in range(5)) + "\n")
    svm = tmp_path / "svm.csv"
    svm.write_text("0,1,2,0\n0,2,1.5,0\n0,-1,-2,1\n0,-2,-1.5,1\n")

    commands = [
        ["--seed", "7", "tree", "simulate", "--n", "4", "--count", "100"],
        ["--seed", "3", "pca", str(u4), "-s", "3"],
        ["--seed", "1", "lda", str(u4), str(c1)],
        ["--seed", "2", "regress", str(reg)],
        ["--seed", "5", "fw", str(u4), "--check-ultrametric", "4"],
        ["tree", "ultra2newick", str(u4)],
        ["tree", "check", str(c1)],
        ["svm", "train", str(svm), "--mode", "soft", "--C", "10"],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "tropstat.cli"] + argv,
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1], f"non-deterministic output for {argv}"
    report(9, f"{len(commands)} seeded commands byte-identical across reruns")
