"""The benchmark's workloads: inputs written at set-up, CLI operations, checks.

Each workload is a builder ``build(rng, workdir) -> list[Op]`` and a checker
``check(ops, results, highs) -> list[str]`` (one message per violated check).  An
operation is one ``tropstat`` command line; a pass runs every operation of
the workload once, in order, each after the previous one finished.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import newick
import oracle

# Fermat-Weber ladder: (leaves N, sample size s, samples per rung).
FW_LADDER = ((4, 5, 2), (4, 10, 4), (4, 20, 2), (5, 3, 4), (5, 5, 1), (6, 2, 1))
# Seed-free samples whose plain LP vertex is not ultrametric today, so that
# the topology-cone refinement runs on every seed: (N, s, generator seed).
FW_REFINE = ((4, 5, 2), (5, 5, 0))

SVM_HARD_PER_CLASS = 5
SVM_SOFT_PER_CLASS = 3
SVM_C = 10.0
PREDICT_POINTS = 20_000

TREE_LEAVES = 20
TREE_COUNT = 150
TREE_BROKEN_EVERY = 10  # every 10th row of the check file breaks a triple
SIM_HEIGHT = 2.5
SIM_COUNT = 150
FRECHET = ((8, 20),) * 3  # (N, s) per operation
PCA = ((5, 15),) * 12  # (N, n) per operation, s = 3 vertices
CATERPILLAR_LEAVES = 1100

TOL = 1e-7


@dataclass
class Op:
    """One CLI invocation and what its checks need to know."""

    name: str
    kind: str  # groups operations for the per-command figures
    argv: list[str]
    items: int = 0  # trees or points the command reads or makes
    out: Path | None = None  # file the command writes
    data: dict = field(default_factory=dict)


@dataclass
class Result:
    seconds: float
    fault: str | None  # None, "exit <code>" or the escaping exception's type
    stdout: str = ""
    out_text: str = ""

    def envelope(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])


def _write_rows(path: Path, rows) -> Path:
    path.write_text("\n".join(",".join(map(repr, r)) for r in np.asarray(rows).tolist()) + "\n")
    return path


# ---------------------------------------------------------------- lp-location


def build_location(rng, work: Path) -> list[Op]:
    ops = []
    samples = []
    for n, s, count in FW_LADDER:
        samples += [(f"fw N={n} s={s} #{k}", n, gen.ultrametric_sample(rng, n, s)) for k in range(count)]
    for n, s, seed in FW_REFINE:
        fixed = np.random.default_rng(seed)
        samples.append((f"fw N={n} s={s} refine", n, gen.ultrametric_sample(fixed, n, s)))
    for k, (name, n, V) in enumerate(samples):
        path = _write_rows(work / f"fw{k}.csv", V)
        ops.append(Op(name, "fw", ["fw", str(path), "--check-ultrametric", str(n)],
                      items=len(V), data={"V": V}))
    return ops


def check_location(ops, results, highs) -> list[str]:
    errors = []
    for op, res in zip(ops, results):
        env = res.envelope()
        V = op.data["V"]
        obj = env["result"]["objective"]
        z = np.array(env["result"]["point"])
        best = highs.fw_optimum(V)
        if abs(obj - best) > TOL:
            errors.append(f"{op.name}: objective {obj!r} != HiGHS {best!r}")
        if abs(oracle.fw_objective(z, V) - obj) > TOL:
            errors.append(f"{op.name}: objective does not match the returned point")
        if not oracle.is_ultrametric(z) or not env["diagnostics"].get("closure"):
            errors.append(f"{op.name}: point fails the three-point condition")
    return errors


# --------------------------------------------------------------------- lp-svm


def build_svm(rng, work: Path) -> list[Op]:
    hard_X, hard_y = gen.separable_sample(rng, SVM_HARD_PER_CLASS)
    soft_X, soft_y = gen.separable_sample(rng, SVM_SOFT_PER_CLASS)
    soft_y = soft_y.copy()
    soft_y[0] = 1 - soft_y[0]  # one flipped label: not separable, soft only
    points = rng.uniform(0.0, 2.0, size=(PREDICT_POINTS, hard_X.shape[1]))
    ops = []
    for mode, X, y in (("hard", hard_X, hard_y), ("soft", soft_X, soft_y)):
        data = _write_rows(work / f"svm-{mode}.csv", np.column_stack([X, y]))
        model = work / f"model-{mode}.json"
        argv = ["svm", "train", str(data), "--mode", mode, "--model-out", str(model)]
        if mode == "soft":
            argv += ["--C", repr(SVM_C)]
        ops.append(Op(f"svm train {mode}", "svm_train", argv, items=len(X), out=model,
                      data={"X": X, "y": y}))
        # the hard model's file starts with its training points
        P = np.vstack([X, points]) if mode == "hard" else points
        pts = _write_rows(work / f"predict-{mode}.csv", P)
        ops.append(Op(f"svm predict {mode}", "svm_predict",
                      ["svm", "predict", str(pts), "--model", str(model)],
                      items=len(P), data={"P": P}))
    return ops


def check_svm(ops, results, highs) -> list[str]:
    errors = []
    by_name = {op.name: (op, res) for op, res in zip(ops, results)}
    for mode in ("hard", "soft"):
        if f"svm train {mode}" not in by_name:
            continue
        op, res = by_name[f"svm train {mode}"]
        env = res.envelope()
        X, y = op.data["X"], op.data["y"]
        model = json.loads(res.out_text)
        omega = np.array(model["omega"])
        if mode == "hard":
            best = highs.svm_best(X, y, None)
            if abs(model["margin"] - best) > TOL:
                errors.append(f"hard margin {model['margin']!r} != HiGHS best {best!r}")
            if oracle.hyperplane_distance(X, omega).min() < model["margin"] - 1e-6:
                errors.append("a training point is closer to the hyperplane than the margin")
        else:
            best = highs.svm_best(X, y, SVM_C)
            if abs(env["diagnostics"]["objective"] - best) > TOL:
                errors.append(f"soft objective {env['diagnostics']['objective']!r} != HiGHS best {best!r}")
        if f"svm predict {mode}" not in by_name:
            continue
        pop, pres = by_name[f"svm predict {mode}"]
        labels = np.array([int(v) for v in pres.stdout.split()])
        want = oracle.classify(pop.data["P"], omega, model["assignment"])
        if not np.array_equal(labels, want):
            errors.append(f"svm predict {mode}: labels differ from the model's sectors")
        if mode == "hard" and not np.array_equal(labels[: len(y)], y):
            errors.append("hard model misclassifies its training sample")
    return errors


# ---------------------------------------------------------- trees-descriptive


def build_trees(rng, work: Path) -> list[Op]:
    trees = [gen.equidistant_tree(rng, TREE_LEAVES) for _ in range(TREE_COUNT)]
    U = np.array([u for _, u in trees])
    nwk = work / "trees.nwk"
    nwk.write_text("\n".join(t for t, _ in trees) + "\n")
    broken = np.zeros(len(U), dtype=bool)
    broken[::TREE_BROKEN_EVERY] = True
    C = np.array([gen.break_triple(u, TREE_LEAVES) if b else u for u, b in zip(U, broken)])
    ucsv, ccsv = _write_rows(work / "ultra.csv", U), _write_rows(work / "check.csv", C)
    cat = work / "caterpillar.nwk"
    cat.write_text(gen.caterpillar_newick(CATERPILLAR_LEAVES) + "\n")
    n = TREE_COUNT
    ops = [
        Op("tree newick2ultra", "tree", ["tree", "newick2ultra", str(nwk), "--out", str(work / "n2u.csv")],
           items=n, out=work / "n2u.csv", data={"U": U}),
        Op("tree check", "tree", ["tree", "check", str(ccsv)], items=n, data={"broken": broken}),
        Op("tree ultra2newick", "tree", ["tree", "ultra2newick", str(ucsv), "--out", str(work / "u2n.nwk")],
           items=n, out=work / "u2n.nwk", data={"U": U}),
        Op("tree simulate", "simulate",
           ["--seed", str(int(rng.integers(1 << 30))), "tree", "simulate", "--n", str(TREE_LEAVES),
            "--count", str(SIM_COUNT), "--height", repr(SIM_HEIGHT), "--out", str(work / "sim.nwk")],
           items=SIM_COUNT, out=work / "sim.nwk"),
    ]
    for k, (leaves, s) in enumerate(FRECHET):
        V = gen.ultrametric_sample(rng, leaves, s)
        path = _write_rows(work / f"frechet{k}.csv", V)
        ops.append(Op(f"frechet N={leaves} s={s} #{k}", "frechet", ["frechet", str(path)], items=s, data={"V": V}))
    for k, (leaves, size) in enumerate(PCA):
        V = gen.ultrametric_sample(rng, leaves, size)
        path = _write_rows(work / f"pca{k}.csv", V)
        ops.append(Op(f"pca N={leaves} n={size} #{k}", "pca", ["pca", str(path), "-s", "3"], items=size, data={"V": V}))
    ops.append(Op(f"tree newick2ultra caterpillar N={CATERPILLAR_LEAVES}", "deep",
                  ["tree", "newick2ultra", str(cat)], items=1))
    return ops


def check_trees(ops, results, highs) -> list[str]:
    errors = []
    for op, res in zip(ops, results):
        if res.fault is not None:
            continue
        if op.name == "tree newick2ultra":
            got = np.array([[float(v) for v in ln.split(",")] for ln in res.out_text.split()])
            if got.shape != op.data["U"].shape or np.abs(got - op.data["U"]).max() > 1e-9:
                errors.append("newick2ultra vectors differ from the generated trees")
        elif op.name == "tree check":
            verdicts = np.array(res.envelope()["result"]["verdicts"])
            if not np.array_equal(verdicts, ~op.data["broken"]):
                errors.append("check verdicts differ from the generator's")
        elif op.name == "tree ultra2newick":
            U = op.data["U"]
            got = np.array([newick.read(t)[1] for t in res.out_text.split()])
            if got.shape != U.shape or np.abs(got - U).max() > 1e-9:
                errors.append("ultra2newick trees do not reproduce their vectors")
            if np.abs(oracle.single_linkage_cophenet(U) - U).max() > 1e-9:
                errors.append("scipy single linkage does not reproduce the vectors")
        elif op.kind == "simulate":
            depths = [newick.read(t)[2] for t in res.out_text.split()]
            if len(depths) != op.items or any(
                len(d) != TREE_LEAVES or np.abs(d - SIM_HEIGHT).max() > 1e-9 for d in depths
            ):
                errors.append("simulated trees are not equidistant at --height")
        elif op.kind == "frechet":
            V = op.data["V"]
            obj = res.envelope()["result"]["objective"]
            starts = np.vstack([V, np.median(V, axis=0)])
            floor = highs.fw_optimum(V) ** 2 / len(V)
            if obj > oracle.frechet_objective(starts, V).min() + TOL or obj < floor - TOL:
                errors.append(f"{op.name}: objective {obj!r} outside [FW*^2/s, best start]")
        elif op.kind == "pca":
            errors += _check_pca(op, res.envelope()["result"])
        elif op.kind == "deep":  # fails today; checked once it parses
            n = CATERPILLAR_LEAVES
            got = np.array([float(v) for v in res.stdout.split(",")])
            want = 2.0 * np.triu_indices(n, 1)[1] / (n - 1)  # u(i, j) = 2 t_j
            if got.shape != want.shape or np.abs(got - want).max() > 1e-9:
                errors.append(f"{op.name}: vectors differ from the caterpillar's")
    return errors


def _check_pca(op, result) -> list[str]:
    V = op.data["V"]
    idx = result["vertex_indices"]
    trace = np.array(result["trace"])
    errors = []
    if np.any(np.diff(trace) > 0):
        errors.append(f"{op.name}: trace increases")
    shift = np.array(result["vertices"]) - V[idx]  # vertices are 1-shifted
    if np.ptp(shift, axis=1).max() > 1e-9:
        errors.append(f"{op.name}: vertices are not the indexed sample points")
    obj = oracle.pca_objective(V[idx], V)
    if abs(obj - result["objective"]) > TOL:
        errors.append(f"{op.name}: objective {result['objective']!r} != recomputed {obj!r}")
    for pos in range(len(idx)):
        for cand in set(range(len(V))) - set(idx):
            trial = list(idx)
            trial[pos] = cand
            if oracle.pca_objective(V[trial], V) < obj - 1e-9:
                errors.append(f"{op.name}: swapping vertex {idx[pos]} for {cand} improves")
                return errors
    return errors


WORKLOADS = {
    "lp-location": (build_location, check_location),
    "lp-svm": (build_svm, check_svm),
    "trees-descriptive": (build_trees, check_trees),
}
