#!/usr/bin/env python3
"""tropstat benchmark: one workload through the CLI, in-process.

    python3 perfbench/run.py --workload lp-location --seed 1 --seconds 32 --trace 0

Set-up imports ``tropstat`` from ``src/`` next to this directory and writes
the workload's inputs (generated from ``--seed``) under ``perfbench/_work``.
The run then repeats whole passes over the workload's operations, each
``tropstat.cli.main(argv)`` with stdout captured, while another pass still
fits in ``--seconds``; at least two passes always run.  After timing, every
output of the first pass is checked against independent computations, and
later passes must repeat it byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``wall_ref`` is one pass's
time in units of a fixed reference (three small kernels that run no
tropstat code) timed before and after every operation: each operation's
time over the reference time around it, its median over the passes, summed
over the operations.  On a machine shared with other tenants, whose speed
changes by a third for minutes at a time, seconds alone would measure the
neighbours; the ratio keeps the program's share.  Each operation's fastest
time in seconds goes to stderr.
``--trace 1`` runs every operation twice in a row, untraced and then with
every public function of the layer modules wrapped in spans, and prints
per-layer metrics; the spans are written to
``perfbench/_out/spans-<workload>.npz``.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

# One thread for numpy's BLAS, set before numpy loads: the workloads are
# single-client closed loops, and a second BLAS thread would make each run
# depend on how busy the machine's other cores are.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import gen
import newick
import oracle
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, Result

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7
MIN_PASSES = 2  # wall_ref takes each operation's median over the passes

# Per-command figures: (metric, operation kind, unit).  A unit of "s" is
# the kind's total time; any other is items (points, trees) per second.
COMMAND_FIGURES = (
    ("cli.fw_s", "fw", "s"),
    ("cli.svm_train_s", "svm_train", "s"),
    ("cli.predict_points_per_s", "svm_predict", "points/s"),
    ("cli.frechet_s", "frechet", "s"),
    ("cli.pca_s", "pca", "s"),
    ("cli.tree_trees_per_s", "tree", "trees/s"),
    ("cli.simulate_trees_per_s", "simulate", "trees/s"),
)


def fresh_import() -> dict:
    """Import tropstat anew (dropping cached modules) and return its layers."""
    for name in [m for m in sys.modules if m == "tropstat" or m.startswith("tropstat.")]:
        del sys.modules[name]
    importlib.import_module("tropstat.cli")
    return {layer: sys.modules[f"tropstat.{layer}"] for layer in LAYERS}


def set_up(build, seed: int, work: Path):
    """Import tropstat afresh and write the inputs.

    Returns the layer modules, the operations and the seconds it took.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gc.collect()
    t0 = perf_counter()
    modules = fresh_import()
    ops = build(np.random.default_rng(seed), work)
    return modules, ops, perf_counter() - t0


# The reference: three fixed kernels that run no tropstat code, each a kind
# of work the program does: an interpreter loop on integers, Newick text
# parsed into Python objects and small arrays (by the checks' own reader),
# and row operations on a numpy array.  Timed next to every operation, the
# geometric mean of their times follows how fast the machine runs such code
# at that moment.  In repeated runs of one seed it followed the program
# about twice as closely as the integer loop alone.
REF_REPEATS = 3
_REF_TREE = gen.caterpillar_newick(60)
_REF_TABLEAU = np.add.outer(np.arange(120.0), np.arange(240.0) % 7) + 50.0 * np.eye(120, 240)


def _ref_integers():
    acc = 0
    for i in range(50_000):
        acc += i * i % 7


def _ref_text():
    for _ in range(3):
        newick.read(_REF_TREE)


def _ref_rows():
    T = _REF_TABLEAU.copy()
    for k in range(40):
        r = T[k] / T[k, k]
        T -= np.outer(T[:, k], r)
        T[k] = r


def reference_seconds() -> float:
    """Geometric mean of the kernels' times, each its fastest of REF_REPEATS."""
    prod = 1.0
    for kernel in (_ref_integers, _ref_text, _ref_rows):
        best = float("inf")
        for _ in range(REF_REPEATS):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
        prod *= best
    return prod ** (1 / 3)


def run_op(cli, op) -> Result:
    """One operation; an exception or a nonzero exit fails only this one.

    Garbage left by earlier operations is collected first, as a fresh
    ``tropstat`` process would not carry it.
    """
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    gc.collect()
    buf = io.StringIO()
    fault = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
        if rc != 0:
            fault = f"exit {rc}"
    except SystemExit as exc:
        fault = f"SystemExit({exc.code})"
    except Exception as exc:  # the operation's fault, recorded by type
        fault = type(exc).__name__
    seconds = perf_counter() - t0
    out_text = op.out.read_text() if fault is None and op.out is not None else ""
    return Result(seconds, fault, buf.getvalue(), out_text)


def pass_figures(ops, results) -> dict[str, float]:
    """Wall time and per-command figures of one pass (for the traced run)."""
    fig = {"wall_s": sum(r.seconds for r in results)}
    for metric, kind, unit in COMMAND_FIGURES:
        t = sum(r.seconds for op, r in zip(ops, results) if op.kind == kind)
        items = sum(op.items for op in ops if op.kind == kind)
        fig[metric] = t if unit == "s" else (items / t if t else 0.0)
    return fig


def timed_pass(cli, ops) -> tuple[list[Result], list[float]]:
    """One pass, with the reference timed before and after each operation.

    Returns the results and each operation's time in reference units: its
    seconds over the mean of the reference times on either side of it.
    """
    ref = [reference_seconds()]
    results = []
    for op in ops:
        results.append(run_op(cli, op))
        ref.append(reference_seconds())
    return results, [r.seconds * 2 / (ref[k] + ref[k + 1]) for k, r in enumerate(results)]


def layer_metrics(tracer: Tracer, traced_wall: float, untraced: dict) -> dict:
    """Per-layer metrics of the traced pass, and the per-command figures."""
    S = tracer.summary()
    c = tracer.counts

    def get(name, key="s"):
        return S.get(name, {}).get(key, 0.0)

    svm_calls = c["svm.solve_lp.calls"]
    layer_self = {
        layer: sum(v["self_s"] for k, v in S.items() if k.startswith(layer + "."))
        for layer in LAYERS
    }
    m = {
        "solver.solve_lp.calls": (get("solver.solve_lp", "calls"), "count"),
        "solver.solve_lp.s": (get("solver.solve_lp"), "s"),
        "solver.solve_lp.infeasible": (c["solver.solve_lp.INFEASIBLE"], "count"),
        "solver.solve_lp.cells": (c["solver.solve_lp.cells"], "count"),
        "solver.minimize_convex.s": (get("solver.minimize_convex"), "s"),
        "solver.minimize_convex.evals": (c["solver.minimize_convex.evals"], "count"),
        "location.build_fw_lp.s": (get("location.build_fw_lp"), "s"),
        "location.fermat_weber.self_s": (get("location.fermat_weber", "self_s"), "s"),
        "location.fw.refined": (c["location.fw.refined"], "count"),
        "location.frechet_mean.self_s": (get("location.frechet_mean", "self_s"), "s"),
        "svm.train.self_s": (get("svm.train_hard", "self_s") + get("svm.train_soft", "self_s"), "s"),
        "svm.lp_feasible_ratio": (c["svm.solve_lp.OPTIMAL"] / svm_calls if svm_calls else 0.0, "ratio"),
        "svm.classify.calls": (get("svm.classify", "calls"), "count"),
        "svm.classify.s": (get("svm.classify"), "s"),
        "pca.fit_principal_polytope.self_s": (get("pca.fit_principal_polytope", "self_s"), "s"),
        "core.project_onto_polytope.calls": (get("core.project_onto_polytope", "calls"), "count"),
        "core.project_onto_polytope.s": (get("core.project_onto_polytope"), "s"),
        "core.trop_distance.calls": (get("core.trop_distance", "calls"), "count"),
        "treeio.three_point_check.calls": (get("treeio.three_point_check", "calls"), "count"),
        "treeio.three_point_check.s": (get("treeio.three_point_check"), "s"),
        "treeio.parse_newick.s": (get("treeio.parse_newick"), "s"),
        "treeio.cophenetic.s": (get("treeio.cophenetic"), "s"),
        "treeio.serialize_newick.s": (get("treeio.serialize_newick"), "s"),
        "treeio.ultrametric_to_tree.self_s": (get("treeio.ultrametric_to_tree", "self_s"), "s"),
        "datagen.simulate_equidistant.s": (get("datagen.simulate_equidistant"), "s"),
        "cli.read_points.calls": (get("cli.read_points", "calls"), "count"),
        "cli.read_points.s": (get("cli.read_points"), "s"),
        "cli.emit.s": (get("cli.emit"), "s"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    for metric, _, unit in COMMAND_FIGURES:
        m[metric] = (untraced[metric], unit)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
    m["trace.overhead_s"] = (traced_wall - untraced["wall_s"], "s")
    m["trace.coverage"] = (sum(layer_self.values()) / traced_wall, "ratio")
    m["trace.spans"] = (len(tracer.start), "count")
    return m


def compare_passes(ops, first, later) -> list[str]:
    errors = []
    for k, results in enumerate(later, start=2):
        for op, a, b in zip(ops, first, results):
            if (a.fault, a.stdout, a.out_text) != (b.fault, b.stdout, b.out_text):
                errors.append(f"pass {k}: {op.name} output differs from pass 1")
    return errors


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tropstat" / "cli.py").is_file():
        print(f"perfbench: no tropstat sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    build, check = WORKLOADS[args.workload]
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        modules, ops, seconds = set_up(build, args.seed, work)
        setup_times = [seconds]
        if not str(Path(modules["cli"].__file__).resolve()).startswith(str(SRC)):
            print(f"perfbench: tropstat imported from outside {SRC}", file=sys.stderr)
            return 2
        passes, durations, ratios = [], [], []
        if args.trace:
            # untraced and traced runs alternate op by op, so that a slow
            # spell of the machine hits both and the overhead stays visible
            tracer = Tracer()
            passes = [[], []]
            for op in ops:
                passes[0].append(run_op(modules["cli"], op))
                tracer.install(modules)
                try:
                    passes[1].append(run_op(modules["cli"], op))
                finally:
                    tracer.remove()
            tracer.dump(HERE / "_out" / f"spans-{args.workload}.npz")
        else:
            t_start = perf_counter()
            while len(passes) < MIN_PASSES or (
                perf_counter() + statistics.median(durations) <= t_start + args.seconds
            ):
                t0 = perf_counter()
                results, refs = timed_pass(modules["cli"], ops)
                passes.append(results)
                ratios.append(refs)
                durations.append(perf_counter() - t0)
                # set-up is repeated between passes, not back to back, so that
                # its median does not hang on one spell of the machine; the
                # inputs are the same each time
                if len(setup_times) < SETUP_REPEATS:
                    modules, _, seconds = set_up(build, args.seed, work)
                    setup_times.append(seconds)
            while len(setup_times) < SETUP_REPEATS:
                modules, _, seconds = set_up(build, args.seed, work)
                setup_times.append(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        highs = oracle.Highs()
        ok = [(op, r) for op, r in zip(ops, passes[0]) if r.fault is None]
        errors = compare_passes(ops, passes[0], passes[1:])
        try:
            errors += check([op for op, _ in ok], [r for _, r in ok], highs)
        except Exception as exc:  # a malformed output is a failed check
            errors.append(f"checks raised {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # per operation: fastest seconds over the passes, and the median in
    # reference units when the run timed them
    op_ref = [statistics.median(x[k] for x in ratios) for k in range(len(ops))] if ratios else []
    for k, (op, r) in enumerate(zip(ops, passes[0])):
        fastest = min(res[k].seconds for res in passes)
        ref = f"{op_ref[k]:9.2f} ref  " if op_ref else ""
        print(f"{fastest:9.4f} s  {ref}{op.name}" + (f"  FAILED {r.fault}" if r.fault else ""), file=sys.stderr)
        if r.fault:
            print(f"fault: {op.name}: {r.fault}")
    print("set-up s: " + " ".join(f"{t:.4f}" for t in setup_times), file=sys.stderr)
    print(f"passes {len(passes)}; HiGHS {highs.solves} LPs in {highs.seconds:.3f} s", file=sys.stderr)
    for line in errors:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    if args.trace:
        traced_wall = pass_figures(ops, passes[1])["wall_s"]
        metrics = layer_metrics(tracer, traced_wall, pass_figures(ops, passes[0]))
    else:
        fastest_s = sum(min(res[k].seconds for res in passes) for k in range(len(ops)))
        print(f"one pass: {fastest_s:.4f} s by each operation's fastest time", file=sys.stderr)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_ref": (sum(op_ref), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops) * len(passes),
        "failed": sum(r.fault is not None for res in passes for r in res),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
