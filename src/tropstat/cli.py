"""Command-line surface: file I/O, subcommands, and report emission.

Every command prints one JSON result envelope to stdout (floats rendered
with 12 significant digits, keys sorted, so seeded runs are byte
deterministic) and communicates failure through the exit-code contract:

    0 ok, 2 parse error, 3 dimension mismatch, 4 solver failure or out
    of memory, 5 bad parameter, 6 not separable, 7 not ultrametric.

A command runs with numpy's floating-point errors raised, so an overflow
or a non-finite intermediate exits 4, and the envelope is strict JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings

import numpy as np

from . import __version__
from .core import TropicalPoint, trop_distance
from .datagen import SimConfig, simulate_equidistant
from .experimental import fit_lda, fit_regression, regression_objective
from .location import (
    check_ultrametric_closure,
    fermat_weber,
    frechet_mean,
)
from .pca import fit_principal_polytope, pca_coordinates
from .svm import (
    LabeledSample,
    NotSeparableError,
    _labels,
    load_model,
    model_to_dict,
    save_model,
    train_hard,
    train_soft,
    training_accuracy,
)
from .treeio import (
    _build_tree,
    _leaf_names,
    _leaves_for,
    cophenetic,
    parse_newick,
    serialize_newick,
    three_point_check,
    topology_id,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_SOLVER = 4
EXIT_BAD_PARAM = 5
EXIT_NOT_SEPARABLE = 6
EXIT_NOT_ULTRAMETRIC = 7


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Usage errors leave as a CliError (exit 2 with an envelope), not as
    usage text and SystemExit; subparsers inherit the class."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}", EXIT_PARSE)


def _round_floats(obj):
    """Re-render every float at 12 significant digits for stable output;
    FloatingPointError on a float that is not finite."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise FloatingPointError(f"result value {obj!r} is not finite")
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def emit(command, result, diagnostics=None, seed=None, status="ok", quiet=False):
    """Print the result envelope, unless quiet; errors always print."""
    if quiet and status != "error":
        return
    envelope = {
        "command": command,
        "status": status,
        "result": _round_floats(result),
        "diagnostics": _round_floats(diagnostics or {}),
        "seed": seed,
        "version": __version__,
    }
    print(json.dumps(envelope, sort_keys=True))


def parse_vector(text: str) -> list[float]:
    try:
        vec = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise CliError(f"bad inline vector {text!r}: {exc}", EXIT_PARSE)
    if not np.isfinite(vec).all():
        raise CliError(f"bad inline vector {text!r}: non-finite value", EXIT_PARSE)
    return vec


def _not_utf8(path: str) -> CliError:
    """The parse error naming the first line of path that is not UTF-8.  A
    multibyte character never contains a newline byte, so decoding the raw
    lines one by one fails on the line where decoding the file failed."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return CliError(f"{path}:{lineno}: not UTF-8 text (byte 0x{line[exc.start]:02x})",
                                EXIT_PARSE)
    return CliError(f"{path}: not UTF-8 text", EXIT_PARSE)  # the file changed meanwhile


def read_points(path: str, header: bool) -> np.ndarray:
    """The (n, e) float64 matrix of a CSV file's data rows; blank lines are
    skipped, and a bad cell or row is reported as path:line.

    numpy's C tokenizer reads the file.  When it refuses the file, finds no
    rows or finds a value that is not finite, _scan_points reads it again
    with the csv module: that scan names the line at fault, or reads the
    cells that float() accepts and numpy refuses (1_000, full-width or
    Arabic-Indic digits)."""
    with open(path, "rb") as fh:
        data = fh.read()
    # numpy strips the separators \x1c-\x1f from a cell as whitespace, and
    # float() refuses them
    if not any(sep in data for sep in b"\x1c\x1d\x1e\x1f"):
        with (io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="") as lines,
              warnings.catch_warnings()):
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                if header:  # one csv record, as a quoted cell may span lines
                    next(csv.reader(lines), None)
                X = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, quotechar='"')
            except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
                pass
            else:
                if X.size and np.isfinite(X).all():
                    return X
    return _scan_points(path, data, header)


def _scan_points(path: str, data: bytes, header: bool) -> np.ndarray:
    """read_points by float() on each csv cell.  It reports the first line
    that is not UTF-8, else the first bad cell or ragged row, else the first
    non-finite value."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    rows = []
    nonfinite = None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for lineno, row in enumerate(reader, start=1):
            if not row or (header and lineno == 1):
                continue
            try:
                values = [float(cell) for cell in row]
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: {exc}", EXIT_PARSE)
            if rows and len(values) != len(rows[0]):
                raise CliError(
                    f"{path}:{lineno}: ragged row ({len(values)} cells, "
                    f"expected {len(rows[0])})",
                    EXIT_PARSE,
                )
            if nonfinite is None and not all(map(math.isfinite, values)):
                nonfinite = lineno
            rows.append(values)
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise CliError(f"{path}:{reader.line_num}: {exc}", EXIT_PARSE)
    if not rows:
        raise CliError(f"{path}: no data rows", EXIT_PARSE)
    if nonfinite is not None:
        raise CliError(f"{path}:{nonfinite}: non-finite value", EXIT_PARSE)
    return np.array(rows)


def _points(X: np.ndarray) -> list[TropicalPoint]:
    try:
        return [TropicalPoint(tuple(r)) for r in X.tolist()]
    except ValueError as exc:
        raise CliError(str(exc), EXIT_PARSE)


def write_svg(path: str, coords, labels=None):
    """Minimal scatter plot; one circle marker per sample point."""
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span_x = max(hi_x - lo_x, 1e-9)
    span_y = max(hi_y - lo_y, 1e-9)
    W = H = 400
    pad = 30
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
    ]
    palette = ["#1f77b4", "#d62728"]
    for idx, (x, y) in enumerate(coords):
        px = pad + (x - lo_x) / span_x * (W - 2 * pad)
        py = H - pad - (y - lo_y) / span_y * (H - 2 * pad)
        color = palette[labels[idx] % 2] if labels else palette[0]
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_metric(args):
    if "," in args.a:
        va, vb = parse_vector(args.a), parse_vector(args.b)
    else:
        va, vb = (_points(read_points(path, args.header)[:1])[0].coords
                  for path in (args.a, args.b))
    if len(va) != len(vb):
        raise CliError("vectors have different dimensions", EXIT_DIMENSION)
    d = trop_distance(TropicalPoint(tuple(va)), TropicalPoint(tuple(vb)))
    return emit("metric", {"distance": d}, quiet=args.quiet)


def _location(args, command):
    pts = _points(read_points(args.points, args.header))
    try:
        res = fermat_weber(pts) if command == "fw" else frechet_mean(pts)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_SOLVER)
    if args.check_ultrametric is not None:
        try:
            check_ultrametric_closure(res, args.check_ultrametric, tol=args.tol)
        except ValueError as exc:  # the dimension is not C(N, 2)
            raise CliError(str(exc), EXIT_DIMENSION)
    result = {
        "point": list(res.point.coords),
        "objective": res.objective,
        "method": res.method,
    }
    return emit(command, result, res.diagnostics, quiet=args.quiet)


def cmd_pca(args):
    pts = _points(read_points(args.points, args.header))
    if not (1 <= args.s <= len(pts)):
        raise CliError(f"s={args.s} out of range 1..{len(pts)}", EXIT_BAD_PARAM)
    model = fit_principal_polytope(pts, args.s)
    result = {
        "vertices": [list(v.coords) for v in model.polytope.vertices],
        "vertex_indices": list(model.vertex_indices),
        "objective": model.objective,
        "trace": list(model.trace),
    }
    diagnostics = {}
    if args.out_prefix:
        if args.s != 3:
            diagnostics["plots"] = "skipped (2-D coordinates require s=3)"
        else:
            coords = pca_coordinates(model, pts)
            csv_path = f"{args.out_prefix}.coords.csv"
            with open(csv_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                for x, y in coords:
                    writer.writerow([f"{x:.12g}", f"{y:.12g}"])
            svg_path = f"{args.out_prefix}.svg"
            write_svg(svg_path, coords)
            diagnostics["coords_csv"] = csv_path
            diagnostics["svg"] = svg_path
    return emit("pca", result, diagnostics, seed=args.seed or 0, quiet=args.quiet)


def cmd_svm(args):
    if args.action == "train":
        X = read_points(args.data, args.header)
        labels = X[:, -1]
        bad = (labels != 0.0) & (labels != 1.0)
        if bad.any():
            raise CliError(f"label {labels[bad.argmax()].tolist()} is not 0/1", EXIT_PARSE)
        sample = LabeledSample(tuple(_points(X[:, :-1])), tuple(labels.astype(int).tolist()))
        try:
            if args.mode == "hard":
                model = train_hard(sample)
            else:
                model = train_soft(sample, args.C)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_BAD_PARAM)
        if args.model_out:
            save_model(model, args.model_out)
        result = model_to_dict(model)
        diagnostics = {
            "training_accuracy": training_accuracy(model, sample),
            "slack_summary": model.slack_summary,
            "objective": model.objective,
        }
        return emit("svm-train", result, diagnostics, quiet=args.quiet)
    # predict
    if not args.model:
        raise CliError("predict requires --model", EXIT_BAD_PARAM)
    try:
        model = load_model(args.model)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"bad model file: {exc}", EXIT_PARSE)
    X = read_points(args.data, args.header)
    if model.omega.dim != X.shape[1]:
        raise CliError("model and data dimensions differ", EXIT_DIMENSION)
    _write_lines(map(str, _labels(model, X).tolist()), None)


def _read_newick_maps(path):
    """The cophenetic map of the tree on each non-blank line of a Newick
    file; a line that does not parse, or whose tree has no map (fewer than
    2 leaves, or path lengths that overflow), is reported as path:line, and
    so is the first tree whose leaf names differ from the first tree's."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [(k, ln.strip()) for k, ln in enumerate(fh, start=1) if ln.strip()]
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    maps = []
    for lineno, line in lines:
        try:
            maps.append(cophenetic(parse_newick(line)))
        except ValueError as exc:  # NewickError is a ValueError
            raise CliError(f"{path}:{lineno}: {exc}", EXIT_PARSE)
        if maps[-1].leaf_names != maps[0].leaf_names:
            raise CliError(f"{path}:{lineno}: leaf names differ from the first tree's",
                           EXIT_DIMENSION)
    if not maps:
        raise CliError(f"{path}: no trees", EXIT_PARSE)
    return maps


def _write_lines(lines, out):
    """Write lines to the file out, or to stdout when out is not given."""
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_tree(args):
    if args.action == "newick2ultra":
        vectors = _read_newick_maps(args.input)
        lines = [",".join(f"{v:.12g}" for v in u.values) for u in vectors]
        _write_lines(lines, args.out)
        result = {
            "n_trees": len(vectors),
            "n_leaves": vectors[0].n_leaves,
            "leaf_names": list(vectors[0].leaf_names),
        }
        return emit("tree-newick2ultra", result, quiet=True if not args.out else args.quiet)

    if args.action == "ultra2newick":
        X, names = _read_maps(args)
        verdicts = three_point_check(X, tol=args.tol)
        if not all(verdicts):
            raise CliError(f"row {verdicts.index(False) + 1} fails the three-point "
                           "condition", EXIT_NOT_ULTRAMETRIC)
        newicks = [serialize_newick(_build_tree(row, names)) for row in X]
        _write_lines(newicks, args.out)
        return emit("tree-ultra2newick", {"n_trees": len(newicks)},
                    quiet=True if not args.out else args.quiet)

    if args.action == "check":
        X, names = _read_maps(args)
        verdicts = three_point_check(X, tol=args.tol)
        result = {
            "all_ultrametric": all(verdicts),
            "verdicts": verdicts,
            "n_leaves": len(names),
        }
        if len(names) == 4 and all(verdicts):
            ids = {topology_id(_build_tree(row, names)) for row in X}
            result["topology_count"] = len(ids)
        return emit("tree-check", result, quiet=args.quiet)

    # simulate
    if args.n is None or args.count is None:
        raise CliError("simulate requires --n and --count", EXIT_BAD_PARAM)
    try:
        cfg = SimConfig(args.n, args.height, args.seed or 0, args.count)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_PARAM)
    trees = simulate_equidistant(cfg)
    _write_lines([serialize_newick(t) for t in trees], args.out)
    ids = {topology_id(t) for t in trees}
    result = {
        "n_trees": len(trees),
        "n_leaves": args.n,
        "height": args.height,
        "distinct_topologies": len(ids),
    }
    return emit("tree-simulate", result, seed=args.seed or 0,
                quiet=True if not args.out else args.quiet)


def _read_maps(args):
    """The input CSV as one (k, C(N, 2)) matrix of dissimilarity maps, and
    the N leaf names; a bad width, fewer than 3 leaves or a negative entry
    is reported by its first row."""
    X = read_points(args.input, args.header)
    try:
        n = _leaves_for(X.shape[1])
    except ValueError:
        raise CliError(
            f"row 1: length {X.shape[1]} is not a binomial C(N,2)", EXIT_DIMENSION
        )
    if n < 3:
        raise CliError(f"row 1: a tree needs at least 3 leaves, got {n}", EXIT_DIMENSION)
    negative = (X < 0).any(axis=1)
    if negative.any():
        raise CliError(f"row {negative.argmax() + 1}: dissimilarities must be nonnegative",
                       EXIT_PARSE)
    return X, _leaf_names(n)


def cmd_lda(args):
    S1 = _points(read_points(args.class0, args.header))
    S2 = _points(read_points(args.class1, args.header))
    if S1[0].dim != S2[0].dim:
        raise CliError("class files have different dimensions", EXIT_DIMENSION)
    cand = fit_lda(S1, S2, seed=args.seed or 0)
    result = {
        "experimental": True,
        "objective": cand.objective,
        "vertices": [list(v.coords) for v in cand.polytope.vertices],
        "mu1": list(cand.mu1.coords),
        "mu2": list(cand.mu2.coords),
        "s1": cand.s1,
        "s2": cand.s2,
    }
    return emit("lda", result, seed=args.seed or 0, quiet=args.quiet)


def cmd_regress(args):
    rows = read_points(args.data, args.header).tolist()
    if len(rows[0]) < 2:
        raise CliError("need at least one feature column plus a response", EXIT_PARSE)
    data = [(tuple(r[:-1]), r[-1]) for r in rows]
    model = fit_regression(data, seed=args.seed or 0)
    result = {
        "experimental": True,
        "beta": list(model.beta),
        "residual_sum": model.residual_sum,
    }
    diagnostics = {
        "recomputed_residual": regression_objective(model.beta, data),
    }
    return emit("regress", result, diagnostics, seed=args.seed or 0, quiet=args.quiet)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropstat",
        description="Tropical (max-plus) statistics over the projective torus "
        "and the space of ultrametric trees.",
    )
    parser.add_argument("--tol", type=float, default=1e-9)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--header", action="store_true",
                        help="CSV inputs carry a header row")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="tropical distance of two vectors")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_metric)

    for name in ("fw", "frechet"):
        p = sub.add_parser(name)
        p.add_argument("points")
        p.add_argument("--check-ultrametric", type=int, metavar="N", default=None)
        p.set_defaults(func=lambda args, name=name: _location(args, name))

    p = sub.add_parser("pca")
    p.add_argument("points")
    p.add_argument("-s", type=int, required=True)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("svm")
    p.add_argument("action", choices=["train", "predict"])
    p.add_argument("data")
    p.add_argument("--mode", choices=["hard", "soft"], default="hard")
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--model-out", default=None)
    p.add_argument("--model", default=None)
    p.set_defaults(func=cmd_svm)

    p = sub.add_parser("tree")
    p.add_argument(
        "action", choices=["newick2ultra", "ultra2newick", "check", "simulate"]
    )
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--height", type=float, default=1.0)
    p.add_argument("--count", type=int, default=None)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("lda")
    p.add_argument("class0")
    p.add_argument("class1")
    p.set_defaults(func=cmd_lda)

    p = sub.add_parser("regress")
    p.add_argument("data")
    p.set_defaults(func=cmd_regress)

    return parser


def main(argv=None) -> int:
    # argparse records the subcommand before parsing its arguments, so a
    # usage error names it once it has been read.
    args = argparse.Namespace(command="tropstat")
    try:
        build_parser().parse_args(argv, args)
        if not 0.0 <= args.tol < np.inf:
            raise CliError(
                f"--tol must be finite and nonnegative, got {args.tol}", EXIT_BAD_PARAM
            )
        if args.seed is not None and args.seed < 0:
            raise CliError(f"--seed must be nonnegative, got {args.seed}", EXIT_BAD_PARAM)
        if args.command == "tree" and args.action != "simulate" and args.input is None:
            raise CliError("missing input file", EXIT_BAD_PARAM)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            args.func(args)
        return EXIT_OK
    except CliError as exc:
        message, code = str(exc), exc.code
    except OSError as exc:
        # an unreadable input file, or an unwritable --out, --out-prefix
        # or --model-out
        message, code = str(exc), EXIT_PARSE
    except NotSeparableError as exc:
        message, code = str(exc), EXIT_NOT_SEPARABLE
    except (RuntimeError, ArithmeticError) as exc:
        # a solver failure, or a value that overflows or is not finite
        message, code = str(exc), EXIT_SOLVER
    except MemoryError as exc:  # numpy's names the array it failed to allocate
        message, code = str(exc) or "out of memory", EXIT_SOLVER
    emit(args.command, {"message": message}, status="error", quiet=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
