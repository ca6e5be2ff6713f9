"""Tropical PCA demo: simulate trees, fit a 3-vertex polytope, plot.

Writes <prefix>.coords.csv and <prefix>.svg and prints the objective trace.

Usage: python3 scripts/pca_demo.py [--count 20] [--seed 5] [--prefix pca_demo]
"""

import argparse
import csv

from tropstat import (
    SimConfig,
    TropicalPoint,
    exhaustive_principal_polytope,
    fit_principal_polytope,
    pca_coordinates,
    simulate_equidistant,
)
from tropstat.cli import write_svg
from tropstat.treeio import _cophenetic_maps


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-leaves", type=int, default=4)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--prefix", default="pca_demo")
    args = parser.parse_args()

    cfg = SimConfig(args.n_leaves, 1.0, args.seed, args.count)
    X, _ = _cophenetic_maps(simulate_equidistant(cfg))  # one stacked pass
    sample = [TropicalPoint(row) for row in X.tolist()]
    model = fit_principal_polytope(sample, 3)
    print(f"objective: {model.objective:.6f}")
    print(f"vertices (sample indices): {model.vertex_indices}")
    print("trace:", " -> ".join(f"{v:.4f}" for v in model.trace))

    if args.count <= 8:
        _, oracle = exhaustive_principal_polytope(sample, 3)
        print(f"exhaustive oracle: {oracle:.6f}")

    coords = pca_coordinates(model, sample)
    with open(f"{args.prefix}.coords.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, y in coords:
            writer.writerow([f"{x:.12g}", f"{y:.12g}"])
    write_svg(f"{args.prefix}.svg", coords)
    print(f"wrote {args.prefix}.coords.csv and {args.prefix}.svg")


if __name__ == "__main__":
    main()
