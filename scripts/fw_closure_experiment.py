"""Fermat-Weber closure experiment on random ultrametric samples.

For each trial: simulate a sample of equidistant trees, compute the
Fermat-Weber point, check the three-point condition on the point read off
the assignment problem, and measure the tropical distance from the FW point
to the fitted principal polytope (the conjecture diagnostic; the distance is
reported, never asserted).

Usage: python3 scripts/fw_closure_experiment.py [--trials 30] [--n-leaves 4]
"""

import argparse

from tropstat import (
    SimConfig,
    TropicalPoint,
    check_ultrametric_closure,
    fermat_weber,
    fit_principal_polytope,
    project_onto_polytope,
    simulate_equidistant,
    trop_distance,
)
from tropstat.treeio import _cophenetic_maps


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=30)
    parser.add_argument("--n-leaves", type=int, default=4)
    parser.add_argument("--sample-size", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    closures = 0
    pca_distances = []
    for trial in range(args.trials):
        cfg = SimConfig(args.n_leaves, 1.0, args.seed + trial, args.sample_size)
        X, _ = _cophenetic_maps(simulate_equidistant(cfg))  # one stacked pass
        sample = [TropicalPoint(row) for row in X.tolist()]
        res = fermat_weber(sample)
        ok = check_ultrametric_closure(res, args.n_leaves, tol=1e-6)
        closures += ok

        model = fit_principal_polytope(sample, min(3, len(sample)))
        proj = project_onto_polytope(res.point, model.polytope)
        pca_distances.append(trop_distance(res.point, proj))

    print(f"trials:             {args.trials}")
    print(f"closure holds:      {closures}/{args.trials}")
    print(f"FW-to-PCA distance: min {min(pca_distances):.6f}  "
          f"max {max(pca_distances):.6f}  "
          f"mean {sum(pca_distances) / len(pca_distances):.6f}")
    print("(the conjecture predicts small FW-to-PCA distances; reported only)")


if __name__ == "__main__":
    main()
