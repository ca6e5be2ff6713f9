"""Seeded input generator for the benchmark, written against numpy alone.

The benchmark never calls ``tropstat.datagen``: a change to the program's
random stream must not change the benchmark's inputs.  Every function takes
a ``numpy.random.Generator`` made from the run's ``--seed``.
"""

from __future__ import annotations

import numpy as np


def leaf_names(n: int) -> list[str]:
    """``t1..tN`` zero-padded, so that name order is index order."""
    width = len(str(n))
    return [f"t{k:0{width}d}" for k in range(1, n + 1)]


def equidistant_tree(rng: np.random.Generator, n: int, height: float = 1.0):
    """One random equidistant tree of the given root height.

    N-1 merge heights are sorted uniforms rescaled so that the root sits at
    ``height``; each merge joins two distinct uniformly chosen lineages.
    Returns the Newick text (branch lengths written with ``repr``, so they
    round-trip) and the cophenetic vector in lexicographic pair order.
    """
    draws = rng.random((3, n - 1))
    times = np.sort(draws[0])
    times = times * (height / times[-1])
    times[-1] = height
    dist = np.zeros((n, n))
    lineages = [(name, [k], 0.0) for k, name in enumerate(leaf_names(n))]
    for t, a, b in zip(times.tolist(), draws[1].tolist(), draws[2].tolist()):
        i = int(a * len(lineages))
        j = int(b * (len(lineages) - 1))
        i, j = sorted((i, j + (j >= i)))
        (ta, ma, ha), (tb, mb, hb) = lineages[i], lineages[j]
        dist[np.ix_(ma, mb)] = 2.0 * t
        dist[np.ix_(mb, ma)] = 2.0 * t
        del lineages[j]
        lineages[i] = (f"({ta}:{t - ha!r},{tb}:{t - hb!r})", ma + mb, t)
    return lineages[0][0] + ";", dist[np.triu_indices(n, 1)]


def caterpillar_newick(n: int, height: float = 1.0) -> str:
    """Fully unbalanced equidistant tree; nesting depth n - 1.  Seed-free."""
    names = leaf_names(n)
    text, below = names[0], 0.0
    for k in range(1, n):
        t = height * k / (n - 1)
        text = f"({text}:{t - below!r},{names[k]}:{t!r})"
        below = t
    return text + ";"


def ultrametric_sample(rng, n: int, count: int, height: float = 1.0) -> np.ndarray:
    """``count`` cophenetic vectors of random equidistant trees, one per row."""
    return np.array([equidistant_tree(rng, n, height)[1] for _ in range(count)])


def break_triple(u: np.ndarray, n: int) -> np.ndarray:
    """Copy of ultrametric ``u`` whose cherry triple loses its tied maximum.

    For the closest pair (i, j) and any k, u(i,k) == u(j,k) > u(i,j); raising
    u(i,k) by 0.1 leaves its maximum attained once.
    """
    iu = np.triu_indices(n, 1)
    full = np.zeros((n, n))
    full[iu] = u
    full = full + full.T
    p = int(np.argmin(u))
    i, j = int(iu[0][p]), int(iu[1][p])
    k = next(k for k in range(n) if k not in (i, j))
    full[i, k] = full[k, i] = full[j, k] + 0.1
    return full[iu]


# Hyperplane normal used to label the SVM sample; any generic vector would do.
_SVM_OMEGA = np.array([0.0, 0.35, 0.1, 0.55, 0.2, 0.45])


def separable_sample(rng, per_class: int, gap: float = 0.02):
    """Four-leaf ultrametrics separated by a known tropical hyperplane.

    Trees are drawn until ``per_class`` of them fall in each of two fixed
    (primary, secondary) sectors of the hyperplane with normal ``_SVM_OMEGA``,
    with a margin of at least ``gap``; all others are rejected.  The hard
    margin LP of that sector assignment is therefore feasible with z >= gap
    for every seed.  Returns (points, labels), class 0 first.
    """
    sectors = [(3, 5), (1, 2)]
    classes = [[], []]
    while min(len(c) for c in classes) < per_class:
        u = equidistant_tree(rng, 4)[1]
        vals = u + _SVM_OMEGA
        order = np.argsort(-vals, kind="stable")
        top, second = int(order[0]), int(order[1])
        if vals[top] - vals[second] < gap:
            continue
        for label, sector in enumerate(sectors):
            if (top, second) == sector and len(classes[label]) < per_class:
                classes[label].append(u)
    points = np.array(classes[0] + classes[1])
    labels = np.array([0] * per_class + [1] * per_class)
    return points, labels
