"""Shared fixtures: reference trees, ultrametric samples, grid oracles."""

from __future__ import annotations

import os
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from tropstat import (
    SimConfig,
    TropicalPoint,
    canonicalize,
    cophenetic,
    parse_newick,
    simulate_equidistant,
)

FIG_LEFT_NEWICK = "(((a:0.6,b:0.6):0.3,c:0.9):0.1,d:1.0);"
FIG_RIGHT_NEWICK = "((a:0.1,b:0.1):0.9,(c:0.5,d:0.5):0.5);"

FIG_LEFT_VECTOR = (1.2, 1.8, 2.0, 1.8, 2.0, 2.0)
FIG_RIGHT_VECTOR = (0.2, 2.0, 2.0, 2.0, 2.0, 1.0)


ROOT = Path(__file__).resolve().parents[1]


def src_env() -> dict:
    """The environment with the repository's src/ first on PYTHONPATH, for
    running the package in a subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.fixture
def fig_left_tree():
    return parse_newick(FIG_LEFT_NEWICK)


@pytest.fixture
def fig_right_tree():
    return parse_newick(FIG_RIGHT_NEWICK)


def ultrametric_points(n_leaves: int, seed: int, count: int) -> list[TropicalPoint]:
    """Cophenetic vectors of random equidistant trees, as tropical points."""
    trees = simulate_equidistant(SimConfig(n_leaves, 1.0, seed, count))
    return [TropicalPoint(cophenetic(t).values) for t in trees]


def grid_minimum(sample, per_point, lo=-6.0, hi=6.0, step=0.01):
    """Brute-force minimum of a per-point-transformed distance sum on a grid.

    Only for 3-dimensional points: the canonical representative is
    (0, y2, y3), so the search space is a plane.  per_point maps the array
    of tropical distances (one per grid cell) before summation, e.g.
    identity for Fermat-Weber and squaring for the Frechet mean.
    """
    axis = np.arange(lo, hi + step / 2, step)
    Y2, Y3 = np.meshgrid(axis, axis, indexing="ij")
    V = np.array([p.coords for p in sample])
    V = V - V[:, :1]
    total = np.zeros_like(Y2)
    for v in V:
        d2 = Y2 - v[1]
        d3 = Y3 - v[2]
        mx = np.maximum(0.0, np.maximum(d2, d3))
        mn = np.minimum(0.0, np.minimum(d2, d3))
        total += per_point(mx - mn)
    return float(total.min())


def lattice_points_3d(rng, n, lo=-2.0, hi=2.0, step=0.01):
    """Random canonical 3-dim points with coordinates on a 0.01 lattice."""
    ticks = rng.integers(round(lo / step), round(hi / step) + 1, size=(n, 2))
    return [TropicalPoint((0.0, step * int(a), step * int(b))) for a, b in ticks]


def tied_ultrametric(n: int, rng) -> np.ndarray:
    """Ultrametric pair vector of a random merge order with integer heights;
    most successive merges share a height, so ties are common."""
    D = np.zeros((n, n))
    members = {i: [i] for i in range(n)}
    height = 0
    while len(members) > 1:
        height += int(rng.integers(0, 2))
        a, b = rng.choice(sorted(members), 2, replace=False)
        D[np.ix_(members[a], members[b])] = 2 * height
        D[np.ix_(members[b], members[a])] = 2 * height
        members[a] += members.pop(b)
    return D[np.triu_indices(n, 1)]


def seeded_vectors(seed: int, count: int) -> list[np.ndarray]:
    """Pair vectors for 3-11 leaves, cycling through five kinds: integer
    values with many ties, tied ultrametrics, cophenetic vectors of simulated
    trees, Gaussian values, and negative raw Fermat-Weber-style coordinates."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        n = int(rng.integers(3, 12))
        e = n * (n - 1) // 2
        kind = t % 5
        if kind == 0:
            v = rng.integers(0, 4, size=e).astype(float)
        elif kind == 1:
            v = tied_ultrametric(n, rng)
        elif kind == 2:
            tree = simulate_equidistant(SimConfig(n, 1.0, seed + t, 1))[0]
            v = np.array(cophenetic(tree).values)
        elif kind == 3:
            v = rng.normal(size=e)
        else:
            v = rng.normal(-5.0, 2.0, size=e)
        out.append(v)
    return out


# Two pairs tie at the largest distance, 5: (0, 5) and (3, 5).  As the
# vertices of a 2-vertex polytope they leave residuals 7 and 5.
TIED_FARTHEST = [(0, 2, 0), (0, 0, 2), (0, -2, 0), (0, 0, -2), (0, -1, -1), (0, -1, 2)]


def seeded_samples(seed: int, count: int) -> list[list[TropicalPoint]]:
    """Samples of 4-9 points, cycling through integer rows in {0, 1, 2}
    (many ties), ultrametrics on 4 leaves and Gaussian rows, then the
    TIED_FARTHEST sample."""
    rng = np.random.default_rng(seed)
    out = []
    for t in range(count):
        n = int(rng.integers(4, 10))
        kind = t % 3
        if kind == 0:
            X = rng.integers(0, 3, size=(n, int(rng.integers(3, 7)))).astype(float)
        elif kind == 1:
            out.append(ultrametric_points(4, seed + t, n))
            continue
        else:
            X = rng.normal(size=(n, 6))
        out.append([TropicalPoint(tuple(r)) for r in X])
    return out + [[TropicalPoint(p) for p in TIED_FARTHEST]]


def reference_distance(v, w) -> float:
    """The tropical metric, written per point pair."""
    diff = v.as_array() - w.as_array()
    return float(diff.max() - diff.min())


def reference_projection(u, D) -> tuple[np.ndarray, TropicalPoint]:
    """The per-point nearest-point map onto the vertex rows D: the weights
    and the canonical projection."""
    lam = (u.as_array()[None, :] - D).min(axis=1)
    return lam, canonicalize((D + lam[:, None]).max(axis=0))


# Reference trees are nested tuples (name, length, children), with None for
# an unnamed clade.  These recursive walkers use none of the program's code:
# they are the references for its passes over PhyloTree's four lists.


def reference_leaf_names(t) -> list[str]:
    out = []

    def walk(node):
        name, _, children = node
        if not children:
            out.append(name)
        for ch in children:
            walk(ch)

    walk(t)
    return sorted(out)


def reference_serialize_newick(t) -> str:
    def min_leaf(node):
        name, _, children = node
        return min(map(min_leaf, children)) if children else name

    def fmt(node, with_length):
        name, length, children = node
        if not children:
            body = name
        else:
            kids = sorted(children, key=min_leaf)
            body = "(" + ",".join(fmt(ch, True) for ch in kids) + ")"
            if name:
                body += name
        if with_length:
            body += f":{length:.12g}"
        return body

    return fmt(t, t[1] != 0.0) + ";"


def reference_cophenetic_values(t) -> tuple[float, ...]:
    names = reference_leaf_names(t)
    order = {name: k for k, name in enumerate(names)}
    n = len(names)
    dist = np.zeros((n, n))

    def walk(node):
        name, length, children = node
        if not children:
            return {order[name]: length}
        merged = {}
        for ch in children:
            sub = walk(ch)
            for i, di in merged.items():
                for j, dj in sub.items():
                    dist[i, j] = dist[j, i] = di + dj
            merged.update(sub)
        return {i: d + length for i, d in merged.items()}

    walk(t)
    return tuple(float(dist[i, j]) for i, j in combinations(range(n), 2))


def reference_is_equidistant(t, tol=1e-9) -> tuple[bool, float]:
    depths = []

    def walk(node, acc):
        _, length, children = node
        acc += length
        if not children:
            depths.append(acc)
        for ch in children:
            walk(ch, acc)

    walk(t, 0.0)
    height = max(depths)
    return (height - min(depths)) <= tol, height


def reference_topology_id(t) -> str:
    def walk(node):
        name, _, children = node
        if not children:
            return name
        return "(" + ",".join(sorted(walk(ch) for ch in children)) + ")"

    return walk(t)
