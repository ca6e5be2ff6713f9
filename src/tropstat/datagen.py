"""Simulation of random equidistant trees and labeled ultrametric samples.

Streams are driven by numpy's PCG64 generator, seeded explicitly, so a
given SimConfig always reproduces the same tree sequence.  A tree is drawn
as its merge list, and its PhyloTree lists are written from the merges
only where a tree is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .treeio import (
    DissimilarityMap,
    PhyloTree,
    _clades,
    _cophenetic_maps,
    _leaf_names,
    _tree_from_merges,
)


@dataclass(frozen=True)
class SimConfig:
    n_leaves: int
    height: float
    seed: int
    count: int = 1

    def __post_init__(self):
        if self.n_leaves < 3:
            raise ValueError("need at least 3 leaves")
        if not np.isfinite(self.height):
            raise ValueError("height must be finite")
        if self.height <= 0:
            raise ValueError("height must be positive")
        if self.count < 1:
            raise ValueError("count must be >= 1")


def _merge_stream(
    rng: np.random.Generator, n: int, height: float
) -> Iterator[list[tuple[int, int, float]]]:
    """Endless stream of random equidistant trees of the given height, each
    as its merge list (a, b, h), a cluster named by its smallest leaf
    position and a < b; treeio._tree_from_merges writes a merge list's
    PhyloTree, the first cluster's nodes before the second's.

    N-1 merge heights are sorted uniforms on (0, height), rescaled so the
    root sits exactly at height; merging pairs are chosen uniformly from
    the live lineages, listed leaves first, then clusters as they formed.

    A tree's pairs come from one rng.integers call on the draws that
    rng.choice(m, 2, replace=False) makes for m live lineages: Floyd's x in
    [0, m-2] and y in [0, m-1], the pair (x, m-1) if y == x, then one draw in
    [0, 2) that shuffles the pair.  The pair is sorted, but that shuffle
    draw is still made, so the generator's stream is choice's.
    """
    m = np.arange(n, 1, -1)
    highs = np.column_stack([m - 1, m, np.full_like(m, 2)]).ravel()
    while True:
        times = np.sort(rng.uniform(0.0, height, size=n - 1))
        times = times * (height / times[-1])
        times[-1] = height  # root exactly at the configured height
        draws = rng.integers(0, highs).reshape(-1, 3).tolist()
        lineages, merges = list(range(n)), []
        for t, (x, y, _) in zip(times.tolist(), draws):
            i, j = (x, len(lineages) - 1) if y == x else sorted((x, y))
            a, b = sorted((lineages[i], lineages[j]))
            del lineages[j], lineages[i]  # i < j
            lineages.append(a)
            merges.append((a, b, t))
        yield merges


def simulate_merges(cfg: SimConfig) -> list[list[tuple[int, int, float]]]:
    """The merge lists of simulate_equidistant(cfg)'s trees."""
    stream = _merge_stream(np.random.default_rng(cfg.seed), cfg.n_leaves, cfg.height)
    return [next(stream) for _ in range(cfg.count)]


def simulate_equidistant(cfg: SimConfig) -> list[PhyloTree]:
    """cfg.count random equidistant trees, deterministic per seed."""
    names = _leaf_names(cfg.n_leaves)
    return [_tree_from_merges(m, names) for m in simulate_merges(cfg)]


@dataclass
class TwoClassSample:
    """Labeled ultrametrics: label 0 for class A rows, 1 for class B rows."""

    ultrametrics: list[DissimilarityMap]
    labels: list[int]


def make_two_class_sample(
    cfgA: SimConfig, cfgB: SimConfig, separation: float
) -> TwoClassSample:
    """Two-class ultrametric sample for classification experiments.

    Class A comes straight from cfgA.  For separation > 0, class B heights
    are scaled by (1 + separation) and every B tree is conditioned (by
    rejection) on the topology of the first tree in the B stream; with
    separation == 0 class B is generated exactly like class A.
    """
    if cfgA.n_leaves != cfgB.n_leaves:
        raise ValueError("class configs must share a leaf count")
    a_trees = simulate_equidistant(cfgA)
    if separation == 0:
        b_trees = simulate_equidistant(cfgB)
    else:
        rng = np.random.default_rng(cfgB.seed)
        stream = _merge_stream(rng, cfgB.n_leaves, cfgB.height * (1.0 + separation))
        kept = [next(stream)]
        target = _clades(kept[0])
        while len(kept) < cfgB.count:
            merges = next(stream)
            if _clades(merges) == target:
                kept.append(merges)
        names = _leaf_names(cfgB.n_leaves)
        b_trees = [_tree_from_merges(m, names) for m in kept]
    X, names = _cophenetic_maps(a_trees + b_trees)
    ultrametrics = [DissimilarityMap(len(names), row, tuple(names)) for row in X]
    labels = [0] * len(a_trees) + [1] * len(b_trees)
    return TwoClassSample(ultrametrics, labels)
