"""Simulation of random equidistant trees and labeled ultrametric samples.

Streams are driven by numpy's PCG64 generator, seeded explicitly, so a
given SimConfig always reproduces the same tree sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .treeio import (
    DissimilarityMap,
    PhyloTree,
    TreeNode,
    _leaf_names,
    cophenetic,
    topology_id,
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


def _tree_stream(rng: np.random.Generator, n: int, height: float) -> Iterator[PhyloTree]:
    """Endless stream of random equidistant trees of the given height.

    N-1 merge heights are sorted uniforms on (0, height), rescaled so the
    root sits exactly at height; merging pairs are chosen uniformly.
    """
    names = _leaf_names(n)
    while True:
        times = np.sort(rng.uniform(0.0, height, size=n - 1))
        times = times * (height / times[-1])
        times[-1] = height  # root exactly at the configured height
        lineages = [(TreeNode(name=nm), 0.0) for nm in names]
        for t in times:
            i, j = sorted(rng.choice(len(lineages), size=2, replace=False))
            (na, ha), (nb, hb) = lineages[i], lineages[j]
            na.length = t - ha
            nb.length = t - hb
            parent = TreeNode(children=[na, nb])
            del lineages[j], lineages[i]  # i < j
            lineages.append((parent, float(t)))
        yield PhyloTree(lineages[0][0])


def simulate_equidistant(cfg: SimConfig) -> list[PhyloTree]:
    """cfg.count random equidistant trees, deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    stream = _tree_stream(rng, cfg.n_leaves, cfg.height)
    return [next(stream) for _ in range(cfg.count)]


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
        stream = _tree_stream(rng, cfgB.n_leaves, cfgB.height * (1.0 + separation))
        first = next(stream)
        target = topology_id(first)
        b_trees = [first]
        while len(b_trees) < cfgB.count:
            t = next(stream)
            if topology_id(t) == target:
                b_trees.append(t)
    ultrametrics = [cophenetic(t) for t in a_trees + b_trees]
    labels = [0] * len(a_trees) + [1] * len(b_trees)
    return TwoClassSample(ultrametrics, labels)
