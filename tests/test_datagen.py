"""Random equidistant tree simulation and two-class sample generation."""

import numpy as np
import pytest

from tropstat import (
    SimConfig,
    cophenetic,
    is_equidistant,
    make_two_class_sample,
    serialize_newick,
    simulate_equidistant,
    three_point_check,
    topology_id,
)
from tropstat.datagen import _merge_stream
from tropstat.treeio import _leaf_names
from conftest import (
    reference_cophenetic_values,
    reference_draws,
    reference_serialize_newick,
    reference_topology_id,
)


def reference_tree_stream(rng, n, height):
    """Random equidistant reference tuple trees (see conftest.py) built from
    a lineage list on reference_draws, one rng.choice call per merge."""
    for tree in reference_draws(rng, n, height):
        lineages = [(nm, [], 0.0) for nm in _leaf_names(n)]  # (name, children, height)
        for t, i, j in tree:
            (na, ca, ha), (nb, cb, hb) = lineages[i], lineages[j]
            del lineages[j], lineages[i]
            lineages.append((None, [(na, t - ha, ca), (nb, t - hb, cb)], float(t)))
        yield None, 0.0, lineages[0][1]


def reference_two_class_b(cfg, separation):
    """Class B of make_two_class_sample at separation > 0, by rejection on
    reference_topology_id."""
    stream = reference_tree_stream(
        np.random.default_rng(cfg.seed), cfg.n_leaves, cfg.height * (1.0 + separation))
    trees = [next(stream)]
    while len(trees) < cfg.count:
        t = next(stream)
        if reference_topology_id(t) == reference_topology_id(trees[0]):
            trees.append(t)
    return trees


class TestConfig:
    def test_rejects_small_leaf_count(self):
        with pytest.raises(ValueError):
            SimConfig(2, 1.0, 0)

    def test_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            SimConfig(4, 0.0, 0)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            SimConfig(4, 1.0, 0, 0)


class TestSimulation:
    def test_trees_are_equidistant_at_height(self):
        for t in simulate_equidistant(SimConfig(5, 2.5, 11, 20)):
            ok, height = is_equidistant(t, tol=1e-9)
            assert ok
            assert height == pytest.approx(2.5, abs=1e-12)

    def test_cophenetic_vectors_are_ultrametric(self):
        for t in simulate_equidistant(SimConfig(4, 1.0, 5, 30)):
            assert three_point_check(cophenetic(t).values)

    def test_leaf_names_zero_padded(self):
        trees = simulate_equidistant(SimConfig(12, 1.0, 1, 1))
        names = trees[0].leaf_names()
        assert names[0] == "t01"
        assert names[-1] == "t12"
        assert names == sorted(names)

    def test_seeded_determinism(self):
        a = simulate_equidistant(SimConfig(4, 1.0, 9, 10))
        b = simulate_equidistant(SimConfig(4, 1.0, 9, 10))
        for ta, tb in zip(a, b):
            assert cophenetic(ta).values == cophenetic(tb).values

    def test_different_seeds_differ(self):
        a = simulate_equidistant(SimConfig(4, 1.0, 1, 1))[0]
        b = simulate_equidistant(SimConfig(4, 1.0, 2, 1))[0]
        assert cophenetic(a).values != cophenetic(b).values

    def test_max_pairwise_distance_is_twice_height(self):
        for t in simulate_equidistant(SimConfig(4, 1.5, 3, 10)):
            assert max(cophenetic(t).values) == pytest.approx(3.0, abs=1e-9)


class TestMergeStream:
    @pytest.mark.parametrize("n, height, seed", [
        (3, 1.0, 0), (4, 2.5, 7), (9, 0.3, 11), (20, 1.0, 5), (50, 2.0, 3), (200, 1.5, 8)])
    def test_trees_match_the_lineage_reference(self, n, height, seed):
        stream = reference_tree_stream(np.random.default_rng(seed), n, height)
        for t in simulate_equidistant(SimConfig(n, height, seed, 30)):
            want = next(stream)
            assert serialize_newick(t) == reference_serialize_newick(want)
            assert cophenetic(t).values == reference_cophenetic_values(want)

    @pytest.mark.parametrize("n, k", [(3, 1), (3, 9), (7, 9), (20, 4), (50, 2)])
    def test_generator_state_matches_the_reference(self, n, k):
        """A stream that skipped the last merge's draws, whose pair is always
        (0, 1), would match the first tree, then fall out of step."""
        rng, ref = np.random.default_rng(n + k), np.random.default_rng(n + k)
        stream, want = _merge_stream(rng, n, 1.0), reference_tree_stream(ref, n, 1.0)
        for _ in range(k):
            next(stream), next(want)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n, seed, separation", [(4, 2, 0.5), (5, 6, 1.0), (4, 12, 2.0)])
    def test_class_b_matches_the_rejection_reference(self, n, seed, separation):
        cfgB = SimConfig(n, 1.0, seed, 8)
        s = make_two_class_sample(SimConfig(n, 1.0, 1, 3), cfgB, separation)
        want = [reference_cophenetic_values(t) for t in reference_two_class_b(cfgB, separation)]
        assert [u.values for u in s.ultrametrics[3:]] == want


class TestTwoClass:
    def test_labels_and_counts(self):
        s = make_two_class_sample(
            SimConfig(4, 1.0, 1, 5), SimConfig(4, 1.0, 2, 7), separation=0.0
        )
        assert s.labels == [0] * 5 + [1] * 7
        assert len(s.ultrametrics) == 12

    def test_separation_scales_class_b_height(self):
        s = make_two_class_sample(
            SimConfig(4, 1.0, 1, 5), SimConfig(4, 1.0, 2, 5), separation=1.0
        )
        for u, lab in zip(s.ultrametrics, s.labels):
            expect = 2.0 if lab == 0 else 4.0
            assert max(u.values) == pytest.approx(expect, abs=1e-9)

    def test_class_b_shares_one_topology(self):
        s = make_two_class_sample(
            SimConfig(4, 1.0, 1, 5), SimConfig(4, 1.0, 2, 8), separation=0.5
        )
        from tropstat import ultrametric_to_tree

        ids = {
            topology_id(ultrametric_to_tree(u))
            for u, lab in zip(s.ultrametrics, s.labels)
            if lab == 1
        }
        assert len(ids) == 1

    def test_mismatched_leaf_counts_rejected(self):
        with pytest.raises(ValueError):
            make_two_class_sample(
                SimConfig(4, 1.0, 1, 2), SimConfig(5, 1.0, 2, 2), separation=0.0
            )


class TestTopologyCoverage:
    def test_u4_has_15_topologies(self):
        trees = simulate_equidistant(SimConfig(4, 1.0, 7, 5000))
        ids = {topology_id(t) for t in trees}
        assert len(ids) == 15

    def test_enumeration_oracle(self):
        """Independent count: rooted leaf-labeled topologies on 4 leaves.

        Binary caterpillar/balanced shapes give (4!/2... ) 15 in total:
        12 caterpillars plus 3 balanced pairings.
        """
        from itertools import combinations

        labels = ["t1", "t2", "t3", "t4"]
        shapes = set()
        # balanced: {{a,b},{c,d}} partitions
        for pair in combinations(labels, 2):
            rest = tuple(l for l in labels if l not in pair)
            shapes.add(frozenset({frozenset(pair), frozenset(rest)}))
        balanced = len(shapes)  # 3
        # caterpillar: choose the cherry (6) then the next leaf to join (2)
        caterpillar = 6 * 2
        assert balanced + caterpillar == 15
