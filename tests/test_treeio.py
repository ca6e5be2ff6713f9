"""Newick I/O, cophenetic maps, three-point checks, tree reconstruction."""

import math
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropstat import (
    DissimilarityMap,
    NewickError,
    PhyloTree,
    SimConfig,
    UltrametricPoint,
    cophenetic,
    index_pair,
    is_equidistant,
    pair_index,
    parse_newick,
    serialize_newick,
    simulate_equidistant,
    three_point_check,
    topology_id,
    ultrametric_to_tree,
)
from tropstat import treeio
from tropstat.treeio import (
    _build_tree,
    _clades,
    _leaf_names,
    _newick,
    _single_linkage,
    _tree_from_merges,
)
from conftest import (
    FIG_LEFT_NEWICK,
    FIG_LEFT_VECTOR,
    FIG_RIGHT_NEWICK,
    FIG_RIGHT_VECTOR,
    reference_cophenetic_values,
    reference_is_equidistant,
    reference_leaf_names,
    reference_serialize_newick,
    reference_topology_id,
    seeded_vectors,
    tied_ultrametric,
)


def reference_three_point_check(vals, tol=1e-9):
    """The former triple loop, kept as the reference for the array check."""
    n = treeio._leaves_for(len(vals))

    def get(i, j):
        return vals[pair_index(i, j, n)]

    for i, j, k in combinations(range(1, n + 1), 3):
        a, b, c = get(i, j), get(i, k), get(j, k)
        top = max(a, b, c)
        if sum(1 for v in (a, b, c) if v >= top - tol) < 2:
            return False
    return True


def reference_ultrametric_to_tree(u, tol=1e-9):
    """The former cluster-list single linkage, kept as the reference; it
    returns a reference tuple tree (see conftest.py)."""
    if not reference_three_point_check(u.values, tol=tol):
        raise ValueError("input fails the three-point condition")
    names = list(u.leaf_names)
    # each cluster: (smallest leaf name, its root's name and children, height, leaves)
    clusters = [(names[k], (names[k], []), 0.0, [k + 1]) for k in range(u.n_leaves)]
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = min(u.get(i, j) for i in clusters[a][3] for j in clusters[b][3])
                key = (d, clusters[a][0], clusters[b][0])
                if best is None or key < best[0]:
                    best = (key, a, b)
        (d, _, _), a, b = best
        la, (na, ca), ha, ma = clusters[a]
        lb, (nb, cb), hb, mb = clusters[b]
        h = d / 2.0
        merged = (min(la, lb), (None, [(na, h - ha, ca), (nb, h - hb, cb)]), h, ma + mb)
        clusters = [c for k, c in enumerate(clusters) if k not in (a, b)]
        clusters.append(merged)
        clusters.sort(key=lambda c: c[0])
    name, children = clusters[0][1]
    return name, 0.0, children


def reference_parse_newick(text):
    """The former recursive parser, kept as the reference for the scan; it
    returns a reference tuple tree (see conftest.py)."""
    s = text.strip()
    pos = 0

    def error(msg, at):
        raise NewickError(msg, at)

    def parse_clade(i):
        name, length, children = None, 0.0, []
        if i < len(s) and s[i] == "(":
            open_at = i
            i += 1
            while True:
                child, i = parse_clade(i)
                children.append(child)
                if i >= len(s):
                    error("unbalanced parentheses", open_at)
                if s[i] == ",":
                    i += 1
                    continue
                if s[i] == ")":
                    i += 1
                    break
                error(f"unexpected character {s[i]!r}", i)
        # optional label
        j = i
        while j < len(s) and s[j] not in ",():;":
            j += 1
        label = s[i:j].strip()
        if label:
            name = label
        i = j
        # optional branch length
        if i < len(s) and s[i] == ":":
            i += 1
            j = i
            while j < len(s) and s[j] not in ",();:":
                j += 1
            try:
                length = float(s[i:j])
            except ValueError:
                error(f"bad branch length {s[i:j]!r}", i)
            if not math.isfinite(length):
                error("branch length must be finite", i)
            if length < 0:
                error("negative branch length", i)
            i = j
        if not children and not name:
            error("unnamed leaf", i)
        return (name, length, children), i

    if not s:
        raise NewickError("empty input", 0)
    root, pos = parse_clade(pos)
    if pos >= len(s) or s[pos] != ";":
        raise NewickError("missing terminating semicolon", pos)
    if s[pos + 1 :].strip():
        raise NewickError("trailing garbage after semicolon", pos + 1)
    names = reference_leaf_names(root)
    if len(set(names)) < len(names):
        raise NewickError("duplicate leaf labels", 0)
    return root


def reference_fields(t):
    """PhyloTree's four lists of a reference tuple tree, by recursion."""
    names, labels, length, depth = [], [], [], []

    def walk(node, d):
        name, x, children = node
        for ch in children:
            walk(ch, d + 1)
        (labels if children else names).append(name)
        length.append(x)
        depth.append(d)

    walk(t, 0)
    return names, labels, length, depth


NEWICK_EDGE_CASES = [
    "", " \t\n", ";", "a;", "a", " a:1 ; ", "(a,b);", "((a,b);", "(a,b));",
    "(a,b)", "(a,b); x", "(a,b);;", "(a,,b);", "(,b);", "(a:,b);", "(a:1:2,b);",
    "(a:inf,b);", "(a:nan,b);", "(a:1e400,b);", "(a:-1,b);", "(a:-0,b:+1_0);",
    "(a,a);", "(a)b(c);", "(a b:1, c :2) root :3 ;", "((a));", "()x;",
    "(a:\u00a01\u2003,b\u3000);", "(a,b)c:d;", "((a,b)(c,d));", "(a,b",
    "((a:1,b:1):1,c", "(a,(b,c", "((a,b),(c,a));",
]


def newick_corpus():
    """300 simulated trees (every other one with internal labels), 4000
    seeded single-character insertions, deletions and replacements of
    them, and the edge cases."""
    trees = []
    for k in range(300):
        tree = simulate_equidistant(SimConfig(3 + k % 12, 1.0, k))[0]
        if k % 2:
            tree.labels = ["n2"] * len(tree.labels)  # every simulated clade is binary
        trees.append(serialize_newick(tree))
    rng = np.random.default_rng(19)
    mutants = []
    for _ in range(4000):
        text = trees[rng.integers(len(trees))]
        i = int(rng.integers(len(text) + 1))
        c = "(),:;t0 .e-n"[rng.integers(12)]
        inserted = text[:i] + c + text[i:]
        replaced, deleted = text[:i] + c + text[i + 1 :], text[:i] + text[i + 1 :]
        mutants.append((inserted, replaced, deleted)[rng.integers(3)])
    return trees + mutants + NEWICK_EDGE_CASES


def parse_outcome(text):
    """The program's and the reference's outcome on text: the tree's four
    lists, Newick text and topology id, or the NewickError message and
    offset."""
    outcomes = []
    for parse, fields, serialize, topology in (
        (parse_newick, lambda t: (t.names, t.labels, t.length, t.depth), serialize_newick, topology_id),
        (reference_parse_newick, reference_fields, reference_serialize_newick, reference_topology_id),
    ):
        try:
            tree = parse(text)
        except NewickError as exc:
            outcomes.append((str(exc), exc.offset))
            continue
        outcomes.append((fields(tree), serialize(tree), topology(tree)))
    return outcomes


def caterpillar(n):
    """The equidistant caterpillar on n leaves, nesting n - 1 clades, and
    its map: leaf k joins at height (k - 1) / (n - 1), k >= 2."""
    want = 2.0 * np.triu_indices(n, 1)[1] / (n - 1)
    return serialize_newick(_build_tree(want, _leaf_names(n))), want


@st.composite
def newick_strings(draw, names=None):
    """A random Newick tree on 2-40 uniquely named leaves, or on the given
    names in a drawn order: multifurcations, named and unnamed internal
    nodes, tied and zero lengths, and a root length present or absent."""
    label = st.text("abcXYZ019_", min_size=1, max_size=3)
    if names is None:
        n = draw(st.integers(2, 40))
        names = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    else:
        names = draw(st.permutations(names))
    length = st.one_of(
        st.floats(0.0, 10.0), st.integers(0, 3).map(float)
    ).map(lambda x: f":{x!r}")
    clades = [name + draw(length) for name in names]
    while len(clades) > 1:
        k = draw(st.integers(2, min(4, len(clades))))
        i = draw(st.integers(0, len(clades) - k))
        inner = draw(st.one_of(st.just(""), label))
        clades[i : i + k] = [f"({','.join(clades[i : i + k])}){inner}{draw(length)}"]
    root = clades[0]
    if draw(st.booleans()):
        root = root[: root.rindex(":")]
    return root + ";"


@st.composite
def newick_files(draw):
    """1-6 random Newick trees of different shapes on one leaf set."""
    names = draw(st.lists(st.text("abcXYZ019_", min_size=1, max_size=3),
                          min_size=2, max_size=40, unique=True))
    return draw(st.lists(newick_strings(names), min_size=1, max_size=6))


def random_newick(rng, names):
    """A seeded random tree on names, joining 2-4 adjacent clades at a time,
    with lengths 0-2 (so ties and zeros) and some internal labels."""
    clades = [f"{name}:{rng.integers(0, 3)}" for name in names]
    while len(clades) > 1:
        k = int(rng.integers(2, min(4, len(clades)) + 1))
        i = int(rng.integers(0, len(clades) - k + 1))
        inner = "x" if rng.integers(2) else ""
        clades[i : i + k] = [f"({','.join(clades[i : i + k])}){inner}:{rng.integers(0, 3)}"]
    return clades[0] + ";"


def stacked_rows(texts):
    """The cophenetic maps of the Newick texts, one stacked kernel pass."""
    forest = treeio._Forest()
    for text in texts:
        names, _, length, depth = treeio._scan(text)
        assert forest.add(names, length, depth)
    return forest.maps()


class TestParsing:
    def test_parses_leaf_names_sorted(self, fig_left_tree):
        assert fig_left_tree.leaf_names() == ["a", "b", "c", "d"]

    def test_unbalanced_parens(self):
        with pytest.raises(NewickError) as exc:
            parse_newick("((a:1,b:1):1;")
        assert exc.value.offset >= 0  # offset points at the defect
        with pytest.raises(NewickError):
            parse_newick("((a:1,b:1")

    def test_bad_length(self):
        with pytest.raises(NewickError):
            parse_newick("(a:x,b:1);")

    def test_negative_length(self):
        with pytest.raises(NewickError):
            parse_newick("(a:-1,b:1);")

    def test_unnamed_leaf(self):
        with pytest.raises(NewickError):
            parse_newick("(:1,b:1);")

    def test_missing_semicolon(self):
        with pytest.raises(NewickError):
            parse_newick("(a:1,b:1)")

    def test_trailing_garbage(self):
        with pytest.raises(NewickError):
            parse_newick("(a:1,b:1); junk")

    def test_duplicate_leaves(self):
        with pytest.raises(NewickError):
            parse_newick("(a:1,a:1);")

    @pytest.mark.parametrize("fields, message", [
        ((["a", "b"], [], [1.0, 1.0, 0.0], [1, 1, 0]), "one length and one depth"),
        ((["a", "b"], [None], [1.0, 1.0, 0.0], [1, 2, 0]), "more than one level above"),
        ((["a", "b", "c"], [None], [1.0] * 3 + [0.0], [1, 1, 0, 0]), "only the last node"),
    ])
    def test_lists_that_are_not_one_tree_are_refused(self, fields, message):
        with pytest.raises(ValueError, match=message):
            PhyloTree(*fields)

    def test_scan_matches_the_recursive_reference(self):
        corpus, parsed = newick_corpus(), 0
        for text in corpus:
            got, want = parse_outcome(text)
            assert got == want, repr(text)
            parsed += len(got) == 3
        assert 300 < parsed < len(corpus) - 1000  # both outcomes well exercised

    def test_parses_max_depth_open_clades(self):
        n = treeio.MAX_DEPTH + 1
        text, want = caterpillar(n)
        assert text.startswith("(" * treeio.MAX_DEPTH + "t0001:")
        t = parse_newick(text)
        assert serialize_newick(t) == text
        got = cophenetic(t)
        assert got.leaf_names == tuple(_leaf_names(n))
        assert np.max(np.abs(got.as_array() - want)) < 1e-12

    def test_refuses_one_more_open_clade(self):
        text, _ = caterpillar(treeio.MAX_DEPTH + 2)
        with pytest.raises(NewickError) as exc:
            parse_newick(text)
        assert str(exc.value) == "tree nests deeper than 1000 levels (offset 1000)"
        # the limit counts open clades, not "(" characters
        k = treeio.MAX_DEPTH - 1
        outer = "(" * k, "".join(f",u{j})" for j in range(k)) + ";"
        inner = "(a,b),(c,d)"
        assert parse_newick(inner.join(outer)).n_leaves == 4 + k
        inner = "(a,b),((c,d),e)"
        with pytest.raises(NewickError) as exc:
            parse_newick(inner.join(outer))
        assert exc.value.offset == k + inner.index("((") + 1

    def test_serialize_round_trip(self, fig_left_tree):
        text = serialize_newick(fig_left_tree)
        again = serialize_newick(parse_newick(text))
        assert text == again

    def test_serialize_orders_children(self):
        t = parse_newick("((d:1,c:1):1,(b:1,a:1):1);")
        assert serialize_newick(t) == "((a:1,b:1):1,(c:1,d:1):1);"


class TestPairIndexing:
    def test_round_trip(self):
        for n in (3, 4, 5, 8):
            e = n * (n - 1) // 2
            for idx in range(e):
                i, j = index_pair(idx, n)
                assert pair_index(i, j, n) == idx

    def test_lexicographic_order(self):
        assert pair_index(1, 2, 4) == 0
        assert pair_index(1, 3, 4) == 1
        assert pair_index(1, 4, 4) == 2
        assert pair_index(2, 3, 4) == 3
        assert pair_index(3, 4, 4) == 5

    def test_bad_pair(self):
        with pytest.raises(ValueError):
            pair_index(2, 2, 4)


class TestCophenetic:
    def test_left_reference_vector(self, fig_left_tree):
        u = cophenetic(fig_left_tree)
        assert u.values == pytest.approx(FIG_LEFT_VECTOR, abs=1e-12)

    def test_right_reference_vector(self, fig_right_tree):
        u = cophenetic(fig_right_tree)
        assert u.values == pytest.approx(FIG_RIGHT_VECTOR, abs=1e-12)

    def test_reference_vectors_are_ultrametric(self):
        assert three_point_check(FIG_LEFT_VECTOR)
        assert three_point_check(FIG_RIGHT_VECTOR)

    @pytest.mark.parametrize("bad, message", [
        (-1.0, "nonnegative"), (float("inf"), "finite"), (float("nan"), "finite"),
    ])
    def test_map_rejects_negative_and_non_finite(self, bad, message):
        with pytest.raises(ValueError, match=f"must be {message}"):
            DissimilarityMap(3, (1.0, bad, 1.0), ("a", "b", "c"))

    def test_map_is_built_from_the_kernel_row(self):
        # the 1001-leaf caterpillar's map holds 500,500 floats; a map that
        # copies them once more peaks about 12 MB above the kernel's 32 MB
        t = parse_newick(caterpillar(treeio.MAX_DEPTH + 1)[0])
        tracemalloc.start()
        try:
            cophenetic(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 36e6

    def test_get_is_symmetric(self, fig_left_tree):
        u = cophenetic(fig_left_tree)
        assert u.get(1, 3) == u.get(3, 1)
        assert u.get(2, 2) == 0.0


class TestThreePoint:
    def test_violating_vector(self):
        assert not three_point_check((1.0, 2.0, 3.0))

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            w = rng.uniform(0.0, 2.0, size=6)
            shifted = w + 5.0
            assert three_point_check(w) == three_point_check(shifted)

    def test_tolerance(self):
        w = (1.0, 1.0 + 1e-12, 0.5)
        assert three_point_check(w, tol=1e-9)
        assert not three_point_check((1.0, 1.1, 0.5), tol=1e-3)

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3, -1e-9])
    def test_matches_triple_loop_reference(self, tol):
        rng = np.random.default_rng(5)
        for v in seeded_vectors(17, 400):
            for offset in (0.0, 1e-9, -1e-9):
                w = (v + offset * rng.integers(-1, 2, size=len(v))).tolist()
                assert three_point_check(w, tol=tol) is reference_three_point_check(
                    w, tol=tol
                ), (w, tol)

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3, -1e-9])
    def test_stack_matches_triple_loop_reference(self, tol):
        rng = np.random.default_rng(12)
        for n in range(3, 13):
            e = n * (n - 1) // 2
            ultra = [tied_ultrametric(n, rng) for _ in range(8)]
            W = np.array(
                [rng.integers(0, 4, size=e).astype(float) for _ in range(4)]
                + [np.round(rng.uniform(0, 3, size=e), 1) for _ in range(4)]
                + ultra
                + [u + 1e-9 * rng.integers(-1, 2, size=e) for u in ultra]
            )
            want = [reference_three_point_check(w.tolist(), tol=tol) for w in W]
            assert three_point_check(W, tol=tol) == want, (n, tol)
            assert [three_point_check(w, tol=tol) for w in W] == want, (n, tol)
            if tol >= 0:
                assert True in want and False in want, (n, tol)

    def test_caterpillar(self):
        # leaf k joins the caterpillar at height (k - 1) / (n - 1), k >= 2
        n = 300
        want = 2.0 * np.triu_indices(n, 1)[1] / (n - 1)
        assert three_point_check(want)
        # u(1,3) = u(2,3) > u(1,2); raising u(1,3) leaves its maximum once
        broken = want.copy()
        broken[pair_index(1, 3, n)] += 0.1
        assert not three_point_check(broken)
        assert three_point_check(np.array([want, broken, want])) == [True, False, True]

    def test_blocked_cube(self):
        # The only violating triple is the last three leaves.
        n = 80
        D = np.full((n, n), 10.0)
        D[: n - 3, : n - 3] = 4.0
        D[n - 3, n - 2] = D[n - 2, n - 3] = 1.0
        D[n - 3, n - 1] = D[n - 1, n - 3] = 2.0
        D[n - 2, n - 1] = D[n - 1, n - 2] = 2.0
        upper = np.triu_indices(n, 1)
        names = tuple(_leaf_names(n))
        u = DissimilarityMap(n, tuple(D[upper]), names)
        assert three_point_check(u)
        again = cophenetic(ultrametric_to_tree(u))
        assert again.leaf_names == names
        assert np.max(np.abs(again.as_array() - u.as_array())) < 1e-12
        D[n - 2, n - 1] = D[n - 1, n - 2] = 3.0
        assert not three_point_check(DissimilarityMap(n, tuple(D[upper]), names))

    def test_ultrametric_point_validates(self):
        with pytest.raises(ValueError):
            UltrametricPoint(3, (1.0, 2.0, 3.0), ("a", "b", "c"))
        UltrametricPoint(3, (1.0, 2.0, 2.0), ("a", "b", "c"))


class TestReconstruction:
    def test_round_trip_left(self, fig_left_tree):
        u = cophenetic(fig_left_tree)
        again = cophenetic(ultrametric_to_tree(u))
        assert np.max(np.abs(np.array(again.values) - np.array(u.values))) < 1e-9
        assert serialize_newick(ultrametric_to_tree(u)) == serialize_newick(
            fig_left_tree
        )

    def test_round_trip_right(self, fig_right_tree):
        u = cophenetic(fig_right_tree)
        again = cophenetic(ultrametric_to_tree(u))
        assert np.max(np.abs(np.array(again.values) - np.array(u.values))) < 1e-9

    def test_rejects_non_ultrametric(self):
        u = DissimilarityMap(3, (1.0, 2.0, 3.0), ("a", "b", "c"))
        with pytest.raises(ValueError):
            ultrametric_to_tree(u)

    def test_reconstruction_is_equidistant(self, fig_left_tree):
        t = ultrametric_to_tree(cophenetic(fig_left_tree))
        ok, height = is_equidistant(t)
        assert ok
        assert height == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
    def test_matches_cluster_list_reference(self, tol):
        for v in seeded_vectors(23, 300):
            if (v < 0).any():
                continue
            n = treeio._leaves_for(len(v))
            u = DissimilarityMap(n, tuple(v.tolist()), tuple(_leaf_names(n)))
            try:
                expected = reference_serialize_newick(reference_ultrametric_to_tree(u, tol=tol))
            except ValueError:
                with pytest.raises(ValueError):
                    ultrametric_to_tree(u, tol=tol)
                continue
            assert serialize_newick(ultrametric_to_tree(u, tol=tol)) == expected

    def test_topology_id_ignores_lengths(self):
        a = parse_newick("((a:1,b:1):1,c:2);")
        b = parse_newick("((a:3,b:3):4,c:7);")
        assert topology_id(a) == topology_id(b)
        c = parse_newick("((a:1,c:1):1,b:2);")
        assert topology_id(a) != topology_id(c)


def merge_list_corpus():
    """Stacks of pair vectors, one per leaf count 3-11: 20 tied integer
    ultrametrics and the cophenetic maps of 20 simulated trees each."""
    rng = np.random.default_rng(29)
    stacks = []
    for n in range(3, 12):
        tied = [tied_ultrametric(n, rng) for _ in range(20)]
        simulated = [cophenetic(t).values for t in simulate_equidistant(SimConfig(n, 1.0, n, 20))]
        stacks.append(np.array(tied + simulated))
    return stacks


def merge_orders(live, height=1.0):
    """Every merge list that joins the clusters live (sorted leaf
    positions), one merge per unit of height."""
    if len(live) == 1:
        yield []
        return
    for a, b in combinations(live, 2):
        for tail in merge_orders([c for c in live if c != b], height + 1.0):
            yield [(a, b, height)] + tail


class TestMergeLists:
    def test_stack_matches_rows_run_alone(self):
        for X in merge_list_corpus():
            assert _single_linkage(X) == [_single_linkage(row[None])[0] for row in X]

    def test_newick_matches_serialized_tree(self):
        for X in merge_list_corpus():
            names = _leaf_names(treeio._leaves_for(X.shape[1]))
            for row, merges in zip(X, _single_linkage(X)):
                assert _newick(merges, names) == serialize_newick(_build_tree(row, names))

    def test_clades_key_the_4_leaf_topologies(self):
        names = _leaf_names(4)
        lists = list(merge_orders([0, 1, 2, 3]))
        ids = [topology_id(_tree_from_merges(m, names)) for m in lists]
        keys = [_clades(m) for m in lists]
        assert len(lists) == 18 and len(set(ids)) == 15
        for (id1, key1), (id2, key2) in combinations(zip(ids, keys), 2):
            assert (key1 == key2) == (id1 == id2)


class TestStackedCophenetic:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(newick_files())
    def test_rows_match_the_reference_per_tree(self, texts):
        for row, text in zip(stacked_rows(texts), texts):
            want = np.array(reference_cophenetic_values(reference_parse_newick(text)))
            assert row.tobytes() == want.tobytes(), text

    def test_depths_from_1_to_the_caterpillars(self):
        n = treeio.MAX_DEPTH + 1
        names = _leaf_names(n)
        rng = np.random.default_rng(31)
        texts = [
            caterpillar(n)[0],  # nests MAX_DEPTH clades
            "(" + ",".join(f"{name}:{k % 3}" for k, name in enumerate(names)) + "):1;",
            random_newick(rng, names[::-1]),
            random_newick(rng, rng.permutation(names)),
        ]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(n + 1000)  # the references recurse once per level
        try:
            want = [reference_cophenetic_values(reference_parse_newick(text)) for text in texts]
        finally:
            sys.setrecursionlimit(limit)
        for row, w in zip(stacked_rows(texts), want):
            assert row.tobytes() == np.array(w).tobytes()
        assert stacked_rows(texts[:1]).tobytes() == np.array(want[0]).tobytes()

    def test_refuses_other_leaf_names(self):
        forest = treeio._Forest()
        assert forest.add(["a", "b"], [1.0, 2.0, 0.0], [1, 1, 0])
        assert not forest.add(["a", "c"], [1.0, 2.0, 0.0], [1, 1, 0])
        assert not forest.add(["a", "b", "c"], [1.0, 2.0, 3.0, 0.0], [1, 1, 1, 0])
        with pytest.raises(ValueError, match="need at least 2 leaves"):
            forest.add(["a"], [1.0], [0])
        assert forest.maps().tolist() == [[3.0]]


class TestPostorderWalks:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(newick_strings())
    def test_match_recursive_references(self, text):
        t, ref = parse_newick(text), reference_parse_newick(text)
        assert t.leaf_names() == reference_leaf_names(ref)
        assert serialize_newick(t) == reference_serialize_newick(ref)
        assert topology_id(t) == reference_topology_id(ref)
        assert is_equidistant(t) == reference_is_equidistant(ref)
        assert cophenetic(t).values == reference_cophenetic_values(ref)

    def test_deeper_than_the_recursion_limit(self):
        # leaf k joins the caterpillar at height (k - 1) / (n - 1), k >= 2
        n = sys.getrecursionlimit() + 100
        want = 2.0 * np.triu_indices(n, 1)[1] / (n - 1)
        u = DissimilarityMap(n, tuple(want.tolist()), tuple(_leaf_names(n)))
        t = _build_tree(u.values, u.leaf_names)
        text = serialize_newick(t)
        assert text.startswith("(" * (n - 1) + "t0001:")
        assert topology_id(t).count("(") == n - 1
        ok, height = is_equidistant(t)
        assert ok and height == pytest.approx(1.0, abs=1e-12)
        again = cophenetic(t)
        assert again.leaf_names == u.leaf_names
        assert np.max(np.abs(again.as_array() - want)) < 1e-12
