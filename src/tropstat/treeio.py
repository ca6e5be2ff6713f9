"""Newick parsing/serialization, cophenetic maps, and ultrametric checks.

Dissimilarity vectors use lexicographic pair order (1,2),(1,3),...,(N-1,N)
over leaf names sorted lexicographically.  Leaves in the pair-index helpers
are 1-based (matching the usual [N] convention); vector positions are
0-based.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

STRUCT_TOL = 1e-9
MAX_DEPTH = 1000  # most open clades parse_newick accepts

# a node's label, then its optional ":" branch length, each running to the
# next delimiter
_NODE = re.compile(r"([^,():;]*)(?::([^,():;]*))?")


class NewickError(ValueError):
    """Malformed Newick input; carries the character offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass
class PhyloTree:
    """Rooted, leaf-labeled tree with nonnegative branch lengths, held as
    the level sequence _scan reads from Newick text:

    - names: the leaf names, in text order;
    - labels: the clade labels, in close-paren order, None where absent;
    - length: each node's branch length, in postorder;
    - depth: each node's depth, in postorder, the root's 0.

    A clade follows its last child in postorder, one level up, so the
    depths determine the tree (see _leaf_mask and _parents); lists that are
    not one tree's raise ValueError.
    """

    names: list[str]
    labels: list[Optional[str]]
    length: list[float]
    depth: list[int]

    def __post_init__(self):
        if len(set(self.names)) < len(self.names):
            raise ValueError("duplicate leaf labels")
        size = len(self.names) + len(self.labels)
        if len(self.length) != size or len(self.depth) != size:
            raise ValueError("need one length and one depth per leaf name and clade label")
        depth = np.asarray(self.depth)
        if np.count_nonzero(_leaf_mask(depth)) != len(self.names):
            raise ValueError("the depths make a leaf count other than the names'")
        if depth[-1] != 0 or (depth[:-1] < 1).any():
            raise ValueError("only the last node, the root, may have depth 0")
        if (depth[1:] < depth[:-1] - 1).any():
            raise ValueError("a node is more than one level above the node before it")

    def leaf_names(self) -> list[str]:
        return sorted(self.names)

    @property
    def n_leaves(self) -> int:
        return len(self.names)


def parse_newick(text: str) -> PhyloTree:
    """Parse one Newick tree ("name:length" style, semicolon-terminated)."""
    return PhyloTree(*_scan(text))


def _scan(text: str) -> tuple[list[str], list[Optional[str]], list[float], list[int]]:
    """One Newick tree as PhyloTree's four lists.

    One left-to-right scan with a stack of the open clades' "(" offsets; a
    tree nesting more than MAX_DEPTH clades is refused at the "(" that opens
    one too many.  Every defect raises NewickError at its offset.
    """
    s = text.strip()
    if not s:
        raise NewickError("empty input", 0)
    names, labels, length, depth = [], [], [], []
    opened: list[int] = []  # the "(" offset of each open clade
    pos, fresh = 0, True  # fresh: a node starts at pos, not a closed clade
    while True:
        if fresh and s.startswith("(", pos):
            if len(opened) == MAX_DEPTH:
                raise NewickError(f"tree nests deeper than {MAX_DEPTH} levels", pos)
            opened.append(pos)
            pos += 1
            continue
        # the node's children are read; its optional label and branch length follow
        node = _NODE.match(s, pos)
        label, given = node.groups()
        x = 0.0
        if given is not None:
            try:
                x = float(given)
            except ValueError:
                raise NewickError(f"bad branch length {given!r}", node.start(2)) from None
            if not 0.0 <= x < math.inf:  # false for nan too
                if not math.isfinite(x):
                    raise NewickError("branch length must be finite", node.start(2))
                raise NewickError("negative branch length", node.start(2))
        pos = node.end()
        label = label.strip()
        if fresh:
            if not label:
                raise NewickError("unnamed leaf", pos)
            names.append(label)
        else:
            labels.append(label or None)
        length.append(x)
        depth.append(len(opened))
        if not opened:
            break
        if s.startswith(",", pos):
            fresh = True
        elif s.startswith(")", pos):
            opened.pop()
            fresh = False
        elif pos == len(s):
            raise NewickError("unbalanced parentheses", opened[-1])
        else:
            raise NewickError(f"unexpected character {s[pos]!r}", pos)
        pos += 1
    if not s.startswith(";", pos):
        raise NewickError("missing terminating semicolon", pos)
    if pos + 1 < len(s):  # s is stripped, so anything after ";" is garbage
        raise NewickError("trailing garbage after semicolon", pos + 1)
    if len(set(names)) < len(names):
        raise NewickError("duplicate leaf labels", 0)
    return names, labels, length, depth


def _leaf_mask(depth: np.ndarray) -> np.ndarray:
    """Which nodes are leaves, for trees given by their postorder depths: a
    clade follows its last child, one level deeper, and a leaf follows a
    node no deeper than itself (or starts a tree)."""
    return np.concatenate([[True], depth[1:] >= depth[:-1]])


def _parents(depth: np.ndarray) -> np.ndarray:
    """Each node's parent, a root its own, for trees given by their postorder
    depths: the parent is the first later node one level up, as the nodes in
    between are its later children's subtrees, all deeper."""
    pos = np.arange(len(depth))
    key = depth.astype(np.int64) * len(depth) + pos
    by_level = np.argsort(depth, kind="stable")  # so key[by_level] is sorted
    parent = by_level[np.searchsorted(key[by_level], key - len(depth))]
    root = depth == 0
    parent[root] = pos[root]
    return parent


def _fold(t: PhyloTree, leaf, clade):
    """The root's value of a bottom-up pass over t: leaf(name, length) at
    each leaf, and clade(children, label, length) at each clade, with its
    children's values in text order.  Each level keeps the values still
    waiting for their parent, and a clade takes the whole level below it."""
    names, labels = iter(t.names), iter(t.labels)
    below = [[] for _ in range(max(t.depth) + 2)]
    last = -1  # the previous node's depth
    for x, d in zip(t.length, t.depth):
        if d < last:  # a clade, one level above its last child
            value = clade(below[d + 1], next(labels), x)
            below[d + 1] = []
        else:
            value = leaf(next(names), x)
        below[d].append(value)
        last = d
    return below[0][0]


def serialize_newick(t: PhyloTree) -> str:
    """Canonical Newick string: children ordered by smallest leaf label."""

    def clade(kids, label, x):  # each kid is (smallest leaf label, text, length)
        kids.sort(key=lambda kid: kid[0])
        body = ",".join(f"{text}:{_fmt_len(y)}" for _, text, y in kids)
        return kids[0][0], f"({body}){label or ''}", x

    _, text, x = _fold(t, lambda name, x: (name, name, x), clade)
    if x != 0.0:
        text += ":" + _fmt_len(x)
    return text + ";"


def _fmt_len(x: float) -> str:
    return f"{x:.12g}"


def pair_index(i: int, j: int, n: int) -> int:
    """Lexicographic position of pair (i, j), 1 <= i < j <= n."""
    if not (1 <= i < j <= n):
        raise ValueError(f"bad pair ({i}, {j}) for n={n}")
    return (i - 1) * (2 * n - i) // 2 + (j - i - 1)


def index_pair(idx: int, n: int) -> tuple[int, int]:
    """Inverse of pair_index."""
    if not (0 <= idx < n * (n - 1) // 2):
        raise ValueError(f"index {idx} out of range for n={n}")
    i = 1
    offset = idx
    while offset >= n - i:
        offset -= n - i
        i += 1
    return i, i + offset + 1


@dataclass
class DissimilarityMap:
    """Pairwise-distance vector over n_leaves in lexicographic pair order."""

    n_leaves: int
    values: tuple[float, ...]
    leaf_names: tuple[str, ...]

    def __post_init__(self):
        e = self.n_leaves * (self.n_leaves - 1) // 2
        if len(self.values) != e:
            raise ValueError(f"expected {e} entries for {self.n_leaves} leaves")
        if len(self.leaf_names) != self.n_leaves:
            raise ValueError("one name per leaf required")
        values = np.asarray(self.values, dtype=float)
        if (values < 0).any():
            raise ValueError("dissimilarities must be nonnegative")
        if not np.isfinite(values).all():
            raise ValueError("dissimilarities must be finite")
        object.__setattr__(self, "values", tuple(values.tolist()))

    def get(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if i > j:
            i, j = j, i
        return self.values[pair_index(i, j, self.n_leaves)]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


class UltrametricPoint(DissimilarityMap):
    """A dissimilarity map satisfying the three-point condition."""

    def __post_init__(self):
        super().__post_init__()
        if not three_point_check(self):
            raise ValueError("values fail the three-point condition")


def cophenetic(t: PhyloTree) -> DissimilarityMap:
    """Path-length dissimilarity map of a tree, leaves sorted by name."""
    X, names = _cophenetic_maps([t])
    return DissimilarityMap(len(names), X[0], tuple(names))


def _cophenetic_maps(trees) -> tuple[np.ndarray, list[str]]:
    """The cophenetic maps of trees on one leaf set, as a (k, e) stack, and
    their sorted leaf names."""
    forest = _Forest()
    for t in trees:
        if not forest.add(t.names, t.length, t.depth):
            raise ValueError("trees differ in their leaf names")
    return forest.maps(), forest.names


class _Forest:
    """Trees on one leaf set, stacked for one cophenetic pass: the branch
    lengths and depths of their nodes in postorder, tree after tree, as
    _scan gives them, and each tree's leaves as name ranks in text order."""

    def __init__(self):
        self.length = array("d")
        self.depth = array("i")
        self.ranks = array("i")
        self.names: Optional[list[str]] = None  # the first tree's, sorted
        self._rank: dict[str, int] = {}

    def add(self, names, length, depth) -> bool:
        """Append a tree given by its distinct leaf names in text order and
        its nodes' lengths and depths in postorder; False, appending nothing,
        when its leaf names are not the first tree's."""
        if len(names) < 2:
            raise ValueError("need at least 2 leaves")
        if self.names is None:
            self.names = sorted(names)
            self._rank = {name: r for r, name in enumerate(self.names)}
        if len(names) != len(self.names):
            return False
        try:
            self.ranks.extend([self._rank[name] for name in names])
        except KeyError:
            return False
        self.length.extend(length)
        self.depth.extend(depth)
        return True

    def maps(self) -> np.ndarray:
        """The (k, e) cophenetic maps of the k trees, in lexicographic pair
        order over the sorted names; a sum past the float range is inf.

        Row r of the stack is its leaf r in text order.  Each row's chain of
        ancestors gives its path sums, and the ends of their leaf ranges give
        keys that one binary search runs through for every pair at once."""
        n, rows = len(self.names), len(self.ranks)
        depth = np.frombuffer(self.depth, dtype=np.intc)
        leaf = _leaf_mask(depth)
        leaves = np.flatnonzero(leaf)
        levels = int(depth[leaves].max()) + 1
        # every index below stays under one of these bounds
        bound = max(rows * (n + 1), rows * levels, len(depth))
        index = np.int32 if bound < 2**31 else np.int64
        parent = _parents(depth).astype(index)
        chain = np.empty((rows, levels), dtype=index)  # each leaf's ancestors, the root repeated
        chain[:, 0] = leaves
        for level in range(1, levels):
            chain[:, level] = parent[chain[:, level - 1]]
        # a node's leaf range ends at the count of leaves up to it in
        # postorder; that count rises along a chain, and offset by n r it
        # puts row r's keys above every earlier row's, so the whole key
        # array is sorted
        key = np.cumsum(leaf, dtype=index)[chain]
        key += (n * np.arange(rows, dtype=index))[:, None]
        a, b = np.triu_indices(n, 1)  # name ranks, in lexicographic pair order
        row = np.frombuffer(self.ranks, dtype=np.intc).reshape(-1, n).argsort(axis=1)
        row = row.astype(index) + n * np.arange(len(row), dtype=index)[:, None]
        i, j = row[:, a], row[:, b]
        ri, rj = np.minimum(i, j), np.maximum(i, j, out=j)  # the pair's rows, ri < rj
        del i
        # both paths end one level below the pair's lowest common ancestor:
        # on ri's chain, below the first level whose range holds leaf rj, and
        # on rj's chain, as far from the root
        step = rj - ri
        step *= levels
        depth = depth[leaves].astype(index)
        step += depth[rj]
        step -= depth[ri]
        ri *= n
        ri += rj
        del rj
        at = np.searchsorted(key.ravel(), ri, side="right")
        del ri, key
        at -= 1
        with np.errstate(over="ignore"):  # the caller reports an overflow
            # path sums up each chain, leaf first: the additions, in their
            # order, of the walk that adds a branch to every path below it
            P = np.frombuffer(self.length)[chain].ravel()
            del chain
            np.cumsum(P.reshape(rows, levels), axis=1, out=P.reshape(rows, levels))
            X = P[at]
            at += step
            X += P[at]
        return X


def is_equidistant(t: PhyloTree, tol: float = STRUCT_TOL) -> tuple[bool, float]:
    """Whether all root-to-leaf path lengths agree within tol, plus the height."""
    depth = np.asarray(t.depth)
    parent = _parents(depth).tolist()
    # root-down, so each parent's path length is known before its children's
    path = [0.0] * len(depth)
    for node in reversed(range(len(depth))):
        path[node] = path[parent[node]] + t.length[node]
    depths = [path[node] for node in np.flatnonzero(_leaf_mask(depth)).tolist()]
    height = max(depths)
    return (height - min(depths)) <= tol, height


def three_point_check(w, tol: float = STRUCT_TOL) -> bool | list[bool]:
    """Max of every triple {w(i,j), w(i,k), w(j,k)} attained at least twice.

    w is one map (a DissimilarityMap or pair vector), giving a bool, or a
    (k, e) stack of pair vectors, giving a list of k bools.  A triple fails
    exactly when its unique largest entry D_ij exceeds max(D_ik, D_jk) by
    more than tol, so with D the square matrix with a -inf diagonal, w passes
    exactly when M >= D - tol for M = min over k of max(D[:, k], D[k, :]);
    the terms k = i, k = j and the diagonal change no verdict.  One sweep
    over k builds M in O(n^2) memory per map, O(k n^2) for a stack.
    """
    D = _square(w.values if isinstance(w, DissimilarityMap) else w, -np.inf)
    n = D.shape[-1]
    if n < 3:
        raise ValueError("three-point condition needs at least 3 leaves")
    M, pair = np.full_like(D, np.inf), np.empty_like(D)
    for k in range(n):
        np.minimum(M, np.maximum(D[..., :, k, None], D[..., None, k, :], out=pair), out=M)
    return (M >= D - tol).all(axis=(-2, -1)).tolist()


def _square(vals, diagonal: float) -> np.ndarray:
    """Symmetric n x n matrix of a pair vector, with a constant diagonal;
    leading axes of vals are kept, so a (k, e) stack gives (k, n, n)."""
    vals = np.asarray(vals, dtype=float)
    n = _leaves_for(vals.shape[-1])
    D = np.full(vals.shape[:-1] + (n, n), diagonal)
    leaf = np.arange(n)
    upper = leaf[:, None] < leaf  # row-major order is lexicographic pair order
    D[..., upper] = vals
    np.swapaxes(D, -1, -2)[..., upper] = vals
    return D


def _single_linkage(X) -> list[list[tuple[int, int, float]]]:
    """The equidistant tree of each pair vector in a (k, e) stack, as its
    single-linkage merges (a, b, h): clusters a < b join at height h = d / 2.

    One pass runs all k maps together, on their square matrices with an
    inf diagonal.  In each, row b merges into row a by an elementwise min,
    so every live row is the smallest leaf position of its cluster.  The
    row-major argmin breaks ties in d toward the smaller first leaf, then
    the smaller second leaf.
    """
    D = _square(X, np.inf)
    k, n = D.shape[:2]
    stack = np.arange(k)
    a, b, d = (np.empty((n - 1, k), dtype=dtype) for dtype in (int, int, float))
    for step in range(n - 1):
        a[step], b[step] = np.divmod(D.reshape(k, n * n).argmin(axis=1), n)
        sa, sb = a[step], b[step]
        d[step] = D[stack, sa, sb]
        row = np.minimum(D[stack, sa], D[stack, sb])
        row[stack, sa] = np.inf
        D[stack, sa], D[stack, :, sa] = row, row
        D[stack, sb], D[stack, :, sb] = np.inf, np.inf
    h = d / 2.0
    return [list(zip(*m)) for m in zip(a.T.tolist(), b.T.tolist(), h.T.tolist())]


def _leaves_for(e: int) -> int:
    n = round((1 + math.isqrt(1 + 8 * e)) / 2)
    if n * (n - 1) // 2 != e:
        raise ValueError(f"vector length {e} is not a binomial C(N,2)")
    return n


def _leaf_names(n: int) -> list[str]:
    """t1..tN, zero-padded to a common width so they sort numerically."""
    width = len(str(n))
    return [f"t{k:0{width}d}" for k in range(1, n + 1)]


def ultrametric_to_tree(u: DissimilarityMap, tol: float = STRUCT_TOL) -> PhyloTree:
    """The unique equidistant tree realizing an ultrametric.

    Single-linkage agglomeration placing each merge at height u(i,j)/2;
    exact for ultrametrics.  Ties break toward the smaller leaf position,
    which is name order when leaf_names are sorted.
    """
    if not three_point_check(u, tol=tol):
        raise ValueError("input fails the three-point condition")
    return _build_tree(u.values, u.leaf_names)


def _build_tree(values, names) -> PhyloTree:
    """ultrametric_to_tree of the pair vector values over the leaf names,
    without the three-point check, for callers that have already made it."""
    return _tree_from_merges(_single_linkage([values])[0], names)


def _tree_from_merges(merges, names) -> PhyloTree:
    """The tree of a merge list (a, b, h) over the leaf names: clusters are
    named by their smallest leaf position, a < b, and join at height h."""
    n = len(names)
    nodes = [[leaf] for leaf in range(n)]  # each cluster's nodes in postorder
    heights = [0.0] * n
    parent, length = [0] * (2 * n - 1), [0.0] * (2 * n - 1)
    for k, (a, b, h) in enumerate(merges, n):  # node k is this merge's clade
        for c in (a, b):
            parent[nodes[c][-1]], length[nodes[c][-1]] = k, h - heights[c]
        nodes[a] += nodes[b]
        nodes[a].append(k)
        heights[a] = h
    depth = [0] * (2 * n - 1)
    for node in reversed(range(2 * n - 2)):  # a parent outnumbers its children
        depth[node] = depth[parent[node]] + 1
    order = nodes[0]
    return PhyloTree(
        [names[node] for node in order if node < n],
        [None] * (n - 1),
        [length[node] for node in order],
        [depth[node] for node in order],
    )


def _newick(merges, names) -> str:
    """serialize_newick of _tree_from_merges(merges, names), written straight
    from the merges; names must sort in position order, as _leaf_names do."""
    text, heights = list(names), [0.0] * len(names)
    for a, b, h in merges:
        text[a] = f"({text[a]}:{_fmt_len(h - heights[a])},{text[b]}:{_fmt_len(h - heights[b])})"
        heights[a] = h
    return text[0] + ";"


def _clades(merges) -> frozenset[int]:
    """The clades of a merge list's tree as leaf bitmasks: two trees on the
    same leaves have equal keys exactly when their topology_ids are equal."""
    masks, clades = [1 << leaf for leaf in range(len(merges) + 1)], []
    for a, b, _ in merges:
        masks[a] |= masks[b]
        clades.append(masks[a])
    return frozenset(clades)


def topology_id(t: PhyloTree) -> str:
    """Canonical label-set nesting string, independent of branch lengths."""
    return _fold(t, lambda name, _: name, lambda kids, *_: f"({','.join(sorted(kids))})")
