"""Newick parsing/serialization, cophenetic maps, and ultrametric checks.

Dissimilarity vectors use lexicographic pair order (1,2),(1,3),...,(N-1,N)
over leaf names sorted lexicographically.  Leaves in the pair-index helpers
are 1-based (matching the usual [N] convention); vector positions are
0-based.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

STRUCT_TOL = 1e-9
MAX_DEPTH = 1000  # most open clades parse_newick accepts

# a label or a branch length runs to the next delimiter
_LABEL = re.compile(r"[^,():;]*")
_LENGTH = re.compile(r":([^,():;]*)")


class NewickError(ValueError):
    """Malformed Newick input; carries the character offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass
class TreeNode:
    name: Optional[str] = None
    length: float = 0.0
    children: list["TreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class PhyloTree:
    """Rooted, leaf-labeled tree with nonnegative branch lengths."""

    root: TreeNode

    def __post_init__(self):
        names = self.leaf_names()
        if len(names) != len(set(names)):
            raise ValueError("duplicate leaf labels")

    def leaf_names(self) -> list[str]:
        return sorted(node.name or "" for node in _postorder(self.root) if node.is_leaf)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_names())


def _postorder(root: TreeNode) -> list[TreeNode]:
    """Every node of the tree at root, each child before its parent and
    children left to right; an explicit stack, so any depth is walked."""
    order, stack = [], [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    order.reverse()
    return order


def parse_newick(text: str) -> PhyloTree:
    """Parse one Newick tree ("name:length" style, semicolon-terminated).

    One left-to-right scan with a stack of the open clades; a tree nesting
    more than MAX_DEPTH clades is refused at the "(" that opens one too many.
    """
    s = text.strip()
    if not s:
        raise NewickError("empty input", 0)
    stack: list[tuple[TreeNode, int]] = []  # open clades, each with its "(" offset
    node, pos = None, 0
    while True:
        if node is None:  # a clade starts at pos
            if s.startswith("(", pos):
                if len(stack) == MAX_DEPTH:
                    raise NewickError(f"tree nests deeper than {MAX_DEPTH} levels", pos)
                stack.append((TreeNode(), pos))
                pos += 1
                continue
            node = TreeNode()
        # node's children are read; its optional label and branch length follow
        label = _LABEL.match(s, pos)
        node.name = label.group().strip() or None
        pos = label.end()
        if length := _LENGTH.match(s, pos):
            at = length.start(1)
            try:
                node.length = float(length.group(1))
            except ValueError:
                raise NewickError(f"bad branch length {length.group(1)!r}", at) from None
            if not math.isfinite(node.length):
                raise NewickError("branch length must be finite", at)
            if node.length < 0:
                raise NewickError("negative branch length", at)
            pos = length.end()
        if node.is_leaf and not node.name:
            raise NewickError("unnamed leaf", pos)
        if not stack:
            break
        parent, open_at = stack[-1]
        parent.children.append(node)
        if s.startswith(",", pos):
            node = None
        elif s.startswith(")", pos):
            node = stack.pop()[0]
        elif pos == len(s):
            raise NewickError("unbalanced parentheses", open_at)
        else:
            raise NewickError(f"unexpected character {s[pos]!r}", pos)
        pos += 1
    if not s.startswith(";", pos):
        raise NewickError("missing terminating semicolon", pos)
    if pos + 1 < len(s):  # s is stripped, so anything after ";" is garbage
        raise NewickError("trailing garbage after semicolon", pos + 1)
    try:
        return PhyloTree(node)
    except ValueError as exc:
        raise NewickError(str(exc), 0) from exc


def serialize_newick(t: PhyloTree) -> str:
    """Canonical Newick string: children ordered by smallest leaf label."""
    done: dict[int, tuple[str, str]] = {}  # node id -> (smallest leaf label, text)
    for node in _postorder(t.root):
        if node.is_leaf:
            done[id(node)] = (node.name or "", node.name)
            continue
        kids = [(*done.pop(id(ch)), ch.length) for ch in node.children]
        kids.sort(key=lambda kid: kid[0])
        body = ",".join(f"{text}:{_fmt_len(x)}" for _, text, x in kids)
        done[id(node)] = (kids[0][0], f"({body}){node.name or ''}")
    text = done[id(t.root)][1]
    if t.root.length != 0.0:
        text += ":" + _fmt_len(t.root.length)
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
    names = t.leaf_names()
    if len(names) < 2:
        raise ValueError("need at least 2 leaves")
    order = {name: k for k, name in enumerate(names)}
    n = len(names)
    dist = np.zeros((n, n))
    below: dict[int, dict[int, float]] = {}  # node id -> {leaf: path to its parent}
    for node in _postorder(t.root):
        if node.is_leaf:
            below[id(node)] = {order[node.name]: node.length}
            continue
        merged: dict[int, float] = {}
        for ch in node.children:
            sub = below.pop(id(ch))
            for i, di in merged.items():
                for j, dj in sub.items():
                    dist[i, j] = dist[j, i] = di + dj
            merged.update(sub)
        below[id(node)] = {i: d + node.length for i, d in merged.items()}
    values = dist[np.triu_indices(n, 1)]  # row-major order is lexicographic pair order
    return DissimilarityMap(n, tuple(values.tolist()), tuple(names))


def is_equidistant(t: PhyloTree, tol: float = STRUCT_TOL) -> tuple[bool, float]:
    """Whether all root-to-leaf path lengths agree within tol, plus the height."""
    above = {id(t.root): 0.0}  # node id -> path length from the root to its parent
    depths: list[float] = []
    for node in reversed(_postorder(t.root)):
        acc = above.pop(id(node)) + node.length
        if node.is_leaf:
            depths.append(acc)
        for ch in node.children:
            above[id(ch)] = acc
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
    nodes = [TreeNode(name=name) for name in names]
    heights = [0.0] * len(names)
    for a, b, h in merges:
        nodes[a].length = h - heights[a]
        nodes[b].length = h - heights[b]
        nodes[a], heights[a] = TreeNode(children=[nodes[a], nodes[b]]), h
    return PhyloTree(nodes[0])


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
    ids: dict[int, str] = {}  # node id -> its subtree's string
    for node in _postorder(t.root):
        if node.is_leaf:
            ids[id(node)] = node.name or ""
        else:
            kids = sorted(ids.pop(id(ch)) for ch in node.children)
            ids[id(node)] = "(" + ",".join(kids) + ")"
    return ids[id(t.root)]
