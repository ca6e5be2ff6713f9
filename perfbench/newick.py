"""Small iterative Newick reader used only to check the program's output."""

from __future__ import annotations

import re

import numpy as np

_TOKEN = re.compile(r"[(),;]|:[^,();]+|[^,():;]+")


def read(text: str):
    """Leaf names (sorted), cophenetic vector and root-to-leaf depths.

    Iterative, so deep trees do not hit the recursion limit.  The vector is
    in lexicographic pair order over the sorted names; depths follow them.
    """
    parent, length, name = [-1], [0.0], [None]
    stack, last = [], 0
    for tok in _TOKEN.findall(text.strip()):
        if tok == "(":
            parent.append(stack[-1] if stack else -1)
            length.append(0.0)
            name.append(None)
            stack.append(len(parent) - 1)
        elif tok == ")":
            last = stack.pop()
        elif tok.startswith(":"):
            length[last] = float(tok[1:])
        elif tok not in ",;":
            parent.append(stack[-1] if stack else -1)
            length.append(0.0)
            name.append(tok.strip())
            last = len(parent) - 1
    # node 0 is a placeholder; real nodes start at 1 and parents precede children
    depth = [0.0] * len(parent)
    for k in range(1, len(parent)):
        depth[k] = (depth[parent[k]] if parent[k] > 0 else 0.0) + length[k]
    leaves = sorted((nm, k) for k, nm in enumerate(name) if nm is not None)
    index = {k: i for i, (_, k) in enumerate(leaves)}
    n = len(leaves)
    members: dict[int, list[int]] = {}
    dist = np.zeros((n, n))
    for k in range(len(parent) - 1, 0, -1):
        mine = members.pop(k, [])
        if name[k] is not None:
            mine = [index[k]]
        p = parent[k]
        if p > 0:
            sib = members.setdefault(p, [])
            if sib:
                # pairs split at p: distance = depth_a + depth_b - 2 depth_p
                a, b = np.array(sib), np.array(mine)
                da = np.array([depth[leaves[i][1]] for i in sib])
                db = np.array([depth[leaves[i][1]] for i in mine])
                block = da[:, None] + db[None, :] - 2.0 * depth[p]
                dist[np.ix_(a, b)] = block
                dist[np.ix_(b, a)] = block.T
            sib.extend(mine)
    names = [nm for nm, _ in leaves]
    depths = np.array([depth[k] for _, k in leaves])
    return names, dist[np.triu_indices(n, 1)], depths
