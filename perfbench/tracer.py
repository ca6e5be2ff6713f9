"""Span tracer for the traced run: wraps tropstat's public functions.

Every public function defined in one of the layer modules is replaced, in
every layer module that binds it, by a wrapper that records a span (name,
parent span, start, end) in memory, in compact ``array`` buffers.  A span is
named after the module that defines the function, so ``solve_lp`` reached
through ``tropstat.location`` and through ``tropstat.svm`` is one name.
A few wrappers also count work: LP cells and statuses, objective
evaluations, refined Fermat-Weber points.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "location", "svm", "pca", "solver", "treeio", "core", "datagen")
# One-line index helpers called per pair or per triple; a span each would
# cost more than the work and drown the trace.
UNTRACED = frozenset({"pair_index", "index_pair", "trop_add", "trop_mul"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- install

    def install(self, modules: dict) -> None:
        """Wrap public layer functions in every layer module binding them.

        ``modules`` maps layer name to module object.
        """
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        for binding, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__name__ not in UNTRACED
                    and fn.__module__ in layer_of
                ):
                    qual = f"{layer_of[fn.__module__]}.{fn.__name__}"
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(binding, qual, fn))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrap(self, binding: str, qual: str, fn):
        nid = self._ids.setdefault(qual, len(self.names))
        if nid == len(self.names):
            self.names.append(qual)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts
        call = _counting(fn, qual, binding, counts)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return call(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapper

    # -------------------------------------------------------------- results

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its children.
        """
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, dur, minlength=k)
        own = np.bincount(nid, dur - child, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _counting(fn, qual: str, binding: str, counts: Counter):
    """``fn`` itself, or a version that also counts its work."""
    if qual == "solver.solve_lp":

        def solve_lp(lp, *args, **kwargs):
            counts["solver.solve_lp.cells"] += len(lp.constraints) * lp.n_vars()
            sol = fn(lp, *args, **kwargs)
            counts[f"{binding}.solve_lp.calls"] += 1
            counts[f"{binding}.solve_lp.{sol.status}"] += 1
            counts[f"solver.solve_lp.{sol.status}"] += 1
            return sol

        return solve_lp
    if qual == "solver.minimize_convex":

        def minimize_convex(f, *args, **kwargs):
            def counted(z):
                counts["solver.minimize_convex.evals"] += 1
                return f(z)

            return fn(counted, *args, **kwargs)

        return minimize_convex
    if qual == "location.fermat_weber":

        def fermat_weber(*args, **kwargs):
            res = fn(*args, **kwargs)
            counts["location.fw.refined"] += bool(res.diagnostics.get("closure_refined"))
            return res

        return fermat_weber
    return fn
