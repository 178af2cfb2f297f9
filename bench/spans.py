"""Span recorder for the traced run.

:meth:`Tracer.install` wraps every public module-level function of each
layer module, plus ``PermClass.member``, at every namespace of the package
that binds it, so calls from one layer into another pass through a wrapper
even when the caller imported the name.  The package source is not touched;
:meth:`Tracer.uninstall` puts the originals back.

A span is (name, layer, start, end, parent).  Self time is computed online
as each span closes: a layer's self time is the duration of its outermost
spans minus the time covered by spans of other layers nested inside them.
The first ``keep`` spans are also kept in memory for the dump written at the
end; aggregates cover every span.
"""
from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("perm", "labels", "invgraph", "classes", "grids", "feasibility", "antichains")

#: Functions whose results feed a ratio: name -> how a result counts as a hit.
HIT_RULES = {
    "classes.PermClass.member": bool,
    "grids.validate_gridded": bool,
    "feasibility.solve_strict": lambda r: r is not None,
    "grids.geom_member": lambda r: r is not None,
}


class Tracer:
    def __init__(self, package, keep: int = 50_000):
        self.keep = keep
        self.enabled = False
        self.names: list = []       # span name per function id
        self.layer_of: list = []    # layer per function id
        self.calls: list = []
        self.fn_total: list = []
        self.fn_self: list = []
        self.hits: list = []
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.layer_calls = dict.fromkeys(LAYERS, 0)
        self.root_total = 0.0
        self.rows_to_solver = 0
        self.geom_in_class = [0.0, 0.0]  # [duration, time under feasibility]
        self.spans: list = []       # (index, fn id, parent index, start, end)
        self.span_count = 0
        self._stack: list = []      # frames: [fn id, layer, index, start, other, child]
        self._patches = self._find_patches(package)

    def _find_patches(self, package) -> list:
        """(owner, attribute, original, wrapper) for every binding of a
        layer's public function in the package's namespaces."""
        modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[obj] = f"{layer}.{attr}"
        member_class = modules["classes"].PermClass
        originals[member_class.member] = "classes.PermClass.member"
        wrappers = {fn: self._wrap(fn, name) for fn, name in originals.items()}
        patches = [(member_class, "member", member_class.member, wrappers[member_class.member])]
        for owner in [package, *modules.values()]:
            for attr, obj in vars(owner).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((owner, attr, obj, wrappers[obj]))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        layer = name.split(".", 1)[0]
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.fn_total.append(0.0)
        self.fn_self.append(0.0)
        self.hits.append(0)
        hit_rule = HIT_RULES.get(name)
        stack = self._stack
        counts_rows = name == "feasibility.solve_strict"
        is_geom = name == "grids.geom_member"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.span_count
            self.span_count += 1
            frame = [fid, layer, index, 0.0, 0.0, 0.0]
            stack.append(frame)
            frame[3] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, end, stack[-1] if stack else None)
            if hit_rule is not None and hit_rule(result):
                self.hits[fid] += 1
                if is_geom:
                    self.geom_in_class[0] += end - start
                    self.geom_in_class[1] += frame[4]
            if counts_rows:
                self.rows_to_solver += len(args[1]) if len(args) > 1 else len(kwargs["constraints"])
            return result

        return wrapper

    def _close(self, frame, end: float, parent) -> None:
        fid, layer, index, start, other, child = frame
        dur = end - start
        self.calls[fid] += 1
        self.layer_calls[layer] += 1
        self.fn_total[fid] += dur
        self.fn_self[fid] += dur - child
        if index < self.keep:
            self.spans.append((index, fid, parent[2] if parent else -1, start, end))
        if parent is None:
            self.root_total += dur
            self.layer_self[layer] += dur - other
            return
        parent[5] += dur
        if parent[1] == layer:
            parent[4] += other
        else:
            parent[4] += dur
            self.layer_self[layer] += dur - other

    # -- results ----------------------------------------------------------

    def function_stats(self) -> dict:
        return {
            name: {
                "calls": self.calls[i],
                "total_s": self.fn_total[i],
                "self_s": self.fn_self[i],
                "hits": self.hits[i],
            }
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def calls_of(self, name: str) -> int:
        return self.calls[self.names.index(name)] if name in self.names else 0

    def hits_of(self, name: str) -> int:
        return self.hits[self.names.index(name)] if name in self.names else 0

    def self_of(self, name: str) -> float:
        return self.fn_self[self.names.index(name)] if name in self.names else 0.0

    def dump(self) -> dict:
        """Kept spans as [name, layer, start_s, end_s, parent] rows, times
        relative to the first kept span."""
        spans = sorted(self.spans)
        t0 = spans[0][3] if spans else 0.0
        return {
            "spans_total": self.span_count,
            "spans_kept": len(spans),
            "columns": ["index", "name", "layer", "start_s", "end_s", "parent"],
            "spans": [
                [i, self.names[f], self.layer_of[f], round(s - t0, 7), round(e - t0, 7), p]
                for i, f, p, s, e in spans
            ],
        }
