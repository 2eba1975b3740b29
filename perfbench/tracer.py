"""Span tracer for the benchmark's traced runs.

`install` replaces every public function of the traced curvspec modules with
a wrapper that records a span (name, start, end, parent span) and per-function
aggregates (calls, inclusive time, self time, observed sizes). Names bound by
`from`-imports are rebound too, so `cli.load_domain_config` is traced like
`configio.load_domain_config`. `geometry` is not wrapped: its Gauss-Bonnet
audit runs inside `configio`, and its helpers called while meshing count as
meshing time.

Each process writes its spans to `<out_dir>/trace-<pid>.json` whenever its
outermost span ends. Pool workers forked from a traced process inherit the
wrappers and start with an empty record, so run.py merges one file per
process. No program code changes: the spans are taken from outside the
library, around calls into it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("configio", "meshing", "fem", "eigensolve", "exact", "analysis", "svgplot", "cli")

# Spans kept per function and process. Aggregates count every call; the cap
# only bounds the span list for helpers called in tight loops (Bessel
# evaluations run about 10^5 times in an oracle analysis).
RECORD_LIMIT = 1000


def _mesh_sizes(args, kwargs, mesh):
    return {"triangles": mesh.num_triangles}


def _problem_sizes(args, kwargs, problem):
    return {"dim": problem.dimension, "nnz": problem.stiffness.nnz}


def _solve_sizes(args, kwargs, sl):
    res = sl.residual_norms
    return {
        "dim": args[0].dimension,
        "eigs": len(sl.eigenvalues),
        "residual": float(max(res)) if len(res) else 0.0,
    }


OBSERVERS = {
    "meshing.refine": _mesh_sizes,
    "fem.assemble": _problem_sizes,
    "eigensolve.solve_lowest": _solve_sizes,
}


class Tracer:
    """Per-process span recorder; see the module docstring."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: list[dict] = []
        self.stats: dict[str, dict] = {}
        self.stack: list[list] = []  # [span id, start, time in children]
        self.active: dict[str, int] = {}  # name -> open calls (recursion guard)
        self.next_id = 0

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else None
            self.active[name] = self.active.get(name, 0) + 1
            frame = [span_id, time.perf_counter(), 0.0]
            self.stack.append(frame)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    attrs = observe(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.active[name] -= 1
                self._close(name, span_id, parent, frame[1], end, frame[2], attrs)

        return traced

    def _close(self, name, span_id, parent, start, end, child_s, attrs) -> None:
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}}
        st["calls"] += 1
        if self.active[name] == 0:  # count recursive calls' time once
            st["total_s"] += dur
        st["self_s"] += dur - child_s
        for key, value in (attrs or {}).items():
            agg = st["attrs"].setdefault(key, [0, value])
            agg[0] += value
            agg[1] = max(agg[1], value)
        if st["calls"] <= RECORD_LIMIT:
            self.spans.append(
                {"id": span_id, "parent": parent, "name": name, "t0": start, "t1": end,
                 "attrs": attrs}
            )
        if not self.stack:
            self.flush()

    def flush(self) -> None:
        pid = os.getpid()
        path = os.path.join(self.out_dir, f"trace-{pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pid": pid, "spans": self.spans, "stats": self.stats}, fh)


def install(out_dir: str) -> Tracer:
    """Wrap the public functions of the traced modules; return the tracer."""
    tracer = Tracer(out_dir)
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"curvspec.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", obj)
    # rebind wherever the originals are looked up, including from-imports
    for modname, mod in list(sys.modules.items()):
        if modname != "curvspec" and not modname.startswith("curvspec."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    return tracer
