"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces, on each ``altpath`` module, every function that
module imports from another ``altpath`` module (``altpath.cli.build_graph``,
``altpath.dpll.bfs_from_support``, ...) and a few entry points the benchmark
or a module itself calls (``altpath.cli.main``, ``altpath.dpll.dpll``,
``altpath.resolution.sos_refute``, ...) with a wrapper that records a span:
name, layer, start, end, parent span and request id.  Because callers look
these names up at call time, the spans nest the way the calls do.
``complementary_unifiable`` is counted, not spanned.  ``uninstall`` puts the
original functions back.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "dpll", "graph", "resolution", "splitting", "parsing")
LAYERS = ("cli", "parsing", "graph", "dpll", "resolution", "splitting")

# functions spanned where they are defined, because the benchmark or their
# own module calls them through the module attribute
OWN_ENTRY_POINTS = {
    "cli": ("main",),
    "graph": ("build_graph", "bfs_from_support"),
    "dpll": ("dpll", "stepping_sequence", "neighborhood_counts"),
    "resolution": ("sos_refute", "verify_support_path_property",
                   "linear_sequence_from_path", "hyper_resolution_levels"),
    "splitting": ("choose_split_variable",),
}
COUNTED = {"graph": ("complementary_unifiable",), "splitting": ("complementary_unifiable",)}


def _graph_counts(result) -> dict:
    return {"graph.edges": result.edge_count, "graph.nodes": result.node_count}


def _solve_counts(result) -> dict:
    s = result.stats
    return {"dpll.calls": s.calls, "dpll.splits": s.splits, "dpll.unit_props": s.unit_props,
            "dpll.fallback_calls": s.fallback_calls}


def _sos_counts(result) -> dict:
    out = {"resolution.derived": result.derived_count, "resolution.levels": result.levels,
           "resolution.limit_hits": int(result.status == "limit")}
    if result.sequence is not None:
        out["resolution.useful"] = result.sequence.resolution_count
    return out


def _parse_counts(result) -> dict:
    cs = result[0] if isinstance(result, tuple) else result
    return {"parsing.clauses": len(cs)}


# counters read off a wrapped function's return value, outside its span
RESULT_COUNTERS = {
    "build_graph": _graph_counts,
    "bfs_from_support": lambda r: {"graph.nodes_reached": len(r.node_distance)},
    "dpll": _solve_counts,
    "dpll_rel": _solve_counts,
    "sos_refute": _sos_counts,
    "parse_auto": _parse_counts,
    "parse_dimacs": _parse_counts,
    "parse_tptp": _parse_counts,
    "expand_restricted": lambda r: {"splitting.output_clauses": len(r)},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, request]
        self.stack: list[int] = []
        self.request: int | None = None
        self.request_counts: dict[str, int] = defaultdict(int)
        self.level_solves: list[tuple[int, int, str]] = []  # (request, clauses, verdict)
        self._saved: list[tuple[object, str, object]] = []

    # -- request boundaries -------------------------------------------------

    def begin(self, request: int) -> None:
        self.request = request
        self.request_counts = defaultdict(int)
        self.stack.clear()

    def end(self) -> dict[str, int]:
        self.request = None
        return dict(self.request_counts)

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        counter = RESULT_COUNTERS.get(fn.__name__)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.request]
            spans.append(span)
            stack.append(idx)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(result).items():
                    self.request_counts[key] += value
            if fn.__name__ == "dpll":
                self.level_solves.append((self.request, len(args[0]), result.verdict))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn):
        def wrapper(*args, **kwargs):
            if self.request is not None:
                self.request_counts["clauses.unify_checks"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        for short in MODULES:
            mod = importlib.import_module(f"altpath.{short}")
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("altpath."):
                    continue
                home = obj.__module__.split(".")[-1]
                if attr in COUNTED.get(short, ()):
                    self._replace(mod, attr, self._count(obj))
                elif home != short and home in LAYERS:
                    self._replace(mod, attr, self._span(obj, home))
                elif home == short and attr in OWN_ENTRY_POINTS.get(short, ()):
                    self._replace(mod, attr, self._span(obj, home))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis -----------------------------------------------------------

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s[4] is not None:
                kids[s[4]].append(i)
        return kids

    def self_times(self) -> list[float]:
        kids = self.children()
        out = []
        for i, s in enumerate(self.spans):
            inner = sum(self.spans[k][3] - self.spans[k][2] for k in kids[i])
            out.append(s[3] - s[2] - inner)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, layer, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
