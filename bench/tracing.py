"""Spans around the calls into trisat's modules, recorded from outside the package.

The traced run replaces the names that calling modules look up at call
time (for example ``trisat.verifier.contains_after``, which the verifier's
nonedge loop resolves on every call) with wrappers that open a span, call
the original and close the span.  Nothing under ``src/`` is edited.

Spans nest on a stack, so a span's self time is its duration minus the
durations of its direct children.  Spans stay in memory as parallel
arrays and are written out once, after the measured work.

Pool children of ``sat_exact`` / ``enumerate_optima`` inherit the wrappers
through ``fork`` but record into their own copy of the tracer, which is
discarded; their share shows only in ``cpu_s`` and ``search.nodes``.
"""

from __future__ import annotations

import gzip
import importlib
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path inside it, span name); one span name may cover
# several lookup sites, e.g. the verifier's and greedy's contains_after
SITES = (
    ("trisat.verifier", "contains_after", "containment.contains_after"),
    ("trisat.search", "contains_after", "containment.contains_after"),
    ("trisat.verifier", "contains", "containment.contains"),
    ("trisat.verifier", "is_saturated", "verifier.is_saturated"),
    ("trisat.search", "is_saturated", "verifier.is_saturated"),
    ("trisat.verifier", "host_nonedges", "graphs.host_nonedges"),
    ("trisat.graphs", "TripartiteGraph.with_edge", "graphs.with_edge"),
    ("trisat.graphs", "GraphBuilder.add_edge", "graphs.GraphBuilder.add_edge"),
    ("trisat.search", "iso_equivalent", "graphs.iso_equivalent"),
    ("trisat.search", "pattern_edge_masks", "search.pattern_edge_masks"),
    ("trisat.search", "sat_exact", "search.sat_exact"),
    ("trisat.search", "enumerate_optima", "search.enumerate_optima"),
    ("trisat.search", "sat_greedy", "search.sat_greedy"),
    ("trisat.search", "to_json_obj", "serialization.to_json_obj"),
    ("trisat.serialization", "deserialize", "serialization.deserialize"),
    ("trisat.constructions", "build", "constructions.build"),
)


def _count_result(counters: Counter, name: str, args: tuple, result) -> None:
    """Counts taken where the work happens, read from arguments and results."""
    if name == "containment.contains_after":
        counters["containment.contains_after.found"] += result is not None
    elif name == "verifier.is_saturated":
        counters["verifier.nonedges_checked"] += result.checked_nonedges
        counters["verifier.violations"] += len(result.violating_nonedges)
    elif name == "search.pattern_edge_masks":
        counters["search.pattern_edge_masks.masks"] += len(result)
    elif name in ("search.sat_exact", "search.enumerate_optima"):
        counters["search.nodes"] += result.nodes_explored
    elif name == "search.sat_greedy":
        counters["search.edges_scanned"] += result.nodes_explored
    elif name == "serialization.deserialize":
        counters["serialization.bytes_in"] += len(args[0])


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            _count_result(counters, name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every site for the duration of the block, then restore."""
        saved = []
        try:
            for module, path, name in SITES:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        n = len(self.name_id)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out: dict[str, dict[str, float]] = {}
        for k in range(n):
            rec = out.setdefault(self.names[self.name_id[k]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            dur = self.end[k] - self.start[k]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[k]
        return out

    def write(self, path, phase: str, mode: str = "wt") -> None:
        """Append the spans as JSON lines (gzip) to path."""
        t_base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, mode, compresslevel=1) as fh:
            for k in range(len(self.name_id)):
                fh.write(json.dumps([phase, self.op[k], k, self.parent[k],
                                     self.names[self.name_id[k]],
                                     round((self.start[k] - t_base) * 1e6, 1),
                                     round((self.end[k] - self.start[k]) * 1e6, 1)],
                                    separators=(",", ":")))
                fh.write("\n")


# per-layer metrics read from the counters rather than from span totals
COUNTED = ("verifier.nonedges_checked", "verifier.violations",
           "search.pattern_edge_masks.masks", "search.nodes", "search.edges_scanned",
           "serialization.bytes_in")


def layer_metrics(names: list[str], batch: Tracer, setup: Tracer, workers: int,
                  overhead_s: float) -> dict[str, float]:
    """Values of the named per-layer metrics from one traced batch and one
    traced set-up.  A ratio whose base is zero (``us_per_call`` with no
    calls) reads 0."""
    tot = batch.layer_totals()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name: str) -> dict[str, float]:
        return tot.get(name, zero)

    c = batch.counters
    ca = span("containment.contains_after")
    search_s = span("search.sat_exact")["total_s"] + span("search.enumerate_optima")["total_s"]
    derived = {
        "containment.contains_after.us_per_call":
            ca["self_s"] / ca["calls"] * 1e6 if ca["calls"] else 0.0,
        "containment.contains_after.found_ratio":
            c["containment.contains_after.found"] / ca["calls"] if ca["calls"] else 0.0,
        "search.nodes_per_s": c["search.nodes"] / search_s if search_s else 0.0,
        "search.workers": workers,
        "constructions.build.self_s": setup.layer_totals().get(
            "constructions.build", zero)["self_s"],
        "trace.spans": len(batch.name_id),
        "trace.overhead_s": overhead_s,
    }
    spans = {name for _, _, name in SITES}
    values = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif name in COUNTED:
            values[name] = c[name]
        elif base in spans and field in ("calls", "self_s"):
            values[name] = span(base)[field]
        else:
            raise ValueError(f"no rule for per-layer metric {name!r}")
    return values
