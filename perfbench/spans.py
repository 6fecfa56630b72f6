"""Span recorder for the traced run.

Spans are recorded by the benchmark itself, around the calls it makes into
each layer's public functions: ``name``, ``layer``, ``start``, ``end``, the
``parent`` span that caused it and the ``op`` (one query answered through the
user's entry point) it belongs to.  They are kept in memory and written out
once, when the run ends.  A layer's *self time* is its span's duration minus
the part of it that child spans cover.

Untraced runs never touch this module: an op has a plain callable for the
timed passes and a separate traced callable that opens spans.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Operator class -> the per-layer metric its self time is charged to.
OPERATOR_CLASS = {
    "Scan": "scan_filter", "SubqueryScan": "scan_filter", "DualScan": "scan_filter",
    "Filter": "scan_filter", "ResidualFilter": "scan_filter",
    "Materialized": "scan_filter", "AdaptiveSource": "scan_filter",
    "HashJoin": "hash_join", "CrossJoin": "hash_join", "AdaptiveJoin": "hash_join",
    "HashAggregate": "hash_aggregate", "Distinct": "hash_aggregate",
    "SemiJoin": "semi_anti_join", "AntiJoin": "semi_anti_join",
    "MarkJoin": "semi_anti_join", "ScalarSubqueryScan": "semi_anti_join",
    "Sort": "sort_topk", "TopK": "sort_topk", "Limit": "sort_topk",
    "Window": "window",
}
OPERATOR_CLASSES = ("scan_filter", "hash_join", "hash_aggregate", "semi_anti_join",
                    "sort_topk", "window", "project_other")


class Tracer:
    """In-memory span store; safe to use from several client threads."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, op: str | None = None, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        rec = {"id": next(self._ids), "name": name, "layer": layer,
               "parent": parent["id"] if parent else None,
               "op": op if op is not None else (parent["op"] if parent else None),
               **attrs}
        stack.append(rec)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            stack.pop()
            self.spans.append(rec)  # list.append is atomic under the GIL

    def add(self, name: str, layer: str, start: float, end: float,
            parent: dict, **attrs) -> dict:
        """Record a span whose interval was measured elsewhere (operator
        timings come from the engine's ``RuntimeStats``, which reports
        durations but no start times; such spans carry ``synthetic``)."""
        rec = {"id": next(self._ids), "name": name, "layer": layer,
               "parent": parent["id"], "op": parent["op"],
               "start": start, "end": end, "synthetic": True, **attrs}
        self.spans.append(rec)
        return rec

    def mark(self) -> int:
        """Position in the span list, to roll up only what follows."""
        return len(self.spans)

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": self.spans}, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> self time in seconds (duration minus direct children)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: max(0.0, s["end"] - s["start"] - child_time[s["id"]])
            for s in spans}


def rollup(spans: list[dict]) -> dict[str, float]:
    """Layer -> summed self time in milliseconds."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["layer"]] += own[s["id"]] * 1000.0
    return dict(out)


def operator_spans(tracer: Tracer, stats, parent: dict) -> dict:
    """Turn one execution's ``RuntimeStats`` into child spans of *parent*.

    Returns counts measured at the same boundary: rows produced by base
    scans, rows returned, estimate-vs-actual ratios, re-plans.
    """
    seen: set[int] = set()
    scanned = 0
    est_ratios: list[float] = []

    def walk(op, under: dict) -> None:
        nonlocal scanned
        if id(op) in seen:
            return
        seen.add(id(op))
        entry = stats.ops.get(id(op))
        here = under
        if entry is not None:
            cls = type(op).__name__
            here = tracer.add(
                cls, "sqlengine.plan." + OPERATOR_CLASS.get(cls, "project_other"),
                under["start"], under["start"] + entry.elapsed_ms / 1000.0, under,
                rows=entry.actual_rows, est_rows=entry.est_rows,
                loops=entry.invocations)
            if cls == "Scan":
                scanned += entry.actual_rows
            if entry.est_rows is not None:
                est, actual = entry.est_rows + 1.0, entry.actual_rows / max(entry.invocations, 1) + 1.0
                est_ratios.append(max(est / actual, actual / est))
        for child in op.children():
            walk(child, here)

    # Derived-table subplans are listed after the plan that contains them and
    # are reached through its SubqueryScan; `seen` keeps them from counting twice.
    for plan in stats.plans:
        walk(plan.root, parent)
    return {"rows_scanned": scanned, "est_ratios": est_ratios,
            "replans": stats.replans}
