"""Per-execution runtime statistics for adaptive execution / EXPLAIN ANALYZE.

A :class:`RuntimeStats` object rides along one execution (attached to the
:class:`~.executor.Executor`); every operator pulled through
:meth:`~.plan.Operator.run` records its actual output cardinality and
elapsed wall time here, keyed by node identity.  The adaptive-execution
machinery (:class:`~.plan.AdaptiveJoin` and friends) additionally appends
human-readable *events* — mid-query re-plans, build-side swaps, semi-join
short-circuits — and counts the re-plans.

:meth:`render` produces the EXPLAIN ANALYZE text: the executed plan tree
with ``est`` vs ``actual`` rows and inclusive elapsed milliseconds per
node (a ``Scan`` also lists the dictionary-encoded columns it produced),
followed by the dictionary counters, the late-materialization counters
(pending columns gathered, and those no operator ever read) and the
adaptive events.  Operators
that never executed (e.g. sources of a skipped subquery) show their
estimate only.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .plan import Operator, PhysicalPlan

__all__ = ["OpStats", "RuntimeStats"]


@dataclass
class OpStats:
    """Accumulated runtime observations of one plan node.

    ``actual_rows`` and ``elapsed_ms`` sum over invocations (a subquery
    plan under a correlated residual predicate may run more than once);
    ``elapsed_ms`` is *inclusive* of the node's children, mirroring the
    pull-based execution model.
    """

    label: str
    est_rows: float | None
    # The node itself: an operator built mid-query (an adaptive re-plan's
    # chain) must outlive the stats, or a later node could be allocated at
    # its address and inherit its counts.
    op: "Operator | None" = None
    actual_rows: int = 0
    elapsed_ms: float = 0.0
    invocations: int = 0


@dataclass
class RuntimeStats:
    """Mutable per-execution statistics sink.

    One instance per query execution — never shared across concurrent
    queries (each Executor owns at most one).  Operators within one query
    execute sequentially and only their kernels fan out to the worker
    pool, so only what kernels report (:meth:`count_dict`) takes a lock.
    """

    ops: dict[int, OpStats] = field(default_factory=dict)
    events: list[str] = field(default_factory=list)
    replans: int = 0
    plans: list["PhysicalPlan"] = field(default_factory=list)
    # Dictionary-encoded columns (see sqlengine.table.DictColumn):
    # sub-expressions evaluated on a dictionary instead of the rows, rows
    # turned back into objects inside the plan (the final result does not
    # count) and rows of plain string columns a kernel had to encode itself
    # — a query that falls off the encoded path shows in the last two.
    dict_lifted: int = 0
    dict_decoded_rows: int = 0
    dict_encoded_rows: int = 0
    # id(Scan) -> "column(dictionary size), ..." of the encoded columns
    # that Scan produced.
    scan_dicts: dict[int, str] = field(default_factory=dict)
    # One entry per pending column a selection or join made (see
    # sqlengine.table, "late materialization"): whether it was gathered,
    # or handed on to a later selection.
    late_columns: list = field(default_factory=list)
    # The counters above are bumped from kernel worker threads.
    _dict_lock: threading.Lock = field(default_factory=threading.Lock,
                                       repr=False, compare=False)

    def record(self, op: "Operator", rows: int, seconds: float) -> None:
        entry = self.ops.get(id(op))
        if entry is None:
            entry = OpStats(op.label(), op.est_rows, op)
            self.ops[id(op)] = entry
        entry.actual_rows += int(rows)
        entry.elapsed_ms += seconds * 1000.0
        entry.invocations += 1

    def count_dict(self, lifted: int = 0, decoded_rows: int = 0,
                   encoded_rows: int = 0) -> None:
        with self._dict_lock:
            self.dict_lifted += lifted
            self.dict_decoded_rows += decoded_rows
            self.dict_encoded_rows += encoded_rows

    def event(self, message: str) -> None:
        self.events.append(message)

    def replan(self, message: str) -> None:
        self.replans += 1
        self.events.append(message)

    def record_plan(self, plan: "PhysicalPlan") -> None:
        """Remember an executed plan for rendering (deduplicated)."""
        if not any(existing is plan for existing in self.plans):
            self.plans.append(plan)

    # -- rendering --------------------------------------------------------

    def _node_line(self, op: "Operator", depth: int) -> str:
        parts = ["  " * depth + op.label()]
        if id(op) in self.scan_dicts:
            parts.append(f" dict=[{self.scan_dicts[id(op)]}]")
        if op.est_rows is not None:
            parts.append(f"  [est={int(round(op.est_rows))} rows]")
        entry = self.ops.get(id(op))
        if entry is not None:
            detail = f"actual={entry.actual_rows} rows, {entry.elapsed_ms:.1f} ms"
            if entry.invocations > 1:
                detail += f", loops={entry.invocations}"
            parts.append(f" [{detail}]")
        else:
            parts.append(" [not executed]")
        return "".join(parts)

    def render(self) -> str:
        """EXPLAIN ANALYZE text: executed plan tree(s) + adaptive events."""
        lines: list[str] = []
        seen: set[int] = set()

        def walk(op: "Operator", depth: int) -> None:
            seen.add(id(op))
            lines.append(self._node_line(op, depth))
            for child in op.children():
                walk(child, depth + 1)

        for plan in self.plans:
            # Derived-table subplans are appended after the outer plan but
            # already render as SubqueryScan children of it.
            if id(plan.root) in seen:
                continue
            walk(plan.root, 0)
        if self.scan_dicts or self.dict_encoded_rows:
            lines.append(f"Dictionary columns: dict_lifted={self.dict_lifted} "
                         f"dict_decoded_rows={self.dict_decoded_rows} "
                         f"dict_encoded_rows={self.dict_encoded_rows}")
        if self.late_columns:
            gathered = sum(c.gathered for c in self.late_columns)
            never = sum(not (c.gathered or c.passed_on)
                        for c in self.late_columns)
            lines.append(f"Late columns: gathered={gathered} "
                         f"never_gathered={never}")
        if self.events:
            lines.append("Adaptive events:")
            lines.extend(f"  {event}" for event in self.events)
        return "\n".join(lines)
