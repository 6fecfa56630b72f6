"""Physical query operators: the executable plan representation.

A :class:`PhysicalPlan` is a tree of composable operators produced by
:mod:`.planner` (one plan per ``SELECT`` body).  Each operator knows how to

* ``execute(ctx)`` itself into a :class:`OpResult` (chunk + scope), and
* render itself for ``EXPLAIN`` (:meth:`PhysicalPlan.render`).

The split mirrors production engines: the planner makes every decision that
can be made statically (pushdown, projection pruning, join order from
cardinality estimates), and the operators here are the only thing that
carries those decisions out.  Projection (:class:`Project`), grouped
aggregation (:func:`aggregate`, also called per partition by the spilling
path in :mod:`repro.storage.spill`), ORDER BY key evaluation
(:func:`order_arrays`, shared by ``Sort`` and ``TopK``) and ``VALUES``
materialisation (:func:`values_chunk`) live in this module next to the
operators that run them; window functions are evaluated by the
:class:`Window` operator over the kernels in :mod:`.window`.  What an
operator needs from the per-execution driver (:class:`~.executor.Executor`)
goes through :class:`ExecContext`: the trace note, the cancellation check,
running a derived-table body, the bound placeholder values, and the
scatter hook of :class:`Exchange` — the partition boundary the planner
places between a partial and a final ``HashAggregate``/``TopK`` stage when
``EngineConfig.shard_workers > 0``.  Subqueries are operators too: an
``InitPlan`` binds the value of each uncorrelated one, a ``MarkJoin``
computes a correlated ``[NOT] IN`` / ``[NOT] EXISTS`` per outer row; each
runs its planned subquery once per execution, so no expression ever calls
back into the driver.

Filter masks, projections, ``HashJoin`` probes, ``HashAggregate``
reductions, and ``Window`` partition reductions are partitioned across the
shared :mod:`.parallel` pool when ``config.threads > 1`` (NumPy kernels
release the GIL).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..dataframe._common import coerce_array
from ..errors import SQLBindError, SQLExecutionError, UnsupportedFeatureError
from .expressions import (
    Evaluator, Scope, aggregates_of, has_window, sql_aggregate,
)
from .grouping import (
    GroupedColumn, GroupLayout, factorize_many, sum_of_products, sum_result,
)
from .joins import combine_chunks, join_positions
from .parallel import parallel_arrays, parallel_masks
from .sqlast import (
    AggCall, BetweenExpr, BinaryOp, CaseExpr, CastExpr, ColumnRef, Expr,
    FuncCall, InList, IsNull, LikeExpr, Literal, OrderItem, Parameter, Select,
    SelectItem, Star, UnaryOp, ValuesClause, WindowCall, WindowFrame,
    expr_key, map_children,
)
from .table import Chunk, DictColumn, as_dict, isna, plain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Callable, Iterator

    from .executor import EngineConfig, Executor

__all__ = [
    "ExecContext", "OpResult", "Operator", "Scan", "SubqueryScan", "DualScan",
    "Filter", "CrossJoin", "HashJoin", "ResidualFilter", "Window", "Project",
    "HashAggregate", "Distinct", "Sort", "TopK", "Limit", "Exchange", "SetOp",
    "MarkJoin", "InitPlan",
    "AdaptiveSource", "AdaptiveJoin", "Materialized",
    "PhysicalPlan", "expr_to_str", "window_to_str", "frame_to_str",
    "output_name", "AggregateBatch", "aggregate", "order_arrays",
    "values_chunk",
]


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

def _is_value_set(expr: Expr) -> bool:
    """Is *expr* ``x [NOT] IN ($N)``, the probe of an uncorrelated ``IN
    (SELECT ...)`` whose value set an InitPlan binds?"""
    return isinstance(expr, InList) and all(
        isinstance(item, Parameter) and str(item.name)[0] == "$"
        for item in expr.items)


def expr_to_str(expr: Expr) -> str:
    """Compact SQL-ish rendering of an expression for EXPLAIN output."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, ColumnRef):
        return f"{expr.table}.{expr.name}" if expr.table else expr.name
    if isinstance(expr, Parameter):
        if expr.name is None:
            return "?"
        # An InitPlan's value ($N) is not a user placeholder (:name).
        return expr.name if expr.name[0] == "$" else f":{expr.name}"
    if isinstance(expr, Star):
        return "*"
    if isinstance(expr, BinaryOp):
        return f"({expr_to_str(expr.left)} {expr.op} {expr_to_str(expr.right)})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op} {expr_to_str(expr.operand)})"
    if isinstance(expr, FuncCall):
        return f"{expr.name}({', '.join(expr_to_str(a) for a in expr.args)})"
    if isinstance(expr, AggCall):
        arg = "*" if expr.arg is None else expr_to_str(expr.arg)
        distinct = "DISTINCT " if expr.distinct else ""
        return f"{expr.func}({distinct}{arg})"
    if isinstance(expr, WindowCall):
        return window_to_str(expr)
    if isinstance(expr, CastExpr):
        return f"CAST({expr_to_str(expr.operand)} AS {expr.type_name})"
    if isinstance(expr, CaseExpr):
        return "CASE ... END"
    if isinstance(expr, InList):
        neg = "NOT " if expr.negated else ""
        items = "..."
        if _is_value_set(expr):
            items = ", ".join(map(expr_to_str, expr.items))
        return f"{expr_to_str(expr.operand)} {neg}IN ({items})"
    if isinstance(expr, BetweenExpr):
        neg = "NOT " if expr.negated else ""
        return (f"{expr_to_str(expr.operand)} {neg}BETWEEN "
                f"{expr_to_str(expr.low)} AND {expr_to_str(expr.high)}")
    if isinstance(expr, IsNull):
        return f"{expr_to_str(expr.operand)} IS {'NOT ' if expr.negated else ''}NULL"
    if isinstance(expr, LikeExpr):
        neg = "NOT " if expr.negated else ""
        if expr.pattern is None:
            pattern = "NULL"
        elif isinstance(expr.pattern, Parameter):
            pattern = expr_to_str(expr.pattern)
        else:
            pattern = repr(expr.pattern)
        esc = f" ESCAPE {expr.escape!r}" if expr.escape is not None else ""
        return f"{expr_to_str(expr.operand)} {neg}LIKE {pattern}{esc}"
    return type(expr).__name__


def _fmt_est(est: float | None) -> str:
    if est is None:
        return ""
    return f"  [est={int(round(est))} rows]"


_BOUND_SQL = {
    "unbounded_preceding": "UNBOUNDED PRECEDING",
    "unbounded_following": "UNBOUNDED FOLLOWING",
    "current": "CURRENT ROW",
    "preceding": "{n} PRECEDING",
    "following": "{n} FOLLOWING",
}


def frame_to_str(frame: WindowFrame) -> str:
    """SQL rendering of a :class:`~.sqlast.WindowFrame`."""
    start = _BOUND_SQL[frame.start_kind].format(n=frame.start_offset)
    end = _BOUND_SQL[frame.end_kind].format(n=frame.end_offset)
    return f"{frame.unit.upper()} BETWEEN {start} AND {end}"


def window_to_str(expr: WindowCall) -> str:
    """SQL-ish rendering of a window call for EXPLAIN output."""
    if expr.args:
        args = ", ".join(expr_to_str(a) for a in expr.args)
    else:
        args = "*" if expr.func in ("SUM", "AVG", "MIN", "MAX", "COUNT") else ""
    over: list[str] = []
    if expr.partition_by:
        over.append("PARTITION BY " + ", ".join(expr_to_str(p) for p in expr.partition_by))
    if expr.order_by:
        over.append("ORDER BY " + ", ".join(
            expr_to_str(o.expr) + ("" if o.ascending else " DESC")
            for o in expr.order_by
        ))
    if expr.frame is not None:
        over.append(frame_to_str(expr.frame))
    return f"{expr.func}({args}) OVER ({' '.join(over)})"


# ---------------------------------------------------------------------------
# Execution context / results
# ---------------------------------------------------------------------------

@dataclass
class ExecContext:
    """Everything an operator needs at run time."""

    executor: "Executor"
    env: dict[str, Chunk]
    # Bound placeholder values of this execution (None when the statement
    # has none), plus the subquery values an InitPlan above has bound.
    params: Optional[dict]

    @property
    def config(self) -> "EngineConfig":
        return self.executor.config

    @property
    def exchange(self) -> "Callable[..., list[Chunk]] | None":
        """Where an :class:`Exchange` sends its partitions: ``(payload,
        table, ranges, params, config) -> one Chunk per range``, or None
        when this execution has no worker pool (the child runs in-process)."""
        return self.executor.exchange

    def note(self, message: str) -> None:
        self.executor.note(message)

    def checkpoint(self) -> None:
        """Cooperative cancellation/timeout check at an operator boundary."""
        self.executor.check_runtime()

    def execute_body(self, body: object) -> Chunk:
        """Run a derived-table body (VALUES, SELECT or compound select)."""
        return self.executor.execute_body(body, self.env)


@dataclass
class OpResult:
    """A materialized relation flowing between operators."""

    chunk: Chunk
    scope: Scope
    # Evaluator over the pre-projection relation, used by Sort to evaluate
    # ORDER BY expressions that reference non-projected columns.
    order_eval: Optional[Evaluator] = None
    # Window-call results computed by a Window operator below, keyed by
    # id(WindowCall); consumed by the Project above it.
    window_values: Optional[dict[int, np.ndarray]] = None
    # The HAVING mask a HashAggregate applied to its output: order_eval
    # still covers every group, so Sort/TopK filter its arrays by this.
    having_mask: Optional[np.ndarray] = None


def _copy_scope(src: Scope) -> Scope:
    scope = Scope()
    scope.qualified = dict(src.qualified)
    scope.unqualified = dict(src.unqualified)
    scope.ambiguous = set(src.ambiguous)
    return scope


def _single_scope(binding: str, chunk: Chunk) -> Scope:
    scope = Scope()
    for slot, col in enumerate(chunk.columns):
        scope.add(binding, col, slot)
    return scope


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

class Operator:
    """Base physical operator.

    Subclasses implement ``execute`` (pull-based: recursively execute
    children, return a materialized :class:`OpResult`), ``children`` (for
    plan traversal/rendering), and ``label`` (one EXPLAIN line, without the
    cardinality estimate — ``PhysicalPlan.render`` appends that).
    """

    est_rows: float | None = None

    def children(self) -> list["Operator"]:
        return []

    def label(self) -> str:
        return type(self).__name__

    def execute(self, ctx: ExecContext) -> OpResult:
        raise NotImplementedError

    def run(self, ctx: ExecContext) -> OpResult:
        """Execute with runtime-stats accounting.

        All parent-to-child invocations go through here.  When the
        executor carries no :class:`~.runtime_stats.RuntimeStats` (the
        default), this is a plain ``execute`` call with zero overhead;
        otherwise the node's actual output cardinality and inclusive
        elapsed time are recorded for adaptive decisions and EXPLAIN
        ANALYZE.
        """
        stats = ctx.executor.stats
        if stats is None:
            return self.execute(ctx)
        start = time.perf_counter()
        res = self.execute(ctx)
        stats.record(self, res.chunk.nrows, time.perf_counter() - start)
        return res


@dataclass
class Scan(Operator):
    """Read a base table (or materialized CTE) and prune to needed columns."""

    binding: str
    table: str
    keep_columns: list[str] | None  # None = keep all (SELECT *)
    est_rows: float | None = None
    # Zone-map pruning (stored tables only): the chunk ids that survive the
    # planner's interval tests, and the table's total chunk count.  None
    # means pruning was not attempted (in-memory table, no prunable
    # predicates, or ``EngineConfig.zone_map_pruning`` off).
    chunk_ids: list[int] | None = None
    n_chunks: int = 0
    # The string columns something computes on (predicates, keys,
    # expressions, the output of a CTE or subquery body) — every one but
    # those the statement's final body only returns: the ones a
    # RAM-resident table hands out dictionary-encoded (a stored table's
    # strings are encoded on disk and all stay so).  None = all.
    encode: list[str] | None = None

    def label(self) -> str:
        cols = "*" if self.keep_columns is None else f"[{', '.join(self.keep_columns)}]"
        name = self.table if self.table == self.binding else f"{self.table} AS {self.binding}"
        label = f"Scan {name} cols={cols}"
        if self.chunk_ids is not None and self.n_chunks:
            label += f" zonemap={len(self.chunk_ids)}/{self.n_chunks} chunks"
        return label

    def execute(self, ctx: ExecContext) -> OpResult:
        ctx.checkpoint()
        if self.table in ctx.env:
            chunk = ctx.env[self.table]
            if self.keep_columns is not None:
                chunk = chunk.project(self.keep_columns)
        else:
            table = ctx.executor.catalog.get(self.table)
            chunk = table.scan(self.keep_columns, self.chunk_ids, self.encode)
            if self.chunk_ids is not None and self.n_chunks:
                ctx.note(
                    f"scan {self.binding}: zone maps pruned "
                    f"{self.n_chunks - len(self.chunk_ids)}/{self.n_chunks} "
                    f"chunk(s), read {chunk.nrows} rows"
                )
        stats = ctx.executor.stats
        if stats is not None:
            chunk = _watch_dict_columns(self, chunk, stats)
        return OpResult(chunk, _single_scope(self.binding, chunk))


def _watch_dict_columns(scan: "Scan", chunk: Chunk, stats) -> Chunk:
    """EXPLAIN ANALYZE bookkeeping for a scan's dictionary-encoded columns:
    list them on the Scan's line and have them report to *stats*."""
    dictionaries = [(c, chunk.dictionary(i))
                    for i, c in enumerate(chunk.columns)]
    encoded = [(c, len(d) - 1) for c, d in dictionaries if d is not None]
    if not encoded:
        return chunk
    stats.scan_dicts[id(scan)] = ", ".join(f"{c}({n})" for c, n in encoded)
    return chunk.watched(stats)


@dataclass
class SubqueryScan(Operator):
    """A derived table in FROM: execute the nested body, rename, prune."""

    binding: str
    body: object  # Select | ValuesClause
    column_names: list[str] | None
    keep_columns: list[str] | None
    subplan: Optional["PhysicalPlan"] = None
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.subplan.root] if self.subplan is not None else []

    def label(self) -> str:
        return f"SubqueryScan AS {self.binding}"

    def execute(self, ctx: ExecContext) -> OpResult:
        ctx.checkpoint()
        chunk = ctx.execute_body(self.body)
        if self.column_names is not None:
            chunk = chunk.renamed(list(self.column_names))
        if self.keep_columns is not None:
            chunk = chunk.project(self.keep_columns)
        return OpResult(chunk, _single_scope(self.binding, chunk))


@dataclass
class DualScan(Operator):
    """The implicit one-row relation behind a FROM-less SELECT."""

    est_rows: float | None = 1.0

    def label(self) -> str:
        return "DualScan"

    def execute(self, ctx: ExecContext) -> OpResult:
        chunk = Chunk(["__one"], [np.zeros(1, dtype=np.int64)])
        return OpResult(chunk, Scope())


def values_chunk(values: ValuesClause, params: object) -> Chunk:
    """Materialize a ``VALUES`` body: one ``colN`` column per position."""
    one_row = Chunk(["__one"], [np.zeros(1, dtype=np.int64)])
    evaluator = Evaluator(one_row, Scope(), params=params)
    ncols = len(values.rows[0])
    raw_cols: list[list[object]] = [[] for _ in range(ncols)]
    for row in values.rows:
        if len(row) != ncols:
            raise SQLBindError("VALUES rows have inconsistent arity")
        for i, expr in enumerate(row):
            raw_cols[i].append(evaluator.eval(expr))
    return Chunk([f"col{i}" for i in range(ncols)],
                 [coerce_array(np.array(c, dtype=object)) for c in raw_cols])


@dataclass
class Filter(Operator):
    """Pushed-down filter directly above a scan (no subqueries allowed).

    The mask is evaluated over row partitions on the shared pool; the kept
    rows become a position list the columns are gathered by when an
    operator above reads them (:meth:`Chunk.mask`), and when every row
    passes the input flows on unchanged.
    """

    child: Operator
    binding: str
    predicates: list[Expr]
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child]

    def label(self) -> str:
        preds = " AND ".join(expr_to_str(p) for p in self.predicates)
        return f"Filter {preds}"

    def execute(self, ctx: ExecContext) -> OpResult:
        res = self.child.run(ctx)
        ctx.checkpoint()
        chunk, scope = res.chunk, res.scope
        params = ctx.params
        n = chunk.nrows
        exprs = self.predicates

        def make_mask(start: int, stop: int) -> np.ndarray:
            ev = Evaluator(chunk.slice(start, stop), scope, params=params)
            mask = np.ones(stop - start, dtype=bool)
            for e in exprs:
                mask &= ev.eval_mask(e)
            return mask

        out = chunk.mask(parallel_masks(n, ctx.config.threads, make_mask))
        ctx.note(
            f"scan+filter {self.binding}: {len(exprs)} predicate(s) pushed down, "
            f"{n} -> {out.nrows} rows"
        )
        return OpResult(out, scope)


def _merge_scopes(left: Scope, right_binding: str, right_chunk: Chunk, offset: int) -> Scope:
    scope = _copy_scope(left)
    for k, col in enumerate(right_chunk.columns):
        scope.add(right_binding, col, offset + k)
    return scope


@dataclass
class CrossJoin(Operator):
    """Cartesian product (guarded against blow-ups)."""

    left: Operator
    right: Operator
    right_binding: str
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def label(self) -> str:
        return f"CrossJoin + {self.right_binding}"

    def execute(self, ctx: ExecContext) -> OpResult:
        lres = self.left.run(ctx)
        rres = self.right.run(ctx)
        ctx.checkpoint()
        nl, nr = lres.chunk.nrows, rres.chunk.nrows
        if nl * nr > 50_000_000:
            raise SQLExecutionError(
                f"refusing cartesian product of {nl} x {nr} rows"
            )
        lp = np.repeat(np.arange(nl, dtype=np.int64), nr)
        rp = np.tile(np.arange(nr, dtype=np.int64), nl)
        zeros = np.zeros(len(lp), dtype=bool)
        chunk = combine_chunks(lres.chunk, rres.chunk, lp, rp, zeros, zeros)
        ctx.note(
            f"cartesian product + {self.right_binding}: {nl} x {nr} -> {len(lp)} rows"
        )
        scope = _merge_scopes(lres.scope, self.right_binding, rres.chunk, lres.chunk.ncols)
        return OpResult(chunk, scope)


@dataclass
class HashJoin(Operator):
    """Equi hash join; probe side is partitioned across the worker pool.

    ``pairs`` are (left_expr, right_expr) equi-key pairs; ``residual``
    conjuncts (non-equi parts of an explicit ON) filter the joined chunk.
    """

    left: Operator
    right: Operator
    right_binding: str
    pairs: list[tuple[Expr, Expr]]
    how: str = "inner"
    residual: list[Expr] = field(default_factory=list)
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def label(self) -> str:
        conds = ", ".join(
            f"{expr_to_str(l)} = {expr_to_str(r)}" for l, r in self.pairs
        )
        how = "" if self.how == "inner" else f" {self.how.upper()}"
        return f"HashJoin{how} + {self.right_binding} on {conds}"

    def execute(self, ctx: ExecContext) -> OpResult:
        lres = self.left.run(ctx)
        rres = self.right.run(ctx)
        ctx.checkpoint()
        left_chunk, right_chunk = lres.chunk, rres.chunk
        left_eval = Evaluator(left_chunk, lres.scope, params=ctx.params)
        right_eval = Evaluator(right_chunk, rres.scope, params=ctx.params)
        lkeys = [left_eval.eval_array(le) for le, _ in self.pairs]
        rkeys = [right_eval.eval_array(re_) for _, re_ in self.pairs]
        threads = ctx.config.threads
        spilled = None
        budget = ctx.config.memory_budget
        if budget is not None and left_chunk.nrows and right_chunk.nrows:
            from ..storage.spill import chunk_nbytes, grace_join_positions, spillable_keys

            build_bytes = min(chunk_nbytes(left_chunk), chunk_nbytes(right_chunk))
            if build_bytes > budget and spillable_keys(lkeys, rkeys):
                # Spill files hold plain arrays only.
                lp, rp, lmiss, rmiss, spilled = grace_join_positions(
                    [plain(k) for k in lkeys], [plain(k) for k in rkeys],
                    self.how, threads=threads,
                    nparts=max(2, ctx.config.spill_partitions),
                )
                ctx.note(
                    f"spill: hash join + {self.right_binding} build side "
                    f"{build_bytes} bytes > budget {budget}, grace-partitioned "
                    f"over {spilled.partitions} partition(s), "
                    f"{spilled.bytes_spilled} bytes to disk"
                )
        if spilled is None:
            if ctx.config.adaptive_execution:
                nl, nr = left_chunk.nrows, right_chunk.nrows
                if nr > 4 * nl and nr >= 4096:
                    # The join kernel builds its index on the small left
                    # side here and morsel-probes with the large right side
                    # (see joins.join_positions); surface the decision.
                    stats = ctx.executor.stats
                    if stats is not None:
                        stats.event(
                            f"hash join + {self.right_binding}: build side "
                            f"swapped — index built on {nl}-row side, "
                            f"probed with {nr} rows"
                        )
            match = join_positions(lkeys, rkeys, self.how, threads=threads)
            lp, rp, lmiss, rmiss = match
            index = match.index
        else:
            index = "grace-partitioned"
        chunk = combine_chunks(left_chunk, right_chunk, lp, rp, lmiss, rmiss)
        ctx.note(
            f"hash join + {self.right_binding} on {len(self.pairs)} key(s): "
            f"{left_chunk.nrows} x {right_chunk.nrows} -> {chunk.nrows} rows, "
            f"{index}"
        )
        scope = _merge_scopes(lres.scope, self.right_binding, right_chunk, left_chunk.ncols)
        if self.residual:
            ev = Evaluator(chunk, scope, params=ctx.params)
            mask = np.ones(chunk.nrows, dtype=bool)
            for conj in self.residual:
                mask &= ev.eval_mask(conj)
            chunk = chunk.mask(mask)
        return OpResult(chunk, scope)


@dataclass
class Materialized(Operator):
    """An already-executed relation re-fed into a rebuilt join chain.

    :class:`AdaptiveJoin` executes every join source exactly once, then
    stitches the materialized results into a (possibly re-ordered) chain of
    ordinary ``HashJoin``/``CrossJoin`` nodes whose leaves are these.
    ``result`` is populated at runtime; a plan-shape ``Materialized`` with
    ``result=None`` (as seen by the verifier before execution) is legal but
    cannot be executed.
    """

    binding: str
    result: OpResult | None = None
    est_rows: float | None = None

    def label(self) -> str:
        return f"Materialized {self.binding}"

    def execute(self, ctx: ExecContext) -> OpResult:
        ctx.checkpoint()
        if self.result is None:
            raise SQLExecutionError(
                f"Materialized {self.binding} executed without a result"
            )
        return self.result


@dataclass
class AdaptiveSource(Operator):
    """One join input under an :class:`AdaptiveJoin`: a planned source
    subtree plus the static cardinality estimate the planner ordered it by."""

    binding: str
    op: Operator = None  # type: ignore[assignment]
    est: float = 1.0

    def children(self) -> list[Operator]:
        return [self.op]

    def label(self) -> str:  # pragma: no cover - AdaptiveJoin renders sources
        return f"AdaptiveSource {self.binding}"

    def execute(self, ctx: ExecContext) -> OpResult:
        ctx.checkpoint()
        return self.op.run(ctx)


@dataclass
class AdaptiveJoin(Operator):
    """Estimate-feedback join: execute sources, re-order on mis-estimates.

    The planner emits this instead of a static join chain when
    ``EngineConfig.adaptive_execution`` is on.  Execution first pulls every
    source subtree (scans + pushed-down filters) exactly once, observing
    true cardinalities.  If any source's actual row count diverges from its
    estimate by more than ``EngineConfig.adaptive_ratio`` (in either
    direction), the greedy join-order algorithm re-runs over the *actual*
    counts and — when it picks a different order — the join chain is rebuilt
    over :class:`Materialized` leaves, re-verified by the plan verifier
    (when ``verify_plans`` is on), and executed in the new order.  The
    output chunk is permuted back to the static column layout, so results
    differ from static execution only in row order (inner-join row sets are
    order-invariant; every consumer that promises ordering sorts above).
    """

    sources: list[AdaptiveSource] = field(default_factory=list)
    # Equi-join edges (i, j, left_expr, right_expr): an equality between
    # source i's expression and source j's expression.
    edges: list = field(default_factory=list)
    # The statically chosen order: [(source_index, oriented_pairs)] where
    # oriented_pairs are (accumulated_side_expr, new_side_expr).
    static_order: list = field(default_factory=list)
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [s.op for s in self.sources]

    def label(self) -> str:
        names = ", ".join(s.binding for s in self.sources)
        return f"AdaptiveJoin [{names}]"

    def _build_chain(self, order: list, results: list[OpResult],
                     actuals: list[float]) -> tuple[Operator, list[str]]:
        """A HashJoin/CrossJoin chain over Materialized leaves in ``order``."""
        first = order[0][0]
        root: Operator = Materialized(self.sources[first].binding,
                                      results[first], est_rows=actuals[first])
        est = actuals[first]
        cols = list(results[first].chunk.columns)
        for idx, pairs in order[1:]:
            src = self.sources[idx]
            leaf = Materialized(src.binding, results[idx],
                                est_rows=actuals[idx])
            if pairs:
                est = max(est, actuals[idx])
                root = HashJoin(root, leaf, src.binding, list(pairs),
                                est_rows=est)
            else:
                est = est * actuals[idx]
                root = CrossJoin(root, leaf, src.binding, est_rows=est)
            cols.extend(results[idx].chunk.columns)
        return root, cols

    def execute(self, ctx: ExecContext) -> OpResult:
        ctx.checkpoint()
        stats = ctx.executor.stats
        results: list[OpResult] = []
        actuals: list[float] = []
        for s in self.sources:
            res = s.op.run(ctx)
            results.append(res)
            actuals.append(float(res.chunk.nrows))

        # Divergence check: worst est-vs-actual ratio across sources.
        cap = max(1.0, ctx.config.adaptive_ratio)
        worst_ratio, worst_idx = 0.0, 0
        for i, s in enumerate(self.sources):
            est, act = max(s.est, 1.0), max(actuals[i], 1.0)
            ratio = act / est if act > est else est / act
            if ratio > worst_ratio:
                worst_ratio, worst_idx = ratio, i
        order = self.static_order
        replanned = False
        if worst_ratio > cap:
            from .planner import greedy_join_order

            new_order = greedy_join_order(actuals, self.edges, True)
            if [i for i, _ in new_order] != [i for i, _ in self.static_order]:
                order = new_order
                replanned = True
                src = self.sources[worst_idx]
                old_names = ", ".join(self.sources[i].binding
                                      for i, _ in self.static_order)
                new_names = ", ".join(self.sources[i].binding
                                      for i, _ in new_order)
                message = (
                    f"re-plan: {src.binding} est={int(round(src.est))} vs "
                    f"actual={int(round(actuals[worst_idx]))} rows "
                    f"(ratio {worst_ratio:.1f} > {cap:.1f}); join order "
                    f"[{old_names}] -> [{new_names}]"
                )
                if stats is not None:
                    stats.replan(message)
                ctx.note(f"adaptive {message}")
            elif stats is not None:
                src = self.sources[worst_idx]
                stats.event(
                    f"divergence on {src.binding} "
                    f"(est={int(round(src.est))}, "
                    f"actual={int(round(actuals[worst_idx]))} rows) "
                    f"but join order unchanged"
                )

        root, cols = self._build_chain(order, results, actuals)
        if replanned and ctx.config.verify_plans:
            from ..analysis import verify_plan

            verify_plan(PhysicalPlan(root, cols), ctx.executor.catalog,
                        ctx.config, ctx.env)
        out = root.run(ctx)
        if not replanned:
            return out

        # Permute the executed layout back to the static column order so
        # downstream operators see the exact scope/slot layout the planner
        # compiled against.
        offsets: dict[int, int] = {}
        pos = 0
        for i, _ in order:
            offsets[i] = pos
            pos += results[i].chunk.ncols
        slots: list[int] = []
        scope = Scope()
        for i, _ in self.static_order:
            chunk = results[i].chunk
            base = offsets[i]
            for k, col in enumerate(chunk.columns):
                scope.add(self.sources[i].binding, col, len(slots))
                slots.append(base + k)
        return OpResult(out.chunk.select(slots), scope)


@dataclass
class ResidualFilter(Operator):
    """Post-join WHERE conjuncts (subqueries and multi-source predicates)."""

    child: Operator
    predicates: list[Expr]
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child]

    def label(self) -> str:
        preds = " AND ".join(expr_to_str(p) for p in self.predicates)
        return f"Filter(residual) {preds}"

    def execute(self, ctx: ExecContext) -> OpResult:
        res = self.child.run(ctx)
        ctx.checkpoint()
        chunk = res.chunk
        before = chunk.nrows
        evaluator = Evaluator(chunk, res.scope, params=ctx.params)
        mask = np.ones(chunk.nrows, dtype=bool)
        for conj in self.predicates:
            mask &= evaluator.eval_mask(conj)
        chunk = chunk.mask(mask)
        ctx.note(f"residual filter: {len(self.predicates)} predicate(s), "
                 f"{before} -> {chunk.nrows} rows")
        return OpResult(chunk, res.scope)


# ---------------------------------------------------------------------------
# Correlated subqueries
# ---------------------------------------------------------------------------

def _append_column(res: OpResult, name: str, array: np.ndarray) -> OpResult:
    """A new OpResult with one extra (unqualified) column appended."""
    chunk = res.chunk.with_columns([name], [array])
    scope = _copy_scope(res.scope)
    scope.add(None, name, chunk.ncols - 1)
    return OpResult(chunk, scope, order_eval=res.order_eval,
                    window_values=res.window_values)


@dataclass
class MarkJoin(Operator):
    """A correlated ``[NOT] IN`` / ``[NOT] EXISTS``, computed as one match
    flag per outer row.

    ``probe_exprs`` pair positionally with the subplan's output columns:
    for ``IN`` the operand against the value column, then one outer
    expression per equality-correlation key — at least one, since the
    planner binds an uncorrelated form as an :class:`InitPlan` value
    instead.  The subplan runs once per execution and the probe is
    morsel-parallel over the GIL-free membership kernel.  ``negated``
    makes the flag ``NOT EXISTS`` (a NULL key never matches, so the row is
    kept) or ``NOT IN`` (three-valued: see :meth:`_flags`).

    With no ``mark_name`` the predicate is a whole WHERE / ON conjunct and
    the operator keeps the rows whose flag is set (EXPLAIN calls it a
    ``SemiJoin`` / ``AntiJoin``); otherwise it appends the flags as the
    boolean column ``__mark_N`` that the expression above reads in the
    form's place.
    """

    child: Operator
    subplan: "PhysicalPlan" = None  # type: ignore[assignment]
    probe_exprs: list[Expr] = field(default_factory=list)
    source: str = "IN"  # "IN" | "EXISTS"
    negated: bool = False
    mark_name: Optional[str] = None
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child, self.subplan.root]

    def label(self) -> str:
        probes = ", ".join(expr_to_str(p) for p in self.probe_exprs)
        form = ("NOT " if self.negated else "") + self.source
        if self.mark_name is not None:
            return f"MarkJoin {self.mark_name} = {form} on [{probes}]"
        if not self.negated:
            return f"SemiJoin {form} on [{probes}]"
        null_aware = " (null-aware)" if self.source == "IN" else ""
        return f"AntiJoin {form}{null_aware} on [{probes}]"

    def execute(self, ctx: ExecContext) -> OpResult:
        res = self.child.run(ctx)
        ctx.checkpoint()
        form = ("not " if self.negated else "") + self.source.lower()
        what = (f"mark join {self.mark_name}" if self.mark_name is not None
                else f"{'anti' if self.negated else 'semi'} join ({form})")
        if ctx.config.adaptive_execution and res.chunk.nrows == 0:
            stats = ctx.executor.stats
            if stats is not None:
                stats.event(f"{what}: empty outer input, subquery skipped")
            ctx.note(f"adaptive: {what} skipped subquery on empty outer "
                     f"input")
            flags, inner_rows = np.zeros(0, dtype=bool), 0
        else:
            flags, inner_rows = self._flags(ctx, res)
        if self.mark_name is not None:
            ctx.note(f"{what}: {res.chunk.nrows} x {inner_rows}, "
                     f"{int(flags.sum())} marked")
            return _append_column(res, self.mark_name, flags)
        chunk = res.chunk.mask(flags)
        ctx.note(f"{what}: {res.chunk.nrows} x {inner_rows} -> "
                 f"{chunk.nrows} rows")
        return OpResult(chunk, res.scope)

    def _flags(self, ctx: ExecContext, res: OpResult) -> tuple[np.ndarray, int]:
        """The per-row truth of the predicate (UNKNOWN is false), and the
        subquery's row count.

        For ``NOT IN``, with S the inner value set of the row's
        correlation keys: TRUE when S is empty; otherwise only when the
        operand is non-NULL, S holds no NULL and no member of S equals the
        operand (any NULL in play makes the unmatched case UNKNOWN).
        """
        from .joins import semi_join_flags

        inner = self.subplan.execute(ctx)
        threads = ctx.config.threads
        evaluator = Evaluator(res.chunk, res.scope, params=ctx.params)
        probes = [evaluator.eval_array(e) for e in self.probe_exprs]
        build = [inner.column(i) for i in range(len(probes))]
        matched = semi_join_flags(probes, build, threads=threads)
        if not self.negated:
            return matched, inner.nrows
        if self.source == "EXISTS":
            return ~matched, inner.nrows
        keys, key_build = probes[1:], build[1:]
        group_nonempty = semi_join_flags(keys, key_build, threads=threads)
        null_values = isna(build[0])
        group_has_null = semi_join_flags(
            keys, [b[null_values] for b in key_build], threads=threads)
        return (~group_nonempty | (~isna(probes[0]) & ~group_has_null
                                   & ~matched)), inner.nrows


@dataclass
class InitPlan(Operator):
    """Bind the values of uncorrelated subqueries, then run *child*.

    Each entry of ``values`` is ``(name, kind, subplan)``: the planner
    replaced the subquery with the placeholder ``name`` (``$N``), and this
    operator, at the plan's root, runs ``subplan`` once per execution and
    binds what the placeholder reads — ``scalar``: the one value (NULL for
    no row); ``exists`` / ``not exists``: a boolean; ``in``: the value
    column, which ``x [NOT] IN ($N)`` probes as a set.  Every operator
    below, Exchange workers included, sees them in ``ctx.params``.
    """

    child: Operator
    values: list = field(default_factory=list)
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child] + [plan.root for _, _, plan in self.values]

    def label(self) -> str:
        return "InitPlan " + ", ".join(f"{name} = {kind.upper()}"
                                       for name, kind, _ in self.values)

    def execute(self, ctx: ExecContext) -> OpResult:
        bound = dict(ctx.params or {})
        for name, kind, plan in self.values:
            ctx.checkpoint()
            inner = plan.execute(ctx)
            if kind == "scalar":
                if inner.nrows > 1:  # SQL's cardinality rule
                    raise SQLExecutionError(
                        f"scalar subquery returned {inner.nrows} rows "
                        f"(expected at most one)")
                bound[name] = inner.column(0)[0] if inner.nrows else None
            elif kind == "in":
                # Strings are encoded once, not by every probe.
                values = inner.column(0)
                bound[name] = as_dict(values) if values.dtype == object \
                    else values
            else:
                bound[name] = (inner.nrows > 0) != (kind == "not exists")
        return self.child.run(replace(ctx, params=bound))


@dataclass
class Window(Operator):
    """Partition-parallel window-function evaluation.

    Sits between the relational input and the Project that consumes the
    results.  All window calls of the SELECT are evaluated here: calls
    sharing a ``(PARTITION BY, ORDER BY)`` spec share one factorization and
    one sort (:func:`~.window.build_layout`), and each kernel reduces its
    partitions morsel-parallel on the shared worker pool.  The input chunk
    passes through unchanged; results travel to the Project via
    :attr:`OpResult.window_values`.
    """

    child: Operator
    calls: list[WindowCall] = field(default_factory=list)
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child]

    def label(self) -> str:
        calls = ", ".join(window_to_str(c) for c in self.calls)
        return f"Window {calls}"

    def execute(self, ctx: ExecContext) -> OpResult:
        from .window import evaluate_window_calls

        config = ctx.config
        if not config.supports_window:
            raise UnsupportedFeatureError(
                f"{config.name}: window functions are not supported by this backend"
            )
        res = self.child.run(ctx)
        ctx.checkpoint()
        values = evaluate_window_calls(res.chunk, res.scope, self.calls,
                                       config, params=ctx.params)
        specs = {
            (tuple(map(expr_to_str, c.partition_by)),
             tuple(expr_to_str(o.expr) for o in c.order_by))
            for c in self.calls
        }
        ctx.note(
            f"window: {len(self.calls)} call(s) over {len(specs)} spec(s), "
            f"{res.chunk.nrows} rows"
        )
        return OpResult(res.chunk, res.scope, order_eval=res.order_eval,
                        window_values=values)


# ---------------------------------------------------------------------------
# Projection and aggregation
# ---------------------------------------------------------------------------

def output_name(item: SelectItem, position: int) -> str:
    """Result-column name of a select item: its alias, else the bare column
    name, else ``col<position>``."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, ColumnRef):
        return item.expr.name
    return f"col{position}"


def _expand_items(select: Select, chunk: Chunk, scope: Scope) -> list[SelectItem]:
    """The select list with each ``*`` / ``t.*`` replaced by one item per
    visible input column."""
    items: list[SelectItem] = []
    for item in select.items:
        if isinstance(item.expr, Star):
            for col in chunk.columns:
                if col.startswith("__mark_"):
                    continue  # planner-introduced mark columns
                if item.expr.table is not None:
                    slot = scope.qualified.get((item.expr.table, col))
                    if slot is None:
                        continue
                items.append(SelectItem(expr=ColumnRef(name=col, table=item.expr.table), alias=col))
        else:
            items.append(item)
    return items


def _eval_with_windows(evaluator: Evaluator, expr: Expr,
                       window_values: dict[int, np.ndarray]) -> np.ndarray:
    """Evaluate a select item whose window calls were computed by the
    :class:`Window` operator below."""
    if isinstance(expr, WindowCall):
        return window_values[id(expr)]
    if not window_values or not has_window(expr):
        return evaluator.eval_array(expr)

    # Rebuild the expression bottom-up, substituting each window call by a
    # reference to a column carrying its precomputed array.
    def substitute(e: Expr) -> Expr:
        if isinstance(e, WindowCall):
            return ColumnRef(name=f"__win_{id(e)}")
        return map_children(e, substitute)

    chunk = evaluator.chunk
    scope = _copy_scope(evaluator.scope)
    for i, k in enumerate(window_values):
        scope.add(None, f"__win_{k}", chunk.ncols + i)
    widened = chunk.with_columns([f"__win_{k}" for k in window_values],
                                 list(window_values.values()))
    return Evaluator(widened, scope,
                     params=evaluator.params).eval_array(substitute(expr))


@dataclass
class Project(Operator):
    """Plain projection; window arrays arrive precomputed from a Window child."""

    child: Operator
    select: Select
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child]

    def label(self) -> str:
        items = ", ".join(expr_to_str(it.expr) for it in self.select.items)
        return f"Project {items}"

    def execute(self, ctx: ExecContext) -> OpResult:
        res = self.child.run(ctx)
        ctx.checkpoint()
        chunk, scope = res.chunk, res.scope
        window_values = res.window_values or {}
        params = ctx.params
        items = _expand_items(self.select, chunk, scope)
        evaluator = Evaluator(chunk, scope, params=params)
        if chunk.nrows > 1 and not window_values:
            def make_arrays(start: int, stop: int) -> list[np.ndarray]:
                ev = Evaluator(chunk.slice(start, stop), scope, params=params)
                return [ev.eval_array(it.expr) for it in items]

            arrays = parallel_arrays(chunk.nrows, ctx.config.threads, make_arrays)
        else:
            arrays = [_eval_with_windows(evaluator, it.expr, window_values)
                      for it in items]
        names = [output_name(it, i) for i, it in enumerate(items)]
        return OpResult(Chunk(names, arrays), scope, order_eval=evaluator)


@dataclass
class AggregateBatch:
    """The aggregates one :class:`HashAggregate` computes, collected once
    per plan.

    Every :class:`AggCall` of the select items and HAVING is listed once
    under its ``expr_key`` (an aggregate written twice is computed once), and
    each distinct argument once: per execution it is evaluated and wrapped
    in one :class:`~.grouping.GroupedColumn`, whose NULL mask, counts and
    sums every call over it shares (AVG reads SUM and COUNT).  For a
    global aggregate, the SUMs over a product ``x * y`` are also listed
    with their distinct factors (``products``: call, left, right indexes
    into ``factors``); an execution whose factors all come out numeric,
    NULL-free and finite computes them as one matrix product
    (:func:`~.grouping.sum_of_products`), any other takes the ordinary
    reducer.
    """

    select: Select
    calls: dict[str, AggCall] = field(default_factory=dict)
    args: list[Expr] = field(default_factory=list)
    arg_of: list[int] = field(default_factory=list)   # -1 = COUNT(*)
    factors: list[Expr] = field(default_factory=list)
    products: list[tuple[int, int, int]] = field(default_factory=list)

    @classmethod
    def of(cls, select: Select) -> "AggregateBatch":
        batch = cls(select)
        arg_keys: dict[str, int] = {}
        factor_keys: dict[str, int] = {}

        def index(seen: dict[str, int], out: list[Expr], expr: Expr) -> int:
            key = expr_key(expr)
            if key not in seen:
                seen[key] = len(out)
                out.append(expr)
            return seen[key]

        exprs = [it.expr for it in select.items]
        if select.having is not None:
            exprs.append(select.having)
        for call in (c for e in exprs for c in aggregates_of(e)):
            key = expr_key(call)
            if key in batch.calls:
                continue  # written before
            i = len(batch.calls)
            batch.calls[key] = call
            arg = call.arg
            batch.arg_of.append(-1 if arg is None
                                else index(arg_keys, batch.args, arg))
            if not select.group_by and call.func == "SUM" and \
                    not call.distinct and isinstance(arg, BinaryOp) and \
                    arg.op == "*":
                batch.products.append((i, index(factor_keys, batch.factors, arg.left),
                                       index(factor_keys, batch.factors, arg.right)))
        return batch

    def compute(self, evaluator: Evaluator,
                layout: GroupLayout) -> tuple[list[np.ndarray], int]:
        """Every call per group of *layout*, in :attr:`calls` order, with
        *evaluator* (row mode) evaluating the arguments; also returns how
        many calls the matrix product computed."""
        values: list[np.ndarray | None] = [None] * len(self.calls)
        matmul = self._products(evaluator, values) \
            if self.products and layout.nrows else 0
        columns: dict[int, GroupedColumn] = {}
        for i, call in enumerate(self.calls.values()):
            if values[i] is not None:
                continue
            j = self.arg_of[i]
            if j >= 0 and j not in columns:
                columns[j] = GroupedColumn(layout,
                                           evaluator.eval_array(self.args[j]))
            values[i] = sql_aggregate(call, layout, columns.get(j))
        return values, matmul

    def _products(self, evaluator: Evaluator, values: list) -> int:
        """Fill *values* of the product SUMs whose factors qualify; return
        how many did."""
        factors = [evaluator.eval_array(f) for f in self.factors]
        # A float factor is NULL-free and finite exactly when its sum is
        # finite (NaN and ±inf survive addition; a sum overflowing to inf
        # is refused too, and takes the ordinary reducer like the rest).
        with np.errstate(invalid="ignore", over="ignore"):
            clean = [not isinstance(f, DictColumn) and f.dtype.kind in "iuf"
                     and (f.dtype.kind != "f" or bool(np.isfinite(f.sum())))
                     for f in factors]
        chosen = [(i, a, b) for i, a, b in self.products if clean[a] and clean[b]]
        if not chosen:
            return 0
        lefts = sorted({a for _, a, _ in chosen})
        rights = sorted({b for _, _, b in chosen})
        left = [factors[a] for a in lefts]
        sums = sum_of_products(left, left if rights == lefts
                               else [factors[b] for b in rights])
        row = {a: k for k, a in enumerate(lefts)}
        col = {b: k for k, b in enumerate(rights)}
        for i, a, b in chosen:
            values[i] = sum_result(np.array([sums[row[a], col[b]]]),
                                   factors[a].dtype.kind in "iu"
                                   and factors[b].dtype.kind in "iu")
        return len(chosen)


def aggregate(ctx: ExecContext, batch: AggregateBatch, chunk: Chunk,
              scope: Scope) -> tuple[Chunk, Evaluator, np.ndarray | None]:
    """Grouped projection of *chunk*: factorize the GROUP BY keys into one
    :class:`~.grouping.GroupLayout`, compute the *batch* over it, project
    every select item, apply HAVING.

    Returns ``(output, evaluator, having_mask)``: the grouped-mode evaluator
    still covers every group (ORDER BY may name a non-projected aggregate),
    so ``having_mask`` — ``None`` without HAVING — says which of its rows
    made it into ``output``.  :class:`HashAggregate` runs this over its
    whole input, the spilling path once per grace partition.
    """
    select = batch.select
    items = _expand_items(select, chunk, scope)
    evaluator = Evaluator(chunk, scope, params=ctx.params)
    threads = ctx.config.threads
    if select.group_by:
        key_arrays = [evaluator.eval_array(g) for g in select.group_by]
        gids, key_uniques, ngroups = factorize_many(key_arrays)
        layout = GroupLayout(chunk.nrows, gids, ngroups, threads)
    else:
        # A global aggregate always yields exactly one row (NULL/0 on
        # empty input), matching SQL semantics.
        layout = GroupLayout(chunk.nrows, threads=threads)
        key_uniques = []
    values, matmul = batch.compute(evaluator, layout)
    ctx.note(f"hash aggregate: {len(select.group_by)} key(s), "
             f"{chunk.nrows} rows -> {layout.ngroups} groups, "
             f"{len(batch.calls)} aggregates, {matmul} via matmul")
    evaluator.layout = layout
    evaluator.aggregates = dict(zip(batch.calls, values))
    for gexpr, uniq in zip(select.group_by, key_uniques):
        evaluator.group_key_values[expr_key(gexpr)] = uniq
    out = Chunk([output_name(it, i) for i, it in enumerate(items)],
                [evaluator.eval_array(it.expr) for it in items])

    having_mask = None
    if select.having is not None:
        having_mask = evaluator.eval_mask(select.having)
        out = out.mask(having_mask)
    return out, evaluator, having_mask


@dataclass
class HashAggregate(Operator):
    """Grouped projection: factorize keys, compute the aggregates, apply
    HAVING (:func:`aggregate`)."""

    child: Operator
    select: Select
    est_rows: float | None = None

    @cached_property
    def batch(self) -> AggregateBatch:
        """Collected on the first execution and kept with the plan, so a
        warm execution starts computing at once."""
        return AggregateBatch.of(self.select)

    def children(self) -> list[Operator]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(expr_to_str(g) for g in self.select.group_by)
        naggs = sum(1 for it in self.select.items if not isinstance(it.expr, Star))
        label = f"HashAggregate keys=[{keys}] items={naggs}"
        if self.select.having is not None:
            label += f" having={expr_to_str(self.select.having)}"
        return label

    def execute(self, ctx: ExecContext) -> OpResult:
        res = self.child.run(ctx)
        ctx.checkpoint()
        budget = ctx.config.memory_budget
        if budget is not None and self.select.group_by and res.chunk.nrows > 1:
            from ..storage.spill import chunk_nbytes, grace_aggregate

            input_bytes = chunk_nbytes(res.chunk)
            if input_bytes > budget:
                spilled = grace_aggregate(
                    ctx, self.batch, res.chunk, res.scope,
                    nparts=max(2, ctx.config.spill_partitions),
                )
                if spilled is not None:
                    chunk, order_eval, stats = spilled
                    ctx.note(
                        f"spill: hash aggregate input {input_bytes} bytes > "
                        f"budget {budget}, grace-partitioned "
                        f"{res.chunk.nrows} rows over {stats.partitions} "
                        f"partition(s), {stats.bytes_spilled} bytes to disk"
                    )
                    return OpResult(chunk, res.scope, order_eval=order_eval)
        chunk, order_eval, having_mask = aggregate(
            ctx, self.batch, res.chunk, res.scope)
        return OpResult(chunk, res.scope, order_eval=order_eval,
                        having_mask=having_mask)


@dataclass
class Distinct(Operator):
    """Deduplicate output rows, keeping first occurrence in input order."""

    child: Operator
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child]

    def label(self) -> str:
        return "Distinct"

    def execute(self, ctx: ExecContext) -> OpResult:
        res = self.child.run(ctx)
        ctx.checkpoint()
        chunk = res.chunk
        if chunk.nrows:
            gids, _, ngroups = factorize_many(chunk.arrays)
            layout = GroupLayout(chunk.nrows, gids, ngroups, ctx.config.threads)
            chunk = chunk.take(np.sort(layout.first))
        # Ordering must reference output columns from here on.
        return OpResult(chunk, res.scope, order_eval=None)


def order_arrays(order_by: list[OrderItem],
                 res: OpResult) -> tuple[list[np.ndarray], list[bool]]:
    """ORDER BY keys of *res* as ``(arrays, ascendings)`` for Sort/TopK.

    A key naming an output column is that column; any other expression is
    evaluated by the pre-projection evaluator the Project/HashAggregate
    below left in ``res.order_eval`` (and filtered by its HAVING mask).
    """
    out_chunk, order_eval, mask = res.chunk, res.order_eval, res.having_mask
    kept = None if mask is None else np.flatnonzero(mask)
    arrays: list[np.ndarray] = []
    out_names = {c: i for i, c in enumerate(out_chunk.columns)}
    for item in order_by:
        expr = item.expr
        arr = None
        if isinstance(expr, ColumnRef) and expr.table is None and expr.name in out_names:
            arr = out_chunk.column(out_names[expr.name])
        elif order_eval is not None:
            try:
                arr = order_eval.eval_array(expr)
                if mask is not None and len(arr) == len(mask):
                    arr = arr[kept]
            except SQLBindError:
                arr = None
        if arr is None or len(arr) != out_chunk.nrows:
            raise SQLBindError(f"cannot evaluate ORDER BY expression {expr!r}")
        arrays.append(arr)
    return arrays, [item.ascending for item in order_by]


def _order_keys_str(order_by: list[OrderItem]) -> str:
    return ", ".join(
        expr_to_str(o.expr) + ("" if o.ascending else " DESC")
        for o in order_by
    )


@dataclass
class Sort(Operator):
    """ORDER BY over the projected output (stable multi-key sort)."""

    child: Operator
    order_by: list  # list[OrderItem]
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child]

    def label(self) -> str:
        return f"Sort {_order_keys_str(self.order_by)}"

    def execute(self, ctx: ExecContext) -> OpResult:
        res = self.child.run(ctx)
        ctx.checkpoint()
        arrays, ascendings = order_arrays(self.order_by, res)
        from .window import sort_positions

        chunk = res.chunk.take(sort_positions(arrays, ascendings))
        ctx.note(f"sort: {len(self.order_by)} key(s)")
        return OpResult(chunk, res.scope)


@dataclass
class TopK(Operator):
    """Fused ``ORDER BY … LIMIT k``: morsel-parallel partial selection.

    The planner rewrites a ``Sort`` + ``Limit`` pair into this operator;
    results are bit-identical to the pair (stable sort, ties keep input
    order) but only per-morsel candidates are ever sorted
    (:func:`~.topk.topk_positions`).
    """

    child: Operator
    order_by: list  # list[OrderItem]
    n: int = 0
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child]

    def label(self) -> str:
        return f"TopK {self.n} by {_order_keys_str(self.order_by)}"

    def execute(self, ctx: ExecContext) -> OpResult:
        from .topk import topk_positions

        res = self.child.run(ctx)
        ctx.checkpoint()
        arrays, ascendings = order_arrays(self.order_by, res)
        positions = topk_positions(arrays, ascendings, self.n,
                                   threads=ctx.config.threads)
        chunk = res.chunk.take(positions)
        ctx.note(f"top-k: {len(self.order_by)} key(s), "
                 f"{res.chunk.nrows} -> {chunk.nrows} rows")
        return OpResult(chunk, res.scope)


@dataclass
class Limit(Operator):
    """Keep the first *n* rows of the (already sorted) input."""

    child: Operator
    n: int = 0
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child]

    def label(self) -> str:
        return f"Limit {self.n}"

    def execute(self, ctx: ExecContext) -> OpResult:
        res = self.child.run(ctx)
        chunk = res.chunk.head(self.n)
        ctx.note(f"limit: {self.n}")
        return OpResult(chunk, res.scope)


@dataclass
class Exchange(Operator):
    """Partition boundary: *child* runs once per chunk range of *table*,
    and the per-range outputs are concatenated in range order.

    The planner places it (``EngineConfig.shard_workers > 0`` only) between
    a partial and a final stage of the same operator —
    ``HashAggregate ← Exchange ← HashAggregate`` or
    ``TopK ← Exchange ← TopK ← Project`` — over a subtree
    :meth:`input_scans` accepts that scans the partitioned table once.
    With :attr:`ExecContext.exchange` set the pickled child goes to the
    worker pool, one task per range, and each worker runs it through
    :meth:`run_partition`; without it the child runs once, unpartitioned,
    in this process.  Either way the parent sees the child's output columns
    under a fresh unqualified scope.
    """

    child: Operator
    table: str
    ranges: list[tuple[int, int]] = field(default_factory=list)
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.child]

    def label(self) -> str:
        spans = " ".join(f"[{lo},{hi})" for lo, hi in self.ranges)
        return (f"Exchange {self.table} {len(self.ranges)} partition(s) "
                f"chunks={spans}")

    def execute(self, ctx: ExecContext) -> OpResult:
        ctx.checkpoint()
        scatter = ctx.exchange
        if scatter is None:
            chunk = self.child.run(ctx).chunk
        else:
            parts = scatter(pickle.dumps(self.child), self.table, self.ranges,
                            ctx.params, ctx.config)
            # An empty partition's columns carry no dtype information.
            chunk = Chunk.concat([c for c in parts if c.nrows] or parts[:1])
            ctx.note(f"exchange {self.table}: {len(parts)} partition(s) "
                     f"-> {chunk.nrows} rows")
        return OpResult(chunk, _single_scope(None, chunk))

    @staticmethod
    def input_scans(root: Operator) -> list[Scan] | None:
        """The Scans under *root* if every operator there can run in a
        shard worker, which has the stored tables and the bound parameters
        and nothing else (no CTE env, no planner): scans, filters and
        inner/cross joins.  Else None."""
        scans: list[Scan] = []
        stack = [root]
        while stack:
            op = stack.pop()
            if not isinstance(op, (Scan, Filter, ResidualFilter, HashJoin,
                                   CrossJoin)) \
                    or (isinstance(op, HashJoin) and op.how != "inner"):
                return None
            if isinstance(op, Scan):
                scans.append(op)
            stack.extend(op.children())
        return scans

    @staticmethod
    def run_partition(payload: bytes, table: str, lo: int, hi: int,
                      executor: "Executor") -> Chunk:
        """Worker side: run a pickled child over chunks ``[lo, hi)`` of
        *table* (the Scan keeps whatever zone-map pruning it was planned
        with, clipped to the range)."""
        child: Operator = pickle.loads(payload)
        stack = [child]
        while stack:
            op = stack.pop()
            if isinstance(op, Scan) and op.table == table:
                ids = range(lo, hi) if op.chunk_ids is None else op.chunk_ids
                op.chunk_ids = [cid for cid in ids if lo <= cid < hi]
            stack.extend(op.children())
        return child.run(ExecContext(executor, {}, executor.params)).chunk


_SET_OP_SQL = {"union": "UNION", "intersect": "INTERSECT", "except": "EXCEPT"}


@dataclass
class SetOp(Operator):
    """A set operation over two sub-plans (UNION/INTERSECT/EXCEPT [ALL]).

    Columns pair by position; output names come from the left operand
    (checked for arity/type compatibility at plan time).  ``UNION ALL`` is
    a cheap concatenation; the hashed variants factorize the combined rows
    once and count per side (:mod:`.setops`), with the build side chosen by
    the planner from cardinality estimates for the symmetric operations.
    """

    left: Operator
    right: Operator
    op: str  # "union" | "intersect" | "except"
    all: bool = False
    columns: list[str] = field(default_factory=list)
    est_rows: float | None = None

    def children(self) -> list[Operator]:
        return [self.left, self.right]

    def label(self) -> str:
        return f"SetOp {_SET_OP_SQL[self.op]}{' ALL' if self.all else ''}"

    def execute(self, ctx: ExecContext) -> OpResult:
        from .setops import execute_set_op

        lres = self.left.run(ctx)
        rres = self.right.run(ctx)
        ctx.checkpoint()
        chunk = execute_set_op(self.op, self.all, lres.chunk, rres.chunk,
                               self.columns, threads=ctx.config.threads)
        ctx.note(
            f"set op {self.label().split(' ', 1)[1].lower()}: "
            f"{lres.chunk.nrows} vs {rres.chunk.nrows} -> {chunk.nrows} rows"
        )
        # Downstream ORDER BY must reference output columns only.
        scope = Scope()
        for slot, col in enumerate(chunk.columns):
            scope.add(None, col, slot)
        return OpResult(chunk, scope, order_eval=None)


# ---------------------------------------------------------------------------
# The plan object
# ---------------------------------------------------------------------------

@dataclass
class PhysicalPlan:
    """Root of a compiled operator tree for one SELECT body."""

    root: Operator
    output_columns: list[str]
    est_rows: float | None = None
    cache_hits: int = 0

    def execute(self, ctx: ExecContext) -> Chunk:
        return self.root.run(ctx).chunk

    def render(self) -> str:
        lines: list[str] = []

        def walk(op: Operator, depth: int) -> None:
            lines.append("  " * depth + op.label() + _fmt_est(op.est_rows))
            for child in op.children():
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)

    def derived_table_plans(self) -> "Iterator[tuple[object, PhysicalPlan]]":
        """Yield ``(body, subplan)`` for every derived table in the tree
        (recursively), so callers can register them for reuse."""

        def walk(op: Operator) -> "Iterator[tuple[object, PhysicalPlan]]":
            if isinstance(op, SubqueryScan) and op.subplan is not None:
                yield op.body, op.subplan
                yield from walk(op.subplan.root)
            else:
                for child in op.children():
                    yield from walk(child)

        yield from walk(self.root)
