"""Multi-process sharded execution: scatter/gather over stored tables.

:class:`ShardedDatabase` is a :class:`~repro.sqlengine.Database` attached
to a persistent :class:`~repro.storage.ColumnStore` that, when
``EngineConfig.shard_workers > 0``, executes *shardable* queries across a
pool of ``multiprocessing`` engine workers instead of in-process:

* the largest stored table in the query is **range-partitioned by chunk**
  (contiguous chunk ranges in row order — the property every ordering
  argument below leans on); every other table is replicated (workers mmap
  the same chunk files, so replication costs page-cache residency, not
  copies);
* each worker runs the full engine over its partition — scan → zone-map
  pruning → filter → join — producing **partial aggregates** (AVG is
  decomposed into SUM+COUNT) or a **partial Top-K**;
* the coordinator gathers partials and merges them with the engine's own
  kernels: :func:`~repro.sqlengine.grouping.factorize_many` +
  :func:`~repro.sqlengine.grouping.parallel_group_reduce` for aggregates,
  :func:`~repro.sqlengine.topk.topk_positions` for Top-K.

Why the result matches serial execution exactly (up to the engine's usual
float-merge tolerance): numeric group keys factorize in sorted-unique
order (partition-invariant); object keys factorize first-appearance, and
concatenating per-worker group outputs in partition order preserves global
first appearance; each worker's stable local top-k is a superset filter of
the global top-k, and the gathered candidates are re-sorted stably with
gathered position — which equals original row order — as the tie-break.

Everything else — subqueries, CTEs, DISTINCT, HAVING, window functions,
compound selects, expressions over aggregates — **falls back** to serial
in-process execution, so sharding can never change what a query means.

Degradation: a worker death (``BrokenProcessPool``) surfaces as a typed
:class:`~repro.errors.ShardError` on the in-flight query — never a hang —
and the pool is rebuilt lazily so subsequent queries are served.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

import numpy as np

from ..dataframe._common import isna_array
from ..errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ShardError,
    SQLExecutionError,
)
from ..sqlengine.database import Database, PreparedStatement
from ..sqlengine.executor import EngineConfig, Executor
from ..sqlengine.grouping import factorize_many, parallel_group_reduce
from ..sqlengine.params import bind_parameters, signature_of
from ..sqlengine.parser import parse
from ..sqlengine.plan import output_name
from ..sqlengine.sqlast import (
    AggCall,
    BetweenExpr,
    BinaryOp,
    CaseExpr,
    CastExpr,
    ColumnRef,
    ExistsExpr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    LikeExpr,
    Literal,
    OrderItem,
    Query,
    ScalarSubquery,
    Select,
    SelectItem,
    TableRef,
    UnaryOp,
    WindowCall,
)
from ..sqlengine.table import Chunk
from ..sqlengine.topk import topk_positions
from ..storage.format import _chunk_file, load_chunk_array, open_store
from ..storage.table import StoredTable
from .wire import exception_for

__all__ = ["ShardedDatabase", "ShardPool", "ShardQuery", "analyze_shard_query"]

_MERGEABLE_AGGS = frozenset({"SUM", "COUNT", "MIN", "MAX", "AVG"})
# Top-K scatter ships up to k rows per worker; beyond this the gather is a
# full materialization and serial execution is the honest path.
_MAX_TOPK_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# Shard-plan analysis (AST level)
# ---------------------------------------------------------------------------

@dataclass
class ShardQuery:
    """The scatter/gather recipe for one shardable statement."""

    kind: str                       # "agg" | "topk"
    table: str                      # chunk-partitioned stored table
    nkeys: int                      # len(select.group_by)
    agg_funcs: list[str] = field(default_factory=list)
    agg_fills: list = field(default_factory=list)  # COALESCE(agg, lit) fills
    agg_item_indices: list[int] = field(default_factory=list)
    items: list[tuple[str, int]] = field(default_factory=list)  # ("key"|"agg", i)
    order: list[tuple[str, int, bool]] = field(default_factory=list)
    order_cols: list[tuple[str, bool]] = field(default_factory=list)  # topk
    limit: int | None = None
    names: list[str] = field(default_factory=list)


def _iter_exprs(expr):
    """Yield every expression node reachable from *expr* without entering
    subquery bodies (their mere presence disqualifies sharding)."""
    if expr is None:
        return
    yield expr
    if isinstance(expr, BinaryOp):
        children = (expr.left, expr.right)
    elif isinstance(expr, UnaryOp):
        children = (expr.operand,)
    elif isinstance(expr, (FuncCall,)):
        children = tuple(expr.args)
    elif isinstance(expr, AggCall):
        children = (expr.arg,) if expr.arg is not None else ()
    elif isinstance(expr, WindowCall):
        children = tuple(expr.args) + tuple(expr.partition_by)
    elif isinstance(expr, CaseExpr):
        children = tuple(e for c, v in expr.branches for e in (c, v))
        if expr.default is not None:
            children += (expr.default,)
    elif isinstance(expr, CastExpr):
        children = (expr.operand,)
    elif isinstance(expr, BetweenExpr):
        children = (expr.operand, expr.low, expr.high)
    elif isinstance(expr, (IsNull, LikeExpr, InList)):
        children = (expr.operand,)
        if isinstance(expr, InList):
            children += tuple(expr.items)
    else:
        children = ()
    for child in children:
        yield from _iter_exprs(child)


def _has_forbidden(exprs) -> bool:
    for root in exprs:
        for node in _iter_exprs(root):
            if isinstance(node, (InSubquery, ExistsExpr, ScalarSubquery,
                                 WindowCall)):
                return True
    return False


def _expr_key(expr) -> str:
    from ..sqlengine.expressions import expr_key

    return expr_key(expr)


def _inline_single_cte(query: Query) -> Select | None:
    """Inline ``WITH v AS (<select>) SELECT cols FROM v ORDER BY ... LIMIT n``.

    The optimizer's SQL renderer wraps aggregates this way (the CTE holds
    the GROUP BY, the outer body is a pure column projection), so without
    this inlining nothing it emits would ever scatter.  Returns the merged
    select — the inner body re-projected/aliased per the outer item list,
    with the outer ORDER BY/LIMIT attached — or ``None`` when the shape is
    anything richer than a rename (then serial execution handles it).
    """
    if len(query.ctes) != 1:
        return None
    cte = query.ctes[0]
    outer = query.body
    inner = cte.query
    if not isinstance(outer, Select) or not isinstance(inner, Select):
        return None
    if (outer.joins or outer.where is not None or outer.group_by
            or outer.having is not None or outer.distinct):
        return None
    if len(outer.relations) != 1:
        return None
    rel = outer.relations[0]
    if not isinstance(rel, TableRef) or rel.name != cte.name:
        return None
    if inner.order_by or inner.limit is not None:
        return None
    cte_cols = cte.column_names or [output_name(it, i)
                                    for i, it in enumerate(inner.items)]
    if len(cte_cols) != len(inner.items):
        return None
    binding = rel.alias or rel.name
    items: list[SelectItem] = []
    for pos, item in enumerate(outer.items):
        expr = item.expr
        if not isinstance(expr, ColumnRef):
            return None
        if expr.table is not None and expr.table != binding:
            return None
        if expr.name not in cte_cols:
            return None
        src = inner.items[cte_cols.index(expr.name)]
        items.append(SelectItem(expr=src.expr, alias=output_name(item, pos)))
    order_by: list[OrderItem] = []
    for oi in outer.order_by:
        expr = oi.expr
        if not isinstance(expr, ColumnRef):
            return None
        if expr.table is not None and expr.table != binding:
            return None
        order_by.append(OrderItem(expr=ColumnRef(name=expr.name, table=None),
                                  ascending=oi.ascending))
    return replace(inner, items=items, order_by=order_by, limit=outer.limit)


def _shard_select(query: Query) -> Select | None:
    """The Select a scatter would decompose — the body, or the inlined CTE."""
    if query.ctes:
        return _inline_single_cte(query)
    return query.body if isinstance(query.body, Select) else None


def _unwrap_agg(expr) -> tuple[AggCall | None, object]:
    """Match a mergeable aggregate item: a bare AggCall, or the renderer's
    ``COALESCE(<agg>, <numeric literal>)`` wrapper — the fill is applied
    after the merge (an all-NULL group's merged partial is NULL too, so
    post-merge filling equals serial COALESCE)."""
    if isinstance(expr, AggCall):
        return expr, None
    if (isinstance(expr, FuncCall) and expr.name.upper() == "COALESCE"
            and len(expr.args) == 2 and isinstance(expr.args[0], AggCall)
            and isinstance(expr.args[1], Literal)
            and isinstance(expr.args[1].value, (int, float))
            and not isinstance(expr.args[1].value, bool)):
        return expr.args[0], expr.args[1].value
    return None, None


def analyze_shard_query(query: Query, stored: dict) -> ShardQuery | None:
    """Decide whether *query* scatters, returning its recipe or ``None``.

    *stored* maps table name → attached :class:`StoredTable`.  Returning
    ``None`` is always safe (the caller runs serial); returning a recipe
    asserts the scatter/gather result is identical to serial execution.
    """
    select = _shard_select(query)
    if select is None:
        return None
    if select.distinct or select.having is not None:
        return None

    # Relations: plain tables only, INNER/CROSS joins only, and exactly one
    # occurrence of the (largest) stored table that will be partitioned.
    refs: list[TableRef] = []
    for rel in select.relations:
        if not isinstance(rel, TableRef):
            return None
        refs.append(rel)
    for join in select.joins:
        if join.kind not in ("INNER", "CROSS"):
            return None
        if not isinstance(join.relation, TableRef):
            return None
        refs.append(join.relation)
    if not refs:
        return None
    candidates = [r for r in refs if r.name in stored
                  and stored[r.name].nchunks > 0]
    if not candidates:
        return None
    if any(r.name not in stored for r in refs):
        return None  # workers only see store-attached tables
    shard_ref = max(candidates, key=lambda r: stored[r.name].nrows)
    if sum(1 for r in refs if r.name == shard_ref.name) != 1:
        return None  # self-join on the shard table: rows would pair twice

    roots = [it.expr for it in select.items]
    roots += [j.condition for j in select.joins if j.condition is not None]
    roots += list(select.group_by)
    roots += [o.expr for o in select.order_by]
    if select.where is not None:
        roots.append(select.where)
    if _has_forbidden(roots):
        return None

    group_keys = [_expr_key(g) for g in select.group_by]
    names = [output_name(it, i) for i, it in enumerate(select.items)]

    items: list[tuple[str, int]] = []
    agg_funcs: list[str] = []
    agg_fills: list = []
    agg_item_indices: list[int] = []
    has_agg = False
    for idx, item in enumerate(select.items):
        expr = item.expr
        agg_expr, fill = _unwrap_agg(expr)
        if agg_expr is not None:
            func = agg_expr.func.upper()
            if agg_expr.distinct or func not in _MERGEABLE_AGGS:
                return None
            items.append(("agg", len(agg_funcs)))
            agg_funcs.append(func)
            agg_fills.append(fill)
            agg_item_indices.append(idx)
            has_agg = True
            continue
        key = _expr_key(expr)
        if key in group_keys:
            items.append(("key", group_keys.index(key)))
            continue
        if any(isinstance(n, AggCall) for n in _iter_exprs(expr)):
            return None  # expression over aggregates: no partial form (yet)
        if not select.group_by and not has_agg:
            break  # plain projection: consider the Top-K path below
        return None

    if has_agg or select.group_by:
        if len(items) != len(select.items):
            return None
        order: list[tuple[str, int, bool]] = []
        for oi in select.order_by:
            okey = _expr_key(oi.expr)
            target = None
            if isinstance(oi.expr, ColumnRef) and oi.expr.table is None:
                for pos, name in enumerate(names):
                    if name == oi.expr.name:
                        target = ("item", pos, oi.ascending)
                        break
            if target is None:
                for pos, item in enumerate(select.items):
                    if _expr_key(item.expr) == okey:
                        target = ("item", pos, oi.ascending)
                        break
            if target is None and okey in group_keys:
                target = ("key", group_keys.index(okey), oi.ascending)
            if target is None:
                return None
            order.append(target)
        return ShardQuery(
            kind="agg", table=shard_ref.name, nkeys=len(select.group_by),
            agg_funcs=agg_funcs, agg_fills=agg_fills,
            agg_item_indices=agg_item_indices,
            items=items, order=order, limit=select.limit, names=names,
        )

    # Top-K path: pure scan/filter/join projection + ORDER BY ... LIMIT k.
    if select.group_by or not select.order_by or select.limit is None:
        return None
    if select.limit > _MAX_TOPK_LIMIT:
        return None
    order_cols: list[tuple[str, bool]] = []
    has_star = any(not isinstance(it.expr, ColumnRef) and
                   type(it.expr).__name__ == "Star" for it in select.items)
    for oi in select.order_by:
        resolved = None
        if isinstance(oi.expr, ColumnRef):
            if oi.expr.table is None and oi.expr.name in names:
                resolved = oi.expr.name
            elif has_star:
                resolved = oi.expr.name  # resolved against runtime columns
        if resolved is None:
            okey = _expr_key(oi.expr)
            for pos, item in enumerate(select.items):
                if _expr_key(item.expr) == okey:
                    resolved = names[pos]
                    break
        if resolved is None:
            return None
        order_cols.append((resolved, oi.ascending))
    return ShardQuery(kind="topk", table=shard_ref.name, nkeys=0,
                      order_cols=order_cols, limit=select.limit, names=names)


def build_partial_select(select: Select, agg_item_indices: list[int]) -> Select:
    """The per-worker rewrite of an aggregate select: group keys first,
    then one partial column per aggregate (two for AVG — SUM and COUNT),
    with ORDER BY / LIMIT stripped (they apply after the merge)."""
    items = [SelectItem(expr=g, alias=f"__k{i}")
             for i, g in enumerate(select.group_by)]
    for j, idx in enumerate(agg_item_indices):
        agg, _fill = _unwrap_agg(select.items[idx].expr)
        func = agg.func.upper()
        if func == "AVG":
            items.append(SelectItem(expr=AggCall("SUM", agg.arg), alias=f"__s{j}"))
            items.append(SelectItem(expr=AggCall("COUNT", agg.arg), alias=f"__c{j}"))
        else:
            items.append(SelectItem(expr=AggCall(func, agg.arg), alias=f"__p{j}"))
    return replace(select, items=items, order_by=[], limit=None)


# ---------------------------------------------------------------------------
# Worker side (module-level: must be picklable under fork *and* spawn)
# ---------------------------------------------------------------------------

class _ChunkSlice(StoredTable):
    """A StoredTable view over a subset of another table's chunks.

    Registered in a worker's catalog under the original table name: scans,
    zone-map pruning, and planner sampling all see only this partition,
    reading the very same mmap'd chunk files as every other worker (the
    zero-copy property — the OS page cache is the shared buffer pool).
    """

    def __init__(self, root, name: str, meta: dict, chunk_ids: list[int]):
        sub = dict(meta)
        sub["chunks"] = [meta["chunks"][i] for i in chunk_ids]
        sub["nrows"] = int(sum(int(meta["chunks"][i]["rows"]) for i in chunk_ids))
        super().__init__(root, name, sub)
        self._file_ids = list(chunk_ids)

    def _load(self, col_idx: int, chunk_id: int) -> np.ndarray:
        dtype = self._dtypes[col_idx]
        rows = self.chunk_length(chunk_id)
        path = _chunk_file(self._root, self.name, col_idx,
                           self._file_ids[chunk_id])
        arr = load_chunk_array(path, dtype, rows)
        self.io_stats["chunks_read"] += 1
        self.io_stats["rows_read"] += rows
        self.io_stats["bytes_read"] += int(arr.nbytes)
        return arr


_WORKER_STORE = None
_WORKER_CATALOGS: dict = {}
_WORKER_PLANS: dict = {}


def _shard_worker_init(root: str) -> None:
    global _WORKER_STORE, _WORKER_CATALOGS, _WORKER_PLANS
    _WORKER_STORE = open_store(root)
    _WORKER_CATALOGS = {}
    _WORKER_PLANS = {}


def _worker_db(table: str, chunk_ids: tuple) -> Database:
    key = (table, chunk_ids)
    db = _WORKER_CATALOGS.get(key)
    if db is None:
        db = Database()
        store = _WORKER_STORE
        for name in store.tables():
            if name == table:
                db.catalog.register(
                    _ChunkSlice(store.root, name, store.table_meta(name),
                                list(chunk_ids))
                )
            else:
                db.catalog.register(store.table(name))
        _WORKER_CATALOGS[key] = db
    return db


def _shard_worker_run(task: dict):
    """Execute one scatter task; returns a plain tuple (never raises, so
    no exception ever has to survive pickling):

    * ``("ok", columns, arrays)`` — the partial result,
    * ``("err", exc_class_name, message)`` — a typed failure to rebuild,
    * ``("pong", pid)`` — pool warmup / liveness probe.
    """
    try:
        kind = task["kind"]
        if kind == "ping":
            return ("pong", os.getpid())
        if kind == "exit":  # deliberate crash hook for degradation tests
            os._exit(int(task.get("code", 1)))
        if task.get("delay"):
            time.sleep(float(task["delay"]))
        sql = task["sql"]
        config: EngineConfig = replace(task["config"], shard_workers=0)
        chunk_ids = tuple(task["chunks"])
        db = _worker_db(task["table"], chunk_ids)
        cache_key = (sql, config.plan_fingerprint(), task["table"], chunk_ids)
        entry = _WORKER_PLANS.get(cache_key)
        if entry is None:
            query = parse(sql)
            select = _shard_select(query)
            if select is None:
                raise SQLExecutionError(
                    "statement no longer analyzes as shardable in the worker"
                )
            if kind == "agg":
                worker_select = build_partial_select(select,
                                                     task["agg_items"])
            else:
                worker_select = select
            entry = {
                "query": Query(ctes=[], body=worker_select),
                # Bind against the ORIGINAL statement's signature: the
                # rewrite may drop placeholders (ORDER BY is stripped) and
                # arity checking must still accept the caller's values.
                "signature": signature_of(query),
                "plans": {},
            }
            _WORKER_PLANS[cache_key] = entry
        bound = bind_parameters(entry["signature"], task["params"])
        executor = Executor(db.catalog, config, plans=entry["plans"],
                            params=bound)
        chunk = executor.execute(entry["query"])
        return ("ok", list(chunk.columns),
                [np.asarray(arr) for arr in chunk.arrays])
    except BaseException as exc:
        return ("err", type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

class ShardPool:
    """N engine worker processes over one column store.

    The executor is created lazily and *replaced* after a
    ``BrokenProcessPool`` — the erroring query gets a typed
    :class:`~repro.errors.ShardError`, the next one gets a fresh pool.
    """

    def __init__(self, root, workers: int, *, start_method: str | None = None):
        if workers < 1:
            raise ShardError("shard_workers must be >= 1")
        self.root = str(root)
        self.workers = int(workers)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self.restarts = 0

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._ctx,
                    initializer=_shard_worker_init,
                    initargs=(self.root,),
                )
            return self._executor

    def submit(self, task: dict):
        try:
            return self._ensure().submit(_shard_worker_run, task)
        except (BrokenProcessPool, RuntimeError) as exc:
            self.mark_broken()
            raise ShardError(f"shard pool unavailable: {exc}") from None

    def warm(self) -> list[int]:
        """Spin up every worker; returns their pids (degradation tests and
        the soak harness kill one of these deliberately)."""
        executor = self._ensure()
        futures = [executor.submit(_shard_worker_run, {"kind": "ping"})
                   for _ in range(self.workers)]
        for f in futures:
            f.result(timeout=120)
        return sorted(p.pid for p in executor._processes.values())

    def worker_pids(self) -> list[int]:
        return self.warm()

    def mark_broken(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
            if executor is not None:
                self.restarts += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# Gather / merge
# ---------------------------------------------------------------------------

def _concat_columns(results: list[tuple[list[str], list[np.ndarray]]]):
    """Concatenate per-worker partial chunks column-wise, promoting dtypes
    (a worker whose groups were all-NULL returns float partials where
    another returned ints)."""
    columns = results[0][0]
    ncols = len(columns)
    out: list[np.ndarray] = []
    for i in range(ncols):
        segments = [r[1][i] for r in results]
        target = segments[0].dtype
        for seg in segments[1:]:
            if seg.dtype != target:
                if seg.dtype == object or target == object:
                    target = np.dtype(object)
                else:
                    target = np.promote_types(seg.dtype, target)
        out.append(np.concatenate([s.astype(target, copy=False)
                                   for s in segments])
                   if len(segments) > 1 else segments[0])
    return columns, out


def _merge_minmax_generic(values: np.ndarray, gids: np.ndarray,
                          ngroups: int, func: str) -> np.ndarray:
    """Per-group min/max over dtypes the vector kernel declines (strings,
    dates).  Group counts are small post-aggregation, so a Python loop is
    fine; NULLs are skipped and all-NULL groups stay NULL."""
    better = (lambda a, b: a < b) if func == "MIN" else (lambda a, b: a > b)
    if values.dtype.kind == "M":
        out = np.full(ngroups, np.datetime64("NaT"), dtype=values.dtype)
        valid = ~isna_array(values)
        for g, v, ok in zip(gids.tolist(), values, valid):
            if ok and (np.isnat(out[g]) or better(v, out[g])):
                out[g] = v
        return out
    slots: list = [None] * ngroups
    for g, v in zip(gids.tolist(), values):
        if v is None or (isinstance(v, float) and v != v):
            continue
        if slots[g] is None or better(v, slots[g]):
            slots[g] = v
    out = np.empty(ngroups, dtype=object)
    out[:] = slots
    return out


def _apply_fill(out: np.ndarray, fill) -> np.ndarray:
    """Post-merge COALESCE: NULLs an all-NULL group produced become *fill*."""
    arr = np.asarray(out)
    if arr.dtype.kind == "f":
        mask = np.isnan(arr)
        if mask.any():
            return np.where(mask, fill, arr)
        return arr
    if arr.dtype == object:
        filled = np.empty(len(arr), dtype=object)
        filled[:] = [fill if v is None else v for v in arr]
        return filled
    return arr


def _merge_agg(results, shard_q: ShardQuery, threads: int) -> Chunk:
    _, arrays = _concat_columns(results)
    nk = shard_q.nkeys
    nrows = len(arrays[0]) if arrays else 0
    if nk:
        gids, key_cols, ngroups = factorize_many(arrays[:nk])
    else:
        gids = np.zeros(nrows, dtype=np.int64)
        key_cols, ngroups = [], 1 if nrows else 0
    merged: list[np.ndarray] = []
    cursor = nk
    for j, func in enumerate(shard_q.agg_funcs):
        if func == "AVG":
            sums = parallel_group_reduce(arrays[cursor], gids, ngroups,
                                         "sum", threads, sql_null_empty=True)
            counts = parallel_group_reduce(arrays[cursor + 1], gids, ngroups,
                                           "sum", threads)
            cursor += 2
            with np.errstate(invalid="ignore", divide="ignore"):
                out = (np.asarray(sums, dtype=np.float64)
                       / np.asarray(counts, dtype=np.float64))
        else:
            values = arrays[cursor]
            cursor += 1
            if func in ("SUM", "COUNT"):
                out = parallel_group_reduce(
                    values, gids, ngroups, "sum", threads,
                    sql_null_empty=(func == "SUM"))
                if out is None:
                    raise ShardError(
                        f"no partial merge for {func} over dtype {values.dtype}"
                    )
            else:  # MIN / MAX
                out = parallel_group_reduce(values, gids, ngroups,
                                            func.lower(), threads)
                if out is None:
                    out = _merge_minmax_generic(values, gids, ngroups, func)
        fill = shard_q.agg_fills[j] if j < len(shard_q.agg_fills) else None
        if fill is not None:
            out = _apply_fill(out, fill)
        merged.append(out)
    final = [key_cols[i] if kind == "key" else merged[i]
             for kind, i in shard_q.items]
    return _order_and_limit(shard_q.names, final, shard_q, key_cols, threads)


def _order_and_limit(names, final, shard_q: ShardQuery, key_cols,
                     threads: int) -> Chunk:
    n = len(final[0]) if final else 0
    if shard_q.order and n:
        sort_arrays = [final[i] if kind == "item" else key_cols[i]
                       for kind, i, _ in shard_q.order]
        ascendings = [asc for _, _, asc in shard_q.order]
        k = n if shard_q.limit is None else min(shard_q.limit, n)
        pos = topk_positions(sort_arrays, ascendings, k, threads)
        final = [arr[pos] for arr in final]
    elif shard_q.limit is not None:
        final = [arr[: shard_q.limit] for arr in final]
    return Chunk(list(names), final)


def _merge_topk(results, shard_q: ShardQuery, threads: int) -> Chunk:
    columns, arrays = _concat_columns(results)
    indices = []
    for name, _asc in shard_q.order_cols:
        if name not in columns:
            raise ShardError(
                f"gathered Top-K partials lack ORDER BY column {name!r}"
            )
        indices.append(columns.index(name))
    k = min(shard_q.limit or 0, len(arrays[0]) if arrays else 0)
    pos = topk_positions([arrays[i] for i in indices],
                         [asc for _, asc in shard_q.order_cols], k, threads)
    return Chunk(columns, [arr[pos] for arr in arrays])


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

class _ShardPreparedStatement(PreparedStatement):
    """A prepared statement that keeps the scatter path: execution routes
    through :meth:`ShardedDatabase.execute_chunk` whenever the config
    shards (the worker-side plan cache is the hot path there), and uses
    the normal compiled-plan fast path otherwise."""

    def execute_chunk(self, params=None, *, cancel_event=None,
                      deadline=None, trace=None, stats=None):
        cfg = self._config
        if cfg.shard_workers > 0 and trace is None:
            shard_q = self._db._shard_recipe(self.sql, cfg)
            if shard_q is not None:
                return self._db.execute_chunk(
                    self.sql, cfg, params, cancel_event=cancel_event,
                    deadline=deadline, stats=stats,
                )
        return super().execute_chunk(params, cancel_event=cancel_event,
                                     deadline=deadline, trace=trace,
                                     stats=stats)


class ShardedDatabase(Database):
    """A Database over a column store with an optional scatter/gather path.

    ``config.shard_workers`` (also settable per query/config override)
    selects the worker count; analysis decides per statement shape whether
    to scatter, and every non-shardable shape silently runs the ordinary
    serial path — identical behaviour, one code path more.
    """

    def __init__(self, store_root, config: EngineConfig | None = None, *,
                 workers: int | None = None,
                 start_method: str | None = None):
        cfg = config or EngineConfig()
        if workers is not None:
            cfg = replace(cfg, shard_workers=int(workers))
        super().__init__(cfg)
        self._store = open_store(store_root)
        self._stored: dict[str, StoredTable] = {}
        for name in self._store.tables():
            table = self._store.table(name)
            self.catalog.register(table)
            self._stored[name] = table
        self._start_method = start_method
        self._pools: dict[int, ShardPool] = {}
        self._pool_lock = threading.Lock()
        self._recipes: dict[tuple, ShardQuery | None] = {}
        self._recipe_lock = threading.Lock()
        self.shard_stats = {"scattered": 0, "fallbacks": 0,
                            "shard_errors": 0, "restarts": 0, "workers": 0}
        # Test/soak hook: per-task sleep inside the worker, making "kill a
        # worker mid-query" deterministic on fast queries.
        self._test_worker_delay = 0.0

    # -- pools -------------------------------------------------------------
    def pool(self, workers: int) -> ShardPool:
        with self._pool_lock:
            pool = self._pools.get(workers)
            if pool is None:
                pool = ShardPool(self._store.root, workers,
                                 start_method=self._start_method)
                self._pools[workers] = pool
            return pool

    def close_pools(self) -> None:
        with self._pool_lock:
            pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.close()

    # -- analysis ----------------------------------------------------------
    def _shard_recipe(self, sql: str, cfg: EngineConfig) -> ShardQuery | None:
        key = (sql, cfg.plan_fingerprint())
        with self._recipe_lock:
            if key in self._recipes:
                return self._recipes[key]
        try:
            entry = self._plan_entry(sql, cfg)
            query = entry.query if entry is not None else parse(sql)
            recipe = analyze_shard_query(query, self._stored)
        except ReproError:
            recipe = None  # let the serial path raise the real error
        with self._recipe_lock:
            if len(self._recipes) >= 512:
                self._recipes.clear()
            self._recipes[key] = recipe
        return recipe

    # -- execution ---------------------------------------------------------
    def prepare(self, sql: str, config: EngineConfig | None = None):
        return _ShardPreparedStatement(self, sql, config or self.config)

    def execute_chunk(self, sql: str, config: EngineConfig | None = None,
                      params=None, *, cancel_event=None,
                      deadline: float | None = None, stats=None) -> Chunk:
        cfg = config or self.config
        if cfg.shard_workers > 0:
            recipe = self._shard_recipe(sql, cfg)
            if recipe is not None:
                return self._execute_sharded(recipe, sql, cfg, params,
                                             cancel_event, deadline, stats)
            self.shard_stats["fallbacks"] += 1
        return super().execute_chunk(sql, config, params,
                                     cancel_event=cancel_event,
                                     deadline=deadline, stats=stats)

    def _partition(self, recipe: ShardQuery, workers: int) -> list[tuple[int, int]]:
        nchunks = self._stored[recipe.table].nchunks
        n = max(1, min(workers, nchunks))
        step = (nchunks + n - 1) // n
        return [(lo, min(lo + step, nchunks))
                for lo in range(0, nchunks, step)]

    def _execute_sharded(self, recipe: ShardQuery, sql: str,
                         cfg: EngineConfig, params, cancel_event,
                         deadline, stats) -> Chunk:
        ranges = self._partition(recipe, cfg.shard_workers)
        if cfg.verify_plans:
            from ..analysis import verify_shard_query

            verify_shard_query(recipe, self._stored[recipe.table].nchunks,
                               ranges)
        pool = self.pool(cfg.shard_workers)
        worker_cfg = replace(cfg, shard_workers=0)
        tasks = [{
            "kind": recipe.kind, "sql": sql, "params": params,
            "table": recipe.table, "chunks": tuple(range(lo, hi)),
            "config": worker_cfg, "agg_items": recipe.agg_item_indices,
            "delay": self._test_worker_delay,
        } for lo, hi in ranges]
        try:
            futures = [pool.submit(task) for task in tasks]
            raw = self._gather(pool, futures, cancel_event, deadline)
        except ShardError:
            self.shard_stats["shard_errors"] += 1
            self.shard_stats["restarts"] = sum(
                p.restarts for p in self._pools.values())
            raise
        results = []
        for item in raw:
            if item[0] == "err":
                raise _rebuild_worker_error(item[1], item[2])
            results.append((item[1], item[2]))
        if recipe.kind == "agg":
            chunk = _merge_agg(results, recipe, cfg.threads)
        else:
            chunk = _merge_topk(results, recipe, cfg.threads)
        self.shard_stats["scattered"] += 1
        self.shard_stats["workers"] = cfg.shard_workers
        if stats is not None:
            stats.event(
                f"shard: scattered {recipe.kind} over {len(tasks)} worker "
                f"partition(s) of {recipe.table}"
            )
        return chunk

    def _gather(self, pool: ShardPool, futures, cancel_event, deadline):
        gathered = []
        for future in futures:
            while True:
                try:
                    gathered.append(future.result(timeout=0.05))
                    break
                except _FuturesTimeout:
                    if cancel_event is not None and cancel_event.is_set():
                        for f in futures:
                            f.cancel()
                        raise QueryCancelledError("query cancelled") from None
                    if deadline is not None and time.monotonic() > deadline:
                        for f in futures:
                            f.cancel()
                        raise QueryTimeoutError(
                            "query exceeded its timeout") from None
                except BrokenProcessPool:
                    pool.mark_broken()
                    raise ShardError(
                        "a shard worker died mid-query; the pool was "
                        "rebuilt — resubmit the query"
                    ) from None
        return gathered


def _rebuild_worker_error(class_name: str, message: str) -> ReproError:
    """Rebuild a typed exception from a worker's ``("err", name, msg)``.

    Workers never pickle exception objects (custom constructors make that
    fragile); the name + message round-trip always works and keeps the
    typed hierarchy for everything a client dispatches on.
    """
    import repro.errors as errors_module

    cls = getattr(errors_module, class_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(message)
        except TypeError:
            return SQLExecutionError(f"{class_name}: {message}")
    return exception_for("execution", f"worker {class_name}: {message}")
