"""User-facing database connection API (the engine's equivalent of
``duckdb.connect()``), the shared LRU physical-plan cache, and prepared
statements.

Serving model (see ``docs/ARCHITECTURE.md`` "Serving layer"): one
:class:`Database` may be shared by many client threads.  The plan cache is
a bounded, lock-protected LRU keyed by *query shape* — the SQL text (with
``?``/``:name`` placeholders) plus the planning-relevant config knobs —
never by bound parameter values, so every execution of a prepared statement
reuses one compiled plan.  Each ``execute`` call gets its own
:class:`~.executor.Executor`, so runtime state (bound parameters,
cancellation, tracing) is never shared across concurrent queries.
"""

from __future__ import annotations

import ctypes
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..dataframe import DataFrame
from .catalog import Catalog, TableSchema
from .executor import EngineConfig, Executor
from .params import ParamSignature, bind_parameters, signature_of
from .parser import parse
from .plan import PhysicalPlan
from .planner import Planner, RelSchema, prune_cte_columns
from .sqlast import Query, ValuesClause
from .table import Chunk, Table

__all__ = ["Database", "PreparedStatement", "connect"]


@dataclass
class PlanCacheEntry:
    """Parsed AST plus compiled per-SELECT plans for one (sql, config) key.

    The entry keeps the parsed :class:`Query` alive, which makes the
    ``id(Select) -> PhysicalPlan`` map stable (ids of dead objects can be
    recycled; live ones cannot).  ``signature`` is the statement's
    placeholder shape, derived once at parse time.
    """

    query: Query
    plans: dict[int, PhysicalPlan] = field(default_factory=dict)
    catalog_version: int = 0
    hits: int = 0
    signature: ParamSignature = field(default_factory=ParamSignature)


def _pin_malloc_thresholds() -> None:
    """Fix glibc malloc's mmap and trim thresholds (first ``Database`` only).

    Operators materialise their output: a query allocates and frees arrays of
    a few MB many times over.  glibc serves such a request with ``mmap`` and
    frees it with ``munmap`` until its thresholds have adapted to the first
    sizes freed, then grows and trims the heap top around them, so each query
    faults its working set in again — and how often depends on the order in
    which the process happened to free its first arrays: 5 k or 23 k page
    faults per 21-query TPC-H pass at SF 0.05 (2 or 12 % of the pass) from one
    data seed to the next.  With both thresholds fixed, arrays below
    ``_MALLOC_THRESHOLD`` are recycled on the heap and at most that much
    freed heap top is kept: 8.7 k faults per pass whatever the seed, none in
    pool threads.  Other platforms and allocators ignore the call.
    """
    global _malloc_pinned
    if _malloc_pinned or not sys.platform.startswith("linux"):
        return
    _malloc_pinned = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MALLOC_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _MALLOC_THRESHOLD)


# <malloc.h> parameter numbers; 32 MB is the largest mmap threshold glibc
# documents as accepted.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_THRESHOLD = 32 << 20
_malloc_pinned = False


class Database:
    """An in-memory analytical database instance."""

    def __init__(self, config: EngineConfig | None = None):
        _pin_malloc_thresholds()
        self.catalog = Catalog()
        self.config = config or EngineConfig()
        self._plan_cache: OrderedDict[tuple, PlanCacheEntry] = OrderedDict()
        self._cache_lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0

    # -- data definition ---------------------------------------------------
    def register(
        self,
        name: str,
        data,
        primary_key: list[str] | str | None = None,
        unique: list[str] | None = None,
    ) -> None:
        """Register a table from a DataFrame or a mapping of columns."""
        if isinstance(primary_key, str):
            primary_key = [primary_key]
        if isinstance(data, DataFrame):
            mapping: Mapping = {c: data[c].values for c in data.columns}
        else:
            mapping = data
        self.catalog.register(Table(name, mapping, primary_key=primary_key, unique=unique))

    def drop(self, name: str) -> None:
        self.catalog.drop(name)

    def tables(self) -> list[str]:
        return self.catalog.names()

    def schema(self, name: str) -> TableSchema:
        return self.catalog.schema(name)

    # -- plan cache --------------------------------------------------------
    @staticmethod
    def _cache_key(sql: str, config: EngineConfig) -> tuple:
        """The query-shape key: SQL text (placeholders included, literal
        parameter values never) + the full backend-profile fingerprint.

        Keying on a *subset* of planning flags was a latent bug: two
        backend configs agreeing on that subset (e.g. profiles differing
        only in window support) would share one cache entry, so the second
        backend executed a plan compiled for the first — see
        :meth:`EngineConfig.plan_fingerprint`.
        """
        return (sql, config.plan_fingerprint())

    def _plan_entry(self, sql: str, config: EngineConfig) -> PlanCacheEntry:
        """The cache entry for (sql, planning-relevant config).  Stale
        entries (catalog changed) are rebuilt; the cache is a bounded LRU
        (``EngineConfig.plan_cache_size`` on the Database's own config) and
        safe for concurrent callers."""
        key = self._cache_key(sql, config)
        version = self.catalog.version
        with self._cache_lock:
            entry = self._plan_cache.get(key)
            if entry is not None and entry.catalog_version == version:
                self._plan_cache.move_to_end(key)
                self._cache_hits += 1
                entry.hits += 1
                return entry
        # Parse outside the lock: a slow parse of one novel statement must
        # not stall concurrent cache hits of hot ones.
        query = parse(sql)
        # The signature counts every placeholder written, pruned or not.
        entry = PlanCacheEntry(prune_cte_columns(query),
                               catalog_version=version,
                               signature=signature_of(query))
        capacity = max(1, self.config.plan_cache_size)
        with self._cache_lock:
            current = self._plan_cache.get(key)
            if current is not None and current.catalog_version == version:
                # Another thread won the race to (re)build this entry.
                self._plan_cache.move_to_end(key)
                self._cache_hits += 1
                current.hits += 1
                return current
            self._cache_misses += 1
            self._plan_cache[key] = entry
            self._plan_cache.move_to_end(key)
            while len(self._plan_cache) > capacity:
                self._plan_cache.popitem(last=False)
                self._cache_evictions += 1
        return entry

    def cache_stats(self) -> dict[str, int]:
        """Plan-cache counters: entries/capacity and lifetime
        hits/misses/evictions (a re-plan forced by DDL counts as a miss)."""
        with self._cache_lock:
            return {
                "entries": len(self._plan_cache),
                "capacity": max(1, self.config.plan_cache_size),
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "evictions": self._cache_evictions,
            }

    @property
    def plan_cache_stats(self) -> dict[str, int]:
        stats = self.cache_stats()
        return {"entries": stats["entries"], "hits": stats["hits"]}

    def clear_plan_cache(self) -> None:
        with self._cache_lock:
            self._plan_cache.clear()
            self._cache_hits = self._cache_misses = self._cache_evictions = 0

    # -- prepared statements ----------------------------------------------
    def prepare(self, sql: str, config: EngineConfig | None = None) -> "PreparedStatement":
        """Compile *sql* (with optional ``?``/``:name`` placeholders) into a
        reusable :class:`PreparedStatement`: parsing happens now, planning on
        first execution, and neither is repeated on the hot path."""
        return PreparedStatement(self, sql, config or self.config)

    # -- querying -------------------------------------------------------------
    def execute_chunk(self, sql: str, config: EngineConfig | None = None,
                      params=None, *, cancel_event=None,
                      deadline: float | None = None, stats=None) -> Chunk:
        cfg = config or self.config
        return self._run(self._plan_entry(sql, cfg), cfg, params,
                         cancel_event=cancel_event, deadline=deadline,
                         stats=stats)

    def _run(self, entry: PlanCacheEntry, config: EngineConfig, params,
             **runtime) -> Chunk:
        """Bind *params* and drive one execution of a cached statement.

        Every execution — ad-hoc, prepared, EXPLAIN — comes through here
        with a private :class:`Executor`; *runtime* is its per-execution
        state (``cancel_event``, ``deadline``, ``trace``, ``stats``,
        ``exchange``).
        """
        executor = Executor(self.catalog, config, plans=entry.plans,
                            params=bind_parameters(entry.signature, params),
                            **runtime)
        return executor.execute(entry.query)

    def explain(self, sql: str, config: EngineConfig | None = None,
                params=None) -> str:
        """EXPLAIN ANALYZE: execute the query, returning the physical plan
        trace (scans with pushed-down filters, join order and cardinalities,
        aggregation, sort/limit) instead of the result."""
        cfg = config or self.config
        trace: list[str] = []
        self._run(self._plan_entry(sql, cfg), cfg, params, trace=trace)
        return "\n".join(trace)

    def explain_analyze(self, sql: str, config: EngineConfig | None = None,
                        params=None) -> str:
        """EXPLAIN ANALYZE with runtime statistics: execute the query and
        render the executed plan tree annotated with per-operator estimated
        vs. actual row counts, inclusive elapsed milliseconds, and any
        adaptive-execution events (re-plans, build-side swaps, subquery
        short-circuits)."""
        from .runtime_stats import RuntimeStats

        stats = RuntimeStats()
        self.execute_chunk(sql, config, params, stats=stats)
        return stats.render()

    def explain_plan(self, sql: str, config: EngineConfig | None = None) -> str:
        """EXPLAIN: render the statically-compiled physical plan tree
        (operators, pushed-down predicates, join order, cardinality
        estimates) without executing the query.

        Plans built here are throwaway — execution-time planning sees the
        materialized CTE cardinalities, which the static estimates here do
        not, so they must never seed the shared plan cache.
        """
        from ..analysis import verify_plan

        cfg = config or self.config
        query = prune_cte_columns(parse(sql))
        planner = Planner(self.catalog, cfg)

        lines: list[str] = []
        env_schemas: dict[str, RelSchema] = {}
        for cte in query.ctes:
            if isinstance(cte.query, ValuesClause):
                ncols = len(cte.query.rows[0]) if cte.query.rows else 0
                columns = cte.column_names or [f"col{i}" for i in range(ncols)]
                env_schemas[cte.name] = RelSchema(list(columns), float(len(cte.query.rows)))
                lines.append(f"CTE {cte.name}: VALUES ({len(cte.query.rows)} rows)")
                continue
            plan = planner.plan_body(cte.query, env_schemas)
            if cfg.verify_plans:
                verify_plan(plan, self.catalog, cfg, env_schemas)
            columns = cte.column_names or plan.output_columns
            # `est_rows is None` (unknown) falls back to the default, but a
            # legitimate 0.0 estimate (LIMIT 0 body) must survive as-is.
            est = plan.est_rows if plan.est_rows is not None else 1000.0
            env_schemas[cte.name] = RelSchema(list(columns), est)
            lines.append(f"CTE {cte.name}:")
            lines.extend("  " + ln for ln in plan.render().splitlines())
        plan = planner.plan_body(query.body, env_schemas, final=True)
        if cfg.verify_plans:
            # CTE schemas here are name-only (RelSchema), so dtype checks
            # relax to unknown; structural invariants still apply.
            verify_plan(plan, self.catalog, cfg, env_schemas)
        lines.append(plan.render())
        return "\n".join(lines)

    @staticmethod
    def _chunk_to_frame(chunk: Chunk) -> DataFrame:
        data: dict[str, np.ndarray] = {}
        for col, arr in zip(chunk.columns, chunk.arrays):
            out_name = col
            i = 1
            while out_name in data:  # disambiguate duplicate output names
                out_name = f"{col}_{i}"
                i += 1
            data[out_name] = arr
        return DataFrame(data)

    def execute(self, sql: str, config: EngineConfig | None = None,
                params=None) -> DataFrame:
        return self._chunk_to_frame(self.execute_chunk(sql, config, params))

    def with_config(self, **overrides) -> "Database":
        """A view of the same catalog under a different engine config."""
        from dataclasses import replace

        other = Database.__new__(Database)
        other.catalog = self.catalog
        other.config = replace(self.config, **overrides)
        other._plan_cache = OrderedDict()
        other._cache_lock = threading.Lock()
        other._cache_hits = other._cache_misses = other._cache_evictions = 0
        return other


class PreparedStatement:
    """A parsed-and-planned statement executable many times with different
    parameter values.

    The statement shares the owning Database's plan-cache entry (so ad-hoc
    executions of the same SQL reuse the same plans) but holds a direct
    reference to it: LRU eviction of the mapping never invalidates a live
    prepared statement, only DDL (catalog version bump) forces a re-plan.
    The hot path — :meth:`execute` after the first call — performs no
    parsing, no planning, and no cache lookup: it binds values, runs the
    compiled plan, and returns.

    Thread-safe: concurrent ``execute`` calls share the compiled plans but
    nothing else (each gets a private Executor).
    """

    def __init__(self, db: Database, sql: str, config: EngineConfig):
        self._db = db
        self.sql = sql
        self._config = config
        self._entry = db._plan_entry(sql, config)
        self._refresh_lock = threading.Lock()

    @property
    def signature(self) -> ParamSignature:
        """The statement's placeholder shape (positional count or names)."""
        return self._entry.signature

    def _current_entry(self) -> PlanCacheEntry:
        entry = self._entry
        if entry.catalog_version == self._db.catalog.version:
            return entry
        # DDL happened since compilation: re-resolve through the Database
        # cache (which rebuilds stale entries).
        with self._refresh_lock:
            entry = self._entry
            if entry.catalog_version != self._db.catalog.version:
                entry = self._entry = self._db._plan_entry(self.sql, self._config)
            return entry

    def execute_chunk(self, params=None, *, cancel_event=None,
                      deadline: float | None = None,
                      trace: list[str] | None = None, stats=None) -> Chunk:
        return self._db._run(self._current_entry(), self._config, params,
                             cancel_event=cancel_event, deadline=deadline,
                             trace=trace, stats=stats)

    def execute(self, params=None, *, cancel_event=None,
                deadline: float | None = None) -> DataFrame:
        return Database._chunk_to_frame(
            self.execute_chunk(params, cancel_event=cancel_event,
                               deadline=deadline)
        )

    def __repr__(self) -> str:
        return f"PreparedStatement({self.sql!r})"


def connect(config: EngineConfig | None = None) -> Database:
    """Create a fresh in-memory database."""
    return Database(config)
