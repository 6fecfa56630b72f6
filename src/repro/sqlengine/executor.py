"""The query driver: runs the physical plans the planner produces.

Layering (see ``docs/ARCHITECTURE.md``): the :mod:`.planner` compiles each
``SELECT`` body into a :class:`~.plan.PhysicalPlan`, and the operators in
:mod:`.plan` carry it out — scans, joins, projection, aggregation, ordering
and window functions all execute there.  What is left here is what needs a
per-execution owner: the CTE environment, plan lookup (plus the static
verifier on a miss), bound parameters, cancellation and deadline, and the
stats/trace sinks.  Subqueries are planned like everything else, so nothing
here runs a nested ``SELECT`` on an expression's behalf.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from operator import attrgetter

from ..errors import QueryCancelledError, QueryTimeoutError, SQLBindError
from .catalog import Catalog
from .plan import ExecContext, PhysicalPlan, values_chunk
from .planner import Planner, RelSchema
from .sqlast import Query, ValuesClause
from .table import Chunk, encode_watch, gather_threads

__all__ = ["EngineConfig", "Executor"]


@dataclass(frozen=True)
class EngineConfig:
    """Static behaviour knobs for a simulated backend."""

    name: str = "engine"
    threads: int = 1
    join_reorder: bool = True
    supports_window: bool = True
    # Maximum number of (sql, config) entries the Database-level plan cache
    # retains; least-recently-used entries are evicted beyond this bound
    # (a long-lived server must not let the cache grow with the query log).
    plan_cache_size: int = 256
    # Whether ORDER BY + LIMIT fuses into the parallel TopK operator.
    topk_rewrite: bool = True
    # Out-of-core execution (see repro.storage): when set, a HashJoin whose
    # smaller input or a HashAggregate whose input exceeds this many bytes
    # runs the grace-partition spill-to-disk path instead of building its
    # hash state over the whole relation at once.  None = RAM-unbounded.
    memory_budget: int | None = None
    # Grace-partition fan-out for spilled joins/aggregates (>= 2).
    spill_partitions: int = 8
    # Whether the planner drops stored-table chunks whose zone maps
    # (per-chunk min/max stats) cannot satisfy the pushed-down predicates.
    zone_map_pruning: bool = True
    # Whether every freshly compiled plan is checked by the static plan
    # verifier (repro.analysis.plan_verifier) before it is cached or
    # executed.  A violation raises PlanInvariantError — always a planner
    # bug, never a user error.  Cheap (pure tree walk, no execution), so
    # it stays on by default in tests, fuzzing, and EXPLAIN.
    verify_plans: bool = True
    # Adaptive runtime re-optimization (docs/ARCHITECTURE.md "Adaptive
    # execution"): comma-join trees compile to an AdaptiveJoin operator
    # that observes each source's *actual* post-filter cardinality and,
    # when an observation diverges from the static estimate beyond
    # adaptive_ratio, re-runs the greedy join ordering over the remaining
    # joins mid-query (the rebuilt subtree is re-verified before it
    # executes).  Also enables build-side-swap reporting and empty-outer
    # semi-join short-circuits.  Results are identical to static execution
    # up to row order.
    adaptive_execution: bool = False
    # Divergence threshold for re-planning: the larger of actual/est and
    # est/actual must exceed this ratio before a re-plan fires.
    adaptive_ratio: float = 8.0
    # Distributed execution: when > 0 the planner splits mergeable
    # aggregates and Top-K over stored tables into partial ← Exchange ←
    # final stages, the largest table range-partitioned by chunk into at
    # most this many ranges.  A ShardedDatabase (repro.server.shard) runs
    # each range in a worker process; any other Database runs the same plan
    # in-process.  0 = no Exchange is ever planned.
    shard_workers: int = 0

    def plan_fingerprint(self) -> tuple:
        """Canonical identity of this config for plan-cache keying.

        Every field is part of the key unless it is listed in
        ``_NOT_IN_FINGERPRINT`` — ``threads`` (plans are explicitly
        independent of it) and ``plan_cache_size`` (cache policy) — so a
        new field can never be forgotten: two profiles that differ in
        anything else never share a cache entry, and so cannot smuggle in
        each other's join order, admission by the verifier, adaptive
        behaviour, or a feature (window functions) the executing backend
        must reject.
        """
        return _fingerprint_of(self)


_NOT_IN_FINGERPRINT = {"threads", "plan_cache_size"}
# Built once: the fingerprint sits on every execution's plan-cache lookup.
_fingerprint_of = attrgetter(*(f.name for f in fields(EngineConfig)
                               if f.name not in _NOT_IN_FINGERPRINT))


class Executor:
    """Drives one execution of a parsed query against a catalog.

    ``plans`` is the plan map — ``id(Select) -> PhysicalPlan`` — of the
    :class:`~.database.Database` plan-cache entry that owns the parsed AST
    (ids are only stable while the AST is alive, which the entry
    guarantees).  Without one, a map scoped to this Executor is used, so
    a body executed twice within a statement still plans once.
    """

    def __init__(self, catalog: Catalog, config: EngineConfig | None = None,
                 trace: list[str] | None = None,
                 plans: dict[int, PhysicalPlan] | None = None,
                 params: dict | None = None,
                 cancel_event=None, deadline: float | None = None,
                 stats=None, exchange=None):
        self.catalog = catalog
        self.config = config or EngineConfig()
        self.trace = trace
        self.plans: dict[int, PhysicalPlan] = {} if plans is None else plans
        # Bound placeholder values for this execution ({index_or_name:
        # scalar}); reaches every Evaluator the operators construct.
        self.params = params
        # Cooperative cancellation: a threading.Event checked (with the
        # monotonic deadline) at operator boundaries via check_runtime().
        self.cancel_event = cancel_event
        self.deadline = deadline
        # Per-execution RuntimeStats sink (EXPLAIN ANALYZE / adaptive
        # execution); operators record actual cardinalities and timings
        # into it through Operator.run.  None = zero-overhead execution.
        self.stats = stats
        # Scatter hook for Exchange operators (see ExecContext.exchange);
        # None = every Exchange runs its child in this process.
        self.exchange = exchange

    def note(self, message: str) -> None:
        if self.trace is not None:
            self.trace.append(message)

    def check_runtime(self) -> None:
        """Raise when this execution was cancelled or ran past its deadline.

        Called by operators between pipeline stages (cooperative: a stage
        already running on the worker pools finishes before the check
        fires), so cancellation latency is one operator, not one query.
        """
        if self.cancel_event is not None and self.cancel_event.is_set():
            raise QueryCancelledError("query cancelled")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeoutError("query exceeded its timeout")

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def execute(self, query: Query) -> Chunk:
        threads = gather_threads.set(self.config.threads)
        watch = None if self.stats is None else encode_watch.set(self.stats)
        try:
            return self._execute(query)
        finally:
            if watch is not None:
                encode_watch.reset(watch)
            gather_threads.reset(threads)

    def _execute(self, query: Query) -> Chunk:
        env: dict[str, Chunk] = {}
        for cte in query.ctes:
            chunk = self.execute_body(cte.query, env)
            if cte.column_names is not None:
                if len(cte.column_names) != chunk.ncols:
                    raise SQLBindError(
                        f"CTE {cte.name!r} declares {len(cte.column_names)} columns "
                        f"but produces {chunk.ncols}"
                    )
                chunk = chunk.renamed(list(cte.column_names))
            self.note(f"materialize CTE {cte.name} -> {chunk.nrows} rows x {chunk.ncols} cols")
            env[cte.name] = chunk
        # Dictionary-encoded columns stop here: callers, the wire and the
        # row backends only ever see plain arrays.
        return self._execute_select(query.body, env, final=True).decoded()

    def execute_body(self, body, env: dict[str, Chunk]) -> Chunk:
        """Run a CTE or derived-table body: VALUES, SELECT or compound."""
        if isinstance(body, ValuesClause):
            return values_chunk(body, self.params)
        return self._execute_select(body, env)

    # ------------------------------------------------------------------
    # Plan lookup
    # ------------------------------------------------------------------
    def plan_for(self, select, env: dict[str, Chunk],
                 final: bool = False) -> PhysicalPlan:
        """Fetch (or build and remember) the physical plan for a body
        (a plain SELECT or a compound select; *final*: the statement's own
        body, whose rows are the result)."""
        plan = self.plans.get(id(select))
        if plan is not None:
            plan.cache_hits += 1
            self.note("plan cache hit: reusing compiled plan")
            return plan
        env_schemas = {
            name: RelSchema(list(c.columns), float(c.nrows))
            for name, c in env.items()
        }
        plan = Planner(self.catalog, self.config).plan_body(select, env_schemas,
                                                            final)
        if self.config.verify_plans:
            # Static invariant check before the plan is cached or executed;
            # env chunks carry materialized dtypes, so CTE columns verify
            # with full kind information.
            from ..analysis import verify_plan

            verify_plan(plan, self.catalog, self.config, env)
        self.plans[id(select)] = plan
        # Derived-table bodies were planned as part of this plan; register
        # their subplans so SubqueryScan execution reuses them.
        for body, subplan in plan.derived_table_plans():
            self.plans.setdefault(id(body), subplan)
        return plan

    def _execute_select(self, select, env: dict[str, Chunk],
                        final: bool = False) -> Chunk:
        """Execute a SELECT or compound-select body through its plan."""
        plan = self.plan_for(select, env, final=final)
        if self.stats is not None:
            self.stats.record_plan(plan)
        return plan.execute(ExecContext(self, env, self.params))
