"""Cost-aware physical planner: SELECT AST -> operator tree.

Planning is fully static — it needs only the catalog (schemas, row counts,
uniqueness constraints) and the AST, never the data — so plans can be built
for ``EXPLAIN`` without executing, and cached per (sql, config) on the
:class:`~.database.Database`.

Decisions made here:

* **predicate pushdown** — WHERE conjuncts owned by a single FROM source
  become a :class:`~.plan.Filter` directly above that source's scan;
  equality conjuncts spanning two sources become hash-join edges; the rest
  (correlated subquery predicates, 3+-source predicates) stay residual;
* **subqueries** — every IN / EXISTS / scalar subquery, in any clause,
  becomes a value an InitPlan binds when it is uncorrelated, before any
  predicate is placed, and a MarkJoin when it is correlated (see
  "subqueries" below); a shape that cannot be unnested is an error here,
  never a run-time fallback;
* **projection pruning** — each scan keeps only columns referenced anywhere
  in the statement (including nested subqueries), and a CTE keeps only the
  output columns its consumers read (:func:`prune_cte_columns`, applied to
  the parsed statement before any body is planned);
* **join ordering** — a greedy bushy-to-left-deep order driven by estimated
  post-filter cardinalities (selectivity heuristics below), generalizing the
  seed's inline ``join_reorder`` flag;
* **operator selection** — HashAggregate vs Project, Window placement for
  select lists containing window calls, Distinct, Sort/TopK, Limit, SetOp;
* **distribution** — with ``EngineConfig.shard_workers > 0``, a mergeable
  aggregate or a bounded Top-K over stored tables is split into a partial
  and a final stage around an :class:`~.plan.Exchange` whose chunk ranges
  are fixed here, so the plan cache, EXPLAIN, the verifier and runtime
  stats see a distributed plan like any other.  This is the only place
  that decides what is distributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..errors import SQLBindError, UnsupportedFeatureError
from .catalog import Catalog
from .plan import (
    AdaptiveJoin, AdaptiveSource, CrossJoin, Distinct, DualScan, Exchange,
    Filter, HashAggregate, HashJoin, InitPlan, Limit, MarkJoin, Operator,
    PhysicalPlan, Project, ResidualFilter, Scan, SetOp, Sort, SubqueryScan,
    TopK, Window, _is_value_set, expr_to_str, output_name,
)
from .expressions import (
    aggregates_of, contains_aggregate, expr_columns, has_subquery, has_window,
)
from .table import Table
from .sqlast import (
    AggCall, BetweenExpr, BinaryOp, ColumnRef, CompoundSelect, ExistsExpr,
    Expr, InList, InSubquery, IsNull, LikeExpr, Literal, Node, OrderItem,
    Parameter, Query, ScalarSubquery, Select, SelectItem, Star, SubqueryRef,
    TableRef, UnaryOp, ValuesClause, WindowCall, WithQuery, bodies, children,
    clauses, expr_key, map_children, walk,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any

    from .executor import EngineConfig

__all__ = ["Planner", "RelSchema", "split_conjuncts", "has_subquery",
           "subqueries_of", "has_window", "collect_windows",
           "collect_needed_columns", "match_subquery_form",
           "greedy_join_order", "prune_cte_columns"]


_SET_OP_NAMES = {"union": "UNION", "intersect": "INTERSECT", "except": "EXCEPT"}
# sqlast.Select field -> the clause a user wrote.
_CLAUSE_NAMES = {"joins": "ON", "where": "WHERE", "group_by": "GROUP BY",
                 "having": "HAVING"}

# Aggregates whose value over a table merges from per-partition partials.
MERGEABLE_AGGS = frozenset({"SUM", "COUNT", "MIN", "MAX", "AVG"})
# A distributed Top-K gathers up to k rows per partition; beyond this the
# gather is a full materialization and one process is the honest plan.
_MAX_TOPK_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# AST-walking helpers (shared with the executor)
# ---------------------------------------------------------------------------

def split_conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a WHERE/HAVING tree of ANDs into its conjunct list."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def subqueries_of(expr: Expr) -> list[Select | CompoundSelect]:
    """The query bodies nested in an expression (not those nested inside
    another one)."""
    return [body for e in walk(expr) for body in bodies(e)]


def match_subquery_form(conj: Expr) -> tuple[str, bool, Expr] | None:
    """Match an expression that *is* a subquery form: a scalar subquery, or
    an IN/EXISTS predicate possibly under a chain of NOTs.  Returns
    ``(kind, negated, node)`` with kind ``"scalar"`` | ``"in"`` |
    ``"exists"`` and the NOT chain folded into *negated*, or ``None`` when
    the expression is some other shape."""
    if isinstance(conj, ScalarSubquery):
        return "scalar", False, conj
    negated = False
    e = conj
    while isinstance(e, UnaryOp) and e.op == "NOT":
        negated = not negated
        e = e.operand
    if isinstance(e, InSubquery):
        return "in", negated != e.negated, e
    if isinstance(e, ExistsExpr):
        return "exists", negated != e.negated, e
    return None


def collect_windows(select: Select) -> list[WindowCall]:
    """Every window call in the SELECT list, in select-item order.

    Collected statically so the planner can place one :class:`~.plan.Window`
    operator per plan; the AST nodes double as stable keys (the plan cache
    keeps the parsed statement alive).
    """
    return [e for item in select.items for e in walk(item.expr)
            if isinstance(e, WindowCall)]


def collect_needed_columns(select: Select,
                           final: bool = False) -> tuple[set, bool, set, set]:
    """All (qualifier, name) column references in the whole statement.

    Returns ``(refs, has_star, computed, nesting)``; *refs* drives
    projection pruning of scans.  Subquery bodies are walked too (their
    correlated references must keep outer columns alive); derived tables
    are not (each is planned on its own).  *computed* is the subset
    something computes on — the columns worth a dictionary at the Scan.
    That is all of them unless *select* is the statement's *final* body,
    whose bare select items (without DISTINCT, which keys on its items)
    leave the engine untouched; the output of a CTE, derived table or
    subquery body is read by a consumer that groups, joins or filters on
    it.  *nesting* names the clauses of *select* itself that hold a
    subquery.
    """
    refs: set = set()
    computed: set = set()
    nesting: set = set()
    star = False

    def visit(body: Node, passes_through: bool = False) -> None:
        nonlocal star
        for clause, exprs in clauses(body):
            for e in exprs:
                if isinstance(e, Star):
                    star = True
                    continue
                found = {(ref.table, ref.name) for ref in expr_columns(e)}
                refs.update(found)
                if not (passes_through and clause == "items"
                        and isinstance(e, ColumnRef)):
                    computed.update(found)
                for sub in subqueries_of(e):
                    if body is select:
                        nesting.add(clause)
                    visit(sub)
        if isinstance(body, CompoundSelect):
            for operand in bodies(body):
                visit(operand)

    visit(select, final and not select.distinct)
    return refs, star, computed, nesting


def _window_placement(body: Select | CompoundSelect) -> None:
    """Reject a window call in any clause but the select list, before
    anything is planned."""
    for clause, exprs in clauses(body):
        if clause == "items" or not any(has_window(e) for e in exprs):
            continue
        if clause == "order_by":
            raise UnsupportedFeatureError(
                "window functions in ORDER BY are not supported (select the "
                "window call under an alias and order by that)")
        raise SQLBindError(
            f"window functions are not allowed in "
            f"{_CLAUSE_NAMES.get(clause, clause)}")


def _cte_columns_read(name: str, readers: list[list[Node]]) -> set[str] | None:
    """Names of the columns of CTE *name* that *readers* — every node of
    each later CTE and of the main query, through set operations, derived
    tables and subqueries alike — can read: references qualified by one of
    its bindings, and every unqualified one.  None when a ``*`` sits in a
    body that reads the CTE, which keeps everything."""
    read: set[str] = set()
    for nodes in readers:
        bindings = {n.binding for n in nodes
                    if isinstance(n, TableRef) and n.name == name}
        if not bindings:
            continue
        for n in nodes:
            if isinstance(n, Star):
                return None
            if isinstance(n, ColumnRef) and (n.table is None
                                             or n.table in bindings):
                read.add(n.name)
    return read


def _is_ordinal(expr: Expr) -> bool:
    return isinstance(expr, Literal) and type(expr.value) is int


def prune_cte_columns(query: Query) -> Query:
    """Drop the CTE output columns that nothing later in the statement
    reads, so a CTE body is planned (and its scans pruned) for what its
    consumers use.  The translator's CTEs routinely select every column of
    a base table for a consumer that reads one.

    Only a plain or grouped ``SELECT`` list is trimmed: not under DISTINCT
    or a set operation (rows would merge differently), not a global
    aggregate (it must keep an aggregate to stay one row), not next to a
    ``*`` or a positional ``ORDER BY n`` / ``GROUP BY n`` (positions would
    shift).  An item the body's own ORDER BY / HAVING / GROUP BY names by
    its alias stays, and at least one item always does.  CTEs are visited
    last to first, so a column only a dropped column needed goes too.
    """
    if not query.ctes:
        return query
    ctes = list(query.ctes)
    readers = [walk(query.body, deep=True)]
    for i in range(len(ctes) - 1, -1, -1):
        if i + 1 < len(ctes):
            # in its final, pruned form
            readers.append(walk(ctes[i + 1].query, deep=True))
        cte, body = ctes[i], ctes[i].query
        if not isinstance(body, Select) or body.distinct \
                or any(isinstance(it.expr, Star) for it in body.items) \
                or any(_is_ordinal(e) for e in
                       body.group_by + [o.expr for o in body.order_by]):
            continue
        aggregates = any(contains_aggregate(it.expr) for it in body.items) \
            or body.having is not None
        if aggregates and not body.group_by:
            continue
        own_names = [output_name(it, k) for k, it in enumerate(body.items)]
        names = cte.column_names or own_names
        if len(names) != len(own_names):
            continue  # arity mismatch: the executor reports it
        read = _cte_columns_read(cte.name, readers)
        if read is None:
            continue
        own_exprs = body.group_by + [o.expr for o in body.order_by]
        if body.having is not None:
            own_exprs.append(body.having)
        aliased = {ref.name for e in own_exprs for ref in expr_columns(e)
                   if ref.table is None}
        keep = [k for k in range(len(names))
                if names[k] in read or own_names[k] in aliased] or [0]
        if len(keep) == len(names):
            continue
        # A kept item named after its position keeps that name.
        items = [replace(body.items[k], alias=own_names[k]) for k in keep]
        ctes[i] = WithQuery(
            cte.name,
            [names[k] for k in keep] if cte.column_names else None,
            replace(body, items=items))
    return Query(ctes, query.body)


def _ordinal(expr: Expr, count: int, clause: str) -> int | None:
    """The 0-based select-list position an integer-literal ``ORDER BY`` /
    ``GROUP BY`` item names (``ORDER BY 2``), or ``None`` for any other
    expression.  Positions outside the select list are a bind error."""
    if not isinstance(expr, Literal) or type(expr.value) is not int:
        return None
    if not 1 <= expr.value <= count:
        raise SQLBindError(
            f"{clause} position {expr.value} is not in the select list "
            f"(1..{count})"
        )
    return expr.value - 1


def _resolve_order_ordinals(order_by: list[OrderItem],
                            columns: list[str]) -> list[OrderItem]:
    """Rewrite ``ORDER BY <n>`` into a reference to output column *n*."""
    resolved = []
    for item in order_by:
        pos = _ordinal(item.expr, len(columns), "ORDER BY")
        if pos is not None:
            if columns.count(columns[pos]) > 1:
                raise SQLBindError(
                    f"ORDER BY position {pos + 1} names output column "
                    f"{columns[pos]!r}, which is ambiguous")
            item = replace(item, expr=ColumnRef(name=columns[pos]))
        resolved.append(item)
    return resolved


def _resolve_group_ordinals(select: Select) -> list[Expr]:
    """Rewrite ``GROUP BY <n>`` into the *n*-th select-list expression."""
    resolved = []
    for expr in select.group_by:
        pos = _ordinal(expr, len(select.items), "GROUP BY")
        if pos is not None:
            if any(isinstance(it.expr, Star) for it in select.items[:pos + 1]):
                raise SQLBindError(
                    f"GROUP BY position {pos + 1} cannot be resolved through *")
            expr = select.items[pos].expr
            if contains_aggregate(expr):
                raise SQLBindError(
                    f"GROUP BY position {pos + 1} names an aggregate")
        resolved.append(expr)
    return resolved


class _NotMergeable(Exception):
    """An aggregate select with no partial/final decomposition."""


def _split_aggregate(select: Select,
                     out_columns: list[str]) -> tuple[Select, Select] | None:
    """Rewrite an aggregate *select* into ``(partial, final)`` stages.

    *partial* (run per partition) projects the group keys as ``__k<i>`` and
    one ``__p<j>`` column per distinct aggregate call (AVG as SUM + COUNT).
    *final* (run once over the concatenated partials) is *select* with
    every group expression replaced by its key column and every aggregate
    call by the merge of its partial column(s) — SUM of SUMs and COUNTs,
    MIN of MINs, MAX of MAXes, SUM/SUM for AVG — so whatever surrounds the
    calls (COALESCE fills, arithmetic, HAVING, ORDER BY on an aggregate
    that is not projected) is evaluated by the ordinary operator.  A NULL
    partial is an all-NULL partition and is skipped by the merge like any
    NULL input.  Returns None when some call does not merge (DISTINCT,
    STDDEV, ...) or an expression reads a column that is not a group key.
    """
    keys = {expr_key(g): ColumnRef(name=f"__k{i}")
            for i, g in enumerate(select.group_by)}
    partial = [SelectItem(g, f"__k{i}") for i, g in enumerate(select.group_by)]
    columns: dict[str, ColumnRef] = {}

    def partial_column(func: str, arg: Expr | None) -> ColumnRef:
        call = AggCall(func, arg)
        key = expr_key(call)
        if key not in columns:
            columns[key] = ColumnRef(name=f"__p{len(partial)}")
            partial.append(SelectItem(call, columns[key].name))
        return columns[key]

    def rewrite(e: Expr) -> Expr:
        key = expr_key(e)
        if key in keys:
            return keys[key]
        if isinstance(e, AggCall):
            if e.distinct or e.func not in MERGEABLE_AGGS:
                raise _NotMergeable
            if e.func == "AVG":
                return BinaryOp(
                    "/", AggCall("SUM", partial_column("SUM", e.arg)),
                    AggCall("SUM", partial_column("COUNT", e.arg)))
            return AggCall("SUM" if e.func == "COUNT" else e.func,
                           partial_column(e.func, e.arg))
        if isinstance(e, (ColumnRef, Star, WindowCall)):
            raise _NotMergeable
        return map_children(e, rewrite)

    try:
        items = [SelectItem(rewrite(it.expr), name)
                 for it, name in zip(select.items, out_columns)]
        having = None if select.having is None else rewrite(select.having)
        # A key naming an output column sorts that column (plan.order_arrays).
        order_by = [o if isinstance(o.expr, ColumnRef) and o.expr.table is None
                    and o.expr.name in out_columns
                    else replace(o, expr=rewrite(o.expr))
                    for o in select.order_by]
    except _NotMergeable:
        return None
    final = Select(items=items, group_by=list(keys.values()), having=having,
                   order_by=order_by, limit=select.limit,
                   distinct=select.distinct)
    return Select(items=partial, group_by=select.group_by), final


# ---------------------------------------------------------------------------
# Relation schemas
# ---------------------------------------------------------------------------

@dataclass
class RelSchema:
    """Static shape of a relation visible to the planner."""

    columns: list[str]
    nrows: float
    unique: set[str] = field(default_factory=set)


class _Unanalyzable(Exception):
    """A subquery shape whose name resolution cannot be decided statically
    (unknown relation, opaque derived table)."""


def _unplannable(reason: str) -> UnsupportedFeatureError:
    return UnsupportedFeatureError(f"subquery cannot be planned: {reason}")


_ONLY_EQUALITIES = ("outer columns may appear only in top-level equalities "
                    "of the WHERE clause")


@dataclass
class _Frame:
    """Name-resolution frame of one subquery level: its FROM bindings and
    the union of their known column names (``opaque`` when a derived table
    contributes columns the planner cannot enumerate)."""

    bindings: set
    columns: set
    opaque: bool = False


def _ref_in_frames(ref: ColumnRef, frames: list) -> bool:
    """Does *ref* resolve inside any enclosing subquery frame (innermost
    first)?  Raises :class:`_Unanalyzable` for an unqualified name that an
    opaque frame might or might not own."""
    if ref.table is not None:
        return any(ref.table in f.bindings for f in frames)
    for f in reversed(frames):
        if ref.name in f.columns:
            return True
        if f.opaque:
            raise _Unanalyzable
    return False


def _conjoin(exprs: list[Expr]) -> Expr | None:
    if not exprs:
        return None
    out = exprs[0]
    for e in exprs[1:]:
        out = BinaryOp("AND", out, e)
    return out


@dataclass
class _Source:
    """A FROM-clause source annotated with planner state."""

    binding: str
    schema: RelSchema
    op: Operator
    pruned_columns: list[str]
    est: float
    table_name: str | None = None  # base-table sources can be sampled


def _est_or_default(est: float | None, default: float = 1000.0) -> float:
    """A concrete cardinality estimate: ``est`` unless unknown (None).

    ``est`` may legitimately be 0.0 (LIMIT 0 bodies, fully zone-pruned
    scans) — a falsy ``or`` fallback would silently replace an exact empty
    estimate with the default and corrupt downstream side choices.
    """
    return est if est is not None else default


def greedy_join_order(
    ests: list[float],
    edges: list[tuple[int, int, Expr, Expr]],
    reorder: bool,
) -> list[tuple[int, list[tuple[Expr, Expr]]]]:
    """Greedy left-deep join order over per-source cardinalities.

    ``ests[i]`` is source *i*'s (estimated or observed) row count; ``edges``
    are equi-join conjuncts ``(i, j, left_expr, right_expr)`` with the
    expressions owned by sources *i* and *j* respectively.  Returns the
    visit order as ``[(source_index, oriented_pairs)]``, where each pair is
    ``(accumulated_side_expr, new_side_expr)``; an empty pair list means a
    cartesian step.  With ``reorder`` off the order is syntactic.

    Ties break on the lower source index, deterministically — the order
    must not depend on set-iteration order, since plan shapes are golden-
    tested and adaptive re-planning compares orders for equality.

    Shared by static planning (estimates) and :class:`~.plan.AdaptiveJoin`
    re-planning (observed cardinalities) so both make identical decisions
    given identical inputs.
    """
    n = len(ests)
    remaining = set(range(n))
    start = min(remaining, key=lambda i: (ests[i], i)) if reorder else 0
    remaining.discard(start)
    acc_set = {start}
    order: list[tuple[int, list[tuple[Expr, Expr]]]] = [(start, [])]

    while remaining:
        candidates: dict[int, list[tuple[Expr, Expr]]] = {}
        for (i, j, le, re_) in edges:
            if i in acc_set and j in remaining:
                candidates.setdefault(j, []).append((le, re_))
            elif j in acc_set and i in remaining:
                candidates.setdefault(i, []).append((re_, le))
        if candidates:
            if reorder:
                nxt = min(candidates, key=lambda j: (ests[j], j))
            else:
                nxt = min(candidates)  # syntactic order
            pairs = candidates[nxt]
        else:
            nxt = min(remaining)
            pairs = []
        order.append((nxt, pairs))
        acc_set.add(nxt)
        remaining.discard(nxt)
    return order


# ---------------------------------------------------------------------------
# Selectivity heuristics
# ---------------------------------------------------------------------------

_RANGE_OPS = {"<", "<=", ">", ">="}


def _selectivity(expr: Expr, schema: RelSchema) -> float:
    """Fraction of rows estimated to survive a pushed-down predicate."""
    if isinstance(expr, BinaryOp):
        if expr.op == "=":
            for side in (expr.left, expr.right):
                if isinstance(side, ColumnRef) and side.name in schema.unique:
                    return 1.0 / max(schema.nrows, 1.0)
            return 0.1
        if expr.op in _RANGE_OPS:
            return 0.3
        if expr.op == "<>":
            # Inequality on a unique key excludes exactly one row.
            for side in (expr.left, expr.right):
                if isinstance(side, ColumnRef) and side.name in schema.unique:
                    return 1.0 - 1.0 / max(schema.nrows, 1.0)
            return 0.9
        if expr.op == "OR":
            # Inclusion-exclusion under independence.  The old plain sum
            # double-counted the overlap: `a = 1 OR a = 2` on a unique key
            # came out as 2/n-ish but `x < 5 OR y < 5` saturated to 0.6
            # instead of 0.51, systematically over-estimating disjunctions.
            sa = _selectivity(expr.left, schema)
            sb = _selectivity(expr.right, schema)
            return min(1.0, sa + sb - sa * sb)
        if expr.op == "AND":
            # Nested under OR/NOT (top-level ANDs are split upstream).
            return _selectivity(expr.left, schema) * _selectivity(expr.right, schema)
    if isinstance(expr, UnaryOp) and expr.op.upper() == "NOT":
        # Complement, not the unrelated-predicate default of 0.5: NOT over a
        # 0.05-selective predicate keeps ~95% of rows.
        return max(0.0, 1.0 - _selectivity(expr.operand, schema))
    if isinstance(expr, BetweenExpr):
        return 0.75 if expr.negated else 0.25
    if isinstance(expr, InList):
        if _is_value_set(expr):
            return 0.5  # a subquery's value set: its size is a run-time fact
        if isinstance(expr.operand, ColumnRef) and expr.operand.name in schema.unique:
            # Each list item matches at most one row of a unique column —
            # the generic 5%-per-item guess is off by orders of magnitude
            # on keys (3 items on a 10k-row unique column is 3/10000, not
            # 0.15).
            sel = min(1.0, float(max(len(expr.items), 1)) / max(schema.nrows, 1.0))
        else:
            sel = min(0.5, 0.05 * max(len(expr.items), 1))
        return 1.0 - sel if expr.negated else sel
    if isinstance(expr, LikeExpr):
        return 0.75 if expr.negated else 0.25
    if isinstance(expr, IsNull):
        return 0.95 if expr.negated else 0.05
    return 0.5


# ---------------------------------------------------------------------------
# Zone-map interval tests
# ---------------------------------------------------------------------------

def _zone_bound(value: object, dtype: Any) -> object:
    """Coerce a predicate literal into the column's comparison domain.

    Raises on an incomparable literal — the caller treats that chunk as a
    possible match (pruning must stay conservative)."""
    import numpy as np

    kind = dtype.kind
    if kind == "M":
        return np.datetime64(value)
    if kind in ("i", "u", "f", "b"):
        if isinstance(value, bool) or isinstance(value, (int, float)):
            return value
        raise TypeError(f"non-numeric literal {value!r}")
    if kind == "O":
        if isinstance(value, str):
            return value
        raise TypeError(f"non-string literal {value!r}")
    raise TypeError(f"unprunable dtype {dtype!r}")


def _zone_interval_match(op: str, value: Any, lo: Any, hi: Any) -> bool:
    """Can ``col <op> value`` hold for any row with col in [lo, hi]?"""
    if op == "=":
        return bool(lo <= value <= hi)
    if op == "<":
        return bool(lo < value)
    if op == "<=":
        return bool(lo <= value)
    if op == ">":
        return bool(hi > value)
    if op == ">=":
        return bool(hi >= value)
    return True


_ZONE_MIRROR = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


def _chunk_may_match(pred: Expr, table: Table, binding: str, cid: int) -> bool:
    """Interval test of one pushdown conjunct against a chunk's zone map.

    Only literal comparison shapes prune (``col op lit``, ``lit op col``,
    ``col BETWEEN lit AND lit``, ``col IN (lit, ...)``); anything else —
    including ``Parameter`` placeholders, whose values are outside the plan
    identity — conservatively keeps the chunk.  Comparison predicates are
    never true of NULL, so an all-NULL chunk is prunable.
    """

    def bounds(ref: Expr) -> Any:
        if not isinstance(ref, ColumnRef):
            return None
        if ref.table is not None and ref.table != binding:
            return None
        if ref.name not in table.columns:
            return None
        stats = table.chunk_stats(ref.name, cid)
        if stats is None:
            return None
        return stats

    def test(ref: Expr, op: str, lit: Expr) -> bool:
        if not isinstance(lit, Literal):
            return True
        stats = bounds(ref)
        if stats is None:
            return True
        if lit.value is None:
            return False  # `col <op> NULL` is never true
        if stats.min is None or stats.max is None:
            return False  # no non-NULL values in this chunk
        try:
            value = _zone_bound(lit.value, stats.dtype)
            return _zone_interval_match(op, value, stats.min, stats.max)
        except Exception:
            return True

    if isinstance(pred, BinaryOp) and pred.op in ("=", "<", "<=", ">", ">="):
        if isinstance(pred.left, ColumnRef):
            return test(pred.left, pred.op, pred.right)
        if isinstance(pred.right, ColumnRef):
            return test(pred.right, _ZONE_MIRROR[pred.op], pred.left)
        return True
    if isinstance(pred, BetweenExpr) and not pred.negated:
        return test(pred.operand, ">=", pred.low) and \
            test(pred.operand, "<=", pred.high)
    if isinstance(pred, InList) and not pred.negated:
        if not all(isinstance(it, Literal) for it in pred.items):
            return True
        return any(test(pred.operand, "=", it) for it in pred.items)
    return True


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------

class Planner:
    """Builds a :class:`PhysicalPlan` for a SELECT body."""

    def __init__(self, catalog: Catalog, config: EngineConfig):
        self.catalog = catalog
        self.config = config
        self._mark_counter = 0

    # -- schemas ------------------------------------------------------------
    def relation_schema(self, rel: TableRef | SubqueryRef, env: dict[str, RelSchema]) -> RelSchema:
        """Static shape of a FROM-clause relation (CTE env before catalog)."""
        if isinstance(rel, TableRef):
            if rel.name in env:
                return env[rel.name]
            schema = self.catalog.schema(rel.name)
            return RelSchema(list(schema.columns), float(schema.nrows),
                             set(schema.unique_columns))
        raise SQLBindError(f"unsupported relation {rel!r}")

    def body_schema(self, body: object, env: dict[str, RelSchema]) -> tuple[list[str], float, PhysicalPlan | None]:
        """(columns, est_rows, subplan) of a nested body (Select, compound
        select, or VALUES)."""
        if isinstance(body, ValuesClause):
            ncols = len(body.rows[0]) if body.rows else 0
            return [f"col{i}" for i in range(ncols)], float(len(body.rows)), None
        plan = self.plan_body(body, env)
        return list(plan.output_columns), _est_or_default(plan.est_rows), plan

    # -- entry points -------------------------------------------------------
    def plan_body(self, body: Select | CompoundSelect, env: dict[str, RelSchema],
                  final: bool = False) -> PhysicalPlan:
        """Compile any query body — a plain SELECT or a set-operation tree.
        *final*: the body's rows are the statement's result (see
        :func:`collect_needed_columns`)."""
        if isinstance(body, CompoundSelect):
            return self.plan_compound(body, env)
        return self.plan_select(body, env, final)

    def plan_compound(self, comp: CompoundSelect,
                      env: dict[str, RelSchema]) -> PhysicalPlan:
        """Compile a set operation: plan both operands, verify their output
        schemas are compatible (arity always; column types where statically
        known), pick the build side for symmetric operations by cardinality
        estimate, and attach the compound's trailing ORDER BY/LIMIT."""
        _window_placement(comp)
        left = self.plan_body(comp.left, env)
        right = self.plan_body(comp.right, env)
        if len(left.output_columns) != len(right.output_columns):
            raise SQLBindError(
                f"{_SET_OP_NAMES[comp.op]} operands must have the same number "
                f"of columns ({len(left.output_columns)} vs "
                f"{len(right.output_columns)})"
            )
        self._check_type_compatibility(comp, env)

        l_est = _est_or_default(left.est_rows)
        r_est = _est_or_default(right.est_rows)
        if comp.op == "union":
            est = l_est + r_est if comp.all else max(l_est + r_est, 1.0) * 0.9
        elif comp.op == "intersect":
            est = max(1.0, min(l_est, r_est) * 0.5)
        else:  # except
            est = max(1.0, l_est * 0.5)

        columns = list(left.output_columns)
        lop, rop = left.root, right.root
        if comp.op == "intersect" and l_est > r_est:
            # Symmetric operation: make the smaller side the probe (its
            # occurrence numbering is the sorting-heavy half) and count the
            # larger side.  Output columns still come from the written left.
            lop, rop = rop, lop
        root: Operator = SetOp(lop, rop, comp.op, comp.all, columns,
                               est_rows=est)

        order_by = _resolve_order_ordinals(comp.order_by, columns)
        root, est = self._attach_order_limit(root, order_by, comp.limit, est)
        return PhysicalPlan(root, columns, est_rows=est)

    def _attach_order_limit(self, root: Operator, order_by: list, limit: int | None, est: float) -> tuple[Operator, float]:
        """Shared Sort/TopK/Limit tail for plain and compound bodies."""
        if order_by and limit is not None and self.config.topk_rewrite:
            est = min(est, float(limit))
            root = TopK(root, order_by, limit, est_rows=est)
            return root, est
        if order_by:
            root = Sort(root, order_by, est_rows=est)
        if limit is not None:
            est = min(est, float(limit))
            root = Limit(root, limit, est_rows=est)
        return root, est

    _KIND_CLASSES = {"i": "numeric", "u": "numeric", "f": "numeric",
                     "b": "numeric", "M": "date", "O": "string",
                     "U": "string", "S": "string"}

    def _check_type_compatibility(self, comp: CompoundSelect, env: dict[str, RelSchema]) -> None:
        """Reject set operations pairing statically-known incompatible
        column types (numeric vs string vs date).  Columns whose type cannot
        be derived without executing (subqueries, CTEs, expressions) are
        skipped — execution-time promotion covers them."""
        lkinds = self._body_kinds(comp.left, env)
        rkinds = self._body_kinds(comp.right, env)
        for i, (lk, rk) in enumerate(zip(lkinds, rkinds)):
            if lk is not None and rk is not None and lk != rk:
                raise SQLBindError(
                    f"{_SET_OP_NAMES[comp.op]} column {i + 1} pairs "
                    f"incompatible types ({lk} vs {rk})"
                )

    def _base_tables(self, select: Select, env: dict[str, RelSchema]) -> dict[str, Table] | None:
        """The catalog table behind each FROM/JOIN binding of *select*; None
        when any relation is a CTE, a derived table or unknown, i.e. column
        kinds cannot be known without executing."""
        tables: dict[str, Table] = {}
        for rel in select.relations + [jc.relation for jc in select.joins]:
            if not isinstance(rel, TableRef) or rel.name in env \
                    or not self.catalog.has(rel.name):
                return None
            tables[rel.binding] = self.catalog.get(rel.name)
        return tables

    def _binding_kinds(self, tables: dict[str, Table]) -> dict[str, dict[str, str | None]]:
        """Per-binding column kinds, so qualified references resolve through
        their own alias and same-named columns of different types across
        bindings degrade to unknown instead of misclassifying."""
        return {binding: {col: self._KIND_CLASSES.get(dt.kind)
                          for col, dt in zip(table.columns, table.dtypes)}
                for binding, table in tables.items()}

    def _body_kinds(self, body: Select | CompoundSelect, env: dict[str, RelSchema]) -> list[str | None]:
        if isinstance(body, CompoundSelect):
            return self._body_kinds(body.left, env)
        tables = self._base_tables(body, env)
        if tables is None:
            return [None] * len(body.items)
        binding_kinds = self._binding_kinds(tables)
        return [self._item_kind(item.expr, binding_kinds) for item in body.items]

    def _item_kind(self, expr: Expr, binding_kinds: dict[str, dict[str, str | None]]) -> str | None:
        if isinstance(expr, Star):
            return None
        if isinstance(expr, ColumnRef):
            if expr.table is not None:
                return binding_kinds.get(expr.table, {}).get(expr.name)
            found = [cols[expr.name] for cols in binding_kinds.values()
                     if expr.name in cols]
            if not found or any(k != found[0] for k in found[1:]):
                return None
            return found[0]
        if isinstance(expr, Literal):
            if isinstance(expr.value, bool) or isinstance(expr.value, (int, float)):
                return "numeric"
            if isinstance(expr.value, str):
                return "string"
            return None
        if isinstance(expr, AggCall):
            if expr.func in ("COUNT", "SUM", "AVG", "STDDEV", "VAR"):
                return "numeric"
            if expr.arg is not None:
                return self._item_kind(expr.arg, binding_kinds)
        return None

    _NUMERIC_AGGS = ("SUM", "AVG", "STDDEV", "VAR")

    def _check_aggregate_types(self, select: Select, env: dict[str, RelSchema]) -> None:
        """Reject numeric aggregates over statically-known string/date
        columns at bind time.  Without this check SUM over a string column
        reaches the kernel and surfaces as a raw TypeError mid-execution.

        Mirrors the leniency of :meth:`_body_kinds`: when any relation is a
        CTE, derived table, or otherwise non-base, kinds are unknown and the
        check is skipped.  Object-dtype columns are only *potentially*
        strings (an all-NULL or promoted-numeric column is stored as object
        too), so string-ness is confirmed against a strided data sample —
        the catalog is in memory, exactly like the selectivity probe."""
        binding_tables = self._base_tables(select, env)
        if binding_tables is None:
            return
        binding_kinds = self._binding_kinds(binding_tables)
        for expr in children(select):
            for agg in aggregates_of(expr):
                if agg.func not in self._NUMERIC_AGGS or agg.arg is None:
                    continue
                kind = self._item_kind(agg.arg, binding_kinds)
                if kind == "date" or (
                    kind == "string"
                    and self._definitely_string(agg.arg, binding_tables)
                ):
                    raise SQLBindError(
                        f"{agg.func} requires a numeric argument, got "
                        f"a {kind} expression"
                    )

    def _definitely_string(self, expr: Expr, binding_tables: dict[str, Table]) -> bool:
        """Whether a "string"-kind aggregate argument is certain to hold
        python strings at runtime.  String literals are; object-dtype
        columns only when a sample contains a non-NULL value and every
        non-NULL sampled value is a ``str``."""
        if isinstance(expr, Literal):
            return isinstance(expr.value, str)
        if not isinstance(expr, ColumnRef):
            return False
        if expr.table is not None:
            candidates = ([binding_tables[expr.table]]
                          if expr.table in binding_tables else [])
        else:
            candidates = [t for t in binding_tables.values()
                          if expr.name in t.columns]
        if not candidates:
            return False
        for table in candidates:
            step = max(1, table.nrows // self._SAMPLE_ROWS)
            values = [v for v in table.sample(expr.name, step) if v is not None]
            if not values or not all(isinstance(v, str) for v in values):
                return False
        return True

    def plan_select(self, select: Select, env: dict[str, RelSchema],
                    final: bool = False) -> PhysicalPlan:
        """Compile one SELECT body into a :class:`PhysicalPlan`.

        Bottom-up: scans (pruned to referenced columns) → pushed-down
        filters → join tree (ordered by estimated cardinality) → residual
        filter → Window (when the select list contains window calls) →
        Project / HashAggregate → Distinct → Sort → Limit.
        """
        _window_placement(select)
        values: list[tuple[str, str, PhysicalPlan]] = []
        refs, star, computed, nesting = collect_needed_columns(select, final)
        if nesting:
            select = self._bind_values(select, env, values)

        sources = [self._make_source(rel, env, refs, star, computed)
                   for rel in select.relations]

        if not sources:
            root: Operator = DualScan()
            acc_columns: list[str] = []
            binding_columns: dict[str, list[str]] = {}
            est = 1.0
            residual = split_conjuncts(select.where)
        else:
            root, acc_columns, binding_columns, est, residual = (
                self._plan_from_where(select, sources)
            )

        # Explicit JOIN clauses fold onto the accumulated relation.
        for jc in select.joins:
            root, acc_columns, binding_columns, est = self._fold_explicit_join(
                jc, root, acc_columns, binding_columns, est, env, refs, star,
                computed
            )

        root, est = self._residual_filter(root, residual, binding_columns,
                                          env, est)

        # Positional ORDER BY / GROUP BY items are resolved once, here, so
        # every operator (and its EXPLAIN label) sees real expressions.
        item_names = self._item_names(select, acc_columns, binding_columns)
        out_columns = [name for names in item_names for name in names]
        select = replace(
            select, group_by=_resolve_group_ordinals(select),
            order_by=_resolve_order_ordinals(select.order_by, out_columns))
        if nesting - {"joins", "where"}:
            root, select = self._plan_clause_subqueries(
                root, select, item_names, binding_columns, env)

        has_agg = bool(select.group_by) or any(
            contains_aggregate(item.expr) for item in select.items
        ) or (select.having is not None and contains_aggregate(select.having))

        windows = collect_windows(select)
        if has_agg:
            if windows:
                raise UnsupportedFeatureError(
                    "window functions cannot be combined with aggregation"
                )
            self._check_aggregate_types(select, env)
            if select.group_by:
                est = max(1.0, est / 10.0)
                if select.having is not None:
                    est = max(1.0, est * 0.5)
            else:
                est = 1.0
            root, select = self._plan_aggregate(root, select, out_columns,
                                                env, est)
        else:
            if windows:
                root = Window(root, windows, est_rows=est)
            project = Project(root, select, est_rows=est)
            root, select = self._exchange_topk(project, select, out_columns,
                                               env, est)

        if select.distinct:
            est = max(1.0, est * 0.9)
            root = Distinct(root, est_rows=est)
        root, est = self._attach_order_limit(root, select.order_by,
                                             select.limit, est)
        if values:
            root = InitPlan(root, values, est_rows=est)
        return PhysicalPlan(root, out_columns, est_rows=est)

    # -- distribution -------------------------------------------------------
    #
    # Both shapes put two stages of an *ordinary* operator around an
    # Exchange; what differs per stage is only the Select / ORDER BY it is
    # given.  Concatenating the partial outputs in chunk-range order keeps
    # first-appearance order of string group keys and original row order of
    # Top-K ties, which is what makes the final stage's answer the serial
    # one (docs/ARCHITECTURE.md "Sharded execution").

    def _partition(self, root: Operator, env: dict[str, RelSchema]
                   ) -> tuple[str, list[tuple[int, int]]] | None:
        """Where an Exchange above *root* cuts: the largest scanned table
        and its contiguous chunk ranges.  None when the subtree could not
        run in a shard worker (see :meth:`~.plan.Exchange.input_scans`),
        reads anything but stored tables, or scans that table more than
        once (a self-join's rows would pair within partitions only)."""
        scans = Exchange.input_scans(root)
        if scans is None or any(
                s.table in env or not self.catalog.get(s.table).stored
                for s in scans):
            return None
        table = max((self.catalog.get(s.table) for s in scans),
                    key=lambda t: t.nrows)
        if table.nchunks == 0 or \
                sum(1 for s in scans if s.table == table.name) != 1:
            return None
        step = -(-table.nchunks // min(self.config.shard_workers, table.nchunks))
        return table.name, [(lo, min(lo + step, table.nchunks))
                            for lo in range(0, table.nchunks, step)]

    def _plan_aggregate(self, root: Operator, select: Select,
                        out_columns: list[str], env: dict[str, RelSchema],
                        est: float) -> tuple[Operator, Select]:
        """The aggregation stage over *root*, and the Select whose ORDER BY
        / DISTINCT / LIMIT the operators above it must use: one
        HashAggregate, or ``final ← Exchange ← partial`` when sharding is
        on and the aggregate splits."""
        if self.config.shard_workers > 0:
            stages = _split_aggregate(select, out_columns)
            cut = self._partition(root, env) if stages is not None else None
            if cut is not None:
                partial, final = stages
                root = HashAggregate(root, partial, est_rows=est)
                root = Exchange(root, *cut, est_rows=est * len(cut[1]))
                return HashAggregate(root, final, est_rows=est), final
        return HashAggregate(root, select, est_rows=est), select

    def _exchange_topk(self, project: Project, select: Select,
                       out_columns: list[str], env: dict[str, RelSchema],
                       est: float) -> tuple[Operator, Select]:
        """``Exchange ← TopK ← project`` (the caller's ORDER BY/LIMIT tail
        adds the final TopK) when sharding is on and every ORDER BY key is
        an output column; else *project* unchanged.  Keys are rewritten to
        name that column, so both stages sort what the Project produced."""
        if not (self.config.shard_workers > 0 and self.config.topk_rewrite
                and select.order_by and select.limit is not None
                and select.limit <= _MAX_TOPK_LIMIT and not select.distinct):
            return project, select
        by_expr: dict[str, str] = {}
        if not any(isinstance(it.expr, Star) for it in select.items):
            by_expr = {expr_key(it.expr): name
                       for it, name in zip(select.items, out_columns)}
        order_by = []
        for item in select.order_by:
            expr = item.expr
            if isinstance(expr, ColumnRef) and expr.table is None \
                    and expr.name in out_columns:
                name = expr.name
            else:
                name = by_expr.get(expr_key(expr))
            if name is None or out_columns.count(name) != 1:
                return project, select
            order_by.append(replace(item, expr=ColumnRef(name=name)))
        cut = self._partition(project.child, env)
        if cut is None:
            return project, select
        k = float(select.limit)
        root: Operator = TopK(project, order_by, select.limit,
                              est_rows=min(est, k))
        root = Exchange(root, *cut, est_rows=min(est, k * len(cut[1])))
        return root, replace(select, order_by=order_by)

    # -- FROM sources -------------------------------------------------------
    def _make_source(self, rel: TableRef | SubqueryRef, env: dict[str, RelSchema], refs: set, star: bool, computed: set) -> _Source:
        binding = rel.binding
        table_name = None
        if isinstance(rel, TableRef):
            schema = self.relation_schema(rel, env)
            keep = self._pruned_columns(schema.columns, binding, refs, star)
            op: Operator = Scan(binding, rel.name, None if star else keep,
                                est_rows=schema.nrows,
                                encode=[c for c in keep if (None, c) in computed
                                        or (binding, c) in computed])
            if rel.name not in env:
                table_name = rel.name
        elif isinstance(rel, SubqueryRef):
            # Plan the derived table exactly once; nested derived tables
            # would otherwise be re-planned exponentially with depth.
            columns, est, subplan = self.body_schema(rel.query, env)
            if rel.column_names is not None:
                columns = list(rel.column_names)
            schema = RelSchema(columns, est)
            keep = self._pruned_columns(schema.columns, binding, refs, star)
            op = SubqueryScan(binding, rel.query, rel.column_names,
                              None if star else keep, subplan=subplan,
                              est_rows=est)
        else:
            raise SQLBindError(f"unsupported relation {rel!r}")
        pruned = schema.columns if star else keep
        return _Source(binding, schema, op, list(pruned), schema.nrows,
                       table_name=table_name)

    @staticmethod
    def _pruned_columns(columns: list[str], binding: str, refs: set, star: bool) -> list[str]:
        if star:
            return list(columns)
        wanted = {name for (qual, name) in refs if qual is None or qual == binding}
        keep = [c for c in columns if c in wanted]
        if not keep:
            keep = [columns[0]] if columns else []
        return keep

    # -- pushdown + join ordering -------------------------------------------
    def _plan_from_where(self, select: Select, sources: list[_Source]) -> tuple[Operator, list[str], dict[str, list[str]], float, list[Expr]]:
        conjuncts = split_conjuncts(select.where)
        pushdown: dict[int, list[Expr]] = {i: [] for i in range(len(sources))}
        edges: list[tuple[int, int, Expr, Expr]] = []
        residual: list[Expr] = []

        col_homes: dict[str, list[int]] = {}
        binding_index = {s.binding: i for i, s in enumerate(sources)}
        for i, s in enumerate(sources):
            for c in s.pruned_columns:
                col_homes.setdefault(c, []).append(i)

        def owner_set(expr: Expr) -> set[int] | None:
            owners: set[int] = set()
            for ref in expr_columns(expr):
                if ref.table is not None:
                    idx = binding_index.get(ref.table)
                    if idx is None:
                        return None  # outer/correlated reference
                    owners.add(idx)
                else:
                    homes = col_homes.get(ref.name)
                    if not homes:
                        return None
                    if len(set(homes)) > 1:
                        raise SQLBindError(f"ambiguous column {ref.name!r}")
                    owners.add(homes[0])
            return owners

        for conj in conjuncts:
            if has_subquery(conj):
                residual.append(conj)
                continue
            owners = owner_set(conj)
            if owners is None:
                residual.append(conj)
                continue
            if len(owners) == 1:
                pushdown[next(iter(owners))].append(conj)
                continue
            if (
                len(owners) == 2
                and isinstance(conj, BinaryOp)
                and conj.op == "="
            ):
                left_owners = owner_set(conj.left)
                right_owners = owner_set(conj.right)
                if (
                    left_owners is not None and right_owners is not None
                    and len(left_owners) == 1 and len(right_owners) == 1
                    and left_owners != right_owners
                ):
                    i, j = next(iter(left_owners)), next(iter(right_owners))
                    edges.append((i, j, conj.left, conj.right))
                    continue
            residual.append(conj)

        # Wrap each source in its pushed-down filter and estimate output.
        for i, s in enumerate(sources):
            zone_rows = self._prune_scan_chunks(s, pushdown[i])
            if pushdown[i]:
                sel = self._sampled_selectivity(s, pushdown[i])
                if sel is None:
                    sel = 1.0
                    for p in pushdown[i]:
                        sel *= _selectivity(p, s.schema)
                s.est = max(1.0, s.schema.nrows * sel)
                if zone_rows is not None:
                    s.est = max(1.0, min(s.est, float(zone_rows)))
                s.op = Filter(s.op, s.binding, pushdown[i], est_rows=s.est)

        root, acc_columns, binding_columns, est = self._order_joins(sources, edges)
        return root, acc_columns, binding_columns, est, residual

    _SAMPLE_ROWS = 4096

    def _sampled_selectivity(self, s: _Source, preds: list[Expr]) -> float | None:
        """Observed selectivity of the pushed-down predicates on a strided
        sample of the base table (the catalog is in memory, so the planner
        has perfect statistics on tap).  ``None`` when the source isn't a
        base table or the sample can't be evaluated (caller falls back to
        the closed-form heuristics)."""
        if s.table_name is None or not self.catalog.has(s.table_name):
            return None
        table = self.catalog.get(s.table_name)
        if table.nrows == 0:
            return None
        # A subquery's value set is bound at run time: it keeps the 0.5
        # guess of _selectivity, and the sample judges the rest.
        guess = 0.5 ** sum(map(_is_value_set, preds))
        preds = [p for p in preds if not _is_value_set(p)]
        needed = {ref.name for p in preds for ref in expr_columns(p)}
        columns = [c for c in table.columns if c in needed]
        if not columns:
            return None
        from .expressions import Evaluator, Scope
        from .table import Chunk

        step = max(1, table.nrows // self._SAMPLE_ROWS)
        chunk = Chunk(columns, [table.sample(c, step) for c in columns])
        scope = Scope()
        for slot, col in enumerate(columns):
            scope.add(s.binding, col, slot)
        try:
            ev = Evaluator(chunk, scope)
            import numpy as np

            mask = np.ones(chunk.nrows, dtype=bool)
            for p in preds:
                mask &= ev.eval_mask(p)
        except Exception:
            return None  # unevaluable statically (correlated refs, etc.)
        return float(mask.mean()) * guess if chunk.nrows else None

    # -- zone-map chunk pruning ---------------------------------------------
    def _prune_scan_chunks(self, s: _Source, preds: list[Expr]) -> int | None:
        """Statically prune a stored table's chunks against its zone maps.

        Pushdown conjuncts of literal comparison shape are interval-tested
        against each chunk's min/max stats; chunks no conjunct can match
        are dropped from the Scan.  Decided entirely at plan time — the
        literal values live in the SQL text (part of the plan-cache key)
        and DDL bumps the catalog version (invalidating cached plans), so
        a cached pruned plan can never run against changed data.
        ``Parameter`` placeholders are never prunable: their values are not
        part of the plan identity.

        Returns the surviving row count (for cardinality estimates) or
        None when pruning was not attempted.
        """
        if not self.config.zone_map_pruning or not preds:
            return None
        scan = s.op
        if not isinstance(scan, Scan) or s.table_name is None:
            return None
        if not self.catalog.has(s.table_name):
            return None
        table = self.catalog.get(s.table_name)
        nchunks = table.nchunks
        if nchunks <= 0 or not getattr(table, "has_zone_maps", False):
            return None
        keep = [
            cid for cid in range(nchunks)
            if all(_chunk_may_match(p, table, s.binding, cid) for p in preds)
        ]
        scan.chunk_ids = keep
        scan.n_chunks = nchunks
        rows = int(sum(table.chunk_length(cid) for cid in keep))
        scan.est_rows = float(rows)
        s.est = max(1.0, float(rows))
        return rows

    @staticmethod
    def _join_est(est: float, src: _Source, pairs: list[tuple[Expr, Expr]]) -> float:
        """Estimated cardinality of joining the accumulated side (``est``
        rows) with *src* on equi-key ``pairs``.

        When a join key is unique on the new side, each accumulated row
        matches at most one *src* row, so the output is bounded by ``est``
        scaled by the fraction of *src* rows surviving its filters — not
        ``max(est, src.est)``, which over-estimated every PK lookup join
        (e.g. a 6k-row lineitem fragment joining the 200-row filtered part
        table is ~6k rows, not max-of-sides).
        """
        for _, rexpr in pairs:
            if (isinstance(rexpr, ColumnRef) and rexpr.name in src.schema.unique
                    and (rexpr.table is None or rexpr.table == src.binding)):
                return max(1.0, est * min(1.0, src.est / max(src.schema.nrows, 1.0)))
        return max(est, src.est)

    def _order_joins(self, sources: list[_Source],
                     edges: list[tuple[int, int, Expr, Expr]]
                     ) -> tuple[Operator, list[str], dict[str, list[str]], float]:
        reorder = self.config.join_reorder
        order = greedy_join_order([s.est for s in sources], edges, reorder)

        first = order[0][0]
        est = sources[first].est
        acc_columns = list(sources[first].pruned_columns)
        binding_columns = {sources[first].binding: list(sources[first].pruned_columns)}
        for nxt, pairs in order[1:]:
            src = sources[nxt]
            est = self._join_est(est, src, pairs) if pairs else est * src.est
            acc_columns.extend(src.pruned_columns)
            binding_columns[src.binding] = list(src.pruned_columns)

        if self.config.adaptive_execution and reorder and len(sources) > 1:
            # Defer the chain to runtime: AdaptiveJoin executes every source
            # once, then keeps this order or re-runs greedy_join_order over
            # the observed cardinalities when an estimate diverged.
            root: Operator = AdaptiveJoin(
                [AdaptiveSource(s.binding, s.op, s.est) for s in sources],
                list(edges), order, est_rows=est,
            )
            return root, acc_columns, binding_columns, est

        root = sources[first].op
        chain_est = sources[first].est
        for nxt, pairs in order[1:]:
            src = sources[nxt]
            if pairs:
                chain_est = self._join_est(chain_est, src, pairs)
                root = HashJoin(root, src.op, src.binding, pairs, "inner",
                                est_rows=chain_est)
            else:
                chain_est = chain_est * src.est
                root = CrossJoin(root, src.op, src.binding, est_rows=chain_est)
        return root, acc_columns, binding_columns, est

    # -- explicit JOIN clauses ----------------------------------------------
    def _fold_explicit_join(self, jc: Any, root: Operator,
                            acc_columns: list[str],
                            binding_columns: dict[str, list[str]],
                            est: float, env: dict[str, RelSchema],
                            refs: set, star: bool, computed: set
                            ) -> tuple[Operator, list[str], dict[str, list[str]], float]:
        kind = jc.kind.lower()
        src = self._make_source(jc.relation, env, refs, star, computed)
        right_cols = set(src.pruned_columns)

        left_name_count: dict[str, int] = {}
        for cols in binding_columns.values():
            for c in cols:
                left_name_count[c] = left_name_count.get(c, 0) + 1

        def side_of(e: Expr) -> str | None:
            col_refs = expr_columns(e)
            if not col_refs:
                return None
            sides = set()
            for r in col_refs:
                if r.table == src.binding:
                    sides.add("right")
                elif r.table is not None:
                    sides.add("left")
                elif r.name in right_cols and left_name_count.get(r.name, 0) == 0:
                    sides.add("right")
                else:
                    if left_name_count.get(r.name, 0) > 1:
                        raise SQLBindError(f"ambiguous column reference {r.name!r}")
                    sides.add("left")
            return sides.pop() if len(sides) == 1 else None

        pairs: list[tuple[Expr, Expr]] = []
        residual: list[Expr] = []
        for conj in split_conjuncts(jc.condition):
            if isinstance(conj, BinaryOp) and conj.op == "=":
                ls, rs = side_of(conj.left), side_of(conj.right)
                if ls == "left" and rs == "right":
                    pairs.append((conj.left, conj.right))
                    continue
                if ls == "right" and rs == "left":
                    pairs.append((conj.right, conj.left))
                    continue
            residual.append(conj)

        if residual and kind in ("left", "right", "full"):
            raise UnsupportedFeatureError(
                f"{self.config.name}: non-equi conditions on outer joins are not supported"
            )
        # Subquery conjuncts of an inner join filter its output, like WHERE.
        on_subqueries = [c for c in residual if has_subquery(c)]
        residual = [c for c in residual if not has_subquery(c)]
        if not pairs and kind != "cross":
            raise UnsupportedFeatureError(
                "explicit join requires at least one equi condition"
            )

        if kind == "cross":
            est = est * src.est
            root = CrossJoin(root, src.op, src.binding, est_rows=est)
        else:
            how = {"inner": "inner", "left": "left", "right": "right",
                   "full": "full"}[kind]
            if how == "inner":
                est = self._join_est(est, src, pairs)
            else:
                # Outer joins emit at least one row per preserved-side row.
                est = max(est, src.est)
            root = HashJoin(root, src.op, src.binding, pairs, how,
                            residual=residual, est_rows=est)

        acc_columns = acc_columns + src.pruned_columns
        binding_columns = dict(binding_columns)
        binding_columns[src.binding] = list(src.pruned_columns)
        root, est = self._residual_filter(root, on_subqueries,
                                          binding_columns, env, est)
        return root, acc_columns, binding_columns, est

    # -- subqueries ------------------------------------------------------------
    #
    # Every IN / EXISTS / scalar subquery is planned, in whatever clause it
    # sits; none reaches an Evaluator (docs/ARCHITECTURE.md "Subqueries &
    # decorrelation" has the table).  What decides the plan is correlation,
    # not the clause:
    #
    # * An uncorrelated form is a value of the execution: before anything
    #   is placed, _bind_values replaces it with the placeholder ``$N`` (for
    #   ``x [NOT] IN (SELECT ...)``: ``x [NOT] IN ($N)``), which the InitPlan
    #   at the plan's root binds, so the predicate is pushed down, joined
    #   on or evaluated like any other.
    # * A correlated ``[NOT] IN`` / ``[NOT] EXISTS`` becomes a MarkJoin: a
    #   whole WHERE / ON conjunct filters above the join tree, anything
    #   else (a form under OR / CASE, or in a clause above the residual
    #   filter) is replaced by the MarkJoin's ``__mark_N`` column.
    #
    # A shape _decorrelate cannot plan raises at plan time.

    def _bind_values(self, select: Select, env: dict[str, RelSchema],
                     values: list) -> Select:
        """*select* with each uncorrelated subquery form, in every clause,
        replaced by a value for the InitPlan: a scalar subquery or ``[NOT]
        EXISTS`` by ``$N``, ``x [NOT] IN (SELECT ...)`` by ``x [NOT] IN
        ($N)``, whose set-valued ``$N`` the Evaluator probes.  *values*
        receives the ``(name, kind, subplan)`` entries.  Correlated forms
        stay; a form written twice is planned once."""
        planned: dict[str, Expr] = {}

        def replace_forms(e: Expr) -> Expr:
            if not has_subquery(e):
                return e
            form = match_subquery_form(e)
            if form is None or self._correlated(form[2], env):
                return map_children(e, replace_forms)
            key = expr_key(e)
            if key not in planned:
                kind, negated, node = form
                subplan = self._plan_uncorrelated(node, kind, env)
                name = f"${self._mark_counter}"
                self._mark_counter += 1
                values.append((name, "not exists" if kind == "exists"
                               and negated else kind, subplan))
                planned[key] = Parameter(name=name) if kind != "in" else \
                    InList(replace_forms(node.operand),
                           [Parameter(name=name)], negated=negated)
            return planned[key]

        return map_children(select, replace_forms)

    def _correlated(self, node: Any, env: dict[str, RelSchema]) -> bool:
        """Does the body of subquery form *node* read the outer query?  A
        body whose names cannot be resolved statically counts as correlated:
        :meth:`_decorrelate` refuses it."""
        try:
            return bool(self._outer_refs(node.query, env, []))
        except _Unanalyzable:
            return True

    def _plan_uncorrelated(self, node: Any, kind: str,
                           env: dict[str, RelSchema]) -> PhysicalPlan:
        """The body of an uncorrelated form, planned as written."""
        subplan = self.plan_body(node.query, env)
        width = len(subplan.output_columns)
        if kind != "exists" and width != 1:
            raise SQLBindError(
                f"sub-select returns {width} columns - expected 1")
        return subplan

    def _residual_filter(self, root: Operator, residual: list[Expr],
                         binding_columns: dict[str, list[str]],
                         env: dict[str, RelSchema], est: float
                         ) -> tuple[Operator, float]:
        """*root* filtered by the *residual* conjuncts, their (correlated)
        subquery forms planned first."""
        if not residual:
            return root, est
        kept: list[Expr] = []
        for conj in residual:
            form = match_subquery_form(conj)
            if form is not None and form[0] != "scalar" and not (
                    form[0] == "in" and has_subquery(form[2].operand)):
                kind, negated, node = form
                subplan, probe = self._decorrelate(node, kind, env,
                                                   binding_columns)
                est = max(1.0, est * 0.5)
                root = MarkJoin(root, subplan, probe, source=kind.upper(),
                                negated=negated, est_rows=est)
                continue
            if has_subquery(conj):
                rewrite, factories = self._mark_rewriter(env, binding_columns)
                conj = rewrite(conj)
                for make in factories:
                    root = make(root)
            kept.append(conj)
        if kept:
            est = max(1.0, est * 0.5 ** len(kept))
            root = ResidualFilter(root, kept, est_rows=est)
        return root, est

    def _plan_clause_subqueries(self, root: Operator, select: Select,
                                item_names: list[list[str]],
                                binding_columns: dict[str, list[str]],
                                env: dict[str, RelSchema]
                                ) -> tuple[Operator, Select]:
        """Plan the correlated subquery forms of the clauses evaluated above
        the residual filter: *root* grows their MarkJoins, and the returned
        Select reads the mark columns.  A rewritten select item keeps its
        output name."""
        rewrite, factories = self._mark_rewriter(env, binding_columns)
        items = []
        for item, names in zip(select.items, item_names):
            expr = rewrite(item.expr)
            items.append(item if expr is item.expr
                         else SelectItem(expr, names[0]))
        having = None if select.having is None else rewrite(select.having)
        select = replace(
            select, items=items, group_by=[rewrite(g) for g in select.group_by],
            having=having,
            order_by=[replace(o, expr=rewrite(o.expr)) for o in select.order_by])
        for make in factories:
            root = make(root)
        return root, select

    def _mark_rewriter(self, env: dict[str, RelSchema],
                       binding_columns: dict[str, list[str]]):
        """``(rewrite, factories)``: *rewrite* returns an expression with
        each (correlated) subquery form replaced by the ``__mark_N`` column
        of a MarkJoin (an expression without one comes back as is), and
        appends to *factories* one function per column, wrapping the
        current root in that MarkJoin.  A form written twice is planned
        once."""
        factories: list = []
        planned: dict[str, Expr] = {}

        def replace_forms(e: Expr) -> Expr:
            form = match_subquery_form(e)
            if form is None:
                return map_children(e, replace_forms)
            key = expr_key(e)
            if key not in planned:
                planned[key] = plan_form(*form)
            return planned[key]

        def plan_form(kind: str, negated: bool, node: Any) -> Expr:
            if kind == "in":
                node = replace(node, operand=replace_forms(node.operand))
            subplan, probe = self._decorrelate(node, kind, env,
                                               binding_columns)
            if any(contains_aggregate(p) or has_window(p) for p in probe):
                raise _unplannable(
                    "a correlated subquery cannot compare an aggregate or "
                    "window value")
            name = f"__mark_{self._mark_counter}"
            self._mark_counter += 1
            factories.append(
                lambda root: MarkJoin(
                    root, subplan, probe, source=kind.upper(),
                    negated=negated, mark_name=name,
                    est_rows=_est_or_default(root.est_rows)))
            return ColumnRef(name=name)

        def rewrite(expr: Expr) -> Expr:
            return replace_forms(expr) if has_subquery(expr) else expr

        return rewrite, factories

    def _decorrelate(self, node: Any, kind: str, env: dict[str, RelSchema],
                     binding_columns: dict[str, list[str]]
                     ) -> tuple[PhysicalPlan, list[Expr]]:
        """Plan one subquery form as ``(subplan, probe_exprs)``.

        ``probe_exprs`` pair positionally with the subplan's output
        columns: for ``kind="in"`` the IN operand against the value column,
        then one outer expression per equality-correlation key.  An
        uncorrelated body is planned as written.  A correlated one must be
        a plain SELECT over base tables whose outer references all sit in
        top-level WHERE equalities; any other shape raises
        :class:`UnsupportedFeatureError`.
        """
        body = node.query
        outer_bindings = set(binding_columns)
        outer_columns = {c for cols in binding_columns.values() for c in cols}
        try:
            outer_refs = self._outer_refs(body, env, [])
        except _Unanalyzable:
            raise _unplannable("a name in the subquery cannot be resolved "
                               "statically (name the derived table's "
                               "columns)") from None
        for ref in outer_refs:
            if (ref.table not in outer_bindings if ref.table is not None
                    else ref.name not in outer_columns):
                raise SQLBindError(
                    f"cannot resolve column {expr_to_str(ref)!r} in a "
                    f"subquery")

        if not outer_refs:
            # plan_select binds such a form as a value first; a subquery
            # join over it is what the verifier's subquery.correlated
            # rule rejects.
            return (self._plan_uncorrelated(node, kind, env),
                    [node.operand] if kind == "in" else [])

        if kind == "scalar":
            raise _unplannable("correlated scalar subqueries are not "
                               "supported")
        if not isinstance(body, Select):
            raise _unplannable("a correlated subquery must be a plain SELECT")
        if body.joins or body.group_by or body.having is not None \
                or body.limit is not None:
            raise _unplannable("a correlated subquery cannot have JOIN, "
                               "GROUP BY, HAVING or LIMIT")
        if not all(isinstance(rel, TableRef) for rel in body.relations):
            raise _unplannable("a correlated subquery must read base tables")
        if kind == "in" and len(body.items) != 1:
            raise SQLBindError(f"sub-select returns {len(body.items)} "
                               f"columns - expected 1")
        if kind == "in" and isinstance(body.items[0].expr, Star):
            raise _unplannable("a correlated IN subquery cannot select *")
        if any(contains_aggregate(it.expr) or has_window(it.expr)
               for it in body.items if not isinstance(it.expr, Star)):
            # Aggregates/windows in a correlated body compute over the whole
            # inner relation per outer group; hoisting the correlation
            # equality out of the WHERE would change their input.
            raise _unplannable("a correlated subquery cannot select an "
                               "aggregate or window function")
        frame = self._frame_of(body, env)  # cannot raise: _outer_refs did not
        for item in body.items:
            if not isinstance(item.expr, Star) and self._expr_side(
                    item.expr, env, frame, outer_bindings, outer_columns
            ) not in ("inner", "none"):
                raise _unplannable("a correlated subquery cannot select an "
                                   "outer column")

        correlated: list[tuple[Expr, Expr]] = []
        remaining: list[Expr] = []
        for conj in split_conjuncts(body.where):
            side = self._expr_side(conj, env, frame, outer_bindings,
                                   outer_columns)
            if side in ("inner", "none"):
                remaining.append(conj)
                continue
            ls = rs = None
            if isinstance(conj, BinaryOp) and conj.op == "=":
                ls = self._expr_side(conj.left, env, frame, outer_bindings,
                                     outer_columns)
                rs = self._expr_side(conj.right, env, frame, outer_bindings,
                                     outer_columns)
            if ls == "inner" and rs == "outer":
                correlated.append((conj.left, conj.right))
            elif ls == "outer" and rs == "inner":
                correlated.append((conj.right, conj.left))
            else:
                raise _unplannable(_ONLY_EQUALITIES)
        if not correlated:
            raise _unplannable(_ONLY_EQUALITIES)

        value_items = list(body.items) if kind == "in" else []
        items = value_items + [
            SelectItem(expr=inner_expr, alias=f"__ck{i}")
            for i, (inner_expr, _) in enumerate(correlated)
        ]
        inner_select = replace(body, items=items, where=_conjoin(remaining),
                               order_by=[], limit=None, distinct=False)
        subplan = self.plan_select(inner_select, env)
        probe = ([node.operand] if kind == "in" else []) + \
            [outer_expr for _, outer_expr in correlated]
        return subplan, probe

    def _frame_of(self, body: Select, env: dict[str, RelSchema]) -> "_Frame":
        bindings: set[str] = set()
        columns: set[str] = set()
        opaque = False
        for rel in list(body.relations) + [jc.relation for jc in body.joins]:
            if isinstance(rel, TableRef):
                bindings.add(rel.binding)
                if rel.name in env:
                    columns.update(env[rel.name].columns)
                elif self.catalog.has(rel.name):
                    columns.update(self.catalog.schema(rel.name).columns)
                else:
                    raise _Unanalyzable
            elif isinstance(rel, SubqueryRef):
                bindings.add(rel.binding)
                if rel.column_names:
                    columns.update(rel.column_names)
                else:
                    opaque = True
            else:
                raise _Unanalyzable
        return _Frame(bindings, columns, opaque)

    def _outer_refs(self, body: Select | CompoundSelect | ValuesClause,
                    env: dict[str, RelSchema],
                    frames: list) -> list[ColumnRef]:
        """Column references inside a subquery body that escape every
        enclosing subquery frame (``frames`` + the body's own), i.e. must
        resolve in the outer query.  Raises :class:`_Unanalyzable` when an
        unqualified name cannot be classified (opaque derived tables,
        unknown relations)."""
        if isinstance(body, CompoundSelect):
            # Its ORDER BY names refer to the compound's output.
            return [ref for operand in bodies(body)
                    for ref in self._outer_refs(operand, env, frames)]
        if isinstance(body, Select):
            frames = frames + [self._frame_of(body, env)]
        out: list[ColumnRef] = []
        for expr in children(body):
            out += [ref for ref in expr_columns(expr)
                    if not _ref_in_frames(ref, frames)]
            for sub in subqueries_of(expr):
                out += self._outer_refs(sub, env, frames)
        for derived in bodies(body):
            out += self._outer_refs(derived, env, frames)
        return out

    def _expr_side(self, expr: Expr, env: dict[str, RelSchema],
                   frame: "_Frame", outer_bindings: set,
                   outer_columns: set) -> str:
        """Classify an expression inside a subquery's top level as
        referencing only the subquery (``"inner"``), only the outer query
        (``"outer"``), nothing (``"none"``), or both / something
        unclassifiable (``"mixed"``)."""
        has_inner = has_outer = False
        for ref in expr_columns(expr):
            if ref.table is not None:
                if ref.table in frame.bindings:
                    has_inner = True
                elif ref.table in outer_bindings:
                    has_outer = True
                else:
                    return "mixed"
            elif ref.name in frame.columns:
                has_inner = True
            elif frame.opaque:
                return "mixed"
            elif ref.name in outer_columns:
                has_outer = True
            else:
                return "mixed"
        for sub in subqueries_of(expr):
            try:
                nested = self._outer_refs(sub, env, [frame])
            except _Unanalyzable:
                return "mixed"
            if nested:
                return "mixed"
            has_inner = True
        if has_inner and has_outer:
            return "mixed"
        if has_inner:
            return "inner"
        if has_outer:
            return "outer"
        return "none"

    # -- output schema -------------------------------------------------------
    def _item_names(self, select: Select, acc_columns: list[str],
                    binding_columns: dict[str, list[str]]) -> list[list[str]]:
        """The output-column names of each select item (a ``*`` names
        every column it expands to)."""
        out: list[list[str]] = []
        count = 0
        for item in select.items:
            if isinstance(item.expr, Star):
                owned = (None if item.expr.table is None
                         else set(binding_columns.get(item.expr.table, [])))
                names = [c for c in acc_columns if owned is None or c in owned]
            else:
                names = [output_name(item, count)]
            count += len(names)
            out.append(names)
        return out
