"""Bottom-up structural verification of compiled physical plans.

:func:`verify_plan` re-derives, from the operator tree alone, the schema
every node will produce at runtime — column names, dtype *kind classes*
(``numeric`` / ``string`` / ``date``, mirroring the planner's
``_KIND_CLASSES``), and nullability — and checks each operator's
preconditions against its children's synthesized schemas.  Any violation
is a planner (or hand-built-plan) bug, never a user error, and raises
:class:`~repro.errors.PlanInvariantError` carrying the rule id and the
``>``-separated path from the plan root to the offending node.

The verifier is deliberately *lenient about the unknown*: a column
reference that does not resolve in the synthesized schema may
legitimately fail at runtime with a user-facing ``SQLBindError`` — not a
plan bug, so unresolved user references are skipped.  Only
planner-generated constructs (``__mark_N`` columns, join key pairs whose
sides both resolve, SetOp column lists, zone-map chunk selections, subquery
forms, which the planner must have replaced) are held to strict rules, which
is what keeps the false-positive rate at zero across the TPC-H suite,
the plan-shape goldens, and the fuzz corpus.

The full invariant table lives in docs/ARCHITECTURE.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import PlanInvariantError
from ..sqlengine import plan as p
from ..sqlengine.expressions import expr_columns
from ..sqlengine.functions import FUNCTION_ALIASES
from ..sqlengine.table import Chunk
from ..sqlengine.planner import (
    _MAX_TOPK_LIMIT,
    MERGEABLE_AGGS,
    RelSchema,
    _chunk_may_match,
)
from ..sqlengine.sqlast import (
    AggCall,
    BetweenExpr,
    BinaryOp,
    CaseExpr,
    CastExpr,
    ColumnRef,
    ExistsExpr,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    LikeExpr,
    Literal,
    Parameter,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    UnaryOp,
    ValuesClause,
    WindowCall,
    WindowFrame,
    clauses,
    walk,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Any, Iterable, NoReturn

    from ..sqlengine.catalog import Catalog
    from ..sqlengine.executor import EngineConfig
    from ..sqlengine.table import Table

_MARK_RE = re.compile(r"^__mark_\d+$")
_VALUE_RE = re.compile(r"^\$\d+$")
_SUBQUERY_FORMS = (InSubquery, ExistsExpr, ScalarSubquery)

# numpy dtype kind -> verifier kind class (same partition the planner uses
# for join-key compatibility estimates).
_DTYPE_KINDS = {"i": "numeric", "u": "numeric", "f": "numeric", "b": "numeric",
                "M": "date", "O": "string", "U": "string", "S": "string"}

# Spill partitioning hashes numeric/date keys as one family and object
# (string) keys as another (see repro.storage.spill._key_class).
_SPILL_CLASSES = {"numeric": "num", "date": "num", "string": "obj"}

_FRAME_KIND_RANK = {"unbounded_preceding": 0, "preceding": 1, "current": 2,
                    "following": 3, "unbounded_following": 4}

_NUMERIC_FUNCS = {"ROUND", "ABS", "SQRT", "POWER", "FLOOR", "CEIL", "EXP",
                  "LN", "LENGTH", "STRPOS", "DATEPART"}
_STRING_FUNCS = {"UPPER", "LOWER", "TRIM", "SUBSTR", "CONCAT", "REPLACE",
                 "STRFTIME"}
_DATE_FUNCS = {"MAKEDATE"}

_WINDOW_RANKING = {"ROW_NUMBER", "RANK", "DENSE_RANK", "NTILE"}
_WINDOW_OFFSET = {"LAG", "LEAD"}
_WINDOW_AGG = {"SUM", "AVG", "MIN", "MAX", "COUNT"}


@dataclass(frozen=True)
class ColInfo:
    """One synthesized output column of a plan node."""

    name: str
    binding: Optional[str] = None  # qualifier it resolves under, if any
    kind: Optional[str] = None     # "numeric" | "string" | "date" | None
    nullable: bool = True
    internal: bool = False         # planner-introduced __mark_N
    # True when the kind is *planner-grade* knowledge: derived from a base
    # catalog column (possibly through bare-reference projections), the
    # same information the planner's own ``_body_kinds`` admission checks
    # see.  Type-agreement violations fire only between direct kinds —
    # anything softer (CTE chunks, derived tables, expressions) is
    # promoted at runtime and is legal to mix, so flagging it would
    # reject executable queries.
    direct: bool = False


@dataclass
class _RelInfo:
    """Synthesized relation shape flowing up the operator tree."""

    cols: list[ColInfo]
    # Window arrays available to the parent (ids of WindowCall nodes);
    # mirrors OpResult.window_values, which only a Window child populates.
    window_ids: frozenset = frozenset()
    # True when the shape is unknowable (hand-built SubqueryScan with
    # neither a subplan nor declared columns): parents skip name checks.
    opaque: bool = False


def _resolve(cols: list[ColInfo], ref: ColumnRef) -> Optional[ColInfo]:
    """Mirror Scope.resolve over synthesized columns; None = unknown."""
    if ref.table is not None:
        matches = [c for c in cols if c.binding == ref.table and c.name == ref.name]
        return matches[-1] if matches else None
    matches = [c for c in cols if c.name == ref.name]
    if len(matches) == 1:
        return matches[0]
    return None  # missing or ambiguous: runtime raises SQLBindError


def _cast_kind(type_name: str) -> Optional[str]:
    t = type_name.upper()
    if any(k in t for k in ("INT", "REAL", "FLOAT", "DOUBLE", "NUMERIC",
                            "DECIMAL", "BOOL")):
        return "numeric"
    if any(k in t for k in ("CHAR", "TEXT", "STRING", "CLOB")):
        return "string"
    if any(k in t for k in ("DATE", "TIME")):
        return "date"
    return None


def _literal_kind(value: object) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, (bool, int, float)):
        return "numeric"
    if isinstance(value, str):
        return "string"
    return "date" if "datetime" in type(value).__name__ else None


def _expr_kind(expr: Expr, cols: list[ColInfo]) -> tuple[Optional[str], bool]:
    """Best-effort (kind, nullable) of *expr* over the given columns.

    Returns ``(None, True)`` whenever the kind cannot be established
    statically — the verifier never guesses.
    """
    if isinstance(expr, Literal):
        return _literal_kind(expr.value), expr.value is None
    if isinstance(expr, Parameter):
        return None, True
    if isinstance(expr, ColumnRef):
        info = _resolve(cols, expr)
        return (info.kind, info.nullable) if info is not None else (None, True)
    if isinstance(expr, CastExpr):
        _, nullable = _expr_kind(expr.operand, cols)
        return _cast_kind(expr.type_name), nullable
    if isinstance(expr, UnaryOp):
        kind, nullable = _expr_kind(expr.operand, cols)
        if expr.op == "NOT":
            return "numeric", nullable
        return (kind if kind == "numeric" else None), nullable
    if isinstance(expr, BinaryOp):
        lk, ln = _expr_kind(expr.left, cols)
        rk, rn = _expr_kind(expr.right, cols)
        nullable = ln or rn
        if expr.op in ("=", "<>", "<", "<=", ">", ">=", "AND", "OR"):
            return "numeric", nullable
        if expr.op == "||":
            return "string", nullable
        if expr.op in ("+", "-", "*", "/", "%"):
            if lk == "numeric" and rk == "numeric":
                # Division can produce NULL (NaN) even over non-null input.
                return "numeric", nullable or expr.op in ("/", "%")
            return None, True  # date arithmetic etc.: leave unknown
        return None, True
    if isinstance(expr, (IsNull, LikeExpr, BetweenExpr, InList)):
        return "numeric", True
    if isinstance(expr, CaseExpr):
        kinds = set()
        for _, value in expr.branches:
            kinds.add(_expr_kind(value, cols)[0])
        if expr.default is not None:
            kinds.add(_expr_kind(expr.default, cols)[0])
        kinds.discard(None)
        return (kinds.pop() if len(kinds) == 1 else None), True
    if isinstance(expr, AggCall):
        func = expr.func.upper()
        if func == "COUNT":
            return "numeric", False
        if func in ("SUM", "AVG"):
            return "numeric", True
        if func in ("MIN", "MAX") and expr.arg is not None:
            return _expr_kind(expr.arg, cols)[0], True
        return None, True
    if isinstance(expr, WindowCall):
        func = expr.func.upper()
        if func in _WINDOW_RANKING or func == "COUNT":
            return "numeric", False
        if func in ("SUM", "AVG"):
            return "numeric", True
        if func in ("MIN", "MAX", "LAG", "LEAD") and expr.args:
            return _expr_kind(expr.args[0], cols)[0], True
        return None, True
    if isinstance(expr, FuncCall):
        name = FUNCTION_ALIASES.get(expr.name.upper(), expr.name.upper())
        nullable = any(_expr_kind(a, cols)[1] for a in expr.args) or not expr.args
        if name in _NUMERIC_FUNCS:
            return "numeric", nullable
        if name in _STRING_FUNCS:
            return "string", nullable
        if name in _DATE_FUNCS:
            return "date", nullable
        if name in ("COALESCE", "NULLIF") and expr.args:
            return _expr_kind(expr.args[0], cols)[0], True
        return None, True
    return None, True


EnvSchemas = Optional[dict]


class _Verifier:
    def __init__(self, catalog: "Catalog | None", config: "EngineConfig",
                 env: EnvSchemas):
        self.catalog = catalog
        self.config = config
        self.env: dict[str, list[ColInfo]] = {}
        for name, rel in (env or {}).items():
            self.env[name] = _env_cols(rel)
        self.marks: dict[str, str] = {}  # mark name -> defining path

    # -- helpers ----------------------------------------------------------

    def fail(self, invariant: str, message: str, path: str) -> "NoReturn":
        raise PlanInvariantError(invariant, message, path)

    def check_exprs(self, exprs: "Iterable[Expr]", cols: list[ColInfo],
                    path: str) -> None:
        """Planner-introduced __mark_N refs must be in scope, and
        no subquery form is left for an evaluator."""
        for expr in exprs:
            for node in walk(expr):
                if isinstance(node, _SUBQUERY_FORMS):
                    self.fail("expr.subquery",
                              f"{type(node).__name__} left in an operator "
                              f"expression (the planner replaces every "
                              f"subquery form)", path)
                if isinstance(node, ColumnRef) and \
                        _MARK_RE.match(node.name) and \
                        _resolve(cols, node) is None:
                    self.fail("mark.scope",
                              f"reference to {node.name!r} which is not "
                              f"produced by any operator below", path)

    # -- entry points -----------------------------------------------------

    def verify(self, plan: p.PhysicalPlan, path: str = "") -> _RelInfo:
        # type name, not label(): a label can embed the very field the
        # verifier is about to reject (e.g. an unknown SetOp kind).
        rel = self.visit(plan.root, path or type(plan.root).__name__)
        if not rel.opaque:
            names = [c.name for c in rel.cols]
            if names != list(plan.output_columns):
                self.fail("plan.output-columns",
                          f"plan declares output columns "
                          f"{plan.output_columns!r} but the root operator "
                          f"produces {names!r}", path or "root")
        return rel

    def subplan(self, plan: p.PhysicalPlan, path: str) -> _RelInfo:
        # A nested plan executes in its own scope, so its mark counter
        # restarts: __mark_0 in a subplan does not collide with the outer
        # tree's __mark_0.
        outer_marks = self.marks
        self.marks = {}
        try:
            return self.verify(plan, f"{path} > Subplan")
        finally:
            self.marks = outer_marks

    # -- dispatch ---------------------------------------------------------

    def visit(self, op: p.Operator, path: str) -> _RelInfo:
        if op.est_rows is not None and op.est_rows < 0:
            self.fail("est.nonnegative",
                      f"negative cardinality estimate {op.est_rows}", path)
        method = getattr(self, "visit_" + type(op).__name__, None)
        if method is None:
            self.fail("plan.operator",
                      f"unknown operator {type(op).__name__}", path)
        return method(op, path)

    def child(self, op: p.Operator, path: str) -> _RelInfo:
        return self.visit(op, f"{path} > {type(op).__name__}")

    # -- leaves -----------------------------------------------------------

    def visit_Scan(self, op: p.Scan, path: str) -> _RelInfo:
        if op.table in self.env:
            source = self.env[op.table]
            if op.chunk_ids is not None:
                self.fail("zonemap.target",
                          f"chunk pruning on CTE/env relation {op.table!r} "
                          f"(zone maps exist only on stored tables)", path)
        elif self.catalog is None:
            # No catalog supplied: table schemas are unknowable, so only
            # the column list declared on the scan itself is trusted.
            if op.keep_columns is None:
                return _RelInfo([], opaque=True)
            return _RelInfo([ColInfo(c, op.binding)
                             for c in op.keep_columns])
        elif self.catalog.has(op.table):
            table = self.catalog.get(op.table)
            source = [
                ColInfo(name, op.binding, _DTYPE_KINDS.get(dt.kind),
                        nullable=True, direct=True)
                for name, dt in zip(table.columns, table.dtypes)
            ]
            self._check_zone_maps(op, table, path)
        else:
            self.fail("scan.unknown-table",
                      f"scan of unknown table {op.table!r}", path)
        names = [c.name for c in source]
        if op.keep_columns is not None:
            missing = [c for c in op.keep_columns if c not in names]
            if missing:
                self.fail("scan.keep-columns",
                          f"keep_columns {missing!r} not in table "
                          f"{op.table!r} (has {names!r})", path)
            source = [next(c for c in source if c.name == want)
                      for want in op.keep_columns]
        cols = [ColInfo(c.name, op.binding, c.kind, c.nullable,
                        direct=c.direct)
                for c in source]
        return _RelInfo(cols)

    def _check_zone_maps(self, op: p.Scan, table: "Table", path: str) -> None:
        if op.chunk_ids is None:
            return
        if not self.config.zone_map_pruning:
            self.fail("zonemap.config",
                      "chunk pruning present but "
                      "EngineConfig.zone_map_pruning is off", path)
        if not getattr(table, "has_zone_maps", False):
            self.fail("zonemap.target",
                      f"chunk pruning on table {op.table!r} which has no "
                      f"zone maps", path)
        if op.n_chunks != table.nchunks:
            self.fail("zonemap.chunks",
                      f"plan recorded {op.n_chunks} chunk(s) but table "
                      f"{op.table!r} has {table.nchunks}", path)
        bad = [cid for cid in op.chunk_ids
               if not (0 <= cid < op.n_chunks)]
        if bad:
            self.fail("zonemap.chunks",
                      f"chunk ids {bad!r} out of range "
                      f"[0, {op.n_chunks})", path)

    def visit_DualScan(self, op: p.DualScan, path: str) -> _RelInfo:
        return _RelInfo([ColInfo("__one", None, "numeric", nullable=False,
                                 direct=True)])

    def visit_SubqueryScan(self, op: p.SubqueryScan, path: str) -> _RelInfo:
        if op.subplan is not None:
            inner = self.subplan(op.subplan, path)
            if inner.opaque:
                return _RelInfo([], opaque=True)
            source = [ColInfo(c.name, op.binding, c.kind, c.nullable)
                      for c in inner.cols]
        elif isinstance(op.body, ValuesClause):
            width = len(op.body.rows[0]) if op.body.rows else 0
            for i, row in enumerate(op.body.rows):
                if len(row) != width:
                    self.fail("subquery.values-arity",
                              f"VALUES row {i} has {len(row)} column(s), "
                              f"expected {width}", path)
            source = [ColInfo(f"col{i}", op.binding) for i in range(width)]
        else:
            # Hand-built node deferring planning to execution time: the
            # shape is unknowable statically.
            return _RelInfo([], opaque=True)
        if op.column_names is not None:
            if len(op.column_names) != len(source):
                self.fail("subquery.rename-arity",
                          f"derived table declares {len(op.column_names)} "
                          f"column name(s) {op.column_names!r} but its body "
                          f"produces {len(source)}", path)
            source = [ColInfo(name, op.binding, c.kind, c.nullable)
                      for name, c in zip(op.column_names, source)]
        if op.keep_columns is not None:
            names = [c.name for c in source]
            missing = [c for c in op.keep_columns if c not in names]
            if missing:
                self.fail("scan.keep-columns",
                          f"keep_columns {missing!r} not produced by derived "
                          f"table {op.binding!r} (has {names!r})", path)
            source = [next(c for c in source if c.name == want)
                      for want in op.keep_columns]
        return _RelInfo(source)

    # -- filters ----------------------------------------------------------

    def visit_Filter(self, op: p.Filter, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        self.check_exprs(op.predicates, rel.cols, path)
        self._check_prune_soundness(op, path)
        return _RelInfo(rel.cols, opaque=rel.opaque)

    def _check_prune_soundness(self, op: p.Filter, path: str) -> None:
        """Re-derive the zone-map chunk selection: every chunk whose
        min/max intervals admit all pushdown conjuncts must be kept."""
        scan = op.child
        if not isinstance(scan, p.Scan) or scan.chunk_ids is None:
            return
        if self.catalog is None or not self.catalog.has(scan.table):
            return
        table = self.catalog.get(scan.table)
        if not getattr(table, "has_zone_maps", False):
            return
        kept = set(scan.chunk_ids)
        for cid in range(scan.n_chunks):
            if cid in kept:
                continue
            try:
                may_match = all(
                    _chunk_may_match(pred, table, scan.binding, cid)
                    for pred in op.predicates)
            except Exception:
                may_match = True  # pruning must stay conservative
            if may_match:
                self.fail("zonemap.sound",
                          f"chunk {cid} of {scan.table!r} was pruned but "
                          f"its zone maps admit the filter predicates",
                          path)

    def visit_ResidualFilter(self, op: p.ResidualFilter, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        self.check_exprs(op.predicates, rel.cols, path)
        return _RelInfo(rel.cols, opaque=rel.opaque)

    # -- joins ------------------------------------------------------------

    def _right_side(self, op: "Any", rel: _RelInfo, path: str) -> None:
        if rel.opaque:
            return
        bad = [c.name for c in rel.cols
               if not c.internal and c.binding != op.right_binding]
        if bad:
            self.fail("join.binding",
                      f"right child columns {bad!r} are not bound to the "
                      f"declared right binding {op.right_binding!r}", path)

    def visit_CrossJoin(self, op: p.CrossJoin, path: str) -> _RelInfo:
        left = self.child(op.left, path)
        right = self.child(op.right, path)
        self._right_side(op, right, path)
        return _RelInfo(left.cols + right.cols,
                        opaque=left.opaque or right.opaque)

    def visit_HashJoin(self, op: p.HashJoin, path: str) -> _RelInfo:
        left = self.child(op.left, path)
        right = self.child(op.right, path)
        self._right_side(op, right, path)
        if not op.pairs:
            self.fail("join.pairs", "hash join with no equi-key pairs "
                      "(planner emits CrossJoin instead)", path)
        if op.how not in ("inner", "left", "right", "full"):
            self.fail("join.how", f"unknown join type {op.how!r}", path)
        if op.residual and op.how != "inner":
            self.fail("join.residual-outer",
                      f"residual ON conjuncts on a {op.how!r} join "
                      f"(planner rejects this as unsupported)", path)
        for i, (lexpr, rexpr) in enumerate(op.pairs):
            self._check_pair(i, lexpr, rexpr, left, right, path)
        self.check_exprs(op.residual, left.cols + right.cols, path)
        lcols = left.cols
        rcols = right.cols
        if op.how in ("left", "full"):
            rcols = [ColInfo(c.name, c.binding, c.kind, True, c.internal,
                             c.direct)
                     for c in rcols]
        if op.how in ("right", "full"):
            lcols = [ColInfo(c.name, c.binding, c.kind, True, c.internal,
                             c.direct)
                     for c in lcols]
        return _RelInfo(lcols + rcols,
                        opaque=left.opaque or right.opaque)

    def _check_pair(self, i: int, lexpr: Expr, rexpr: Expr,
                    left: _RelInfo, right: _RelInfo, path: str) -> None:
        # Build/probe side consistency: a key expression is evaluated
        # against its own side's chunk, so a reference resolvable *only*
        # on the opposite side is a mis-sided key.
        for expr, own, other, side in ((lexpr, left, right, "left"),
                                       (rexpr, right, left, "right")):
            if own.opaque or other.opaque:
                continue
            for ref in expr_columns(expr):
                if _resolve(own.cols, ref) is None and \
                        _resolve(other.cols, ref) is not None:
                    self.fail("join.sides",
                              f"key pair {i}: {side} expression references "
                              f"{ref.table + '.' if ref.table else ''}"
                              f"{ref.name} which resolves only on the "
                              f"other side", path)
        # Dtype agreement is enforced only when a planner-generated
        # (internal) column is involved: SQL permits user equalities
        # across kinds (the kernels promote to object), but a mark or
        # scalar column paired against an incompatible kind can only be a
        # planner rewrite bug.
        internal = any(
            (info := _resolve(rel.cols, ref)) is not None and info.internal
            for expr, rel in ((lexpr, left), (rexpr, right))
            for ref in expr_columns(expr))
        if not internal:
            return
        lkind, _ = _expr_kind(lexpr, left.cols)
        rkind, _ = _expr_kind(rexpr, right.cols)
        if lkind is not None and rkind is not None and lkind != rkind:
            self.fail("join.keys",
                      f"key pair {i}: incomparable dtypes "
                      f"({lkind} vs {rkind})", path)
        if self.config.memory_budget is not None and \
                lkind is not None and rkind is not None and \
                _SPILL_CLASSES.get(lkind) != _SPILL_CLASSES.get(rkind):
            self.fail("spill.keys",
                      f"key pair {i}: sides hash in different spill "
                      f"families ({lkind} vs {rkind}) under a memory "
                      f"budget", path)

    def visit_Materialized(self, op: "p.Materialized", path: str) -> _RelInfo:
        # Leaves of an adaptive re-planned chain: the relation shape is the
        # already-executed chunk.  A result-less node (plan shape only) has
        # an unknowable shape.
        if op.result is None:
            return _RelInfo([], opaque=True)
        chunk = op.result.chunk
        return _RelInfo([
            ColInfo(name, op.binding, _DTYPE_KINDS.get(chunk.dtype(i).kind))
            for i, name in enumerate(chunk.columns)
        ])

    def visit_AdaptiveJoin(self, op: "p.AdaptiveJoin", path: str) -> _RelInfo:
        if not self.config.adaptive_execution:
            self.fail("adaptive.preconditions",
                      "AdaptiveJoin present but "
                      "EngineConfig.adaptive_execution is off", path)
        n = len(op.sources)
        if n < 2:
            self.fail("adaptive.sources",
                      f"AdaptiveJoin over {n} source(s) (a single source "
                      f"needs no join)", path)
        indices = [i for i, _ in op.static_order]
        if sorted(indices) != list(range(n)):
            self.fail("adaptive.order",
                      f"static order {indices!r} is not a permutation of "
                      f"the {n} sources", path)
        if op.static_order[0][1]:
            self.fail("adaptive.order",
                      "first source of the static order carries join "
                      "pairs (nothing to join against yet)", path)
        for (i, j, _le, _re) in op.edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                self.fail("adaptive.edges",
                          f"edge ({i}, {j}) does not connect two distinct "
                          f"sources (have {n})", path)
        rels = []
        opaque = False
        for s in op.sources:
            rel = self.child(s.op, path)
            if not rel.opaque:
                bad = [c.name for c in rel.cols
                       if not c.internal and c.binding != s.binding]
                if bad:
                    self.fail("join.binding",
                              f"source columns {bad!r} are not bound to "
                              f"the declared binding {s.binding!r}", path)
            rels.append(rel)
            opaque = opaque or rel.opaque
        # Output layout follows the static order (AdaptiveJoin permutes a
        # re-ordered execution back to this layout).
        cols: list[ColInfo] = []
        for i, _pairs in op.static_order:
            cols.extend(rels[i].cols)
        return _RelInfo(cols, opaque=opaque)

    # -- decorrelated subqueries ------------------------------------------

    def _check_probes(self, op: "Any", rel: _RelInfo, inner: _RelInfo,
                      path: str) -> None:
        if not inner.opaque and op.probe_exprs and \
                len(op.probe_exprs) > len(inner.cols):
            self.fail("subquery.probe-arity",
                      f"{len(op.probe_exprs)} probe expression(s) against a "
                      f"subplan producing {len(inner.cols)} column(s)", path)
        self.check_exprs(op.probe_exprs, rel.cols, path)
        if inner.opaque or rel.opaque:
            return
        for i, probe in enumerate(op.probe_exprs[:len(inner.cols)]):
            # As for join pairs, kinds must agree only when the probe rests
            # on a planner-generated column — user IN/EXISTS operands may
            # legally compare across kinds.
            internal = any(
                (info := _resolve(rel.cols, ref)) is not None
                and info.internal for ref in expr_columns(probe))
            if not internal:
                continue
            pkind, _ = _expr_kind(probe, rel.cols)
            ikind = inner.cols[i].kind
            if pkind is not None and ikind is not None and pkind != ikind:
                self.fail("join.keys",
                          f"probe {i}: incomparable dtypes "
                          f"({pkind} vs {ikind})", path)

    def visit_MarkJoin(self, op: p.MarkJoin, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        inner = self.subplan(op.subplan, path)
        keys = len(op.probe_exprs) - (op.source == "IN")
        if op.source not in ("IN", "EXISTS") or keys < 1:
            self.fail("subquery.correlated",
                      f"{op.source} subquery join with {max(keys, 0)} "
                      f"correlation key(s) (an IN or EXISTS with at least "
                      f"one; an uncorrelated form is an InitPlan value)",
                      path)
        self._check_probes(op, rel, inner, path)
        if op.mark_name is None:
            return _RelInfo(rel.cols, opaque=rel.opaque)
        if not op.mark_name.startswith("__mark_"):
            self.fail("mark.name",
                      f"appended column {op.mark_name!r} must start with "
                      f"'__mark_' (star expansion skips that prefix; "
                      f"anything else leaks into SELECT * output)", path)
        if op.mark_name in self.marks:
            self.fail("mark.unique",
                      f"column {op.mark_name!r} defined twice (also at "
                      f"{self.marks[op.mark_name]})", path)
        self.marks[op.mark_name] = path
        mark = ColInfo(op.mark_name, None, "numeric", nullable=False,
                       internal=True)
        return _RelInfo(rel.cols + [mark], opaque=rel.opaque)

    def visit_InitPlan(self, op: p.InitPlan, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        for name, kind, plan in op.values:
            if not _VALUE_RE.match(name) or \
                    kind not in ("scalar", "in", "exists", "not exists"):
                self.fail("value.name",
                          f"InitPlan value {name!r} of kind {kind!r} (want "
                          f"$N of scalar / in / [not] exists)", path)
            inner = self.subplan(plan, path)
            if kind in ("scalar", "in") and not inner.opaque and \
                    len(inner.cols) != 1:
                self.fail("subquery.scalar-arity",
                          f"scalar or IN subquery produces "
                          f"{len(inner.cols)} column(s), expected exactly 1",
                          path)
        return rel

    # -- window -----------------------------------------------------------

    def visit_Window(self, op: p.Window, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        for call in op.calls:
            self._check_window_call(call, path)
        ids = frozenset(id(c) for c in op.calls)
        return _RelInfo(rel.cols, window_ids=ids, opaque=rel.opaque)

    def _check_window_call(self, call: WindowCall, path: str) -> None:
        func = call.func.upper()
        what = f"window function {call.func}"
        if func == "NTILE":
            if not call.args:
                self.fail("window.args", f"{what} requires an argument", path)
            arg = call.args[0]
            if isinstance(arg, Literal) and \
                    (not isinstance(arg.value, int) or arg.value <= 0):
                self.fail("window.ntile",
                          f"NTILE bucket count must be a positive integer, "
                          f"got {arg.value!r}", path)
        elif func in _WINDOW_OFFSET and not call.args:
            self.fail("window.args", f"{what} requires an argument", path)
        elif func in ("SUM", "AVG", "MIN", "MAX") and len(call.args) != 1:
            self.fail("window.args",
                      f"{what} takes exactly one argument, got "
                      f"{len(call.args)}", path)
        if call.frame is not None:
            self._check_frame(call.frame, what, path)

    def _check_frame(self, frame: WindowFrame, what: str, path: str) -> None:
        if frame.unit not in ("rows", "range"):
            self.fail("window.frame",
                      f"{what}: unknown frame unit {frame.unit!r}", path)
        for kind, offset, end in ((frame.start_kind, frame.start_offset,
                                   "start"),
                                  (frame.end_kind, frame.end_offset, "end")):
            if kind not in _FRAME_KIND_RANK:
                self.fail("window.frame",
                          f"{what}: unknown frame bound {kind!r}", path)
            if kind in ("preceding", "following") and \
                    (not isinstance(offset, int) or offset < 0):
                self.fail("window.frame",
                          f"{what}: negative {end} offset {offset!r}", path)
        if _FRAME_KIND_RANK[frame.start_kind] > \
                _FRAME_KIND_RANK[frame.end_kind]:
            self.fail("window.frame",
                      f"{what}: frame start {frame.start_kind!r} is after "
                      f"its end {frame.end_kind!r}", path)
        if frame.unit == "range" and not (
                frame.start_kind == "unbounded_preceding"
                and frame.end_kind in ("current", "unbounded_following")):
            self.fail("window.frame",
                      f"{what}: the engine evaluates RANGE frames only as "
                      f"UNBOUNDED PRECEDING .. CURRENT ROW/UNBOUNDED "
                      f"FOLLOWING", path)

    # -- projection / aggregation -----------------------------------------

    def _expand_items(self, select: Select,
                      rel: _RelInfo) -> Optional[list[SelectItem]]:
        """Mirror ``plan._expand_items`` over the synthesized schema."""
        items: list[SelectItem] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                if rel.opaque:
                    return None
                for col in rel.cols:
                    if col.internal or col.name.startswith("__mark_"):
                        continue
                    if item.expr.table is not None and not any(
                            c.binding == item.expr.table
                            and c.name == col.name for c in rel.cols):
                        continue
                    items.append(SelectItem(
                        expr=ColumnRef(name=col.name, table=item.expr.table),
                        alias=col.name))
            else:
                items.append(item)
        return items

    @staticmethod
    def _all_direct(rel: _RelInfo) -> bool:
        """Mirror of the planner's admission-check precondition: kinds are
        planner-grade only when every input relation is a base catalog
        table (CTE or derived-table columns poison the whole body)."""
        return not rel.opaque and all(
            c.direct for c in rel.cols if not c.internal)

    def _planner_kind(self, expr: Expr, cols: list[ColInfo],
                      all_direct: bool) -> tuple[Optional[str], bool]:
        """(kind, planner-grade?) of *expr*, no more knowing than
        ``Planner._item_kind`` — the contract that keeps type-agreement
        rules free of false positives."""
        if isinstance(expr, ColumnRef):
            info = _resolve(cols, expr)
            if info is None:
                return None, False
            return info.kind, info.direct and all_direct
        if isinstance(expr, Literal):
            kind = _literal_kind(expr.value)
            return kind, all_direct and kind in ("numeric", "string")
        if isinstance(expr, AggCall):
            if expr.func.upper() in ("COUNT", "SUM", "AVG", "STDDEV", "VAR"):
                return "numeric", all_direct
            if expr.arg is not None:
                return self._planner_kind(expr.arg, cols, all_direct)
        kind, _ = _expr_kind(expr, cols)
        return kind, False

    def _projected(self, select: Select, rel: _RelInfo,
                   path: str) -> _RelInfo:
        items = self._expand_items(select, rel)
        if items is None:
            return _RelInfo([], opaque=True)
        exprs = [it.expr for it in items]
        self.check_exprs(exprs, rel.cols, path)
        all_direct = self._all_direct(rel)
        cols = []
        for i, it in enumerate(items):
            kind, nullable = _expr_kind(it.expr, rel.cols)
            _, direct = self._planner_kind(it.expr, rel.cols, all_direct)
            cols.append(ColInfo(p.output_name(it, i), None, kind,
                                nullable, direct=direct))
        return _RelInfo(cols, opaque=rel.opaque)

    def visit_Project(self, op: p.Project, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        # Sort / TopK above evaluate these keys over this input.
        self.check_exprs([o.expr for o in op.select.order_by], rel.cols, path)
        for sub in walk(op.select):
            if isinstance(sub, WindowCall) and id(sub) not in rel.window_ids:
                self.fail("window.placement",
                          f"projection uses window function {sub.func} but "
                          f"no Window child below computes it", path)
        return self._projected(op.select, rel, path)

    def visit_HashAggregate(self, op: p.HashAggregate, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        select = op.select
        # WHERE and ON were planned below; the rest is evaluated here.
        self.check_exprs([e for clause, exprs in clauses(select)
                          if clause not in ("joins", "where") for e in exprs],
                         rel.cols, path)
        all_direct = self._all_direct(rel)
        for sub in walk(select):
            if isinstance(sub, WindowCall):
                self.fail("window.in-aggregate",
                          f"window function {sub.func} inside a "
                          f"HashAggregate (windows evaluate over the "
                          f"post-aggregate relation)", path)
            if isinstance(sub, AggCall) and sub.arg is not None and \
                    sub.func.upper() in ("SUM", "AVG", "STDDEV", "VAR"):
                kind, direct = self._planner_kind(sub.arg, rel.cols,
                                                  all_direct)
                # "string" kind from a column is object dtype, which
                # legally holds all-NULL / promoted-numeric data — only
                # the planner's bind-time data probe can confirm
                # string-ness.  Statically certain cases: date columns
                # (their own dtype) and string literals.
                definite = kind == "date" or (
                    kind == "string" and isinstance(sub.arg, Literal)
                )
                if direct and definite:
                    self.fail("agg.input",
                              f"{sub.func} over a {kind} argument", path)
        return self._projected(select, rel, path)

    # -- reshaping / ordering ---------------------------------------------

    def visit_Distinct(self, op: p.Distinct, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        return _RelInfo(rel.cols, opaque=rel.opaque)

    def visit_Sort(self, op: p.Sort, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        if not op.order_by:
            self.fail("sort.keys", "Sort with no order keys", path)
        return _RelInfo(rel.cols, opaque=rel.opaque)

    def visit_TopK(self, op: p.TopK, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        if not op.order_by:
            self.fail("topk.preconditions", "TopK with no order keys", path)
        if not isinstance(op.n, int) or op.n < 0:
            self.fail("topk.preconditions",
                      f"TopK with invalid row count {op.n!r}", path)
        if not self.config.topk_rewrite:
            self.fail("topk.preconditions",
                      "TopK present but EngineConfig.topk_rewrite is off "
                      "(the rewrite must not fire)", path)
        return _RelInfo(rel.cols, opaque=rel.opaque)

    def visit_Limit(self, op: p.Limit, path: str) -> _RelInfo:
        rel = self.child(op.child, path)
        if not isinstance(op.n, int) or op.n < 0:
            self.fail("limit.n", f"invalid limit {op.n!r}", path)
        return _RelInfo(rel.cols, opaque=rel.opaque)

    # -- distribution -----------------------------------------------------

    def visit_Exchange(self, op: p.Exchange, path: str) -> _RelInfo:
        """The ``shard.*`` rules: everything the merge-identity argument
        (docs/ARCHITECTURE.md "Sharded execution") leans on."""
        rel = self.child(op.child, path)
        expect = 0
        for lo, hi in op.ranges:
            if lo >= hi:
                self.fail("shard.partition.nonempty",
                          f"empty partition range [{lo}, {hi})", path)
            if lo != expect:
                self.fail("shard.partition.cover",
                          f"range [{lo}, {hi}) breaks coverage at chunk "
                          f"{expect} (a gap drops rows; an overlap "
                          f"double-counts them)", path)
            expect = hi
        nchunks = expect  # unknown without a catalog
        if self.catalog is not None and self.catalog.has(op.table):
            nchunks = self.catalog.get(op.table).nchunks
        if not op.ranges or expect != nchunks:
            self.fail("shard.partition.cover",
                      f"ranges cover {expect} of {nchunks} chunk(s) of "
                      f"{op.table!r}", path)

        stage = op.child
        if isinstance(stage, p.HashAggregate):
            for sub in walk(stage.select):
                if isinstance(sub, AggCall) and (
                        sub.distinct or sub.func not in MERGEABLE_AGGS):
                    self.fail("shard.agg.mergeable",
                              f"partial stage computes "
                              f"{p.expr_to_str(sub)}, which has no "
                              f"partial/final decomposition", path)
            below = stage.child
        elif isinstance(stage, p.TopK) and isinstance(stage.child, p.Project):
            keys_ok = all(
                isinstance(o.expr, ColumnRef) and o.expr.table is None
                and (rel.opaque or _resolve(rel.cols, o.expr) is not None)
                for o in stage.order_by)
            if stage.n > _MAX_TOPK_LIMIT or not keys_ok:
                self.fail("shard.topk.bounded",
                          f"partial Top-K must keep at most "
                          f"{_MAX_TOPK_LIMIT} rows ordered by output "
                          f"columns, got {stage.label()}", path)
            below = stage.child.child
        else:
            self.fail("shard.subtree",
                      f"{type(stage).__name__} is not a partial stage "
                      f"(HashAggregate, or TopK over Project)", path)

        scans = p.Exchange.input_scans(below)
        if scans is None:
            self.fail("shard.subtree",
                      "an operator below the partial stage cannot run in a "
                      "shard worker", path)
        for scan in scans:
            if scan.table in self.env or (
                    self.catalog is not None and not (
                        self.catalog.has(scan.table)
                        and self.catalog.get(scan.table).stored)):
                self.fail("shard.subtree",
                          f"scan of {scan.table!r}, which is not a stored "
                          f"table every worker can open", path)
        partition_scans = sum(scan.table == op.table for scan in scans)
        if partition_scans != 1:
            self.fail("shard.subtree",
                      f"partition table {op.table!r} is scanned "
                      f"{partition_scans} time(s) below the Exchange "
                      f"(must be exactly once)", path)
        return _RelInfo([ColInfo(c.name, None, c.kind, c.nullable)
                         for c in rel.cols], opaque=rel.opaque)

    def visit_SetOp(self, op: p.SetOp, path: str) -> _RelInfo:
        left = self.child(op.left, path)
        right = self.child(op.right, path)
        if op.op not in ("union", "intersect", "except"):
            self.fail("setop.op", f"unknown set operation {op.op!r}", path)
        width = len(op.columns)
        for side, rel in (("left", left), ("right", right)):
            if not rel.opaque and len(rel.cols) != width:
                self.fail("setop.arity",
                          f"{side} operand produces {len(rel.cols)} "
                          f"column(s), set operation declares {width}", path)
        kinds = [None] * width
        if not left.opaque and not right.opaque:
            for i, (lc, rc) in enumerate(zip(left.cols, right.cols)):
                # Planner-grade kinds only: runtime promotion makes mixed
                # CTE/derived/expression columns legal, and the planner's
                # own _check_type_compatibility already rejected every
                # statically-known mismatch — so one here is a bug.
                if lc.direct and rc.direct and lc.kind is not None and \
                        rc.kind is not None and lc.kind != rc.kind:
                    self.fail("setop.types",
                              f"column {i}: incomparable dtypes "
                              f"({lc.kind} vs {rc.kind})", path)
                kinds[i] = lc.kind if lc.kind == rc.kind else None
            names = [c.name for c in left.cols]
            alt = [c.name for c in right.cols]
            # The planner may swap INTERSECT operands by cardinality, so
            # the declared columns can come from either written side.
            if op.columns != names and not (op.op == "intersect"
                                            and op.columns == alt):
                self.fail("setop.columns",
                          f"declared columns {op.columns!r} match neither "
                          f"operand ({names!r} / {alt!r})", path)
        cols = [ColInfo(name, None, kind)
                for name, kind in zip(op.columns, kinds)]
        return _RelInfo(cols)


def _env_cols(rel: "Any") -> list[ColInfo]:
    """Normalize an env entry (Chunk or RelSchema) to ColInfo columns."""
    if isinstance(rel, RelSchema):
        return [ColInfo(name, None) for name in rel.columns]
    if isinstance(rel, Chunk):
        return [
            ColInfo(name, None, _DTYPE_KINDS.get(rel.dtype(i).kind))
            for i, name in enumerate(rel.columns)
        ]
    return [ColInfo(name, None) for name in rel.columns]


def verify_plan(plan: p.PhysicalPlan, catalog: "Catalog | None" = None,
                config: "EngineConfig | None" = None,
                env: EnvSchemas = None) -> None:
    """Check every structural invariant of *plan*; raise on the first
    violation.

    ``catalog`` supplies base-table schemas (dtype kinds, zone maps);
    ``env`` maps CTE names to their materialized chunks (execution path)
    or :class:`~repro.sqlengine.planner.RelSchema` (explain path).
    Either may be ``None``, in which case the corresponding checks relax
    to unknown-dtype leniency rather than failing.
    """
    from ..sqlengine.executor import EngineConfig

    _Verifier(catalog, config or EngineConfig(), env).verify(plan)
