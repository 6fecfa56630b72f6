"""Expression evaluation over runtime chunks.

The evaluator resolves column references through a :class:`Scope` (alias ->
slot mapping built by the operators) and applies SQL null semantics
(comparisons with NULL are false, arithmetic propagates NULL via NaN/None).
It never sees a subquery: the planner replaces each one with a column of a
subquery operator below or a placeholder an ``InitPlan`` above binds
(``$N``; for ``x IN (SELECT ...)`` a set-valued item of an ``InList``).

Dictionary-encoded columns (:class:`~.table.DictColumn`) get one rule, not
one per operator: a sub-expression whose only column input is a single
encoded column is evaluated once over the dictionary entries the chunk
still holds and the result gathered by the codes (:meth:`Evaluator._lifted`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import SQLBindError
from ..dataframe._common import coerce_array, isna_array
from ..dataframe.strings import like_matcher
from .functions import call_function
from .grouping import GroupedColumn, GroupLayout
from .sqlast import (
    AggCall, BetweenExpr, BinaryOp, CaseExpr, CastExpr, ColumnRef, ExistsExpr,
    Expr, FuncCall, InList, InSubquery, IsNull, LikeExpr, Literal, Parameter,
    ScalarSubquery, Star, UnaryOp, WindowCall, children, expr_key, walk,
)
from .table import Chunk, DictColumn, isna

__all__ = ["Scope", "Evaluator", "expr_columns", "contains_aggregate",
           "has_subquery", "has_window", "sql_aggregate"]


class Scope:
    """Maps (qualifier, column) names to slots of a chunk."""

    def __init__(self):
        self.qualified: dict[tuple[str, str], int] = {}
        self.unqualified: dict[str, int] = {}
        self.ambiguous: set[str] = set()
        self.parent: Optional["Scope"] = None

    def add(self, qualifier: str | None, column: str, slot: int) -> None:
        if qualifier is not None:
            self.qualified[(qualifier, column)] = slot
        if column in self.unqualified and self.unqualified[column] != slot:
            self.ambiguous.add(column)
        else:
            self.unqualified[column] = slot

    def resolve(self, ref: ColumnRef) -> int | None:
        if ref.table is not None:
            return self.qualified.get((ref.table, ref.name))
        if ref.name in self.ambiguous:
            raise SQLBindError(f"ambiguous column reference {ref.name!r}")
        return self.unqualified.get(ref.name)


def expr_columns(expr: Expr) -> list[ColumnRef]:
    """All column references in *expr* (excluding subquery bodies)."""
    return [e for e in walk(expr) if isinstance(e, ColumnRef)]


def aggregates_of(expr: Expr):
    """Yield every :class:`AggCall` in *expr*, outermost only.  A window
    call's own arguments and keys are not searched (an aggregate there is
    computed by the window's input, not by this expression)."""
    if isinstance(expr, AggCall):
        yield expr
    elif not isinstance(expr, WindowCall):
        for child in children(expr):
            yield from aggregates_of(child)


def contains_aggregate(expr: Expr) -> bool:
    return next(aggregates_of(expr), None) is not None


def has_subquery(expr: Expr) -> bool:
    """Does *expr* contain an IN/EXISTS/scalar subquery anywhere?"""
    return any(isinstance(e, (InSubquery, ExistsExpr, ScalarSubquery))
               for e in walk(expr))


def has_window(expr: Expr) -> bool:
    """Does *expr* contain a window call anywhere?"""
    return any(isinstance(e, WindowCall) for e in walk(expr))


_REDUCTIONS = {"SUM": "sum", "AVG": "mean", "MIN": "min", "MAX": "max",
               "COUNT": "count", "STDDEV": "std", "VAR": "var"}


def sql_aggregate(call: AggCall, layout: GroupLayout,
                  column: GroupedColumn | None) -> np.ndarray:
    """*call* per group of *layout* with SQL semantics, over *column* (its
    evaluated argument; None for ``COUNT(*)``): NULLs are skipped, and an
    aggregate over no non-NULL value is NULL — COUNT 0."""
    if column is None:
        return layout.counts
    if call.distinct:
        if call.func == "COUNT":
            return column.reduce("nunique")
        column = column.distinct()
    result = column.reduce(_REDUCTIONS[call.func])
    if call.func == "SUM":
        empty = column.counts == 0  # SQL SUM over no row is NULL, not 0
        if empty.any():
            result = result.astype(np.float64)
            result[empty] = np.nan
    elif result.dtype == object:
        result = coerce_array(result)
    return result


_CMP_OPS = {"=", "<>", "<", "<=", ">", ">="}

_PY_CMP = None  # lazily-built {op: np.frompyfunc} table for object arrays


def _is_null_scalar(value) -> bool:
    """Is a non-array comparison operand the SQL NULL (None/NaN/NaT)?"""
    if value is None:
        return True
    if isinstance(value, (float, np.floating)):
        return bool(np.isnan(value))
    if isinstance(value, np.datetime64):
        return bool(np.isnat(value))
    return False


def _object_compare_ufuncs():
    global _PY_CMP
    if _PY_CMP is None:
        import operator

        _PY_CMP = {
            op: np.frompyfunc(fn, 2, 1)
            for op, fn in (("=", operator.eq), ("<>", operator.ne),
                           ("<", operator.lt), ("<=", operator.le),
                           (">", operator.gt), (">=", operator.ge))
        }
    return _PY_CMP


def _null_safe_compare(left, right, op: str, n: int) -> np.ndarray:
    """Vectorized comparison with SQL semantics (NULL compares false)."""
    larr = left if isinstance(left, np.ndarray) else None
    rarr = right if isinstance(right, np.ndarray) else None

    # Date/string literal coercion.
    if larr is not None and larr.dtype.kind == "M" and isinstance(right, str):
        right = np.datetime64(right, "D")
    if rarr is not None and rarr.dtype.kind == "M" and isinstance(left, str):
        left = np.datetime64(left, "D")

    # A NULL scalar operand makes every comparison false, whatever the
    # other side is (scalars included — NaN/NaT must not leak a True
    # through the ufunc path below).
    if (larr is None and _is_null_scalar(left)) or \
            (rarr is None and _is_null_scalar(right)):
        return np.zeros(n, dtype=bool)

    obj = (larr is not None and larr.dtype == object) or (rarr is not None and rarr.dtype == object)
    if obj:
        # Vectorized object comparison: mask out NULLs, compare the valid
        # rows in one np.frompyfunc call (no per-row interpreter loop).
        valid = np.ones(n, dtype=bool)
        if larr is not None:
            valid &= ~isna_array(larr)
        if rarr is not None:
            valid &= ~isna_array(rarr)
        out = np.zeros(n, dtype=bool)
        if not valid.any():
            return out
        lv = larr[valid] if larr is not None else left
        rv = rarr[valid] if rarr is not None else right
        cmp = _object_compare_ufuncs()[op](lv, rv)
        out[valid] = np.asarray(cmp, dtype=object).astype(bool) \
            if isinstance(cmp, np.ndarray) else bool(cmp)
        return out

    ufunc = {"=": np.equal, "<>": np.not_equal, "<": np.less,
             "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}[op]
    with np.errstate(invalid="ignore"):
        result = ufunc(left, right)
    if isinstance(result, np.ndarray):
        for side in (larr, rarr):
            if side is not None and side.dtype.kind == "f":
                result &= ~np.isnan(side)
            if side is not None and side.dtype.kind == "M":
                result &= ~np.isnat(side)
    return result


def _arithmetic_operand(value):
    """*value* as an operand of arithmetic: a NULL scalar (literal,
    placeholder, empty scalar subquery) and an object column holding only
    NULLs (whose type nothing tells) become NaN, which propagates NULL."""
    if value is None:
        return np.nan
    if isinstance(value, np.ndarray) and value.dtype == object \
            and isna_array(value).all():
        return np.full(value.shape, np.nan)
    return value


# The row-wise scalar forms: their value on a row is a function of that
# row's column values alone, so one over a single encoded column can be
# evaluated per dictionary entry.  Aggregates, window calls, subqueries and
# any node not listed here are never lifted.
_ROW_FORMS = (BinaryOp, UnaryOp, FuncCall, CastExpr, CaseExpr, InList,
              BetweenExpr, IsNull, LikeExpr)
_CONSTANT = -1


def _constant(value) -> np.ndarray | None:
    """A typed scalar as the 0-d array of the dtype it broadcasts to (NULL
    is a float NaN), or None for any other value."""
    if value is None:
        return np.array(np.nan)
    if isinstance(value, (bool, np.bool_)):
        return np.array(bool(value))
    if isinstance(value, (int, np.integer)):
        return np.array(int(value), dtype=np.int64)
    if isinstance(value, (float, np.floating)):
        return np.array(float(value))
    if isinstance(value, np.datetime64):
        return np.array(value, dtype="datetime64[D]")
    if isinstance(value, str):
        out = np.empty((), dtype=object)
        out[()] = value
        return out
    return None


class _DictionaryScope:
    """Scope of the one-column relation a lifted expression runs over:
    every reference in it is that column."""

    @staticmethod
    def resolve(ref: ColumnRef) -> int:
        return 0


class Evaluator:
    """Evaluates expressions over a chunk, with optional grouped mode."""

    def __init__(self, chunk: Chunk, scope: Scope, params: dict | None = None):
        self.chunk = chunk
        self.scope = scope
        # Bound placeholder values ({index_or_name: value}); None when the
        # statement has none.
        self.params = params
        self._has_dict = DictColumn in map(chunk.kind, range(chunk.ncols))
        self._lift_slots: dict[int, tuple[Expr, int | None]] = {}
        # Grouped mode, entered by plan.aggregate once the operator's
        # aggregates are computed: the group layout, and the GROUP BY key
        # columns and the aggregates by expr_key.
        self.layout: GroupLayout | None = None
        self.group_key_values: dict[str, np.ndarray] = {}
        self.aggregates: dict[str, np.ndarray] = {}

    @property
    def nrows(self) -> int:
        if self.layout is not None:
            return self.layout.ngroups
        return self.chunk.nrows

    # -- entry points -------------------------------------------------------
    def eval(self, expr: Expr):
        """Evaluate to a numpy array (length nrows) or a python scalar."""
        return self._eval(expr)

    def eval_array(self, expr: Expr):
        """Evaluate to a column of length nrows.  A bare reference to a
        dictionary-encoded column comes back encoded (keys and projected
        columns stay codes); every other value is a numpy array."""
        return self._broadcast(self._eval(expr, keep_dict=True))

    def _array(self, expr: Expr) -> np.ndarray:
        return self._broadcast(self._eval(expr))

    def _broadcast(self, value):
        if isinstance(value, DictColumn) or (
                isinstance(value, np.ndarray) and value.ndim == 1
                and len(value) == self.nrows):
            return value
        n = self.nrows
        # Typed scalar fast paths: constants broadcast without the object
        # round-trip (this dominates COALESCE evaluation cost).
        const = _constant(value)
        if const is not None:
            return np.full(n, const, dtype=const.dtype)
        out = np.empty(n, dtype=object)
        out[:] = value
        return coerce_array(out)

    def eval_mask(self, expr: Expr) -> np.ndarray:
        value = self._eval(expr)
        if not isinstance(value, np.ndarray):
            return np.full(self.nrows, bool(value))
        if value.dtype != bool:
            value = value.astype(bool)
        return value

    # -- dispatch -------------------------------------------------------------
    def _eval(self, expr: Expr, keep_dict: bool = False):
        if self._has_dict and isinstance(expr, _ROW_FORMS):
            slot = self._lift_slot(expr)
            if slot is not None and slot != _CONSTANT:
                return self._lifted(expr, slot)
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise SQLBindError(f"cannot evaluate {type(expr).__name__}")
        value = method(expr)
        if not keep_dict and isinstance(value, DictColumn):
            value = value.decode()
        return value

    def _lift_slot(self, expr: Expr) -> int | None:
        """The slot of the one encoded column *expr* is a row-wise function
        of (``_CONSTANT`` when it reads no column); None when it reads a
        plain column, two columns, or is not a row-wise form.  Each node is
        judged once per evaluator."""
        known = self._lift_slots.get(id(expr))
        if known is not None:
            return known[1]
        if isinstance(expr, ColumnRef):
            slot = self.scope.resolve(expr)
            if slot is not None and self.chunk.kind(slot) is not DictColumn:
                slot = None
        elif isinstance(expr, (Literal, Parameter)):
            slot = _CONSTANT
        elif isinstance(expr, _ROW_FORMS):
            slot = _CONSTANT
            for child in children(expr):
                below = self._lift_slot(child)
                if below is None or \
                        (slot != below and _CONSTANT not in (slot, below)):
                    slot = None     # a plain column, or a second column
                    break
                slot = max(slot, below)
        else:
            slot = None
        # The node is kept with its verdict so its id cannot be reused.
        self._lift_slots[id(expr)] = (expr, slot)
        return slot

    def _lifted(self, expr: Expr, slot: int):
        """Evaluate *expr*, whose only column input is the encoded column
        at *slot* (comparison, IN, BETWEEN, LIKE, IS NULL, CASE, any scalar
        function), once per dictionary entry: the ordinary evaluator runs
        over the entries some row of the chunk holds — never over one an
        earlier filter removed, which a partial function such as CAST could
        reject — and the codes gather the result."""
        col = self._column(slot)
        held = np.bincount(col.codes, minlength=len(col.dictionary)) > 0
        entries = col.dictionary if held.all() else col.dictionary[held]
        value = Evaluator(Chunk(["entry"], [entries]), _DictionaryScope,
                          params=self.params)._eval(expr)
        if col.watch is not None:
            col.watch.count_dict(lifted=1)
        if not (isinstance(value, np.ndarray) and value.shape == entries.shape):
            return value
        if 0 < len(entries) < len(held):
            # Back to dictionary positions; an entry no row holds gets a
            # neighbour's value, which no code reads.
            value = value[np.maximum(np.cumsum(held) - 1, 0)]
        return value[col.codes]

    def _column(self, slot: int) -> np.ndarray:
        col = self.chunk.column(slot)
        if self.layout is not None:
            # Non-aggregate column in grouped context: representative value.
            return col[self.layout.first]
        return col

    def _eval_Literal(self, expr: Literal):
        return expr.value

    def _eval_Parameter(self, expr: Parameter):
        if self.params is None:
            raise SQLBindError(
                f"statement contains placeholder {expr!r} but no parameter "
                "values were bound"
            )
        try:
            return self.params[expr.key]
        except KeyError:
            raise SQLBindError(f"no value bound for placeholder {expr!r}") from None

    def _eval_ColumnRef(self, expr: ColumnRef):
        if self.layout is not None:
            key = expr_key(expr)
            if key in self.group_key_values:
                return self.group_key_values[key]
        slot = self.scope.resolve(expr)
        if slot is None:
            raise SQLBindError(f"cannot resolve column {expr!r}")
        return self._column(slot)

    def _eval_Star(self, expr: Star):
        raise SQLBindError("* is only allowed directly in a select list")

    def _eval_BinaryOp(self, expr: BinaryOp):
        op = expr.op
        if op in ("AND", "OR"):
            left = self.eval_mask(expr.left)
            right = self.eval_mask(expr.right)
            return left & right if op == "AND" else left | right
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if op in _CMP_OPS:
            return _null_safe_compare(left, right, op, self.nrows)
        if op == "||":
            lv = left if isinstance(left, np.ndarray) else np.full(self.nrows, left, dtype=object)
            rv = right if isinstance(right, np.ndarray) else np.full(self.nrows, right, dtype=object)
            out = np.empty(self.nrows, dtype=object)
            for i in range(self.nrows):
                a, b = lv[i], rv[i]
                out[i] = None if a is None or b is None else str(a) + str(b)
            return out
        left, right = _arithmetic_operand(left), _arithmetic_operand(right)
        # Date +/- interval.
        left, right = self._coerce_interval(left, right, op)
        with np.errstate(invalid="ignore", divide="ignore"):
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                larr = np.asarray(left)
                if larr.dtype.kind in ("i", "u") and not isinstance(right, np.ndarray) and isinstance(right, int):
                    return left / right  # python semantics: true division
                return np.true_divide(left, right)
            if op == "%":
                return np.mod(left, right)
        raise SQLBindError(f"unknown binary operator {op!r}")

    @staticmethod
    def _coerce_interval(left, right, op):
        if isinstance(right, np.timedelta64) or isinstance(left, np.timedelta64):
            return left, right
        return left, right

    def _eval_UnaryOp(self, expr: UnaryOp):
        if expr.op == "NOT" and isinstance(expr.operand, InList):
            # Fold the NOT into the IN node itself: its evaluator implements
            # the three-valued negation (NULL-aware NOT IN), whereas a plain
            # two-valued ~mask would leak rows whose predicate is UNKNOWN.
            from dataclasses import replace as _replace

            return self._eval(_replace(expr.operand,
                                       negated=not expr.operand.negated))
        value = self._eval(expr.operand)
        if expr.op == "-":
            return -_arithmetic_operand(value)
        if expr.op == "NOT":
            if isinstance(value, np.ndarray):
                return ~value.astype(bool)
            return not value
        raise SQLBindError(f"unknown unary operator {expr.op!r}")

    def _eval_FuncCall(self, expr: FuncCall):
        if expr.name == "INTERVAL":
            amount = int(self._eval(expr.args[0]))
            unit = str(self._eval(expr.args[1])).upper().rstrip("S")
            code = {"DAY": "D", "MONTH": "M", "YEAR": "Y", "WEEK": "W"}.get(unit)
            if code is None:
                raise SQLBindError(f"unsupported interval unit {unit!r}")
            return np.timedelta64(amount, code)
        args = [self._eval(a) for a in expr.args]
        return call_function(expr.name, args, self.nrows)

    def _eval_AggCall(self, expr: AggCall):
        """An aggregate the operator computed (plan.aggregate).  One it did
        not — ORDER BY naming an aggregate that is not projected — is
        reduced here over the same layout and remembered."""
        if self.layout is None:
            raise SQLBindError("aggregate used outside of an aggregation context")
        key = expr_key(expr)
        value = self.aggregates.get(key)
        if value is None:
            layout, column = self.layout, None
            if expr.arg is not None:
                self.layout = None  # the argument is evaluated per input row
                try:
                    column = GroupedColumn(layout, self.eval_array(expr.arg))
                finally:
                    self.layout = layout
            value = self.aggregates[key] = sql_aggregate(expr, layout, column)
        return value

    def _eval_CaseExpr(self, expr: CaseExpr):
        """The branches as nested ``np.where`` from the last one up; a
        constant branch value stays a 0-d array of the type it would
        broadcast to, so the result's type is that of the broadcast
        values."""
        conditions = [self.eval_mask(c) for c, _ in expr.branches]
        values = [self._case_value(v) for _, v in expr.branches]
        if expr.default is not None:
            default = self._case_value(expr.default)
        elif values[0].dtype == object:
            default = np.array(None, dtype=object)
        elif values[0].dtype.kind == "M":
            default = np.array(np.datetime64("NaT"), dtype=values[0].dtype)
        else:
            default = np.array(np.nan)
        target = default.dtype
        for v in values:
            if v.dtype != target:
                target = np.promote_types(v.dtype, target) if v.dtype != object and target != object else np.dtype(object)
        out = default.astype(target, copy=False)
        for cond, value in zip(reversed(conditions), reversed(values)):
            out = np.where(cond, value.astype(target, copy=False), out)
        return out

    def _case_value(self, expr: Expr) -> np.ndarray:
        value = self._eval(expr)
        const = _constant(value)
        return self._broadcast(value) if const is None else const

    def _eval_CastExpr(self, expr: CastExpr):
        value = self._array(expr.operand)
        t = expr.type_name
        if t in ("INT", "INTEGER", "BIGINT", "SMALLINT"):
            return value.astype(np.int64)
        if t in ("FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC"):
            return value.astype(np.float64)
        if t in ("VARCHAR", "TEXT", "CHAR", "STRING"):
            return np.array([None if v is None else str(v) for v in value.astype(object)], dtype=object)
        if t == "DATE":
            if value.dtype == object:
                return np.array([np.datetime64(v, "D") if v is not None else np.datetime64("NaT") for v in value], dtype="datetime64[D]")
            return value.astype("datetime64[D]")
        if t in ("BOOL", "BOOLEAN"):
            return value.astype(bool)
        raise SQLBindError(f"unsupported cast target {t!r}")

    def _eval_InList(self, expr: InList):
        """``x [NOT] IN (a, b, ...)`` with three-valued NULL semantics.

        ``x IN (...)`` is TRUE on a match, UNKNOWN (→ false) when ``x`` is
        NULL or the list contains a NULL and nothing matched.  ``NOT IN``
        negates the three-valued result, so an unmatched row is only kept
        when neither the operand nor any list item is NULL.  A placeholder
        bound to a column — the value set of an uncorrelated ``[NOT] IN
        (SELECT ...)`` — stands for every value in it under the same rules;
        ``NOT IN`` an empty one is TRUE for every row, NULL operands
        included.
        """
        from .joins import semi_join_flags

        n = self.nrows
        operand = self._array(expr.operand)
        mask = np.zeros(n, dtype=bool)
        item_null = np.zeros(n, dtype=bool)
        scalars: list = []
        sets: list = []
        for item in expr.items:
            value = self._eval(item, keep_dict=isinstance(item, Parameter))
            if isinstance(item, Parameter) and \
                    isinstance(value, (np.ndarray, DictColumn)):
                sets.append(value)
            elif isinstance(value, np.ndarray):
                mask |= _null_safe_compare(operand, value, "=", n)
                item_null |= isna_array(value)
            elif _is_null_scalar(value):
                item_null |= True
            else:
                scalars.append(value)
        if scalars:
            # All scalar literals resolve in one membership probe rather
            # than one full-column compare per item (long generated lists).
            if operand.dtype.kind == "M":
                build = np.array(
                    [np.datetime64(v, "D") if isinstance(v, str) else v
                     for v in scalars], dtype="datetime64[D]")
            else:
                build = coerce_array(np.array(scalars, dtype=object))
            mask |= semi_join_flags([operand], [build])
        for values in sets:
            mask |= semi_join_flags([operand], [values])
            item_null |= bool(isna(values).any())
        if not expr.negated:
            return mask
        if len(sets) == len(expr.items) and not any(map(len, sets)):
            return np.ones(n, dtype=bool)
        return ~mask & ~item_null & ~isna_array(operand)

    def _eval_BetweenExpr(self, expr: BetweenExpr):
        operand = self._eval(expr.operand)
        low = self._eval(expr.low)
        high = self._eval(expr.high)
        mask = _null_safe_compare(operand, low, ">=", self.nrows) & _null_safe_compare(operand, high, "<=", self.nrows)
        return ~mask if expr.negated else mask

    def _eval_IsNull(self, expr: IsNull):
        value = self._array(expr.operand)
        mask = isna_array(value)
        return ~mask if expr.negated else mask

    def _eval_LikeExpr(self, expr: LikeExpr):
        n = self.nrows
        pattern = expr.pattern
        if isinstance(pattern, Parameter):
            pattern = self._eval_Parameter(pattern)
            if pattern is not None and not isinstance(pattern, (str, np.str_)):
                raise SQLBindError(
                    f"LIKE pattern parameter must be a string, "
                    f"got {type(pattern).__name__}"
                )
        if pattern is None:
            # x LIKE NULL (or NOT LIKE NULL) is NULL: no row qualifies.
            return np.zeros(n, dtype=bool)
        operand = self._array(expr.operand).astype(object)
        matches = like_matcher(str(pattern), expr.escape)
        if expr.negated:
            # NULL operands stay false under NOT LIKE too (NOT NULL is NULL).
            return np.array(
                [isinstance(v, str) and matches(v) is None for v in operand],
                dtype=bool,
            )
        return np.array(
            [isinstance(v, str) and matches(v) is not None for v in operand],
            dtype=bool,
        )

    def _eval_WindowCall(self, expr: WindowCall):
        raise SQLBindError("window functions are evaluated by the executor")
