"""The Pandas/NumPy -> TondIR translator (Sections III-B/C/D of the paper).

A static abstract interpreter over the ANF-normalized function body: every
Python variable is bound to a symbolic value (:mod:`.symbols`), every
DataFrame/array operation appends TondIR rules.  The resulting program is
deliberately *unoptimized* — one rule per API call, exactly the
"Grizzly-simulated" baseline of the paper — and is then improved by the
optimizer passes (:mod:`..tondir.optimize`).

The pandas/NumPy surface is declared once.  Each supported call is one
emitter method ``_<kind>__<method>`` (the ``ast.NodeVisitor.visit_<Class>``
idiom), where the kind names the receiver: ``module`` (``np.*`` / ``pd.*``),
``frame``, ``array`` (a dense array, which also takes every ``frame``
call), ``series``, ``groupby``, ``sgb`` (a SeriesGroupBy), ``str`` and
``rolling``.  The emitter's signature after the receiver is what the call
accepts, with its defaults; a parameter annotated with types takes values of
those types, any other parameter a constant.  :func:`surface` lists it all,
and a call outside it (unknown method, unknown keyword, missing or extra
argument, a symbolic value where a constant belongs) raises one
:class:`TranslationError` naming the kind, the method and what the kind
supports.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import typing
from dataclasses import replace

import numpy as np

from ...errors import TranslationError
from ..anf import to_anf
from ..tondir.ir import (
    Agg, AssignAtom, BinOp, Const, ExistsAtom, Ext, FilterAtom,
    Head, If, OuterAtom, Program, RelAtom, Rule, SortSpec, Term, Var, Win, rename_term,
)
from .einsum_planner import _Emitter, lower_dense, lower_sparse, optimize_path, parse_spec
from .symbols import (
    ColumnInfo, SymConstArray, SymDtAccessor, SymFrame, SymGroupBy,
    SymRollingWindow, SymScalar, SymScalarRel, SymSeries, SymSeriesGroupBy,
    SymStrAccessor, sanitize,
)

__all__ = ["Translator", "TableInfo", "surface"]

_MODULES = {"np", "numpy", "pd", "pandas"}

_CMP_OPS = {
    ast.Eq: "=", ast.NotEq: "<>", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}
_BIN_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Mod: "%"}

_AGG_FUNCS = {"sum": "sum", "mean": "avg", "min": "min", "max": "max",
              "count": "count", "nunique": "count_distinct", "size": "size",
              "std": "stddev", "var": "var", "first": "min"}

# Pandas aggregate names usable as window (transform/rolling) functions.
_WIN_AGGS = {"sum": "sum", "mean": "avg", "min": "min", "max": "max",
             "count": "count", "size": "count"}
_RANK_METHODS = {"min": "rank", "dense": "dense_rank", "first": "row_number"}
_RUNNING_FRAME = ("rows", "unbounded_preceding", 0, "current", 0)
_CASTS = {"int": ("cast_int", "int"), "int64": ("cast_int", "int"),
          "float": ("cast_float", "float"), "float64": ("cast_float", "float"),
          "str": ("cast_str", "str")}
# merge(how=...) -> how the key columns join: one shared variable ("inner")
# or an OuterAtom of that kind.
_MERGE_HOWS = {"inner": "inner", "cross": "inner", "left": "left",
               "right": "right", "outer": "full"}
_DT_FIELDS = ("year", "month", "day")

# Python values a call argument may carry as a constant (lists of them and
# constant dicts too, see _is_constant).
_CONSTANTS = (bool, int, float, str, type(None))
_CONSTANT_TYPES = (dict,) + _CONSTANTS


class TableInfo:
    """Schema metadata for one input table, as seen by the translator."""

    def __init__(self, name: str, columns: list[str], dtypes: dict[str, str] | None = None,
                 unique: set[str] | None = None):
        self.name = name
        self.columns = list(columns)
        self.dtypes = dtypes or {}
        self.unique = unique or set()

    @classmethod
    def from_schema(cls, schema) -> "TableInfo":
        """Build from a :class:`repro.sqlengine.TableSchema`."""
        dtypes = {}
        for col, dt in zip(schema.columns, schema.dtypes):
            kind = getattr(dt, "kind", "O")
            dtypes[col] = {"i": "int", "u": "int", "f": "float", "b": "bool",
                           "M": "date"}.get(kind, "str")
        return cls(schema.name, schema.columns, dtypes, set(schema.unique_columns))


class _ModuleRef:
    def __init__(self, name: str):
        self.name = name


# What ``_as_series`` turns into a Series.
_Column = SymSeries | SymFrame


def _reduction(helper, method: str):
    """The emitter ``(self, receiver)`` of the reduction pandas calls *method*."""
    def emit(self, receiver):
        return helper(self, receiver, method)
    return emit


class Translator:
    """Translates one decorated function into a TondIR Program."""

    def __init__(
        self,
        tables: dict[str, TableInfo],
        pivot_values: dict[str, list] | None = None,
        layout: str = "dense",
        pivot_probe=None,
    ):
        self.tables = tables
        self.pivot_values = pivot_values or {}
        self.layout = layout
        # Optional callback (rel, column) -> list of distinct values, used
        # when pivot domains are not given in the decorator (the paper:
        # "or by querying the target columns before code generation").
        self.pivot_probe = pivot_probe
        self.rules: list[Rule] = []
        self.env: dict[str, object] = {}
        self._rel_counter = itertools.count(1)
        self._var_counter = itertools.count(1)
        self._emitter = _Emitter(new_rel=self.new_rel, emit=self.emit)

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------
    def new_rel(self) -> str:
        return f"v{next(self._rel_counter)}"

    def fresh_var(self, base: str = "x") -> str:
        return f"{sanitize(base)}_{next(self._var_counter)}"

    def emit(self, rule: Rule) -> None:
        self.rules.append(rule)

    def base_unique(self) -> dict[str, set[str]]:
        return {info.name: set(info.unique) for info in self.tables.values()}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def translate(self, func_def: ast.FunctionDef) -> Program:
        params = [a.arg for a in func_def.args.args]
        for param in params:
            info = self.tables.get(param)
            if info is None:
                raise TranslationError(
                    f"no table metadata for parameter {param!r}; pass tables={{...}}"
                )
            cols = [
                ColumnInfo(
                    name=c, var=sanitize(c),
                    dtype=info.dtypes.get(c, "unknown"),
                    unique=c in info.unique,
                )
                for c in info.columns
            ]
            kind = "sparse" if (self.layout == "sparse" and set(info.columns) >= {"val"}) else "frame"
            self.env[param] = SymFrame(rel=info.name, cols=cols, kind=kind)

        statements = to_anf(func_def)
        result: object = None
        for stmt in statements:
            if isinstance(stmt, ast.Return):
                result = self.eval_expr(stmt.value)
                break
            self.exec_stmt(stmt)
        if result is None:
            raise TranslationError("function must end in a return statement")
        sink = self._finalize(result)
        return Program(rules=self.rules, sink=sink)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                self.env[target.id] = self.eval_expr(stmt.value)
                return
            if isinstance(target, ast.Subscript):
                self._exec_setitem(target, stmt.value)
                return
        raise TranslationError(f"unsupported statement: {ast.dump(stmt)}")

    def _exec_setitem(self, target: ast.Subscript, value_node: ast.expr) -> None:
        frame_sym = self.eval_expr(target.value)
        key = self.eval_expr(target.slice)
        if not isinstance(key, SymScalar) or not isinstance(key.value, str):
            raise TranslationError("only df['column'] = ... assignment is supported")
        if not isinstance(frame_sym, SymFrame):
            raise TranslationError("subscript assignment requires a DataFrame")
        value = self.eval_expr(value_node)
        new_frame = self._frame_set_column(frame_sym, key.value, value)
        if isinstance(target.value, ast.Name):
            self.env[target.value.id] = new_frame
        else:
            raise TranslationError("subscript assignment target must be a name")

    def _frame_set_column(self, frame: SymFrame, name: str, value) -> SymFrame:
        if not frame.cols:  # empty DataFrame(): first column defines the frame
            series = self._as_series(value)
            return self._project_series_frame(series, name)
        if isinstance(value, SymScalar):
            value = SymSeries(frame=frame, term=Const(value.value), dtype=value.dtype)
        if isinstance(value, SymSeries) and value.frame.rel == frame.rel:
            return self._with_computed_column(frame, name, value)
        if isinstance(value, (SymSeries, SymFrame)):
            return self._implicit_join_column(frame, name, value)
        raise TranslationError(f"cannot assign {type(value).__name__} as a column")

    def _with_computed_column(self, frame: SymFrame, name: str, series: SymSeries) -> SymFrame:
        rel = self.new_rel()
        out_var = self._unique_var(name, frame.vars)
        body = [frame.atom()] + list(series.extra_atoms) + [AssignAtom(out_var, series.term)]
        existing = [c for c in frame.cols if c.name != name]
        head_vars = [c.var for c in existing] + [out_var]
        self.emit(Rule(Head(rel, head_vars), body))
        cols = [c.renamed(c.name) for c in existing]
        cols.append(ColumnInfo(name=name, var=out_var, dtype=series.dtype))
        return SymFrame(rel=rel, cols=cols, kind=frame.kind,
                        index_cols=list(frame.index_cols), hidden_id=frame.hidden_id,
                        ordering=list(frame.ordering) if frame.ordering else None)

    def _implicit_join_column(self, frame: SymFrame, name: str, value) -> SymFrame:
        """Appending a column from another frame: the paper's implicit join.

        Both sides get a UID column, are joined on it, and the new column is
        projected in (Section III-C "Implicit Joins").
        """
        series = self._as_series(value)
        other = series.frame
        left_id = self._ensure_uid_frame(frame)
        right_id = self._ensure_uid_frame(other)
        rel = self.new_rel()
        right_atom = right_id.atom()
        # Join on the shared ID variable.
        renames: dict[str, str] = {}
        left_vars = set(left_id.vars)
        for pos, col in enumerate(right_id.cols):
            if col.var == "__uid":
                continue
            if col.var in left_vars:
                renames[col.var] = self.fresh_var(col.var)
                right_atom.vars[pos] = renames[col.var]
        term = rename_term(series.term, renames)
        out_var = self._unique_var(name, left_id.vars)
        body = [left_id.atom(), right_atom, AssignAtom(out_var, term)]
        existing = [c for c in left_id.cols if c.name != name and c.var != "__uid"]
        head_vars = [c.var for c in existing] + [out_var]
        self.emit(Rule(Head(rel, head_vars), body))
        cols = [c.renamed(c.name) for c in existing]
        cols.append(ColumnInfo(name=name, var=out_var, dtype=series.dtype))
        return SymFrame(rel=rel, cols=cols, kind=frame.kind)

    def _ensure_uid_frame(self, frame: SymFrame) -> SymFrame:
        if any(c.var == "__uid" for c in frame.cols):
            return frame
        rel = self.new_rel()
        body = [frame.atom(), AssignAtom("__uid", Ext("uid", ()))]
        head_vars = ["__uid"] + frame.vars
        self.emit(Rule(Head(rel, head_vars), body))
        cols = [ColumnInfo(name="__uid", var="__uid", dtype="int", unique=True)]
        cols += [c.renamed(c.name) for c in frame.cols]
        return SymFrame(rel=rel, cols=cols, kind=frame.kind)

    def _project_series_frame(self, series: SymSeries, name: str) -> SymFrame:
        rel = self.new_rel()
        # The frame's variables are bound in the body: reusing one as the
        # output would read as an equality filter.
        out_var = self._unique_var(name, series.frame.vars)
        body = [series.frame.atom()] + list(series.extra_atoms) + [AssignAtom(out_var, series.term)]
        self.emit(Rule(Head(rel, [out_var]), body))
        return SymFrame(rel=rel, cols=[ColumnInfo(name=name, var=out_var, dtype=series.dtype)])

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval_expr(self, node: ast.expr):
        if isinstance(node, ast.Name):
            if node.id in _MODULES:
                return _ModuleRef(node.id)
            if node.id not in self.env:
                raise TranslationError(f"unknown variable {node.id!r}")
            return self.env[node.id]
        if isinstance(node, ast.Constant):
            return SymScalar(node.value, dtype=_py_dtype(node.value))
        if isinstance(node, ast.UnaryOp):
            return self._eval_unary(node)
        if isinstance(node, (ast.List, ast.Tuple)):
            # Constant elements flatten to python values; symbolic elements
            # (e.g. the frames of a pd.concat list) stay symbolic.
            return [self._argument(e) for e in node.elts]
        if isinstance(node, ast.Dict):
            return {
                self._const_value(k): self._const_value(v)
                for k, v in zip(node.keys, node.values)
            }
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node)
        if isinstance(node, ast.Compare):
            return self._eval_compare(node)
        if isinstance(node, ast.BoolOp):
            return self._eval_boolop(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Lambda):
            return node
        raise TranslationError(f"unsupported expression: {ast.dump(node)}")

    def _argument(self, node: ast.expr):
        """A call argument: a constant as its Python value, else symbolic."""
        value = self.eval_expr(node)
        return value.value if isinstance(value, SymScalar) else value

    def _key_list(self, value, what: str) -> list[str]:
        """Normalize a column-key argument (one name or a list of names)."""
        keys = list(value) if isinstance(value, list) else [value]
        if not all(isinstance(k, str) for k in keys):
            raise TranslationError(f"{what} expects column-name strings")
        return keys

    def _const_value(self, node: ast.expr):
        value = self._argument(node)
        if not _is_constant(value):
            raise TranslationError("expected a constant")
        return value

    # -- unary ----------------------------------------------------------------
    def _eval_unary(self, node: ast.UnaryOp):
        operand = self.eval_expr(node.operand)
        if isinstance(node.op, ast.USub):
            if isinstance(operand, SymScalar):
                return SymScalar(-operand.value, operand.dtype)
            series = self._as_series(operand)
            return series.with_term(Ext("neg", (series.term,)))
        if isinstance(node.op, ast.Invert):
            series = self._as_series(operand)
            return self._negate_mask(series)
        raise TranslationError(f"unsupported unary operator {node.op!r}")

    def _negate_mask(self, series: SymSeries) -> SymSeries:
        exists = series.exists_atoms
        if exists:
            if len(exists) != 1 or not _is_true(series.term):
                raise TranslationError("cannot negate a combined mask containing isin")
            flipped = ExistsAtom(body=exists[0].body, negated=not exists[0].negated)
            out = series.with_term(Const(True))
            out.exists_atoms = [flipped]
            return out
        return series.with_term(Ext("not", (series.term,)), dtype="bool")

    # -- attribute ----------------------------------------------------------------
    def _eval_attribute(self, node: ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id in _MODULES:
            return _ModuleRef(f"{node.value.id}.{node.attr}")
        base = self.eval_expr(node.value)
        attr = node.attr
        if isinstance(base, SymFrame):
            if base.has_col(attr):
                return self._frame_col_series(base, attr)
            raise TranslationError(f"frame has no column {attr!r}")
        if isinstance(base, SymSeries):
            if attr == "str":
                return SymStrAccessor(base)
            if attr == "dt":
                return SymDtAccessor(base)
            raise TranslationError(f"unsupported Series attribute {attr!r}")
        if isinstance(base, SymDtAccessor):
            if attr not in _DT_FIELDS:
                raise TranslationError(f"unsupported .dt field {attr!r}")
            return _unary(base.series, attr, "int")
        raise TranslationError(f"unsupported attribute access {attr!r} on {type(base).__name__}")

    def _frame_col_series(self, frame: SymFrame, name: str) -> SymSeries:
        col = frame.col(name)
        return SymSeries(frame=frame, term=Var(col.var), name=name, dtype=col.dtype)

    # -- subscript ----------------------------------------------------------------
    def _eval_subscript(self, node: ast.Subscript):
        base = self.eval_expr(node.value)
        key = self.eval_expr(node.slice)
        if isinstance(base, SymFrame):
            if isinstance(key, SymScalar) and isinstance(key.value, str):
                return self._frame_col_series(base, key.value)
            if isinstance(key, list):
                return self._project(base, key)
            if isinstance(key, SymSeries):
                return self._filter_frame(base, key)
        if isinstance(base, SymSeries):
            if isinstance(key, SymSeries):
                filtered = self._filter_frame(base.frame, key)
                # Rebase the series term onto the filtered frame (same vars).
                return SymSeries(frame=filtered, term=base.term, name=base.name, dtype=base.dtype)
        if isinstance(base, SymGroupBy):
            if isinstance(key, SymScalar) and isinstance(key.value, str):
                return SymSeriesGroupBy(base, key.value)
            if isinstance(key, list):
                return SymGroupBy(base.frame, base.keys, base.as_index)
        if isinstance(base, SymStrAccessor) and isinstance(key, SymScalar):
            raise TranslationError("str slicing uses .str.slice(start, stop)")
        raise TranslationError(
            f"unsupported subscript {type(base).__name__}[{type(key).__name__}]"
        )

    def _project(self, frame: SymFrame, names: list[str]) -> SymFrame:
        cols = [frame.col(n) for n in names]
        rel = self.new_rel()
        ordering = None
        head_cols = [c.renamed(c.name) for c in cols]
        if frame.ordering is not None:
            # Keep ordering key columns alive (hidden) through projections so
            # a later head()/sink can re-establish the row order.
            kept = {c.var for c in cols}
            for var, _asc in frame.ordering:
                if var not in kept:
                    src = next((c for c in frame.cols if c.var == var), None)
                    if src is None:
                        break
                    head_cols.append(src.renamed(f"__ord_{var}"))
                    kept.add(var)
            else:
                ordering = list(frame.ordering)
        self.emit(Rule(Head(rel, [c.var for c in head_cols]), [frame.atom()]))
        return SymFrame(rel=rel, cols=head_cols, kind=frame.kind,
                        hidden_id=frame.hidden_id, ordering=ordering)

    def _filter_frame(self, frame: SymFrame, mask: SymSeries) -> SymFrame:
        if mask.frame.rel != frame.rel:
            raise TranslationError("filter mask must derive from the same DataFrame")
        rel = self.new_rel()
        body: list = [frame.atom()] + list(mask.extra_atoms) + list(mask.exists_atoms)
        if not _is_true(mask.term):
            body.append(FilterAtom(mask.term))
        self.emit(Rule(Head(rel, list(frame.vars)), body))
        return SymFrame(rel=rel, cols=[c.renamed(c.name) for c in frame.cols],
                        kind=frame.kind, index_cols=list(frame.index_cols),
                        hidden_id=frame.hidden_id,
                        ordering=list(frame.ordering) if frame.ordering else None)

    # -- binary / compare / bool ----------------------------------------------------
    def _as_series(self, value) -> SymSeries:
        if isinstance(value, SymSeries):
            return value
        if isinstance(value, SymFrame) and len(value.cols) == 1:
            return self._frame_col_series(value, value.cols[0].name)
        if isinstance(value, SymFrame) and value.kind == "array" and value.width == 1:
            # A column vector behaves as a Series (its ID column is the index).
            return self._frame_col_series(value, value.value_cols()[0].name)
        if isinstance(value, SymFrame) and value.index_cols and len(value.cols) == len(value.index_cols) + 1:
            value_col = next(c for c in value.cols if c.name not in value.index_cols)
            return self._frame_col_series(value, value_col.name)
        raise TranslationError(f"expected a Series, got {type(value).__name__}")

    def _coerce_operand(self, value, reference: SymSeries | None):
        """Turn an operand into (term, extra_atoms, dtype)."""
        if isinstance(value, SymScalar):
            value = value.value
        if isinstance(value, _CONSTANTS):
            if (
                reference is not None and reference.dtype == "date"
                and isinstance(value, str)
            ):
                value = np.datetime64(value, "D")
            return Const(value), [], _py_dtype(value)
        if isinstance(value, SymScalarRel):
            return Var(value.var), [value.atom()], value.dtype
        if isinstance(value, SymSeries):
            if reference is not None and value.frame.rel != reference.frame.rel:
                raise TranslationError(
                    "cannot combine Series from different DataFrames; merge them first"
                )
            return value.term, list(value.extra_atoms), value.dtype
        raise TranslationError(f"unsupported operand {type(value).__name__}")

    def _eval_binop(self, node: ast.BinOp):
        left = self.eval_expr(node.left)
        right = self.eval_expr(node.right)
        # Pandas boolean masks combine with & / | (ast.BitAnd / ast.BitOr).
        if isinstance(node.op, ast.BitAnd):
            return self._combine_masks("and", [left, right])
        if isinstance(node.op, ast.BitOr):
            return self._combine_masks("or", [left, right])
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            raise TranslationError(f"unsupported binary operator {node.op!r}")
        if isinstance(left, SymScalar) and isinstance(right, SymScalar):
            return SymScalar(_fold_py(op, left.value, right.value))
        if isinstance(left, SymScalarRel) and isinstance(right, (SymScalar, SymScalarRel)) or (
            isinstance(right, SymScalarRel) and isinstance(left, SymScalar)
        ):
            return self._scalar_rel_binop(op, left, right)
        if isinstance(left, (SymFrame,)) and left.kind == "array":
            return self._array_elementwise(op, left, right)
        if isinstance(right, SymFrame) and right.kind == "array":
            return self._array_elementwise(op, right, left, swapped=True)
        series_ref = left if isinstance(left, SymSeries) else right if isinstance(right, SymSeries) else None
        lt, lx, ld = self._coerce_operand(left, series_ref if isinstance(right, SymSeries) else None)
        rt, rx, rd = self._coerce_operand(right, series_ref if isinstance(left, SymSeries) else None)
        frame = series_ref.frame if series_ref is not None else None
        if frame is None:
            raise TranslationError("binary operation needs at least one Series")
        dtype = "float" if op == "/" else ("float" if "float" in (ld, rd) else ld or rd)
        return SymSeries(frame=frame, term=BinOp(op, lt, rt), dtype=dtype, extra_atoms=lx + rx)

    def _scalar_rel_binop(self, op: str, left, right) -> SymScalarRel:
        body: list = []
        terms: list[Term] = []
        for side in (left, right):
            if isinstance(side, SymScalarRel):
                body.append(side.atom())
                terms.append(Var(side.var))
            else:
                terms.append(Const(side.value))
        var = f"s_{next(self._var_counter)}"
        body.append(AssignAtom(var, BinOp(op, terms[0], terms[1])))
        rel = self.new_rel()
        self.emit(Rule(Head(rel, [var]), body))
        return SymScalarRel(rel=rel, var=var, dtype="float")

    def _array_elementwise(self, op: str, array: SymFrame, other, swapped: bool = False):
        if not isinstance(other, SymScalar):
            raise TranslationError("array elementwise ops support scalars only")
        const = Const(other.value)
        values = array.value_cols()
        out_vars = [self.fresh_var(c.var) for c in values]
        body: list = [array.atom()]
        for out, col in zip(out_vars, values):
            term = BinOp(op, const, Var(col.var)) if swapped else BinOp(op, Var(col.var), const)
            body.append(AssignAtom(out, term))
        rel = self.new_rel()
        id_cols = [c for c in array.cols if c.var == "ID"]
        head = [c.var for c in id_cols] + out_vars
        self.emit(Rule(Head(rel, head), body))
        cols = [c.renamed(c.name) for c in id_cols]
        cols += [ColumnInfo(name=v, var=v, dtype="float") for v in out_vars]
        return SymFrame(rel=rel, cols=cols, kind="array")

    def _eval_compare(self, node: ast.Compare):
        op = _CMP_OPS.get(type(node.ops[0]))
        if op is None:
            raise TranslationError(f"unsupported comparison {node.ops[0]!r}")
        left = self.eval_expr(node.left)
        right = self.eval_expr(node.comparators[0])
        if isinstance(left, SymFrame) and left.kind == "array" and left.width == 1:
            left = self._as_series(left)
        if isinstance(right, SymFrame) and right.kind == "array" and right.width == 1:
            right = self._as_series(right)
        series_ref = left if isinstance(left, SymSeries) else right if isinstance(right, SymSeries) else None
        if series_ref is None:
            raise TranslationError("comparison needs at least one Series")
        lt, lx, _ = self._coerce_operand(left, series_ref)
        rt, rx, _ = self._coerce_operand(right, series_ref)
        return SymSeries(frame=series_ref.frame, term=BinOp(op, lt, rt), dtype="bool",
                         extra_atoms=lx + rx)

    def _eval_boolop(self, node: ast.BoolOp):
        op = "and" if isinstance(node.op, ast.And) else "or"
        values = [self.eval_expr(v) for v in node.values]
        return self._combine_masks(op, values)

    def _combine_masks(self, op: str, values: list) -> SymSeries:
        series = [self._as_series(v) for v in values]
        frame = series[0].frame
        exists: list[ExistsAtom] = []
        terms: list[Term] = []
        extra: list[RelAtom] = []
        for s in series:
            if s.frame.rel != frame.rel:
                raise TranslationError("cannot combine masks from different DataFrames")
            if s.exists_atoms and op == "or":
                raise TranslationError("isin masks cannot be OR-combined")
            exists.extend(s.exists_atoms)
            if not _is_true(s.term):
                terms.append(s.term)
            extra.extend(s.extra_atoms)
        term: Term = Const(True)
        if terms:
            term = terms[0]
            for t in terms[1:]:
                term = BinOp(op, term, t)
        return SymSeries(frame=frame, term=term, dtype="bool", extra_atoms=extra,
                         exists_atoms=exists)

    # ------------------------------------------------------------------
    # Calls: one lookup in the declared surface (_SURFACE, built below)
    # ------------------------------------------------------------------
    def _eval_call(self, node: ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id != "len" or len(node.args) != 1 or node.keywords:
                raise TranslationError(f"unsupported function {func.id!r}")
            target = self.eval_expr(node.args[0])
            return self._scalar_agg(self._count_series(target), "count")
        if not isinstance(func, ast.Attribute):
            raise TranslationError("unsupported call form")

        base = self.eval_expr(func.value)
        method = func.attr
        kind = _receiver_kind(base)
        if kind is None:
            what = base.name if isinstance(base, _ModuleRef) else type(base).__name__
            raise TranslationError(f"unsupported method {method!r} on {what}")
        call = _DISPATCH[kind].get(method)
        if call is None:
            raise _call_error(kind, method, "unsupported method")
        args = [self._argument(a) for a in node.args]
        kwargs = {kw.arg: self._argument(kw.value) for kw in node.keywords}
        mismatch = call.mismatch(args, kwargs)
        if mismatch:
            raise _call_error(kind, method, mismatch)
        try:
            return call.emit(self, base, *args, **kwargs)
        except TypeError:
            # Python's own call binds the arguments; the signature names
            # what is wrong when that binding, not the emitter, failed.
            try:
                call.signature.bind(self, base, *args, **kwargs)
            except TypeError as exc:
                raise _call_error(kind, method, str(exc)) from None
            raise

    def _count_series(self, target) -> SymSeries:
        if isinstance(target, SymFrame):
            return self._frame_col_series(target, target.cols[0].name)
        return self._as_series(target)

    # -- module: np.* / pd.* ---------------------------------------------------
    def _module__einsum(self, module, subscripts: str, *operands: object):
        return self._einsum_spec(subscripts, list(operands))

    def _module__array(self, module, object):
        return SymConstArray(values=object)

    def _module__sqrt(self, module, x: _Column):
        return _unary(self._as_series(x), "sqrt", "float")

    def _module__abs(self, module, x: _Column):
        return _unary(self._as_series(x), "abs")

    def _module__where(self, module, condition: _Column, x: object, y: object):
        cond = self._as_series(condition)
        tt, tx, td = self._coerce_operand(x, cond if isinstance(x, SymSeries) else None)
        ot, ox, _ = self._coerce_operand(y, cond if isinstance(y, SymSeries) else None)
        out = cond.with_term(If(cond.term, tt, ot), dtype=td)
        out.extra_atoms = cond.extra_atoms + tx + ox
        return out

    def _module__DataFrame(self, module):
        return SymFrame(rel="", cols=[])

    def _module__concat(self, module, frames: list):
        if not frames or not all(isinstance(f, SymFrame) for f in frames):
            raise TranslationError("pd.concat expects a list of DataFrames")
        return self._concat(frames)

    def _module__dot(self, module, a: object, b: object):
        return self._einsum_spec("ij,jk->ik", [a, b])

    def _einsum_spec(self, spec: str, operands: list):
        # A constant operand scales the other one (einsum_planner).
        operands = [SymScalar(op) if isinstance(op, _CONSTANTS) else op for op in operands]
        if self.layout == "sparse":
            return lower_sparse(self._emitter, spec, operands)
        inputs, output = parse_spec(spec)
        if len(inputs) > 2:
            ops = operands
            result = None
            for a, b, pair_spec in optimize_path(inputs, output):
                pair_ops = [ops[a], ops[b]] if a != b else [ops[a]]
                result = lower_dense(self._emitter, pair_spec, pair_ops)
                ops = [op for k, op in enumerate(ops) if k not in (a, b)]
                ops.append(result)
            return result
        return lower_dense(self._emitter, spec, operands)

    def _concat(self, frames: list[SymFrame]) -> SymFrame:
        """``pd.concat([...])`` as a TondIR union: one rule per input frame,
        all sharing the output head relation — the Datalog encoding of bag
        union, which :mod:`..codegen.sqlgen` renders as ``UNION ALL``.

        Columns align by name like the runtime ``concat`` (missing columns
        become NULL); a frame sharing no column with the others is rejected.
        """
        columns = list(dict.fromkeys(name for f in frames for name in f.column_names))
        # Same overlap rule as the eager dataframe concat: a frame sharing
        # no column with the rest is rejected (empty frames are allowed).
        for i, f in enumerate(frames):
            others = {name for j, g in enumerate(frames) if j != i for name in g.column_names}
            if f.column_names and others and not set(f.column_names) & others:
                raise TranslationError("pd.concat frames must share at least one column")
        rel = self.new_rel()
        out_cols: list[ColumnInfo] = []
        for name in columns:
            dtype = next((f.col(name).dtype for f in frames if f.has_col(name)),
                         "unknown")
            out_cols.append(ColumnInfo(name=name, var=self.fresh_var(name),
                                       dtype=dtype))
        for f in frames:
            body: list = [f.atom()]
            head_vars: list[str] = []
            for name in columns:
                if f.has_col(name):
                    head_vars.append(f.col(name).var)
                else:
                    null_var = self.fresh_var(name)
                    body.append(AssignAtom(null_var, Const(None)))
                    head_vars.append(null_var)
            self.emit(Rule(Head(rel, head_vars), body))
        return SymFrame(rel=rel, cols=out_cols, kind=frames[0].kind)

    # -- frame: DataFrame methods ----------------------------------------------
    def _frame__groupby(self, frame, by, as_index=True) -> SymGroupBy:
        return SymGroupBy(frame=frame, keys=self._key_list(by, "groupby"),
                          as_index=bool(as_index))

    def _frame__sort_values(self, frame, by, ascending=True) -> SymFrame:
        keys = self._key_list(by, "sort_values")
        if isinstance(ascending, list):
            ascending = [bool(a) for a in ascending]
        else:
            ascending = [bool(ascending)] * len(keys)
        if len(ascending) != len(keys):
            raise TranslationError("sort_values: ascending must match the sort keys")
        return self._emit_sort(frame, keys, ascending, limit=None)

    def _frame__nlargest(self, frame, n: int, columns) -> SymFrame:
        keys = self._key_list(columns, "nlargest")
        return self._emit_sort(frame, keys, [False] * len(keys), limit=n)

    def _frame__rename(self, frame, columns: dict) -> SymFrame:
        return replace(frame, cols=[c.renamed(columns.get(c.name, c.name)) for c in frame.cols])

    def _frame__reset_index(self, frame) -> SymFrame:
        return replace(frame, cols=[c.renamed(c.name) for c in frame.cols], index_cols=[])

    def _frame__drop_duplicates(self, frame, subset=None) -> SymFrame:
        target = self._project(frame, self._key_list(subset, "drop_duplicates")) if subset else frame
        rel = self.new_rel()
        self.emit(Rule(Head(rel, list(target.vars), distinct=True), [target.atom()]))
        return SymFrame(rel=rel, cols=[c.renamed(c.name) for c in target.cols], kind=frame.kind)

    def _frame__copy(self, frame) -> SymFrame:
        return frame

    def _frame__count(self, frame) -> SymScalarRel:
        return self._scalar_agg(self._count_series(frame), "count")

    def _frame__fillna(self, frame, value) -> SymFrame:
        return self._map_columns(frame, lambda v: Ext("coalesce", (v, Const(value))), frame.kind)

    def _map_columns(self, frame: SymFrame, term_of, kind: str) -> SymFrame:
        """One rule computing ``term_of(column)`` for every column."""
        rel = self.new_rel()
        body: list = [frame.atom()]
        cols = []
        for c in frame.cols:
            out = self.fresh_var(c.var)
            body.append(AssignAtom(out, term_of(Var(c.var))))
            cols.append(ColumnInfo(name=c.name, var=out, dtype=c.dtype))
        self.emit(Rule(Head(rel, [c.var for c in cols]), body))
        return SymFrame(rel=rel, cols=cols, kind=kind)

    def _emit_sort(self, frame: SymFrame, keys: list[str], ascending: list[bool], limit) -> SymFrame:
        rel = self.new_rel()
        key_pairs = [(frame.col(k).var, asc) for k, asc in zip(keys, ascending)]
        sort = SortSpec(keys=list(key_pairs), limit=limit)
        self.emit(Rule(Head(rel, list(frame.vars), sort=sort), [frame.atom()]))
        return SymFrame(rel=rel, cols=[c.renamed(c.name) for c in frame.cols],
                        kind=frame.kind, index_cols=list(frame.index_cols),
                        hidden_id=frame.hidden_id, ordering=list(key_pairs))

    def _frame__head(self, frame, n: int = 5) -> SymFrame:
        # Peephole: head() directly after sort_values folds into its rule so
        # ORDER BY + LIMIT stay in one CTE (Section III-E "Sort and Limit").
        defining = self.rules[-1] if self.rules else None
        if (
            defining is not None
            and defining.head.rel == frame.rel
            and defining.head.sort is not None
            and defining.head.sort.limit is None
        ):
            defining.head.sort.limit = n
            return frame
        rel = self.new_rel()
        keys = [kv for kv in (frame.ordering or []) if kv[0] in frame.vars]
        self.emit(Rule(Head(rel, list(frame.vars), sort=SortSpec(keys=keys, limit=n)),
                       [frame.atom()]))
        return SymFrame(rel=rel, cols=[c.renamed(c.name) for c in frame.cols], kind=frame.kind,
                        ordering=keys or None)

    def _frame__drop(self, frame, labels=None, axis=0, columns=None) -> SymFrame:
        if columns is None:
            if axis not in (1, "columns"):
                raise TranslationError("drop removes columns only: pass axis=1 or columns=")
            columns = labels
        names = self._key_list(columns, "drop")
        dropped = [c for c in frame.cols if c.name in names]
        kept = [c.renamed(c.name) for c in frame.cols if c.name not in names]
        # Keep a dropped unique id column alive under a hidden name so a
        # following to_numpy() can reuse it (the paper "ignores" such drops).
        hidden = next((c for c in dropped if c.unique and c.dtype == "int"), None)
        rel = self.new_rel()
        out_cols = list(kept)
        if hidden is not None:
            out_cols.append(ColumnInfo(name="__hidden_id", var=hidden.var,
                                       dtype=hidden.dtype, unique=True))
        self.emit(Rule(Head(rel, [c.var for c in out_cols]), [frame.atom()]))
        return SymFrame(rel=rel, cols=out_cols, kind=frame.kind)

    def _frame__to_numpy(self, frame) -> SymFrame:
        """Frame -> dense array (ID, c0..cn); reuses a unique id when known."""
        id_col = next(
            (c for c in frame.cols if c.unique and c.dtype == "int"), None
        )
        body: list = [frame.atom()]
        value_cols = [c for c in frame.cols if c is not id_col and c.name != "__hidden_id"]
        if id_col is None:
            body.append(AssignAtom("__uid", Ext("uid", ())))
            id_var = "__uid"
        else:
            id_var = id_col.var
        rel = self.new_rel()
        bound = set(frame.vars)
        out_vars = []
        for i, c in enumerate(value_cols):
            out = f"c{i}"
            if out == c.var:
                out_vars.append(out)
                continue
            if out in bound:
                out = self.fresh_var(out)
            body.append(AssignAtom(out, Var(c.var)))
            out_vars.append(out)
        if id_var != "ID":
            body.append(AssignAtom("ID", Var(id_var)))
        self.emit(Rule(Head(rel, ["ID"] + out_vars), body))
        cols = [ColumnInfo(name="ID", var="ID", dtype="int", unique=True)]
        cols += [ColumnInfo(name=v, var=v, dtype="float") for v in out_vars]
        return SymFrame(rel=rel, cols=cols, kind="array")

    def _frame__pivot_table(self, frame, index, columns, values, aggfunc="sum") -> SymFrame:
        distinct_values = self.pivot_values.get(columns)
        if distinct_values is None and self.pivot_probe is not None:
            # The base table providing the column, if its domain can be probed.
            base_rel = next((t.name for t in self.tables.values() if columns in t.columns), None)
            if base_rel is not None:
                distinct_values = self.pivot_probe(base_rel, columns)
        if distinct_values is None:
            raise TranslationError(
                f"pivot_table on {columns!r} needs pivot_values in the decorator "
                "(or a database connection to query them)"
            )
        func = _AGG_FUNCS.get(aggfunc, aggfunc)
        idx_col = frame.col(index)
        col_col = frame.col(columns)
        val_col = frame.col(values)
        rel = self.new_rel()
        body: list = [frame.atom()]
        out_vars = []
        out_cols = [ColumnInfo(name=index, var=idx_col.var, dtype=idx_col.dtype, unique=True)]
        for dv in distinct_values:
            out = self._unique_var(str(dv), frame.vars + out_vars)
            cond = BinOp("=", Var(col_col.var), Const(dv))
            if func == "count":
                # COUNT of a pivot cell = SUM(CASE WHEN match THEN 1 ELSE 0).
                agg = Agg("sum", If(cond, Const(1), Const(0)))
            elif func == "sum":
                agg = Agg("sum", If(cond, Var(val_col.var), Const(0)))
            else:
                # avg/min/max must ignore non-matching rows entirely (NULL).
                agg = Agg(func, If(cond, Var(val_col.var), Const(None)))
            body.append(AssignAtom(out, agg))
            out_vars.append(out)
            out_cols.append(ColumnInfo(name=str(dv), var=out, dtype="float"))
        self.emit(Rule(Head(rel, [idx_col.var] + out_vars, group=[idx_col.var]), body))
        return SymFrame(rel=rel, cols=out_cols, index_cols=[index])

    def _frame__agg(self, frame, func) -> SymFrame:
        agg_func = _lookup(_AGG_FUNCS, func, "frame aggregate")
        return self._map_columns(frame, lambda v: Agg(agg_func, v), "frame")

    _frame__aggregate = _frame__agg

    def _frame__apply(self, frame, func: ast.Lambda, axis=0) -> SymSeries:
        if axis != 1:
            raise TranslationError("apply supports lambda with axis=1 only")
        row_param = func.args.args[0].arg
        term = self._lambda_term(func.body, row_param, frame)
        return SymSeries(frame=frame, term=term, dtype="unknown")

    def _lambda_term(self, node: ast.expr, row: str, frame: SymFrame) -> Term:
        if isinstance(node, ast.Constant):
            return Const(node.value)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id == row:
            key = node.slice
            if isinstance(key, ast.Constant):
                return Var(frame.col(key.value).var)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == row:
            return Var(frame.col(node.attr).var)
        if isinstance(node, ast.BinOp):
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                raise TranslationError("unsupported operator in lambda")
            return BinOp(op, self._lambda_term(node.left, row, frame),
                         self._lambda_term(node.right, row, frame))
        if isinstance(node, ast.Compare) and len(node.ops) == 1:
            op = _CMP_OPS[type(node.ops[0])]
            return BinOp(op, self._lambda_term(node.left, row, frame),
                         self._lambda_term(node.comparators[0], row, frame))
        if isinstance(node, ast.IfExp):
            return If(self._lambda_term(node.test, row, frame),
                      self._lambda_term(node.body, row, frame),
                      self._lambda_term(node.orelse, row, frame))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return Ext("neg", (self._lambda_term(node.operand, row, frame),))
        raise TranslationError(f"unsupported lambda expression: {ast.dump(node)}")

    def _frame__merge(self, left, right: SymFrame, how="inner", on=None, left_on=None,
                      right_on=None, suffixes=("_x", "_y")) -> SymFrame:
        join = _lookup(_MERGE_HOWS, how, "merge how")
        if on is not None:
            left_on = right_on = on
        if how == "cross":
            left_keys: list[str] = []
            right_keys: list[str] = []
        else:
            if left_on is None or right_on is None:
                common = [c for c in left.column_names if c in set(right.column_names)]
                if not common:
                    raise TranslationError("no common columns to merge on")
                left_on = right_on = common
            left_keys = self._key_list(left_on, "merge")
            right_keys = self._key_list(right_on, "merge")

        from ...dataframe.merge import resolve_merged_columns

        left_pairs, right_pairs = resolve_merged_columns(
            left.column_names, right.column_names, left_keys, right_keys, suffixes
        )

        # Variable naming: join keys share a variable; everything else is
        # unique (Section III-C).
        used: list[str] = []
        left_atom = RelAtom(left.rel, [""] * len(left.cols))
        right_atom = RelAtom(right.rel, [""] * len(right.cols))
        out_cols: list[ColumnInfo] = []
        left_var_of: dict[str, str] = {}
        for pos, (col, (src, out_name)) in enumerate(zip(left.cols, left_pairs)):
            var = self._unique_var(out_name, used)
            used.append(var)
            left_atom.vars[pos] = var
            left_var_of[src] = var
            out_cols.append(ColumnInfo(name=out_name, var=var, dtype=col.dtype, unique=col.unique))

        key_var: dict[str, str] = {}
        for lk, rk in zip(left_keys, right_keys):
            key_var[rk] = left_var_of[lk]

        right_out: list[ColumnInfo] = []
        right_pair_map = dict(right_pairs)
        pairs_for_outer: list[tuple[str, str]] = []
        key_copies: list[AssignAtom] = []
        for pos, col in enumerate(right.cols):
            if col.name in key_var and join == "inner":
                shared = key_var[col.name]
                right_atom.vars[pos] = shared
                if col.name in right_pair_map:
                    # Differently-named keys keep the right column too
                    # (Pandas keeps both c_custkey and o_custkey).
                    var = self._unique_var(right_pair_map[col.name], used)
                    used.append(var)
                    key_copies.append(AssignAtom(var, Var(shared)))
                    right_out.append(ColumnInfo(name=right_pair_map[col.name], var=var,
                                                dtype=col.dtype, unique=col.unique))
                continue
            if col.name in key_var:
                # Outer joins keep both sides separate + OuterAtom pairs.
                var = self._unique_var(col.name + "_r", used)
                used.append(var)
                right_atom.vars[pos] = var
                pairs_for_outer.append((key_var[col.name], var))
                if col.name in right_pair_map:
                    right_out.append(ColumnInfo(name=right_pair_map[col.name], var=var,
                                                dtype=col.dtype, unique=col.unique))
                continue
            out_name = right_pair_map.get(col.name, col.name)
            var = self._unique_var(out_name, used)
            used.append(var)
            right_atom.vars[pos] = var
            right_out.append(ColumnInfo(name=out_name, var=var, dtype=col.dtype, unique=col.unique))

        body: list = [left_atom, right_atom] + key_copies
        if join != "inner":
            body.append(OuterAtom(kind=join, left_rel=0, right_rel=1, pairs=pairs_for_outer))
        out_cols += right_out

        # Key uniqueness: joining N:1 against a unique right key preserves
        # the left key's uniqueness (and vice versa).
        right_key_unique = all(right.col(rk).unique for rk in right_keys) if right_keys else False
        left_key_unique = all(left.col(lk).unique for lk in left_keys) if left_keys else False
        for c in out_cols:
            c.unique = c.unique and (right_key_unique if c.var in left_atom.vars else left_key_unique)

        rel = self.new_rel()
        self.emit(Rule(Head(rel, [c.var for c in out_cols]), body))
        return SymFrame(rel=rel, cols=out_cols)

    # -- array: dense array methods (an array also takes every frame call) ------
    def _array__sum(self, array, axis=None):
        spec = {None: "ij->", 0: "ij->j", 1: "ij->i"}.get(axis)
        if spec is None:
            raise TranslationError(f"array sum supports axis None, 0 or 1, not {axis!r}")
        if array.width == 1 and axis in (None, 0):
            spec = "i->"
        return self._einsum_spec(spec, [array])

    def _array__round(self, array, decimals: int = 0) -> SymFrame:
        values = array.value_cols()
        rel = self.new_rel()
        body: list = [array.atom()]
        out_vars = []
        for c in values:
            out = self.fresh_var(c.var)
            body.append(AssignAtom(out, Ext("round", (Var(c.var), Const(decimals)))))
            out_vars.append(out)
        self.emit(Rule(Head(rel, ["ID"] + out_vars), body))
        cols = [ColumnInfo(name="ID", var="ID", dtype="int", unique=True)]
        cols += [ColumnInfo(name=v, var=v, dtype="float") for v in out_vars]
        return SymFrame(rel=rel, cols=cols, kind="array")

    def _array__all(self, array) -> SymScalarRel:
        # all(v) == (min over the boolean-as-int values) for 0/1 data.
        values = array.value_cols()
        rel = self.new_rel()
        arg = values[0].var
        self.emit(Rule(Head(rel, ["v"]), [array.atom(), AssignAtom("v", Agg("min", Var(arg)))]))
        return SymScalarRel(rel=rel, var="v", dtype="float")

    def _array__nonzero(self, array) -> SymFrame:
        values = array.value_cols()
        rel = self.new_rel()
        body = [array.atom(), FilterAtom(BinOp("<>", Var(values[0].var), Const(0)))]
        self.emit(Rule(Head(rel, ["ID"]), body))
        return SymFrame(rel=rel, cols=[ColumnInfo(name="ID", var="ID", dtype="int", unique=True)],
                        kind="array")

    def _array__compress(self, array, condition: list, axis=None) -> SymFrame:
        if axis != 1:
            raise TranslationError("compress supports axis=1 only")
        kept = [c for keep, c in zip(condition, array.value_cols()) if keep]
        rel = self.new_rel()
        self.emit(Rule(Head(rel, ["ID"] + [c.var for c in kept]), [array.atom()]))
        cols = [ColumnInfo(name="ID", var="ID", dtype="int", unique=True)]
        cols += [c.renamed(c.name) for c in kept]
        return SymFrame(rel=rel, cols=cols, kind="array")

    def _array__transpose(self, array):
        return self._einsum_spec("ij->ji", [array])

    # -- series: Series methods -------------------------------------------------
    def _series_reduce(self, series: SymSeries, method: str) -> SymScalarRel:
        return self._scalar_agg(series, _AGG_FUNCS[method])

    _series__sum = _reduction(_series_reduce, "sum")
    _series__mean = _reduction(_series_reduce, "mean")
    _series__min = _reduction(_series_reduce, "min")
    _series__max = _reduction(_series_reduce, "max")
    _series__count = _reduction(_series_reduce, "count")
    _series__nunique = _reduction(_series_reduce, "nunique")
    _series__std = _reduction(_series_reduce, "std")
    _series__var = _reduction(_series_reduce, "var")

    def _series__unique(self, series) -> SymFrame:
        name = series.name or "value"
        rel = self.new_rel()
        var = self._unique_var(name, series.frame.vars)
        body = [series.frame.atom()] + list(series.extra_atoms) + [AssignAtom(var, series.term)]
        self.emit(Rule(Head(rel, [var], distinct=True), body))
        return SymFrame(rel=rel, cols=[ColumnInfo(name=name, var=var,
                                                  dtype=series.dtype, unique=True)])

    def _series__isin(self, series, values: list | SymSeries | SymFrame) -> SymSeries:
        if isinstance(values, list):
            return series.with_term(Ext("in_list", (series.term, Const(tuple(values)))), dtype="bool")
        target = self._as_series(values)
        # Freshen the inner relation's variables so they cannot capture
        # (and silently correlate with) same-named outer variables.
        inner_atom = RelAtom(target.frame.rel, [self.fresh_var(v) for v in target.frame.vars])
        inner_term = rename_term(target.term, dict(zip(target.frame.vars, inner_atom.vars)))
        inner = [inner_atom, FilterAtom(BinOp("=", inner_term, series.term))]
        out = series.with_term(Const(True), dtype="bool")
        out.exists_atoms = [ExistsAtom(body=inner, negated=False)]
        return out

    def _series__between(self, series, low: object, high: object) -> SymSeries:
        lt, lx, _ = self._coerce_operand(low, series)
        ht, hx, _ = self._coerce_operand(high, series)
        term = BinOp("and", BinOp(">=", series.term, lt), BinOp("<=", series.term, ht))
        out = series.with_term(term, dtype="bool")
        out.extra_atoms = series.extra_atoms + lx + hx
        return out

    def _series__round(self, series, decimals: int = 0) -> SymSeries:
        return series.with_term(Ext("round", (series.term, Const(decimals))), dtype="float")

    def _series__abs(self, series) -> SymSeries:
        return _unary(series, "abs")

    def _series__isna(self, series) -> SymSeries:
        return _unary(series, "isnull", "bool")

    def _series__notna(self, series) -> SymSeries:
        return _unary(series, "notnull", "bool")

    _series__isnull = _series__isna
    _series__notnull = _series__notna

    def _series__fillna(self, series, value) -> SymSeries:
        return series.with_term(Ext("coalesce", (series.term, Const(value))))

    def _series__astype(self, series, dtype) -> SymSeries:
        cast, out_dtype = _lookup(_CASTS, str(dtype), "astype target")
        return series.with_term(Ext(cast, (series.term,)), dtype=out_dtype)

    def _series__reset_index(self, series) -> SymSeries:
        return series

    def _series__to_numpy(self, series) -> SymFrame:
        return self._frame__to_numpy(self._project_series_frame(series, series.name or "c0"))

    def _series__head(self, series, n: int = 5) -> SymFrame:
        return self._frame__head(self._project_series_frame(series, series.name or "value"), n)

    def _series__value_counts(self, series) -> SymFrame:
        # GROUP BY value + COUNT(*), sorted by descending frequency.
        name = series.name or "value"
        rel = self.new_rel()
        key_var = self._unique_var(name, series.frame.vars)
        count_var = self._unique_var("count", series.frame.vars + [key_var])
        body = [series.frame.atom()] + list(series.extra_atoms)
        body.append(AssignAtom(key_var, series.term))
        body.append(AssignAtom(count_var, Agg("count", None)))
        self.emit(Rule(Head(rel, [key_var, count_var], group=[key_var],
                            sort=SortSpec([(count_var, False)])), body))
        cols = [ColumnInfo(name=name, var=key_var, dtype=series.dtype, unique=True),
                ColumnInfo(name="count", var=count_var, dtype="int")]
        return SymFrame(rel=rel, cols=cols, index_cols=[name],
                        ordering=[(count_var, False)])

    def _series__nlargest(self, series, n: int) -> SymFrame:
        return self._series_top(series, n, ascending=False)

    def _series__nsmallest(self, series, n: int) -> SymFrame:
        return self._series_top(series, n, ascending=True)

    def _series_top(self, series: SymSeries, n, ascending: bool) -> SymFrame:
        frame = self._project_series_frame(series, series.name or "value")
        return self._emit_sort(frame, [frame.cols[0].name], [ascending], limit=n)

    def _series__shift(self, series, periods: int = 1, fill_value=None) -> SymSeries:
        return self._shifted(series, (), periods, fill_value)

    def _series__rank(self, series, method="min", ascending=True) -> SymSeries:
        return self._ranked(series, (), method, ascending)

    def _series__cumsum(self, series) -> SymSeries:
        return self._running_sum(series, ())

    def _series__rolling(self, series, window: int,
                         min_periods: int | None = None) -> SymRollingWindow:
        if window <= 0:
            raise TranslationError("rolling window must be positive")
        return SymRollingWindow(series=series, window=window,
                                min_periods=window if min_periods is None else min_periods)

    def _scalar_agg(self, series: SymSeries, func: str) -> SymScalarRel:
        rel = self.new_rel()
        var = f"s_{next(self._var_counter)}"
        agg = Agg("count", None) if func == "size" else Agg(func, series.term)
        body = [series.frame.atom()] + list(series.extra_atoms) + [AssignAtom(var, agg)]
        self.emit(Rule(Head(rel, [var]), body))
        dtype = "int" if func in ("count", "count_distinct") else ("float" if func == "avg" else series.dtype)
        return SymScalarRel(rel=rel, var=var, dtype=dtype)

    # -- row-preserving windows, shared by Series, SeriesGroupBy and GroupBy ----
    def _positional_order(self, frame: SymFrame) -> tuple[SymFrame, tuple]:
        """An ORDER BY for positional window ops (shift/cumsum/rolling).

        A frame carrying an upstream ``sort_values`` ordering reuses it;
        otherwise the frame is extended with a ``uid()`` column (the paper's
        positional handle) and the window orders by that.
        """
        if frame.ordering:
            return frame, tuple((Var(v), asc) for v, asc in frame.ordering)
        uid_frame = self._ensure_uid_frame(frame)
        return uid_frame, ((Var("__uid"), True),)

    def _shifted(self, series: SymSeries, partition: tuple, periods, fill_value) -> SymSeries:
        frame, order = self._positional_order(series.frame)
        fill = () if fill_value is None else (Const(fill_value),)
        win = Win("lag" if periods >= 0 else "lead", (series.term, Const(abs(periods))) + fill,
                  partition, order)
        return SymSeries(frame=frame, term=win, name=series.name, dtype=series.dtype)

    def _ranked(self, series: SymSeries, partition: tuple, method, ascending) -> SymSeries:
        win = Win(_lookup(_RANK_METHODS, method, "rank method"), (), partition,
                  ((series.term, bool(ascending)),))
        return series.with_term(win, dtype="int")

    def _running_sum(self, series: SymSeries, partition: tuple) -> SymSeries:
        frame, order = self._positional_order(series.frame)
        win = Win("sum", (series.term,), partition, order, _RUNNING_FRAME)
        return SymSeries(frame=frame, term=win, name=series.name, dtype=series.dtype)

    def _transformed(self, series: SymSeries, partition: tuple, func) -> SymSeries:
        """``transform(func)``: the group aggregate broadcast back to rows."""
        win_func = _lookup(_WIN_AGGS, func, "transform aggregate")
        return series.with_term(Win(win_func, (series.term,), partition, ()),
                                dtype="float" if win_func == "avg" else None)

    # -- rolling: series.rolling(...) aggregates --------------------------------
    def _rolling_reduce(self, rolling: SymRollingWindow, method: str) -> SymSeries:
        func = _WIN_AGGS[method]
        series = rolling.series
        n = rolling.window
        frame2, order = self._positional_order(series.frame)
        spec = ("rows", "preceding", n - 1, "current", 0)
        agg = Win(func, (series.term,), (), order, spec)
        count = Win("count", (series.term,), (), order, spec)
        # Pandas semantics: fewer than `min_periods` observations -> NaN.
        term: Term = agg
        if rolling.min_periods > 0:
            term = If(BinOp(">=", count, Const(rolling.min_periods)), agg,
                      Const(None))
        dtype = "float" if func == "avg" else series.dtype
        return SymSeries(frame=frame2, term=term, name=series.name, dtype=dtype)

    _rolling__sum = _reduction(_rolling_reduce, "sum")
    _rolling__mean = _reduction(_rolling_reduce, "mean")
    _rolling__min = _reduction(_rolling_reduce, "min")
    _rolling__max = _reduction(_rolling_reduce, "max")
    _rolling__count = _reduction(_rolling_reduce, "count")

    # -- groupby: DataFrameGroupBy methods --------------------------------------
    def _groupby__size(self, gb) -> SymFrame:
        return self._emit_groupby(gb, [("size", None, "size")])

    def _groupby__agg(self, gb, spec=None, **named) -> SymFrame:
        items: list[tuple[str, str | None, str]] = []
        if isinstance(spec, dict):
            for src, func in spec.items():
                if isinstance(func, list):
                    for f in func:
                        items.append((f"{src}_{f}", src, f))
                else:
                    items.append((src, src, func))
        elif isinstance(spec, str):
            for c in gb.frame.cols:
                if c.name not in gb.keys:
                    items.append((c.name, c.name, spec))
        elif spec is not None:
            raise TranslationError("unsupported agg spec")
        for out_name, pair in named.items():
            if not isinstance(pair, list) or len(pair) != 2:
                raise TranslationError("named agg expects (column, func) tuples")
            items.append((out_name, pair[0], pair[1]))
        return self._emit_groupby(gb, items)

    _groupby__aggregate = _groupby__agg
    _groupby__sum = _reduction(_groupby__agg, "sum")
    _groupby__mean = _reduction(_groupby__agg, "mean")
    _groupby__min = _reduction(_groupby__agg, "min")
    _groupby__max = _reduction(_groupby__agg, "max")
    _groupby__count = _reduction(_groupby__agg, "count")
    _groupby__nunique = _reduction(_groupby__agg, "nunique")
    _groupby__first = _reduction(_groupby__agg, "first")

    def _groupby__transform(self, gb, func) -> SymFrame:
        partition = self._groupby_partition(gb)
        return self._groupby_windows(gb, lambda s: self._transformed(s, partition, func))

    def _groupby__cumsum(self, gb) -> SymFrame:
        frame, _ = self._positional_order(gb.frame)
        gb = SymGroupBy(frame=frame, keys=gb.keys, as_index=gb.as_index)
        partition = self._groupby_partition(gb)
        return self._groupby_windows(gb, lambda s: self._running_sum(s, partition))

    def _groupby__rank(self, gb, method="min", ascending=True) -> SymFrame:
        partition = self._groupby_partition(gb)
        return self._groupby_windows(
            gb, lambda s: self._ranked(s, partition, method, ascending))

    def _groupby_partition(self, gb: SymGroupBy) -> tuple:
        return tuple(Var(gb.frame.col(k).var) for k in gb.keys)

    def _groupby_windows(self, gb: SymGroupBy, window) -> SymFrame:
        """Row-preserving per-group windows: ``window`` (one of the Series
        helpers above) applied to every value column."""
        frame = gb.frame
        rel = self.new_rel()
        body: list = [frame.atom()]
        out_cols: list[ColumnInfo] = []
        for c in frame.cols:
            if c.name in gb.keys or c.var == "__uid":
                continue
            out = self.fresh_var(c.var)
            result = window(self._frame_col_series(frame, c.name))
            body.append(AssignAtom(out, result.term))
            out_cols.append(ColumnInfo(name=c.name, var=out, dtype=result.dtype))
        self.emit(Rule(Head(rel, [c.var for c in out_cols]), body))
        return SymFrame(rel=rel, cols=out_cols, kind=frame.kind)

    def _emit_groupby(self, gb: SymGroupBy, items: list[tuple[str, str | None, str]]) -> SymFrame:
        frame = gb.frame
        key_cols = [frame.col(k) for k in gb.keys]
        rel = self.new_rel()
        body: list = [frame.atom()]
        out_cols: list[ColumnInfo] = [c.renamed(c.name) for c in key_cols]
        out_vars = [c.var for c in key_cols]
        for out_name, src, func in items:
            func_ir = _AGG_FUNCS.get(func, func)
            var = self._unique_var(out_name, frame.vars + out_vars)
            agg = Agg("count", None) if func_ir == "size" else Agg(func_ir, Var(frame.col(src).var))
            body.append(AssignAtom(var, agg))
            out_vars.append(var)
            dtype = "int" if func_ir in ("count", "count_distinct", "size") else (
                "float" if func_ir == "avg" else (frame.col(src).dtype if src else "int")
            )
            out_cols.append(ColumnInfo(name=out_name, var=var, dtype=dtype))
        if len(key_cols) == 1:
            out_cols[0].unique = True
        self.emit(Rule(Head(rel, out_vars, group=[c.var for c in key_cols]), body))
        return SymFrame(rel=rel, cols=out_cols,
                        index_cols=list(gb.keys) if gb.as_index else [])

    # -- sgb: SeriesGroupBy methods (the GroupBy / Series twins' helpers) --------
    def _sgb__agg(self, sgb, func: str) -> SymFrame:
        return self._emit_groupby(sgb.groupby, [(sgb.column, sgb.column, func)])

    _sgb__aggregate = _sgb__agg
    _sgb__sum = _reduction(_sgb__agg, "sum")
    _sgb__mean = _reduction(_sgb__agg, "mean")
    _sgb__min = _reduction(_sgb__agg, "min")
    _sgb__max = _reduction(_sgb__agg, "max")
    _sgb__count = _reduction(_sgb__agg, "count")
    _sgb__nunique = _reduction(_sgb__agg, "nunique")

    def _sgb__size(self, sgb) -> SymFrame:
        return self._groupby__size(sgb.groupby)

    def _sgb_column(self, sgb: SymSeriesGroupBy) -> tuple[SymSeries, tuple]:
        """The grouped column as a Series, and the groups' partition."""
        gb = sgb.groupby
        return self._frame_col_series(gb.frame, sgb.column), self._groupby_partition(gb)

    def _sgb__transform(self, sgb, func) -> SymSeries:
        return self._transformed(*self._sgb_column(sgb), func)

    def _sgb__rank(self, sgb, method="min", ascending=True) -> SymSeries:
        return self._ranked(*self._sgb_column(sgb), method, ascending)

    def _sgb__cumsum(self, sgb) -> SymSeries:
        return self._running_sum(*self._sgb_column(sgb))

    def _sgb__shift(self, sgb, periods: int = 1, fill_value=None) -> SymSeries:
        return self._shifted(*self._sgb_column(sgb), periods, fill_value)

    # -- str: the .str accessor ---------------------------------------------------
    def _str__contains(self, acc, pat) -> SymSeries:
        return acc.series.with_term(Ext("contains", (acc.series.term, Const(pat))), dtype="bool")

    def _str__startswith(self, acc, prefix) -> SymSeries:
        return acc.series.with_term(Ext("startswith", (acc.series.term, Const(prefix))), dtype="bool")

    def _str__endswith(self, acc, suffix) -> SymSeries:
        return acc.series.with_term(Ext("endswith", (acc.series.term, Const(suffix))), dtype="bool")

    def _str__like(self, acc, pattern) -> SymSeries:
        return acc.series.with_term(BinOp("like", acc.series.term, Const(pattern)), dtype="bool")

    def _str__slice(self, acc, start: int | None = None, stop: int | None = None) -> SymSeries:
        start = start or 0
        length = (stop - start) if stop is not None else 10**6
        return acc.series.with_term(
            Ext("substr", (acc.series.term, Const(start + 1), Const(length))), dtype="str"
        )

    def _str__upper(self, acc) -> SymSeries:
        return _unary(acc.series, "upper", "str")

    def _str__lower(self, acc) -> SymSeries:
        return _unary(acc.series, "lower", "str")

    def _str__len(self, acc) -> SymSeries:
        return _unary(acc.series, "length", "int")

    def _str__strftime(self, acc, fmt) -> SymSeries:
        return acc.series.with_term(Ext("strftime", (acc.series.term, Const(fmt))), dtype="str")

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def _unique_var(self, base: str, used: list[str]) -> str:
        var = sanitize(base)
        if var not in used:
            return var
        return self.fresh_var(base)

    def _finalize(self, result) -> str:
        if isinstance(result, SymScalarRel):
            return result.rel
        if isinstance(result, SymSeries):
            result = self._project_series_frame(result, result.name or "value")
        if isinstance(result, SymFrame):
            visible_cols = [c for c in result.cols if not c.name.startswith("__")]
            has_hidden = len(visible_cols) != len(result.cols)
            defining = self.rules[-1] if self.rules else None
            if defining is not None and defining.head.rel == result.rel:
                # Rename head vars to the pandas-visible column names.
                mapping = {}
                for c in visible_cols:
                    out_name = sanitize(c.name)
                    if out_name != c.var:
                        mapping[c.var] = out_name
                if mapping or has_hidden:
                    # emit a projection instead of renaming in place (safe);
                    # hidden ordering columns stay bound in the body but are
                    # not projected.
                    rel = self.new_rel()
                    body: list = [result.atom()]
                    head_vars = []
                    for c in visible_cols:
                        out_name = self._unique_var(c.name, head_vars)
                        if out_name != c.var:
                            body.append(AssignAtom(out_name, Var(c.var)))
                        head_vars.append(out_name)
                    sort = defining.head.sort
                    if sort is not None:
                        defining.head.sort = None
                        sort = SortSpec(
                            keys=[(mapping.get(v, v), asc) for v, asc in sort.keys],
                            limit=sort.limit,
                        )
                    elif result.ordering:
                        sort = SortSpec(
                            keys=[(mapping.get(v, v), asc) for v, asc in result.ordering],
                        )
                    self.emit(Rule(Head(rel, head_vars, sort=sort), body))
                    return rel
                if defining.head.sort is None and result.ordering:
                    # Re-establish upstream row ordering in the final select.
                    defining.head.sort = SortSpec(keys=list(result.ordering))
                return result.rel
            # Result defined earlier (or a base table): emit a copy rule,
            # replicating any sort on its defining rule.
            rel = self.new_rel()
            sort = None
            if defining is not None:
                src_rule = next((r for r in self.rules if r.head.rel == result.rel), None)
                if src_rule is not None and src_rule.head.sort is not None:
                    sort = SortSpec(keys=list(src_rule.head.sort.keys),
                                    limit=src_rule.head.sort.limit)
            if sort is None and result.ordering:
                sort = SortSpec(keys=list(result.ordering))
            body = [result.atom()]
            head_vars: list[str] = []
            extra_assigns: list = []
            for c in visible_cols:
                out_name = self._unique_var(c.name, head_vars)
                if out_name != c.var:
                    extra_assigns.append(AssignAtom(out_name, Var(c.var)))
                head_vars.append(out_name)
            if sort is not None:
                rename = dict((c.var, h) for c, h in zip(visible_cols, head_vars))
                sort = SortSpec(
                    keys=[(rename.get(v, v), asc) for v, asc in sort.keys],
                    limit=sort.limit,
                )
            self.emit(Rule(Head(rel, head_vars, sort=sort), body + extra_assigns))
            return rel
        if isinstance(result, SymScalar):
            rel = self.new_rel()
            self.emit(Rule(Head(rel, ["value"]), [AssignAtom("value", Const(result.value))]))
            return rel
        raise TranslationError(f"cannot return {type(result).__name__} from a @pytond function")


# ----------------------------------------------------------------------
# The declared surface
# ----------------------------------------------------------------------
_KINDS = ("module", "frame", "array", "series", "groupby", "sgb", "str", "rolling")
_RECEIVER_KINDS = {_ModuleRef: "module", SymSeries: "series", SymGroupBy: "groupby",
                   SymSeriesGroupBy: "sgb", SymStrAccessor: "str",
                   SymRollingWindow: "rolling"}


class _Call:
    """One supported call: its emitter, the emitter's signature (read once),
    and what each parameter after the receiver takes — a value of its
    annotated types, or a constant when it has no annotation."""

    def __init__(self, emit):
        self.emit = emit
        self.signature = inspect.signature(emit)
        params = list(self.signature.parameters.values())[2:]  # after self, receiver
        hints = typing.get_type_hints(emit)
        self.takes = {p.name: (hints.get(p.name), _type_names(hints.get(p.name)))
                      for p in params}
        self.positional = [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD]
        self.rest = next((p.name for p in params if p.kind is p.VAR_POSITIONAL), None)
        self.named = next((p.name for p in params if p.kind is p.VAR_KEYWORD), None)
        self.params = str(self.signature.replace(
            parameters=[p.replace(annotation=p.empty) for p in params],
            return_annotation=inspect.Signature.empty))

    def mismatch(self, args: list, kwargs: dict) -> str | None:
        """Why an argument does not fit its parameter, or None.  An argument
        with no parameter is left to the call itself to refuse."""
        names = self.positional + [self.rest] * (len(args) - len(self.positional))
        for name, value in itertools.chain(zip(names, args), kwargs.items()):
            takes = self.takes.get(name) or self.takes.get(self.named)
            if takes is None:
                continue
            expected, label = takes
            if not (isinstance(value, expected) if expected else _is_constant(value)):
                return f"argument {name!r} must be {label}, not {type(value).__name__}"
        return None


def _type_names(expected) -> str:
    if expected is None:
        return "a constant"
    return " or ".join("None" if t is type(None) else t.__name__
                       for t in typing.get_args(expected) or (expected,))


def _declare_surface(cls) -> dict[str, dict[str, _Call]]:
    """Each receiver kind's calls, read off the ``_<kind>__<method>`` emitters."""
    declared: dict[str, dict[str, _Call]] = {kind: {} for kind in _KINDS}
    for name, emit in vars(cls).items():
        kind, sep, method = name[1:].partition("__")
        if name.startswith("_") and sep and method and kind in declared:
            declared[kind][method] = _Call(emit)
    return declared


_SURFACE = _declare_surface(Translator)
# What each receiver kind dispatches to: an array also takes every frame call.
_DISPATCH = {**_SURFACE, "array": {**_SURFACE["frame"], **_SURFACE["array"]}}


def surface() -> dict[str, dict[str, str]]:
    """The translator's pandas/NumPy surface: kind -> method -> parameters.

    This is the listing an unsupported call's error prints, and the one
    ``docs/TONDIR.md`` "Translator surface" documents.  An ``array`` also
    takes every ``frame`` call.
    """
    return {kind: {m: calls[m].params for m in sorted(calls)}
            for kind, calls in _SURFACE.items()}


def _receiver_kind(base) -> str | None:
    if isinstance(base, SymFrame):
        return "array" if base.kind == "array" else "frame"
    if isinstance(base, _ModuleRef) and "." in base.name:
        return None
    return _RECEIVER_KINDS.get(type(base))


def _call_error(kind: str, method: str, reason: str) -> TranslationError:
    calls = _DISPATCH[kind]
    supported = ", ".join(f"{m}{calls[m].params}" for m in sorted(calls))
    return TranslationError(f"{kind}.{method}: {reason}; {kind} supports {supported}")


def _lookup(table: dict, key, what: str):
    """``table[key]``, or a TranslationError naming *what* and the choices."""
    value = table.get(key) if isinstance(key, str) else None
    if value is None:
        raise TranslationError(f"unsupported {what} {key!r}; supported: {', '.join(table)}")
    return value


def _is_constant(value) -> bool:
    if isinstance(value, list):
        return all(map(_is_constant, value))
    return isinstance(value, _CONSTANT_TYPES)


def _unary(series: SymSeries, ext: str, dtype: str | None = None) -> SymSeries:
    """``ext(series)``: the one-argument Ext wrappers (abs, isna, upper, ...)."""
    return series.with_term(Ext(ext, (series.term,)), dtype=dtype)


def _py_dtype(value) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if isinstance(value, np.datetime64):
        return "date"
    return "unknown"


def _fold_py(op: str, a, b):
    import operator

    return {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv, "%": operator.mod}[op](a, b)


def _is_true(term: Term) -> bool:
    return isinstance(term, Const) and term.value is True
