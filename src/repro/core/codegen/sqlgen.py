"""TondIR -> SQL code generation (Section III-E of the paper).

Each rule becomes a Common Table Expression; the program renders as a chain
of ``WITH`` clauses followed by a final ``SELECT`` for the sink rule.
``ORDER BY``/``LIMIT`` placement follows the paper: a bare ``ORDER BY``
inside a CTE has no guaranteed effect, so sorts are only emitted inside a
CTE when paired with a ``LIMIT``, and the sink rule's sort renders in the
outer query.
"""

from __future__ import annotations

import numpy as np

from ...backends.base import Dialect
from ...errors import TondIRError
from ..tondir.ir import (
    Agg, AssignAtom, BinOp, Const, ConstRelAtom, ExistsAtom, Ext,
    FilterAtom, If, OuterAtom, Program, RelAtom, Rule, Term, Var, Win,
)

__all__ = ["SQLGenerator", "generate_sql"]

_STANDARD_DIALECT = Dialect()

_BIN_SQL = {
    "+": "+", "-": "-", "*": "*", "/": "/", "%": "%",
    "=": "=", "<>": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
    "and": "AND", "or": "OR", "concat": "||",
}

_AGG_SQL = {"sum": "SUM", "min": "MIN", "max": "MAX", "avg": "AVG",
            "count": "COUNT", "stddev": "STDDEV", "var": "VAR"}


def _quote(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _const_sql(value, dialect: Dialect | None = None) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.datetime64):
        lit = _quote(str(value.astype("datetime64[D]")))
        return (dialect or _STANDARD_DIALECT).date_literal.format(lit=lit)
    if isinstance(value, str):
        return _quote(value)
    raise TondIRError(f"cannot render constant {value!r}")


class SQLGenerator:
    """Renders a TondIR program as SQL for a target dialect."""

    def __init__(self, catalog_schemas: dict[str, list[str]], dialect: Dialect | None = None):
        # rel name -> ordered column names (base tables + rules added as seen)
        self.schemas = dict(catalog_schemas)
        self.dialect = dialect or _STANDARD_DIALECT

    # ------------------------------------------------------------------
    def generate(self, program: Program) -> str:
        ctes: list[str] = []
        sink_sql: str | None = None
        # Consecutive rules sharing one head relation are a Datalog union:
        # they render as a single CTE with UNION ALL between rule bodies.
        groups: list[list[Rule]] = []
        for rule in program.rules:
            if groups and groups[-1][0].head.rel == rule.head.rel:
                groups[-1].append(rule)
            else:
                groups.append([rule])
        for gi, group in enumerate(groups):
            head = group[0].head
            self.schemas[head.rel] = list(head.vars)
            is_sink = head.rel == program.sink and gi == len(groups) - 1
            if len(group) == 1:
                body_sql = self._rule_sql(group[0], is_sink=is_sink)
            else:
                for branch in group:
                    if len(branch.head.vars) != len(head.vars):
                        raise TondIRError(
                            f"union branches of {head.rel!r} disagree on arity"
                        )
                    if branch.head.sort is not None:
                        raise TondIRError(
                            "a union branch cannot carry ORDER BY/LIMIT"
                        )
                body_sql = "\nUNION ALL\n".join(
                    self._rule_sql(branch, is_sink=False) for branch in group
                )
            if is_sink:
                sink_sql = body_sql
            else:
                cols = ", ".join(head.vars)
                ctes.append(f"{head.rel}({cols}) AS (\n{body_sql}\n)")
        if sink_sql is None:
            # Sink defined earlier in the chain: final select reads it back.
            sink_cols = self.schemas.get(program.sink)
            if sink_cols is None:
                raise TondIRError(f"sink relation {program.sink!r} is never defined")
            sink_sql = f"SELECT * FROM {program.sink}"
        if ctes:
            return "WITH " + ",\n".join(ctes) + "\n" + sink_sql
        return sink_sql

    # ------------------------------------------------------------------
    def _rule_sql(self, rule: Rule, is_sink: bool) -> str:
        defs: dict[str, str] = {}
        predicates: list[str] = []
        outer_atoms = [a for a in rule.body if isinstance(a, OuterAtom)]

        alias_counter = 0

        def next_alias() -> str:
            nonlocal alias_counter
            alias_counter += 1
            return f"r{alias_counter}"

        # First pass: bind relation accesses.
        alias_of: dict[int, str] = {}
        for atom in rule.body:
            if isinstance(atom, RelAtom):
                alias = next_alias()
                alias_of[id(atom)] = alias
                cols = self.schemas.get(atom.rel)
                if cols is None:
                    raise TondIRError(f"unknown relation {atom.rel!r}")
                if len(cols) != len(atom.vars):
                    raise TondIRError(
                        f"arity mismatch accessing {atom.rel!r}: "
                        f"{len(atom.vars)} vars vs {len(cols)} columns"
                    )
                for var, col in zip(atom.vars, cols):
                    expr = f"{alias}.{col}"
                    if var == "_":
                        continue
                    if var in defs:
                        predicates.append(f"{defs[var]} = {expr}")
                    else:
                        defs[var] = expr
            elif isinstance(atom, ConstRelAtom):
                alias = next_alias()
                alias_of[id(atom)] = alias
                cols = [f"c{i}" for i in range(len(atom.vars))]
                for var, col in zip(atom.vars, cols):
                    expr = f"{alias}.{col}"
                    if var in defs:
                        predicates.append(f"{defs[var]} = {expr}")
                    else:
                        defs[var] = expr

        # FROM clause: either comma joins or explicit outer-join syntax.
        if outer_atoms:
            from_sql = self._outer_from(rule, alias_of, defs)
        else:
            from_items = []  # comma-join items, in body order
            for atom in rule.body:
                if isinstance(atom, RelAtom):
                    from_items.append(f"{atom.rel} AS {alias_of[id(atom)]}")
                elif isinstance(atom, ConstRelAtom):
                    alias = alias_of[id(atom)]
                    rows = ", ".join(
                        "(" + ", ".join(_const_sql(v, self.dialect) for v in row) + ")" for row in atom.rows
                    )
                    cols = [f"c{i}" for i in range(len(atom.vars))]
                    from_items.append(f"(VALUES {rows}) AS {alias}({', '.join(cols)})")
            from_sql = ", ".join(from_items)

        # Second pass: assignments / filters / exists.
        for atom in rule.body:
            if isinstance(atom, AssignAtom):
                if atom.var in defs:
                    predicates.append(f"{defs[atom.var]} = {self._term_sql(atom.term, defs)}")
                else:
                    defs[atom.var] = self._term_sql(atom.term, defs)
            elif isinstance(atom, FilterAtom):
                predicates.append(self._term_sql(atom.term, defs, boolean=True))
            elif isinstance(atom, ExistsAtom):
                predicates.append(self._exists_sql(atom, defs))

        head = rule.head
        select_parts = []
        for var in head.vars:
            if var not in defs:
                raise TondIRError(f"head variable {var!r} is not bound in rule {head.rel!r}")
            select_parts.append(f"{defs[var]} AS {var}")
        distinct = "DISTINCT " if head.distinct else ""
        lines = [f"SELECT {distinct}" + ", ".join(select_parts)]
        if from_sql:
            lines.append(f"FROM {from_sql}")
        if predicates:
            lines.append("WHERE " + " AND ".join(predicates))
        if head.group is not None:
            group_exprs = []
            for g in head.group:
                if g not in defs:
                    raise TondIRError(f"group variable {g!r} is not bound")
                group_exprs.append(defs[g])
            if group_exprs:
                lines.append("GROUP BY " + ", ".join(group_exprs))
        if head.sort is not None:
            emit_order = is_sink or head.sort.limit is not None
            if emit_order and head.sort.keys:
                parts = []
                for var, asc in head.sort.keys:
                    target = var if var in head.vars else defs.get(var, var)
                    parts.append(f"{target}{'' if asc else ' DESC'}")
                lines.append("ORDER BY " + ", ".join(parts))
            if head.sort.limit is not None:
                lines.append(f"LIMIT {head.sort.limit}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def _outer_from(self, rule: Rule, alias_of: dict[int, str], defs: dict[str, str]) -> str:
        rel_atoms = rule.rel_atoms()
        outer = [a for a in rule.body if isinstance(a, OuterAtom)]
        if len(rel_atoms) != 2 or len(outer) != 1:
            raise TondIRError("outer-join rules must contain exactly two relation accesses")
        oa = outer[0]
        left, right = rel_atoms[oa.left_rel], rel_atoms[oa.right_rel]
        la, ra = alias_of[id(left)], alias_of[id(right)]
        conds = []
        left_cols = dict(zip(left.vars, self.schemas[left.rel]))
        right_cols = dict(zip(right.vars, self.schemas[right.rel]))
        for lv, rv in oa.pairs:
            conds.append(f"{la}.{left_cols[lv]} = {ra}.{right_cols[rv]}")
        kind = {"left": "LEFT JOIN", "right": "RIGHT JOIN", "full": "FULL OUTER JOIN"}[oa.kind]
        return f"{left.rel} AS {la} {kind} {right.rel} AS {ra} ON {' AND '.join(conds)}"

    # ------------------------------------------------------------------
    def _exists_sql(self, atom: ExistsAtom, outer_defs: dict[str, str]) -> str:
        defs: dict[str, str] = {}
        predicates: list[str] = []
        from_items: list[str] = []
        alias_counter = 0
        for a in atom.body:
            if isinstance(a, RelAtom):
                alias_counter += 1
                alias = f"e{alias_counter}"
                cols = self.schemas.get(a.rel)
                if cols is None:
                    raise TondIRError(f"unknown relation {a.rel!r} in exists")
                from_items.append(f"{a.rel} AS {alias}")
                for var, col in zip(a.vars, cols):
                    expr = f"{alias}.{col}"
                    if var == "_":
                        continue
                    if var in defs:
                        predicates.append(f"{defs[var]} = {expr}")
                    elif var in outer_defs:
                        predicates.append(f"{outer_defs[var]} = {expr}")
                        defs[var] = expr
                    else:
                        defs[var] = expr
            elif isinstance(a, AssignAtom):
                merged = dict(outer_defs)
                merged.update(defs)
                defs[a.var] = self._term_sql(a.term, merged)
            elif isinstance(a, FilterAtom):
                merged = dict(outer_defs)
                merged.update(defs)
                predicates.append(self._term_sql(a.term, merged, boolean=True))
            else:
                raise TondIRError(f"unsupported atom in exists body: {a!r}")
        sql = "SELECT 1 FROM " + ", ".join(from_items)
        if predicates:
            sql += " WHERE " + " AND ".join(predicates)
        keyword = "NOT EXISTS" if atom.negated else "EXISTS"
        return f"{keyword} ({sql})"

    # ------------------------------------------------------------------
    def _term_sql(self, term: Term, defs: dict[str, str], boolean: bool = False) -> str:
        if isinstance(term, Var):
            if term.name not in defs:
                raise TondIRError(f"unbound variable {term.name!r}")
            return defs[term.name]
        if isinstance(term, Const):
            return _const_sql(term.value, self.dialect)
        if isinstance(term, BinOp):
            return self._binop_sql(term, defs)
        if isinstance(term, If):
            return self._if_sql(term, defs)
        if isinstance(term, Agg):
            return self._agg_sql(term, defs)
        if isinstance(term, Ext):
            return self._ext_sql(term, defs)
        if isinstance(term, Win):
            return self._win_sql(term, defs)
        raise TondIRError(f"cannot render term {term!r}")

    def _binop_sql(self, term: BinOp, defs: dict[str, str]) -> str:
        if term.op == "like":
            operand = self._term_sql(term.left, defs)
            if not isinstance(term.right, Const):
                raise TondIRError("like requires a constant pattern")
            return f"{operand} LIKE {_quote(str(term.right.value))}"
        if term.op == "not like":
            operand = self._term_sql(term.left, defs)
            return f"{operand} NOT LIKE {_quote(str(term.right.value))}"
        op = _BIN_SQL.get(term.op)
        if op is None:
            raise TondIRError(f"unknown binary operator {term.op!r}")
        left = self._term_sql(term.left, defs)
        right = self._term_sql(term.right, defs)
        return f"({left} {op} {right})"

    def _if_sql(self, term: If, defs: dict[str, str]) -> str:
        branches: list[tuple[str, str]] = []
        current: Term = term
        while isinstance(current, If):
            branches.append(
                (self._term_sql(current.cond, defs, boolean=True), self._term_sql(current.then, defs))
            )
            current = current.otherwise
        default = self._term_sql(current, defs)
        whens = " ".join(f"WHEN {c} THEN {v}" for c, v in branches)
        return f"(CASE {whens} ELSE {default} END)"

    def _agg_sql(self, term: Agg, defs: dict[str, str]) -> str:
        func = _AGG_SQL.get(term.func)
        if term.func == "count_distinct":
            return f"COUNT(DISTINCT {self._term_sql(term.arg, defs)})"
        if func is None:
            raise TondIRError(f"unknown aggregate {term.func!r}")
        if term.arg is None:
            return "COUNT(*)"
        inner = self._term_sql(term.arg, defs)
        if term.distinct:
            return f"{func}(DISTINCT {inner})"
        if term.func == "sum":
            # Pandas sums an empty frame to 0, SQL to NULL; COALESCE keeps
            # the translated semantics Pandas-faithful.
            return f"COALESCE(SUM({inner}), 0)"
        return f"{func}({inner})"

    _WIN_FUNC_SQL = {
        "row_number": "ROW_NUMBER", "rank": "RANK", "dense_rank": "DENSE_RANK",
        "ntile": "NTILE", "lag": "LAG", "lead": "LEAD",
        "sum": "SUM", "avg": "AVG", "min": "MIN", "max": "MAX", "count": "COUNT",
    }

    _FRAME_BOUND_SQL = {
        "unbounded_preceding": "UNBOUNDED PRECEDING",
        "unbounded_following": "UNBOUNDED FOLLOWING",
        "current": "CURRENT ROW",
        "preceding": "{n} PRECEDING",
        "following": "{n} FOLLOWING",
    }

    def _win_sql(self, term: Win, defs: dict[str, str]) -> str:
        """Render a window term as ``FUNC(args) OVER (...)``."""
        func = self._WIN_FUNC_SQL.get(term.func)
        if func is None:
            raise TondIRError(f"unknown window function {term.func!r}")
        if func == "COUNT" and not term.args:
            inner = "*"
        else:
            inner = ", ".join(self._term_sql(a, defs) for a in term.args)
        over: list[str] = []
        if term.partition_by:
            over.append("PARTITION BY " + ", ".join(
                self._term_sql(p, defs) for p in term.partition_by))
        if term.order_by:
            over.append("ORDER BY " + ", ".join(
                self._term_sql(t, defs) + ("" if asc else " DESC")
                for t, asc in term.order_by))
        if term.frame is not None:
            unit, sk, so, ek, eo = term.frame
            start = self._FRAME_BOUND_SQL[sk].format(n=so)
            end = self._FRAME_BOUND_SQL[ek].format(n=eo)
            over.append(f"{unit.upper()} BETWEEN {start} AND {end}")
        return f"{func}({inner}) OVER ({' '.join(over)})"

    def _ext_sql(self, term: Ext, defs: dict[str, str]) -> str:
        name = term.name
        # IN-list arguments hold a constant tuple that must not be rendered
        # as a scalar constant.
        if name in ("in_list", "not_in_list"):
            operand = self._term_sql(term.args[0], defs)
            values = term.args[1]
            if not isinstance(values, Const) or not isinstance(values.value, (list, tuple)):
                raise TondIRError(f"{name} requires a constant list")
            items = ", ".join(_const_sql(v, self.dialect) for v in values.value)
            keyword = "IN" if name == "in_list" else "NOT IN"
            return f"{operand} {keyword} ({items})"
        args = [self._term_sql(a, defs) for a in term.args]
        if name == "uid":
            if args:
                return f"ROW_NUMBER() OVER (ORDER BY {args[0]})"
            return "ROW_NUMBER() OVER ()"
        if name == "year":
            return self.dialect.year_function.format(arg=args[0])
        if name == "month":
            return f"EXTRACT(MONTH FROM {args[0]})"
        if name == "day":
            return f"EXTRACT(DAY FROM {args[0]})"
        if name == "substr":
            return self.dialect.substring_function.format(arg=args[0], start=args[1], length=args[2])
        if name == "strftime":
            return self.dialect.strftime_function.format(arg=args[0], fmt=args[1])
        if name == "startswith":
            pattern = str(term.args[1].value) if isinstance(term.args[1], Const) else None
            if pattern is None:
                raise TondIRError("startswith requires a constant prefix")
            return f"{args[0]} LIKE {_quote(pattern + '%')}"
        if name == "endswith":
            pattern = str(term.args[1].value)
            return f"{args[0]} LIKE {_quote('%' + pattern)}"
        if name == "contains":
            pattern = str(term.args[1].value)
            return f"{args[0]} LIKE {_quote('%' + pattern + '%')}"
        if name == "isnull":
            return f"{args[0]} IS NULL"
        if name == "notnull":
            return f"{args[0]} IS NOT NULL"
        if name == "not":
            return f"NOT ({args[0]})"
        if name == "neg":
            return f"(-{args[0]})"
        if name == "round":
            if len(args) == 2:
                return f"ROUND({args[0]}, {args[1]})"
            return f"ROUND({args[0]})"
        if name in ("abs", "sqrt", "floor", "ceil", "upper", "lower", "length"):
            return f"{name.upper()}({args[0]})"
        if name == "power":
            return f"POWER({args[0]}, {args[1]})"
        if name == "cast_int":
            return f"CAST({args[0]} AS BIGINT)"
        if name == "cast_float":
            return f"CAST({args[0]} AS DOUBLE)"
        if name == "cast_str":
            return f"CAST({args[0]} AS VARCHAR)"
        if name == "cast_date":
            return f"CAST({args[0]} AS DATE)"
        if name == "coalesce":
            return f"COALESCE({', '.join(args)})"
        raise TondIRError(f"unknown external function {name!r}")


def generate_sql(program: Program, catalog_schemas: dict[str, list[str]], dialect: Dialect | None = None) -> str:
    """Convenience wrapper: render *program* to a SQL string."""
    return SQLGenerator(catalog_schemas, dialect).generate(program)
