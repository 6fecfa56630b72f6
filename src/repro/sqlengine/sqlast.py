"""Abstract syntax tree for the SQL dialect understood by the engine.

This module is the one place that knows a node's shape.  Every class below
is a dataclass deriving from :class:`Node`; what each of its fields holds —
sub-expressions, helper nodes, a nested query body, or a plain attribute —
is read off the field's annotation once, at class creation
(:data:`_SLOT_KINDS`).  Everything that traverses the tree derives from
that: :func:`children`, :func:`bodies`, :func:`clauses`,
:func:`map_children`, :func:`walk` and :func:`expr_key`.  A new node class
needs no traversal code; a new *kind* of field needs one row in the table.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

__all__ = [
    "Expr", "Literal", "Parameter", "ColumnRef", "Star", "BinaryOp", "UnaryOp", "FuncCall",
    "AggCall", "CaseExpr", "CastExpr", "InList", "InSubquery", "ExistsExpr",
    "ScalarSubquery", "BetweenExpr", "IsNull", "LikeExpr", "WindowCall",
    "WindowFrame",
    "TableRef", "SubqueryRef", "JoinClause", "SelectItem", "OrderItem",
    "Select", "CompoundSelect", "SelectBody", "ValuesClause", "WithQuery",
    "Query",
    "Node", "children", "bodies", "clauses", "map_children", "walk", "expr_key",
]

# What a field holds.  A helper node (SelectItem, OrderItem, JoinClause,
# TableRef/SubqueryRef, WithQuery, WindowFrame) is looked through: its
# expressions and bodies count as its holder's.
_ATTR, _EXPR, _EXPRS, _NESTED, _NODE, _NODES, _BODY = range(7)
_AST_NAMES = frozenset(__all__)

# Field annotation (quotes and blanks removed) -> kind; any other annotation
# is a plain attribute and must not mention an AST class.
_SLOT_KINDS = {
    "Expr": _EXPR,
    "Optional[Expr]": _EXPR,
    "Union[str,Parameter,None]": _EXPR,     # a child only when a Parameter
    "list[Expr]": _EXPRS,
    "list[tuple[Expr,Expr]]": _NESTED,      # CASE (condition, value) pairs
    "list[list[Expr]]": _NESTED,            # VALUES rows
    "Optional[WindowFrame]": _NODE,
    "Union[TableRef,SubqueryRef]": _NODE,
    "list[OrderItem]": _NODES,
    "list[SelectItem]": _NODES,
    "list[JoinClause]": _NODES,
    "list[Union[TableRef,SubqueryRef]]": _NODES,
    "list[WithQuery]": _NODES,
    "Select": _BODY,
    "SelectBody": _BODY,
    "Union[Select,ValuesClause]": _BODY,
    "Union[Select,CompoundSelect,ValuesClause]": _BODY,
}


class Node:
    """Base class of every AST dataclass.

    ``_shape`` pairs every dataclass field, in declaration order, with its
    kind; ``_slots`` is the part of it that is not plain attributes, which
    is all a traversal looks at.
    """

    _shape: tuple = ()
    _slots: tuple = ()

    def __init_subclass__(cls) -> None:
        shape = []
        for name, annotation in cls.__dict__.get("__annotations__", {}).items():
            text = re.sub(r"""["' ]""", "", annotation)
            kind = _SLOT_KINDS.get(text, _ATTR)
            assert kind != _ATTR or not _AST_NAMES & set(re.findall(r"\w+", text)), \
                f"{cls.__name__}.{name}: no slot kind for {annotation!r}"
            shape.append((name, kind))
        cls._shape = tuple(shape)
        cls._slots = tuple(slot for slot in shape if slot[1] != _ATTR)


class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class Literal(Expr):
    value: object  # int | float | str | bool | None | numpy datetime64

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


@dataclass
class Parameter(Expr):
    """A bind-parameter placeholder: positional ``?`` or named ``:name``.

    Positional parameters carry a 0-based ``index`` assigned by the parser
    in left-to-right source order; named parameters carry ``name`` (several
    occurrences of the same name share one bound value).  The planner treats
    parameters as opaque scalars, so a compiled plan is reusable across
    executions with different values — the basis of prepared statements.
    """

    index: Optional[int] = None
    name: Optional[str] = None

    @property
    def key(self):
        """The binding key: the name for ``:name``, the index for ``?``."""
        return self.name if self.name is not None else self.index

    def __repr__(self) -> str:
        return f"Param(:{self.name})" if self.name is not None else f"Param(?{self.index})"


@dataclass
class ColumnRef(Expr):
    name: str
    table: Optional[str] = None

    def __repr__(self) -> str:
        return f"Col({self.table + '.' if self.table else ''}{self.name})"


@dataclass
class Star(Expr):
    table: Optional[str] = None


@dataclass
class BinaryOp(Expr):
    op: str  # + - * / % = <> < <= > >= AND OR ||
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    op: str  # NOT, -
    operand: Expr


@dataclass
class FuncCall(Expr):
    name: str
    args: list[Expr]


@dataclass
class AggCall(Expr):
    func: str  # SUM MIN MAX AVG COUNT
    arg: Optional[Expr]  # None for COUNT(*)
    distinct: bool = False


@dataclass
class WindowFrame(Node):
    """A ``ROWS``/``RANGE BETWEEN <bound> AND <bound>`` frame clause.

    Bound kinds are ``unbounded_preceding`` | ``preceding`` | ``current`` |
    ``following`` | ``unbounded_following``; offsets are row counts and are
    only meaningful for ``preceding``/``following``.
    """

    unit: str = "rows"  # "rows" | "range"
    start_kind: str = "unbounded_preceding"
    start_offset: int = 0
    end_kind: str = "current"
    end_offset: int = 0


@dataclass
class WindowCall(Expr):
    """``func(args) OVER (PARTITION BY ... ORDER BY ... [frame])``.

    ``func`` is one of the ranking functions (ROW_NUMBER, RANK, DENSE_RANK,
    NTILE), the offset functions (LAG, LEAD), or an aggregate (SUM, AVG,
    MIN, MAX, COUNT) applied as a window.  ``frame`` is None when no frame
    clause was written (the executor applies the SQL default frame).
    """

    func: str
    partition_by: list[Expr] = field(default_factory=list)
    order_by: list["OrderItem"] = field(default_factory=list)
    args: list[Expr] = field(default_factory=list)
    frame: Optional[WindowFrame] = None


@dataclass
class CaseExpr(Expr):
    branches: list[tuple[Expr, Expr]]  # (condition, value)
    default: Optional[Expr]


@dataclass
class CastExpr(Expr):
    operand: Expr
    type_name: str


@dataclass
class InList(Expr):
    operand: Expr
    items: list[Expr]
    negated: bool = False


@dataclass
class InSubquery(Expr):
    operand: Expr
    query: "Select"
    negated: bool = False


@dataclass
class ExistsExpr(Expr):
    query: "Select"
    negated: bool = False


@dataclass
class ScalarSubquery(Expr):
    query: "Select"


@dataclass
class BetweenExpr(Expr):
    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False


@dataclass
class IsNull(Expr):
    operand: Expr
    negated: bool = False


@dataclass
class LikeExpr(Expr):
    """``operand [NOT] LIKE pattern [ESCAPE 'c']``.

    ``pattern`` is a string literal, a :class:`Parameter` placeholder
    (resolved to a string at bind time), or ``None`` when the pattern was
    the literal ``NULL`` (SQL: the whole predicate is NULL, i.e. no row
    matches).  ``escape`` is the single escape character of an ``ESCAPE``
    clause, if present.
    """

    operand: Expr
    pattern: Union[str, Parameter, None]
    negated: bool = False
    escape: Optional[str] = None


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

@dataclass
class TableRef(Node):
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass
class SubqueryRef(Node):
    query: Union["Select", "ValuesClause"]
    alias: str
    column_names: Optional[list[str]] = None

    @property
    def binding(self) -> str:
        return self.alias


@dataclass
class JoinClause(Node):
    kind: str  # INNER LEFT RIGHT FULL CROSS
    relation: Union[TableRef, SubqueryRef]
    condition: Optional[Expr]


@dataclass
class SelectItem(Node):
    expr: Expr
    alias: Optional[str] = None


@dataclass
class OrderItem(Node):
    expr: Expr
    ascending: bool = True


@dataclass
class Select(Node):
    items: list[SelectItem]
    relations: list[Union[TableRef, SubqueryRef]] = field(default_factory=list)
    joins: list[JoinClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False


@dataclass
class CompoundSelect(Node):
    """A set operation between two select bodies.

    ``op`` is ``"union"`` | ``"intersect"`` | ``"except"``; ``all`` keeps
    duplicates (multiset semantics).  A trailing ``ORDER BY``/``LIMIT``
    written after the compound attaches here, never to the right operand
    (SQL's grammar: set operators bind tighter than ORDER BY).  Operands
    may themselves be compounds — ``INTERSECT`` binds tighter than
    ``UNION``/``EXCEPT``, which associate left.
    """

    op: str  # "union" | "intersect" | "except"
    all: bool
    left: "SelectBody"
    right: "SelectBody"
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None


# A query body: either a plain SELECT or a tree of set operations.
SelectBody = Union[Select, CompoundSelect]


@dataclass
class ValuesClause(Node):
    rows: list[list[Expr]]


@dataclass
class WithQuery(Node):
    name: str
    column_names: Optional[list[str]]
    query: Union[Select, CompoundSelect, ValuesClause]


@dataclass
class Query(Node):
    """A full statement: optional WITH chain plus the final body (a plain
    SELECT or a compound of set operations)."""

    ctes: list[WithQuery]
    body: SelectBody


# ---------------------------------------------------------------------------
# Traversals derived from the declared shape
# ---------------------------------------------------------------------------

def _gather(node: Node, slots: tuple, out: list) -> None:
    """Append to *out* the expressions the fields *slots* of *node* hold."""
    for name, kind in slots:
        value = getattr(node, name)
        if kind == _EXPR:
            if isinstance(value, Expr):
                out.append(value)
        elif kind == _EXPRS:
            out.extend(value)
        elif kind == _NESTED:
            for row in value:
                out.extend(row)
        elif kind == _NODES:
            for helper in value:
                _gather(helper, type(helper)._slots, out)
        elif kind == _NODE and value is not None:
            _gather(value, type(value)._slots, out)


def children(node: Node) -> list[Expr]:
    """The direct sub-expressions of an expression, or the expressions of
    one query body (select items, join conditions, WHERE, GROUP BY, HAVING,
    ORDER BY; VALUES cells), in field order.  Nested query bodies are not
    entered."""
    out: list[Expr] = []
    _gather(node, type(node)._slots, out)
    return out


def clauses(body: Node) -> list[tuple[str, list[Expr]]]:
    """:func:`children` of a query body, grouped under the name of the
    field (clause) that holds them."""
    out = []
    for slot in type(body)._slots:
        held: list[Expr] = []
        _gather(body, (slot,), held)
        if held:
            out.append((slot[0], held))
    return out


def bodies(node: Node) -> list[Node]:
    """The query bodies *node* holds directly: the subquery of an IN /
    EXISTS / scalar-subquery expression, the operands of a compound, the
    derived tables of a SELECT, the CTE bodies and main body of a
    statement.  Expressions are not entered."""
    out: list[Node] = []
    for name, kind in type(node)._slots:
        value = getattr(node, name)
        if kind == _BODY:
            out.append(value)
        elif kind == _NODES:
            for helper in value:
                out.extend(bodies(helper))
        elif kind == _NODE and value is not None:
            out.extend(bodies(value))
    return out


def map_children(node: Node, fn: Callable[[Expr], Expr]) -> Node:
    """A shallow copy of *node* with *fn* applied to each of its
    :func:`children` — the rebuild step of every bottom-up expression
    rewrite.  Total over the declared shape (aggregate arguments and window
    keys included); a caller that treats a node as a leaf intercepts it
    before recursing.  Nested query bodies are shared, not copied."""
    out = copy.copy(node)
    for name, kind in type(node)._slots:
        value = getattr(node, name)
        if kind == _EXPR:
            if isinstance(value, Expr):
                setattr(out, name, fn(value))
        elif kind == _EXPRS:
            setattr(out, name, [fn(e) for e in value])
        elif kind == _NESTED:
            setattr(out, name, [type(row)(fn(e) for e in row) for row in value])
        elif kind == _NODES:
            setattr(out, name, [map_children(helper, fn) for helper in value])
        elif kind == _NODE and value is not None:
            setattr(out, name, map_children(value, fn))
    return out


def walk(node: Node, deep: bool = False) -> list[Node]:
    """*node* and every node under it, pre-order in field order (helper
    nodes included).  Nested query bodies are entered only when *deep*."""
    out: list[Node] = []
    _walk(node, deep, out)
    return out


def _walk(node: Node, deep: bool, out: list) -> None:
    out.append(node)
    for name, kind in type(node)._slots:
        value = getattr(node, name)
        if kind == _EXPR or kind == _NODE:
            if isinstance(value, Node):
                _walk(value, deep, out)
        elif kind == _NESTED:
            for row in value:
                for e in row:
                    _walk(e, deep, out)
        elif kind == _BODY:
            if deep:
                _walk(value, deep, out)
        else:
            for e in value:
                _walk(e, deep, out)


def _key(value: object) -> str:
    if isinstance(value, Node):
        return expr_key(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(_key, value)) + "]"
    return repr(value)


def expr_key(node: Node) -> str:
    """A structural key: the class name and every declared field.  Two
    nodes have the same key exactly when they are the same expression —
    how a SELECT item is matched to a GROUP BY key, an ORDER BY key to an
    output column, a repeated aggregate to its partial."""
    cls = type(node)
    return cls.__name__ + "(" + ",".join(
        [repr(getattr(node, name)) if kind == _ATTR
         else _key(getattr(node, name)) for name, kind in cls._shape]) + ")"
