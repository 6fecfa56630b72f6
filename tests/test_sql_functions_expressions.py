"""Unit tests for scalar SQL functions and expression null semantics."""

import copy
import dataclasses
import functools

import numpy as np
import pytest

from repro import connect
from repro.errors import SQLBindError
from repro.sqlengine import sqlast
from repro.sqlengine.functions import call_function
from repro.sqlengine.params import iter_parameters
from repro.sqlengine.parser import parse_expression
from repro.sqlengine.sqlast import (
    AggCall, BetweenExpr, BinaryOp, CaseExpr, CastExpr, ColumnRef,
    CompoundSelect, ExistsExpr, Expr, FuncCall, InList, InSubquery, IsNull,
    JoinClause, LikeExpr, Literal, Node, OrderItem, Parameter, Query,
    ScalarSubquery, Select, SelectItem, Star, SubqueryRef, TableRef, UnaryOp,
    ValuesClause, WindowCall, WindowFrame, WithQuery, children, expr_key,
    map_children,
)


@pytest.fixture()
def db():
    db = connect()
    db.register("t", {
        "i": [1, -2, 3],
        "f": [1.25, np.nan, 2.75],
        "s": ["Hello", None, "world"],
        "d": np.array(["1994-03-15", "1995-07-01", "1996-12-31"], dtype="datetime64[D]"),
    })
    return db


class TestNumericFunctions:
    def test_round_digits(self):
        out = call_function("ROUND", [np.array([1.234, 5.678]), 1], 2)
        assert out.tolist() == [1.2, 5.7]

    def test_abs_sqrt_power(self):
        assert call_function("ABS", [np.array([-3, 4])], 2).tolist() == [3, 4]
        assert call_function("SQRT", [np.array([4.0])], 1).tolist() == [2.0]
        assert call_function("POWER", [np.array([2.0]), 3], 1).tolist() == [8.0]

    def test_floor_ceil(self):
        assert call_function("FLOOR", [np.array([1.7])], 1).tolist() == [1.0]
        assert call_function("CEIL", [np.array([1.2])], 1).tolist() == [2.0]

    def test_greatest_least(self):
        a, b = np.array([1, 9]), np.array([5, 2])
        assert call_function("GREATEST", [a, b], 2).tolist() == [5, 9]
        assert call_function("LEAST", [a, b], 2).tolist() == [1, 2]

    def test_alias_resolution(self):
        assert call_function("POW", [np.array([2.0]), 2], 1).tolist() == [4.0]

    def test_unknown_function(self):
        with pytest.raises(SQLBindError):
            call_function("FROBNICATE", [np.array([1])], 1)


class TestStringFunctions:
    def test_upper_lower_null_propagation(self):
        arr = np.array(["ab", None], dtype=object)
        assert call_function("UPPER", [arr], 2).tolist() == ["AB", None]
        assert call_function("LOWER", [arr], 2).tolist() == ["ab", None]

    def test_substr_one_based(self):
        arr = np.array(["hello"], dtype=object)
        assert call_function("SUBSTR", [arr, 2, 3], 1).tolist() == ["ell"]

    def test_length_trim_replace(self):
        assert call_function("LENGTH", [np.array(["abc"], dtype=object)], 1).tolist() == [3]
        assert call_function("TRIM", [np.array([" x "], dtype=object)], 1).tolist() == ["x"]
        assert call_function("REPLACE", [np.array(["aba"], dtype=object), "a", "c"], 1).tolist() == ["cbc"]

    def test_concat(self):
        out = call_function("CONCAT", [np.array(["a"], dtype=object), np.array(["b"], dtype=object)], 1)
        assert out.tolist() == ["ab"]

    def test_strpos(self):
        assert call_function("STRPOS", [np.array(["hello"], dtype=object), "ll"], 1).tolist() == [3]


class TestDateFunctions:
    def test_extract_parts(self):
        d = np.array(["1994-03-15"], dtype="datetime64[D]")
        assert call_function("EXTRACT_YEAR", [d], 1).tolist() == [1994]
        assert call_function("EXTRACT_MONTH", [d], 1).tolist() == [3]
        assert call_function("EXTRACT_DAY", [d], 1).tolist() == [15]

    def test_strftime_and_to_char_alias(self):
        d = np.array(["1994-03-15"], dtype="datetime64[D]")
        assert call_function("STRFTIME", [d, "%Y/%m"], 1).tolist() == ["1994/03"]
        assert call_function("TO_CHAR", [d, "%Y"], 1).tolist() == ["1994"]

    def test_makedate(self):
        out = call_function("MAKEDATE", [1994, 3, 15], 1)
        assert out == np.datetime64("1994-03-15")


class TestNullHandling:
    def test_coalesce(self):
        arr = np.array([1.0, np.nan])
        assert call_function("COALESCE", [arr, 0.0], 2).tolist() == [1.0, 0.0]

    def test_coalesce_strings(self):
        arr = np.array(["a", None], dtype=object)
        assert call_function("COALESCE", [arr, "?"], 2).tolist() == ["a", "?"]

    def test_nullif(self):
        arr = np.array([1.0, 2.0])
        out = call_function("NULLIF", [arr, 2.0], 2)
        assert out[0] == 1.0 and np.isnan(out[1])

    def test_null_comparison_in_query(self, db):
        out = db.execute("SELECT i FROM t WHERE f > 0")
        assert out["i"].tolist() == [1, 3]  # NaN row filtered out

    def test_is_null_in_query(self, db):
        assert db.execute("SELECT i FROM t WHERE s IS NULL")["i"].tolist() == [-2]
        assert db.execute("SELECT i FROM t WHERE f IS NOT NULL")["i"].tolist() == [1, 3]

    def test_like_skips_nulls(self, db):
        out = db.execute("SELECT i FROM t WHERE s LIKE '%o%'")
        assert out["i"].tolist() == [1, 3]

    def test_arithmetic_propagates_nan(self, db):
        out = db.execute("SELECT f + 1 AS g FROM t")
        assert np.isnan(out["g"].values[1])

    def test_string_concat_null(self, db):
        out = db.execute("SELECT s || '!' AS e FROM t")
        assert out["e"].values[1] is None


def _node_zoo():
    """One instance of every concrete AST class, every field populated
    (no None, no empty list, no default)."""
    a, b = ColumnRef("a", "t"), ColumnRef("b", "u")
    one, two = Literal(1), Literal(2.5)
    cmp = BinaryOp("<", a, one)
    order = OrderItem(b, False)
    inner = Select(items=[SelectItem(a, "x")], relations=[TableRef("t", "t1")],
                   joins=[JoinClause("LEFT", TableRef("u", "u1"),
                                     BinaryOp("=", a, b))],
                   where=cmp, group_by=[a, b], having=IsNull(b, True),
                   order_by=[order], limit=3, distinct=True)
    values = ValuesClause([[one, two], [a, b]])
    zoo = [
        one, Parameter(3, "p"), a, Star("t"), cmp, UnaryOp("-", a),
        FuncCall("ROUND", [a, one]), AggCall("SUM", a, True),
        WindowFrame("range", "preceding", 2, "following", 4),
        WindowCall("LAG", [a], [order], [b, one],
                   WindowFrame("rows", "preceding", 1, "current", 7)),
        CaseExpr([(cmp, a), (IsNull(b, False), b)], two),
        CastExpr(a, "INT"), InList(a, [one, two], True),
        InSubquery(a, inner, True), ExistsExpr(inner, True),
        ScalarSubquery(inner), BetweenExpr(a, one, two, True),
        IsNull(a, True), LikeExpr(a, Parameter(0, "pat"), True, "!"),
        TableRef("t", "t1"), SubqueryRef(values, "v", ["c0", "c1"]),
        JoinClause("INNER", SubqueryRef(inner, "d", ["x"]), cmp),
        SelectItem(a, "x"), order, inner,
        CompoundSelect("union", True, inner, values, [order], 5),
        values, WithQuery("w", ["x"], inner),
        Query([WithQuery("w", ["x"], inner)], inner),
    ]
    return {type(node).__name__: node for node in zoo}


ZOO = _node_zoo()
CONCRETE = sorted(name for name in sqlast.__all__
                  if dataclasses.is_dataclass(getattr(sqlast, name)))
BODIES = (Select, CompoundSelect, ValuesClause)


def _field_values(node):
    return [(f.name, getattr(node, f.name)) for f in dataclasses.fields(node)]


def _changed(value):
    """*value* with one thing about it different."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "_"
    if isinstance(value, (list, tuple)):
        return type(value)([_changed(value[0]), *value[1:]])
    name, first = _field_values(value)[0]
    return dataclasses.replace(value, **{name: _changed(first)})


def _direct_exprs(value):
    """Reference for ``children``: the expressions under *value* reached
    without passing through an expression or a query body, by crawling
    whatever the dataclass fields hold."""
    if isinstance(value, Expr):
        return [value]
    if isinstance(value, (list, tuple)):
        return [e for v in value for e in _direct_exprs(v)]
    if dataclasses.is_dataclass(value) and not isinstance(value, BODIES):
        return [e for _, v in _field_values(value) for e in _direct_exprs(v)]
    return []


def _expr_sites(holder):
    """A setter for every position under *holder* — at any depth, query
    bodies included — that holds an expression."""
    if dataclasses.is_dataclass(holder):
        held = [(v, functools.partial(setattr, holder, name))
                for name, v in _field_values(holder)]
    elif isinstance(holder, list):
        held = [(v, functools.partial(holder.__setitem__, i))
                for i, v in enumerate(holder)]
    else:
        return
    for value, put in held:
        if isinstance(value, tuple):
            value = list(value)     # CASE pairs: a list walks the same
            put(value)
        if isinstance(value, Expr):
            yield put
        yield from _expr_sites(value)


class TestDeclaredShape:
    """Every traversal derives from the shape ``sqlast`` declares per class:
    properties over the node zoo, so a field cannot be forgotten by one."""

    def test_every_ast_class_is_declared_and_in_the_zoo(self):
        defined = sorted(
            name for name, cls in vars(sqlast).items()
            if dataclasses.is_dataclass(cls) and cls.__module__ == sqlast.__name__)
        assert defined == CONCRETE == sorted(ZOO)
        for name in CONCRETE:
            cls = getattr(sqlast, name)
            assert issubclass(cls, Node), name
            assert [field for field, _ in cls._shape] == [
                f.name for f in dataclasses.fields(cls)], name

    def test_zoo_is_fully_populated(self):
        for name, node in ZOO.items():
            for field, value in _field_values(node):
                assert value is not None and value != [], f"{name}.{field}"

    @pytest.mark.parametrize("name", CONCRETE)
    def test_any_single_field_changes_the_key(self, name):
        node = ZOO[name]
        assert expr_key(copy.deepcopy(node)) == expr_key(node)
        for field, value in _field_values(node):
            other = dataclasses.replace(node, **{field: _changed(value)})
            assert expr_key(other) != expr_key(node), f"{name}.{field}"

    @pytest.mark.parametrize("name", CONCRETE)
    def test_children_are_every_populated_child_slot(self, name):
        node = ZOO[name]
        expected = [e for _, v in _field_values(node)
                    for e in _direct_exprs(v)]
        got = children(node)
        assert len(got) == len(expected), name
        assert all(g is e for g, e in zip(got, expected)), name

    @pytest.mark.parametrize("name", CONCRETE)
    def test_map_children_identity(self, name):
        node = ZOO[name]
        seen = []

        def identity(e):
            seen.append(e)
            return e

        rebuilt = map_children(node, identity)
        assert rebuilt is not node and rebuilt == node, name
        assert expr_key(rebuilt) == expr_key(node), name
        assert len(seen) == len(children(node)), name
        assert all(s is c for s, c in zip(seen, children(node))), name

    @pytest.mark.parametrize("name", CONCRETE)
    def test_parameter_planted_anywhere_is_found(self, name):
        count = sum(1 for _ in _expr_sites(copy.deepcopy(ZOO[name])))
        assert count or not ZOO[name]._slots, name
        for k in range(count):
            node = copy.deepcopy(ZOO[name])
            planted = Parameter(name=f"planted{k}")
            list(_expr_sites(node))[k](planted)
            assert any(p is planted for p in iter_parameters(node)), (name, k)

    def test_negation_is_part_of_the_key(self):
        for text in ("a IN (1, 2)", "a BETWEEN 1 AND 2", "a LIKE 'x%'",
                     "a IS NULL"):
            negated = text.replace(" IN", " NOT IN").replace(
                " BETWEEN", " NOT BETWEEN").replace(
                " LIKE", " NOT LIKE").replace("IS NULL", "IS NOT NULL")
            assert expr_key(parse_expression(text)) != \
                expr_key(parse_expression(negated)), text


class TestExprKey:
    def test_group_by_expression_matching(self, db):
        # matching between SELECT item and GROUP BY uses expr_key
        out = db.execute(
            "SELECT EXTRACT(YEAR FROM d) AS y, COUNT(*) AS n "
            "FROM t GROUP BY EXTRACT(YEAR FROM d) ORDER BY y")
        assert out["y"].tolist() == [1994, 1995, 1996]
