"""Tests for the textual TondIR parser and printer round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.codegen import generate_sql
from repro.core.tondir.ir import (
    Agg, AssignAtom, BinOp, Const, ConstRelAtom, ExistsAtom, Ext, FilterAtom,
    Head, If, OuterAtom, Program, RelAtom, Rule, SortSpec, Var, Win,
)
from repro.core.tondir.optimize import optimize
from repro.core.tondir.parser import parse_program, parse_rule, parse_term
from repro.errors import TondIRError
from repro.sqlengine import connect


class TestTermParsing:
    def test_variable(self):
        assert parse_term("x") == Var("x")

    def test_constants(self):
        assert parse_term("42") == Const(42)
        assert parse_term("1.5") == Const(1.5)
        assert parse_term("'hi'") == Const("hi")
        assert parse_term("'it''s'") == Const("it's")
        assert parse_term("True") == Const(True)
        assert parse_term("None") == Const(None)

    def test_negative_number(self):
        assert parse_term("-3") == Const(-3)

    def test_precedence(self):
        t = parse_term("a + b * c")
        assert isinstance(t, BinOp) and t.op == "+"
        assert isinstance(t.right, BinOp) and t.right.op == "*"

    def test_parens(self):
        t = parse_term("(a + b) * c")
        assert t.op == "*"

    def test_comparison_and_logic(self):
        t = parse_term("a > 1 and b <> 'x' or c = 2")
        assert t.op == "or"
        assert t.left.op == "and"

    def test_if(self):
        t = parse_term("if(a = 1, 10, 20)")
        assert isinstance(t, If)

    def test_nested_if(self):
        t = parse_term("if(a = 1, 1, if(a = 2, 2, 0))")
        assert isinstance(t.otherwise, If)

    def test_aggregates(self):
        assert parse_term("sum(x)") == Agg("sum", Var("x"))
        assert parse_term("count(*)") == Agg("count", None)
        assert parse_term("avg(x * y)") == Agg("avg", BinOp("*", Var("x"), Var("y")))

    def test_external_functions(self):
        assert parse_term("uid()") == Ext("uid", ())
        assert parse_term("year(d)") == Ext("year", (Var("d"),))
        assert parse_term("substr(s, 1, 2)") == Ext("substr", (Var("s"), Const(1), Const(2)))

    def test_like(self):
        t = parse_term("s like '%green%'")
        assert t == BinOp("like", Var("s"), Const("%green%"))

    def test_trailing_garbage(self):
        with pytest.raises(TondIRError):
            parse_term("a b")


class TestRuleParsing:
    def test_simple_rule(self):
        r = parse_rule("R1(a, b) :- R(a, b, c)")
        assert r.head.rel == "R1"
        assert r.head.vars == ["a", "b"]
        assert r.rel_atoms()[0].rel == "R"

    def test_filter_and_assign(self):
        r = parse_rule("F(a, y) :- R(a, b), (b > 10), (y := a * 2)")
        kinds = [type(x).__name__ for x in r.body]
        assert kinds == ["RelAtom", "FilterAtom", "AssignAtom"]

    def test_group_head(self):
        r = parse_rule("G(k, s) group(k) :- R(k, v), (s := sum(v))")
        assert r.head.group == ["k"]

    def test_sort_limit_head(self):
        r = parse_rule("T(a) sort(a desc) limit(5) :- R(a, b)")
        assert r.head.sort.keys == [("a", False)]
        assert r.head.sort.limit == 5

    def test_distinct_head(self):
        r = parse_rule("D(a) distinct :- R(a, b)")
        assert r.head.distinct

    def test_exists(self):
        r = parse_rule("F(a) :- R(a, b), exists(S(x, y), (x = a))")
        ex = [x for x in r.body if isinstance(x, ExistsAtom)]
        assert len(ex) == 1 and not ex[0].negated

    def test_not_exists(self):
        r = parse_rule("F(a) :- R(a, b), not exists(S(x), (x = a))")
        ex = [x for x in r.body if isinstance(x, ExistsAtom)]
        assert ex[0].negated


class TestProgramParsing:
    PROGRAM = """
    v1(a, b) :- R(a, b, c), (c > 0).
    v2(a, s) group(a) :- v1(a, b), (s := sum(b)).
    -- sink: v2
    """

    def test_parse_program(self):
        p = parse_program(self.PROGRAM)
        assert len(p.rules) == 2
        assert p.sink == "v2"

    def test_sink_defaults_to_last(self):
        p = parse_program("v1(a) :- R(a).")
        assert p.sink == "v1"

    def test_roundtrip_through_printer(self):
        p = parse_program(self.PROGRAM)
        reparsed = parse_program(repr(p))
        assert repr(reparsed) == repr(p)

    def test_roundtrip_complex(self):
        text = (
            "F(a, y) sort(y desc) limit(3) :- R(a, b, c), (b like '%x%'), "
            "(y := if((a > 1), sum(b), 0)).\n-- sink: F"
        )
        p = parse_program(text)
        assert repr(parse_program(repr(p))) == repr(p)

    def test_parsed_program_optimizes_and_executes(self):
        p = parse_program("""
        v1(a, b) :- base(a, b, c), (c > 0).
        v2(b2, b) :- v1(a, b), (b2 := b * 2).
        v3(s) :- v2(b2, b), (s := sum(b2)).
        -- sink: v3
        """)
        opt = optimize(p, "O4")
        assert len(opt.rules) == 1
        db = connect()
        db.register("base", {"a": [1, 2], "b": [10, 20], "c": [1, -1]})
        sql = generate_sql(opt, {"base": ["a", "b", "c"]})
        assert db.execute(sql).to_dict() == {"s": [20]}

    def test_empty_program_rejected(self):
        with pytest.raises(TondIRError):
            parse_program("-- sink: x")


# The subset of TondIR the printer and parser round-trip (parser docstring).
_VARS = st.sampled_from(["a", "b", "k2", "x_1"])
_CONSTS = st.one_of(
    st.integers(-50, 50), st.sampled_from([0.5, -2.25, 10.0]),
    st.text(alphabet="ab %_", max_size=4), st.sampled_from([True, False, None]),
).map(Const)
_BIN_OPS = st.sampled_from(
    "+ - * / % = <> < <= > >= and or like".split())


def _extend_terms(inner):
    return st.one_of(
        st.builds(BinOp, _BIN_OPS, inner, inner),
        st.builds(If, inner, inner, inner),
        st.builds(Agg, st.sampled_from(["sum", "min", "max", "avg", "count",
                                        "count_distinct", "stddev", "var"]),
                  inner, st.booleans()),
        st.just(Agg("count", None)),
        st.builds(Ext, st.sampled_from(["year", "substr", "coalesce", "uid"]),
                  st.lists(inner, max_size=3).map(tuple)),
    )


_TERMS = st.recursive(st.one_of(_VARS.map(Var), _CONSTS), _extend_terms,
                      max_leaves=8)
_REL_ATOMS = st.builds(RelAtom, st.sampled_from(["R", "v1"]),
                       st.lists(st.one_of(_VARS, st.just("_")), min_size=1, max_size=3))
_FLAT_ATOMS = st.one_of(_REL_ATOMS, st.builds(AssignAtom, _VARS, _TERMS),
                        st.builds(FilterAtom, _TERMS))
_ATOMS = st.one_of(_FLAT_ATOMS, st.builds(
    ExistsAtom, st.lists(_FLAT_ATOMS, min_size=1, max_size=3), st.booleans()))
_SORTS = st.builds(SortSpec, st.lists(st.tuples(_VARS, st.booleans()),
                                      min_size=1, max_size=2),
                   st.one_of(st.none(), st.integers(0, 9)))
_HEADS = st.builds(Head, st.sampled_from(["v1", "v2", "out"]),
                   st.lists(_VARS, min_size=1, max_size=3),
                   st.one_of(st.none(), st.lists(_VARS, min_size=1, max_size=2)),
                   st.one_of(st.none(), _SORTS), st.booleans())
_RULES = st.builds(Rule, _HEADS, st.lists(_ATOMS, min_size=1, max_size=4))


class TestRoundTripSubset:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_RULES, min_size=1, max_size=3), st.data())
    def test_printed_program_parses_back_equal(self, rules, data):
        sink = data.draw(st.sampled_from([r.head.rel for r in rules]))
        program = Program(rules, sink)
        assert parse_program(repr(program)) == program

    @pytest.mark.parametrize("atom", [
        FilterAtom(BinOp(">=", Var("d"), Const(np.datetime64("1994-01-01", "D")))),
        AssignAtom("w", Win("rank", (), (), ((Var("a"), True),))),
        ConstRelAtom([[1]], ["a"]),
        OuterAtom("left", 0, 1, [("a", "b")]),
    ])
    def test_outside_the_subset(self, atom):
        # What the docstring excludes really does not round-trip.
        program = Program([Rule(Head("v1", ["a"]),
                                [RelAtom("R", ["a", "b", "d"]), atom])], "v1")
        try:
            assert parse_program(repr(program)) != program
        except TondIRError:
            pass
