"""Unit tests for the four TondIR optimization passes (Section IV)."""

import numpy as np
import pytest

import repro.dataframe as rpd
from repro import connect, pytond
from repro.core.tondir.ir import (
    Agg, AssignAtom, BinOp, Const, ExistsAtom, Ext, FilterAtom, Head, If,
    OuterAtom, Program, RelAtom, Rule, SortSpec, Var,
)
from repro.core.tondir.optimize import (
    OPT_LEVELS, global_dce, group_aggregate_elimination, local_dce, optimize,
    self_join_elimination,
)


class TestLocalDCE:
    def test_removes_unused_assignment(self):
        # The paper's example: R1(y) :- R(a,b), (x=a), (y=a*b).
        p = Program(rules=[Rule(
            Head("R1", ["y"]),
            [RelAtom("R", ["a", "b"]),
             AssignAtom("x", Var("a")),
             AssignAtom("y", BinOp("*", Var("a"), Var("b")))],
        )], sink="R1")
        assert local_dce(p)
        assigns = [a for a in p.rules[0].body if isinstance(a, AssignAtom)]
        assert [a.var for a in assigns] == ["y"]

    def test_keeps_transitively_used(self):
        p = Program(rules=[Rule(
            Head("R1", ["y"]),
            [RelAtom("R", ["a"]),
             AssignAtom("x", Var("a")),
             AssignAtom("y", BinOp("+", Var("x"), Const(1)))],
        )], sink="R1")
        assert not local_dce(p)

    def test_removes_assignment_chains(self):
        p = Program(rules=[Rule(
            Head("R1", ["a"]),
            [RelAtom("R", ["a"]),
             AssignAtom("x", Var("a")),
             AssignAtom("y", Var("x"))],
        )], sink="R1")
        assert local_dce(p)
        assert not [a for a in p.rules[0].body if isinstance(a, AssignAtom)]

    def test_keeps_sort_and_group_vars(self):
        p = Program(rules=[Rule(
            Head("R1", ["a"], sort=SortSpec([("s", True)])),
            [RelAtom("R", ["a", "b"]), AssignAtom("s", Var("b"))],
        )], sink="R1")
        assert not local_dce(p)


class TestGlobalDCE:
    def test_paper_column_pruning_example(self):
        # R1 produces c,d that R2 never uses.
        p = Program(rules=[
            Rule(Head("R1", ["a", "b", "c", "d"]),
                 [RelAtom("R", ["a", "b", "c", "d"]),
                  FilterAtom(BinOp("<", Var("a"), Const(10)))]),
            Rule(Head("R2", ["a", "s"], group=["a"]),
                 [RelAtom("R1", ["a", "b", "c", "d"]),
                  AssignAtom("s", Agg("sum", Var("b")))]),
        ], sink="R2")
        assert global_dce(p)
        assert p.rules[0].head.vars == ["a", "b"]
        assert p.rules[1].rel_atoms()[0].vars == ["a", "b"]

    def test_drops_unreachable_rules(self):
        p = Program(rules=[
            Rule(Head("dead", ["x"]), [RelAtom("R", ["x"])]),
            Rule(Head("live", ["x"]), [RelAtom("R", ["x"])]),
        ], sink="live")
        assert global_dce(p)
        assert [r.head.rel for r in p.rules] == ["live"]

    def test_exists_access_keeps_columns(self):
        p = Program(rules=[
            Rule(Head("sub", ["k", "v"]), [RelAtom("R", ["k", "v"])]),
            Rule(Head("out", ["x"]),
                 [RelAtom("S", ["x"]),
                  ExistsAtom([RelAtom("sub", ["k", "v"]),
                              FilterAtom(BinOp("=", Var("k"), Var("x")))])]),
        ], sink="out")
        global_dce(p)
        assert p.rules[0].head.vars == ["k", "v"]

    def test_sink_never_pruned(self):
        p = Program(rules=[
            Rule(Head("only", ["a", "b"]), [RelAtom("R", ["a", "b"])]),
        ], sink="only")
        assert not global_dce(p)
        assert p.rules[0].head.vars == ["a", "b"]


class TestGroupAggregateElimination:
    def _program(self):
        return Program(rules=[Rule(
            Head("R1", ["ID", "s"], group=["ID"]),
            [RelAtom("R", ["ID", "a", "b", "c"]),
             AssignAtom("s", Agg("sum", Var("b")))],
        )], sink="R1")

    def test_paper_example(self):
        p = self._program()
        assert group_aggregate_elimination(p, {"R": {"ID"}})
        r = p.rules[0]
        assert r.head.group is None
        assign = next(a for a in r.body if isinstance(a, AssignAtom))
        # pandas sums a group holding only NULL to 0.
        assert assign.term == Ext("coalesce", (Var("b"), Const(0)))

    def test_requires_uniqueness(self):
        p = self._program()
        assert not group_aggregate_elimination(p, {"R": set()})
        assert p.rules[0].head.group == ["ID"]

    def test_count_becomes_one(self):
        p = Program(rules=[Rule(
            Head("R1", ["ID", "n"], group=["ID"]),
            [RelAtom("R", ["ID", "a"]), AssignAtom("n", Agg("count", None))],
        )], sink="R1")
        group_aggregate_elimination(p, {"R": {"ID"}})
        assign = next(a for a in p.rules[0].body if isinstance(a, AssignAtom))
        assert assign.term == Const(1)

    def test_multi_key_group_untouched(self):
        p = Program(rules=[Rule(
            Head("R1", ["ID", "k", "s"], group=["ID", "k"]),
            [RelAtom("R", ["ID", "k", "b"]), AssignAtom("s", Agg("sum", Var("b")))],
        )], sink="R1")
        assert not group_aggregate_elimination(p, {"R": {"ID"}})


class TestSelfJoinElimination:
    def test_paper_example(self):
        p = Program(rules=[Rule(
            Head("R1", ["z"]),
            [RelAtom("R", ["a", "b1", "c1", "d1"]),
             RelAtom("R", ["a", "b2", "c2", "d2"]),
             AssignAtom("z", BinOp("*", Var("b1"), Var("c2")))],
        )], sink="R1")
        assert self_join_elimination(p, {"R": {"a"}})
        r = p.rules[0]
        assert len(r.rel_atoms()) == 1
        assign = next(a for a in r.body if isinstance(a, AssignAtom))
        assert assign.term == BinOp("*", Var("b1"), Var("c1"))

    def test_requires_unique_join_column(self):
        p = Program(rules=[Rule(
            Head("R1", ["z"]),
            [RelAtom("R", ["a", "b1"]), RelAtom("R", ["a", "b2"]),
             AssignAtom("z", BinOp("*", Var("b1"), Var("b2")))],
        )], sink="R1")
        assert not self_join_elimination(p, {"R": set()})

    def test_different_relations_untouched(self):
        p = Program(rules=[Rule(
            Head("R1", ["b1"]),
            [RelAtom("R", ["a", "b1"]), RelAtom("S", ["a", "b2"])],
        )], sink="R1")
        assert not self_join_elimination(p, {"R": {"a"}, "S": {"a"}})

    def test_three_way_self_join_collapses(self):
        p = Program(rules=[Rule(
            Head("R1", ["b1", "b2", "b3"]),
            [RelAtom("R", ["a", "b1"]), RelAtom("R", ["a", "b2"]),
             RelAtom("R", ["a", "b3"])],
        )], sink="R1")
        assert self_join_elimination(p, {"R": {"a"}})
        assert len(p.rules[0].rel_atoms()) == 1


class TestRuleInlining:
    def test_paper_example_collapses_chain(self):
        p = Program(rules=[
            Rule(Head("R2", ["b", "c", "d"]),
                 [RelAtom("R1", ["a", "b", "c", "d"]),
                  FilterAtom(BinOp(">", Var("a"), Const(1000)))]),
            Rule(Head("R3", ["b", "d"]),
                 [RelAtom("R2", ["b", "c", "d"]),
                  FilterAtom(BinOp("<>", Var("c"), Const("A")))]),
            Rule(Head("R5", ["e", "g"]),
                 [RelAtom("R4", ["e", "f", "g"]),
                  FilterAtom(BinOp(">", Var("f"), Const(100)))]),
            Rule(Head("R6", ["b", "g"]),
                 [RelAtom("R3", ["b", "x"]), RelAtom("R5", ["x", "g"])]),
            Rule(Head("R7", ["b", "m"], group=["b"]),
                 [RelAtom("R6", ["b", "g"]), AssignAtom("m", Agg("max", Var("g")))]),
        ], sink="R7")
        out = optimize(p, "O4")
        assert len(out.rules) == 1
        body_rels = [a.rel for a in out.rules[0].rel_atoms()]
        assert sorted(body_rels) == ["R1", "R4"]

    def test_flow_breaker_not_inlined(self):
        p = Program(rules=[
            Rule(Head("G", ["k", "s"], group=["k"]),
                 [RelAtom("R", ["k", "v"]), AssignAtom("s", Agg("sum", Var("v")))]),
            Rule(Head("out", ["k", "s"]),
                 [RelAtom("G", ["k", "s"]), FilterAtom(BinOp(">", Var("s"), Const(0)))]),
        ], sink="out")
        out = optimize(p, "O4")
        assert len(out.rules) == 2

    def test_uid_rule_not_inlined(self):
        p = Program(rules=[
            Rule(Head("U", ["i", "v"]),
                 [RelAtom("R", ["v"]), AssignAtom("i", Ext("uid", ()))]),
            Rule(Head("out", ["i"]), [RelAtom("U", ["i", "v"])]),
        ], sink="out")
        out = optimize(p, "O4")
        assert len(out.rules) == 2

    def test_cheap_rule_inlined_into_two_readers(self):
        p = Program(rules=[
            Rule(Head("F", ["a", "b"]),
                 [RelAtom("R", ["a", "b"]), FilterAtom(BinOp(">", Var("a"), Const(0)))]),
            Rule(Head("out", ["x", "y"]),
                 [RelAtom("F", ["x", "k"]), RelAtom("F", ["k", "y"])]),
        ], sink="out")
        out = optimize(p, "O4")
        assert len(out.rules) == 1
        assert all(a.rel == "R" for a in out.rules[0].rel_atoms())

    def test_outer_join_reader_not_spliced(self):
        p = Program(rules=[
            Rule(Head("F", ["a"]),
                 [RelAtom("R", ["a"]), FilterAtom(BinOp(">", Var("a"), Const(0)))]),
            Rule(Head("out", ["a", "b"]),
                 [RelAtom("F", ["a"]), RelAtom("S", ["b"]),
                  OuterAtom("left", 0, 1, [("a", "b")])]),
        ], sink="out")
        out = optimize(p, "O4")
        assert len(out.rules) == 2

    def test_access_ignoring_a_column_the_producer_filters_on(self):
        # H reads F(x, _); F filters on the ignored column.  Inlined, that
        # column must get a fresh name, not become the placeholder.
        from repro.core.codegen import generate_sql

        p = Program(rules=[
            Rule(Head("F", ["a", "b"]),
                 [RelAtom("R", ["a", "b"]), FilterAtom(BinOp(">", Var("b"), Const(0)))]),
            Rule(Head("G", ["a", "b"]),
                 [RelAtom("F", ["a", "b"]), FilterAtom(BinOp(">", Var("a"), Const(1)))]),
            Rule(Head("H", ["x"], distinct=True),
                 [RelAtom("F", ["x", "_"]), FilterAtom(BinOp("<", Var("x"), Const(5)))]),
            Rule(Head("out", ["a", "b", "x"]),
                 [RelAtom("G", ["a", "b"]), RelAtom("H", ["x"])]),
        ], sink="out")
        out = optimize(p, "O4")
        h = out.rule_for("H")
        assert h.rel_atoms()[0].vars[1] != "_"
        db = connect()
        db.register("R", {"a": [1, 2, 3], "b": [1, -1, 2]})
        got = db.execute(generate_sql(out, {"R": ["a", "b"]})).to_dict()
        assert sorted(zip(got["a"], got["b"], got["x"])) == [
            (3, 2, 1), (3, 2, 3)]


class TestPipeline:
    def test_levels_defined(self):
        assert set(OPT_LEVELS) == {"O0", "O1", "O2", "O3", "O4"}
        assert OPT_LEVELS["O0"] == ()

    def test_o0_is_identity(self):
        p = Program(rules=[Rule(
            Head("R1", ["y"]),
            [RelAtom("R", ["a", "b"]),
             AssignAtom("x", Var("a")),
             AssignAtom("y", Var("b"))],
        )], sink="R1")
        out = optimize(p, "O0")
        assert len([a for a in out.rules[0].body if isinstance(a, AssignAtom)]) == 2

    def test_optimize_is_pure(self):
        p = Program(rules=[Rule(
            Head("R1", ["y"]),
            [RelAtom("R", ["a", "b"]),
             AssignAtom("x", Var("a")),
             AssignAtom("y", Var("b"))],
        )], sink="R1")
        optimize(p, "O4")
        assert len([a for a in p.rules[0].body if isinstance(a, AssignAtom)]) == 2

    def test_unknown_level_raises(self):
        from repro.errors import TondIRError

        with pytest.raises(TondIRError):
            optimize(Program(rules=[], sink="x"), "O9")

    def test_covariance_pattern_self_join_plus_groupagg(self):
        """The end-to-end Figure 2 pattern: join on unique id, self-join of
        the view, group by the unique id — O4 collapses everything."""
        p = Program(rules=[
            Rule(Head("v1", ["ID", "c0", "c1"]),
                 [RelAtom("x", ["ID", "c0"]), RelAtom("y", ["ID", "c1"])]),
            Rule(Head("v2", ["ID", "p"], group=["ID"]),
                 [RelAtom("v1", ["ID", "a0", "a1"]),
                  RelAtom("v1", ["ID", "b0", "b1"]),
                  AssignAtom("p", Agg("sum", BinOp("*", Var("a0"), Var("b1"))))]),
        ], sink="v2")
        out = optimize(p, "O4", base_unique={"x": {"ID"}, "y": {"ID"}})
        sink_rule = out.rules[-1]
        # Self-join eliminated: only one access of v1 (inlined to x,y).
        assert sink_rule.head.group is None
        rels = sorted(a.rel for a in sink_rule.rel_atoms())
        assert rels == ["x", "y"]


# One @pytond function per aggregate: the translator reads their source.

@pytond()
def _agg_sum(t):
    return t.groupby('id').agg(v=('x', 'sum')).reset_index().sort_values('id')


@pytond()
def _agg_count(t):
    return t.groupby('id').agg(v=('x', 'count')).reset_index().sort_values('id')


@pytond()
def _agg_nunique(t):
    return t.groupby('id').agg(v=('x', 'nunique')).reset_index().sort_values('id')


@pytond()
def _agg_size(t):
    return t.groupby('id').agg(v=('x', 'size')).reset_index().sort_values('id')


@pytond()
def _agg_mean(t):
    return t.groupby('id').agg(v=('x', 'mean')).reset_index().sort_values('id')


@pytond()
def _agg_min(t):
    return t.groupby('id').agg(v=('x', 'min')).reset_index().sort_values('id')


@pytond()
def _agg_max(t):
    return t.groupby('id').agg(v=('x', 'max')).reset_index().sort_values('id')


@pytond()
def _agg_std(t):
    return t.groupby('id').agg(v=('x', 'std')).reset_index().sort_values('id')


@pytond()
def _agg_var(t):
    return t.groupby('id').agg(v=('x', 'var')).reset_index().sort_values('id')


def _null_rule_env():
    data = {"id": np.array([1, 2, 3, 4], dtype=np.int64),
            "x": np.array([1.0, np.nan, 3.0, 4.0])}
    db = connect()
    db.register("t", data, primary_key="id")
    return db, rpd.DataFrame(data)


def _values(frame) -> list:
    return [None if v != v else float(v) for v in frame.to_dict()["v"]]


class TestGroupAggregateNullRules:
    """O2 collapses a group-by over a unique key; each aggregate must still
    answer what pandas answers for a one-row group whose value is NULL."""

    @pytest.mark.parametrize("func, expected", [
        ("sum", [1.0, 0.0, 3.0, 4.0]),
        ("count", [1.0, 0.0, 1.0, 1.0]),
        ("nunique", [1.0, 0.0, 1.0, 1.0]),
        ("size", [1.0, 1.0, 1.0, 1.0]),
        ("mean", [1.0, None, 3.0, 4.0]),
        ("min", [1.0, None, 3.0, 4.0]),
        ("max", [1.0, None, 3.0, 4.0]),
    ])
    @pytest.mark.parametrize("level", ["O1", "O4"])
    @pytest.mark.parametrize("backend", ["hyper", "sqlite"])
    def test_collapsed_aggregate_matches_python(self, func, expected, level, backend):
        db, frame = _null_rule_env()
        f = globals()[f"_agg_{func}"]
        assert _values(f(frame)) == expected
        assert _values(f.run(db, backend, level=level)) == expected
        # The collapse fired: no rule of the O4 program groups any more.
        assert all(r.head.group is None for r in f.tondir("O4", db).rules)

    @pytest.mark.parametrize("func", ["std", "var"])
    @pytest.mark.parametrize("level", ["O1", "O4"])
    def test_spread_keeps_its_group(self, func, level):
        # sqlite has no STDDEV / VAR: the native engine is the SQL side.
        db, frame = _null_rule_env()
        f = globals()[f"_agg_{func}"]
        assert _values(f(frame)) == [None] * 4
        assert _values(f.run(db, "hyper", level=level)) == [None] * 4
        assert any(r.head.group == ["id"] for r in f.tondir("O4", db).rules)

    def test_collapse_rules(self):
        x = Var("x")
        rules = [
            (Agg("sum", x), Ext("coalesce", (x, Const(0)))),
            (Agg("count", x), If(Ext("notnull", (x,)), Const(1), Const(0))),
            (Agg("count_distinct", x), If(Ext("notnull", (x,)), Const(1), Const(0))),
            (Agg("count", None), Const(1)),
            (Agg("avg", x), x), (Agg("min", x), x), (Agg("max", x), x),
        ]
        for agg, collapsed in rules:
            p = Program(rules=[Rule(
                Head("R1", ["ID", "v"], group=["ID"]),
                [RelAtom("R", ["ID", "x"]),
                 AssignAtom("v", BinOp("+", agg, Const(1)))])], sink="R1")
            assert group_aggregate_elimination(p, {"R": {"ID"}})
            assert p.rules[0].body[1].term == BinOp("+", collapsed, Const(1)), agg
