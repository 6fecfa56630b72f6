"""Unit tests for the TondIR data structures and analyses."""


from repro.core.tondir.analysis import (
    body_unique_vars, consumers, contains_term, is_flow_breaker, references, unique_head_vars, used_vars,
)
from repro.core.tondir.ir import (
    Agg, AssignAtom, BinOp, Const, ConstRelAtom, ExistsAtom, Ext, FilterAtom,
    Head, If, OuterAtom, Program, RelAtom, Rule, SortSpec, Var, atom_vars,
    map_term_vars, rename_term, term_vars,
)


def rule(head, body):
    return Rule(head, body)


class TestTerms:
    def test_term_vars(self):
        t = BinOp("+", Var("a"), If(Var("c"), Const(1), Agg("sum", Var("d"))))
        assert term_vars(t) == {"a", "c", "d"}

    def test_term_vars_ext(self):
        assert term_vars(Ext("substr", (Var("s"), Const(1), Const(2)))) == {"s"}

    def test_count_star_has_no_vars(self):
        assert term_vars(Agg("count", None)) == set()

    def test_rename(self):
        t = BinOp("*", Var("a"), Var("b"))
        out = rename_term(t, {"a": "x"})
        assert term_vars(out) == {"x", "b"}

    def test_map_term_vars_substitution(self):
        t = BinOp("+", Var("a"), Const(1))
        out = map_term_vars(t, {"a": Const(41)})
        assert term_vars(out) == set()

    def test_repr_readable(self):
        r = Rule(
            Head("R", ["a", "s"], group=["a"], sort=SortSpec([("s", False)], limit=3)),
            [RelAtom("T", ["a", "b"]), AssignAtom("s", Agg("sum", Var("b")))],
        )
        text = repr(r)
        assert "group(a)" in text
        assert "sort(s desc) limit(3)" in text
        assert "sum(b)" in text


class TestAtoms:
    def test_atom_vars_rel(self):
        assert atom_vars(RelAtom("T", ["a", "b"])) == {"a", "b"}

    def test_atom_vars_exists(self):
        e = ExistsAtom([RelAtom("T", ["x"]), FilterAtom(BinOp("=", Var("x"), Var("y")))])
        assert atom_vars(e) == {"x", "y"}

    def test_atom_vars_outer(self):
        oa = OuterAtom("left", 0, 1, [("a", "b")])
        assert atom_vars(oa) == {"a", "b"}

    def test_rule_helpers(self):
        r = rule(Head("R", ["a"]), [
            RelAtom("T", ["a", "b"]),
            AssignAtom("c", Const(1)),
            ConstRelAtom([[1]], ["k"]),
        ])
        assert [a.rel for a in r.rel_atoms()] == ["T"]
        assert r.assigned_vars() == {"c"}
        assert r.bound_vars() == {"a", "b", "c", "k"}


class TestAnalyses:
    def test_references_includes_exists(self):
        r = rule(Head("R", ["a"]), [
            RelAtom("T", ["a"]),
            ExistsAtom([RelAtom("U", ["a"])]),
        ])
        assert references(r) == {"T", "U"}

    def test_consumers(self):
        p = Program(rules=[
            rule(Head("A", ["x"]), [RelAtom("base", ["x"])]),
            rule(Head("B", ["x"]), [RelAtom("A", ["x"])]),
        ], sink="B")
        cons = consumers(p)
        assert [r.head.rel for r in cons["A"]] == ["B"]
        assert [r.head.rel for r in cons["base"]] == ["A"]

    def test_contains_agg(self):
        r = rule(Head("R", ["s"]), [RelAtom("T", ["a"]), AssignAtom("s", Agg("sum", Var("a")))])
        assert contains_term(r, lambda t: isinstance(t, Agg))

    def test_contains_ext(self):
        r = rule(Head("R", ["i"]), [RelAtom("T", ["a"]), AssignAtom("i", Ext("uid", ()))])
        assert contains_term(r, lambda t: isinstance(t, Ext) and t.name == "uid")
        assert not contains_term(r, lambda t: isinstance(t, Ext) and t.name == "year")

    def test_flow_breakers(self):
        base = [RelAtom("T", ["a"])]
        p = Program(rules=[], sink="SINK")
        assert is_flow_breaker(rule(Head("R", ["a"], group=["a"]), base), p)
        assert is_flow_breaker(rule(Head("R", ["a"], sort=SortSpec([("a", True)])), base), p)
        assert is_flow_breaker(rule(Head("R", ["a"], distinct=True), base), p)
        assert is_flow_breaker(rule(Head("SINK", ["a"]), base), p)
        agg = rule(Head("R", ["s"]), base + [AssignAtom("s", Agg("sum", Var("a")))])
        assert is_flow_breaker(agg, p)
        uid = rule(Head("R", ["i"]), base + [AssignAtom("i", Ext("uid", ()))])
        assert is_flow_breaker(uid, p)
        plain = rule(Head("R", ["a"]), base + [FilterAtom(BinOp(">", Var("a"), Const(1)))])
        assert not is_flow_breaker(plain, p)

    def test_used_vars_join_counts(self):
        r = rule(Head("R", ["a"]), [RelAtom("T", ["a", "j"]), RelAtom("U", ["j", "b"])])
        assert "j" in used_vars(r)
        assert "b" not in used_vars(r)

    def test_used_vars_assignment_constraint(self):
        # x := term where x is also bound by a relation = an equality filter.
        r = rule(Head("R", ["a"]), [
            RelAtom("T", ["a", "x"]),
            AssignAtom("x", BinOp("+", Var("a"), Const(1))),
        ])
        assert "x" in used_vars(r)

    def test_unique_propagation_single_source(self):
        p = Program(rules=[
            rule(Head("F", ["id", "v"]), [
                RelAtom("base", ["id", "v"]),
                FilterAtom(BinOp(">", Var("v"), Const(0))),
            ]),
        ], sink="F")
        uniq = unique_head_vars(p, {"base": {"id"}})
        assert uniq["F"] == {"id"}

    def test_unique_propagation_group(self):
        p = Program(rules=[
            rule(Head("G", ["k", "s"], group=["k"]), [
                RelAtom("base", ["k", "v"]),
                AssignAtom("s", Agg("sum", Var("v"))),
            ]),
        ], sink="G")
        uniq = unique_head_vars(p, {"base": set()})
        assert uniq["G"] == {"k"}

    def test_unique_propagation_uid(self):
        p = Program(rules=[
            rule(Head("F", ["i", "v"]), [
                RelAtom("base", ["v"]),
                AssignAtom("i", Ext("uid", ())),
            ]),
        ], sink="F")
        assert unique_head_vars(p, {})["F"] == {"i"}

    def test_unique_lost_through_n_to_m_join(self):
        r = rule(Head("J", ["id", "w"]), [
            RelAtom("a", ["id", "k"]),
            RelAtom("b", ["k", "w"]),
        ])
        p = Program(rules=[r], sink="J")
        # b joins through k which is NOT unique in b -> id no longer unique.
        uniq = unique_head_vars(p, {"a": {"id"}, "b": set()})
        assert uniq["J"] == set()

    def test_unique_kept_through_n_to_1_join(self):
        r = rule(Head("J", ["id", "w"]), [
            RelAtom("a", ["id", "k"]),
            RelAtom("b", ["k", "w"]),
        ])
        p = Program(rules=[r], sink="J")
        uniq = unique_head_vars(p, {"a": {"id"}, "b": {"k"}})
        assert "id" in uniq["J"]

    def test_body_unique_vars_self_join(self):
        r = rule(Head("R", ["id"]), [
            RelAtom("a", ["id", "x"]),
            RelAtom("a", ["id", "y"]),
        ])
        assert "id" in body_unique_vars(r, {"a": {"id"}})
