"""Every TondIR traversal derives from the shape ``ir`` declares per class:
properties over a zoo holding one fully populated node of every concrete
term and atom class, so a field cannot be forgotten by one traversal."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.tondir import ir
from repro.core.tondir.ir import (
    Agg, AssignAtom, Atom, BinOp, Const, ConstRelAtom, ExistsAtom, Ext,
    FilterAtom, Head, If, OuterAtom, Program, RelAtom, Rule, SortSpec, Term,
    Var, Win, atom_terms, atom_vars, children, map_children, rename_atom, walk,
)
from repro.core.tondir.optimize import optimize

TERMS = {
    "Var": Var("a"),
    "Const": Const(7),
    "BinOp": BinOp("+", Var("a"), Const(2)),
    "If": If(Var("c"), Var("a"), Const(0)),
    "Agg": Agg("sum", BinOp("*", Var("a"), Var("b")), True),
    "Ext": Ext("substr", (Var("s"), Const(1), Const(2))),
    "Win": Win("sum", (Var("a"),), (Var("k"), Var("j")),
               ((Var("t"), False), (Var("a"), True)),
               ("rows", "unbounded_preceding", None, "current", None)),
}
ATOMS = {
    "RelAtom": RelAtom("R", ["a", "_", "b"]),
    # The row value 'a' is data, not the variable a.
    "ConstRelAtom": ConstRelAtom([[1, "a"], [2, "b"]], ["a", "b"]),
    "ExistsAtom": ExistsAtom([RelAtom("S", ["a", "_", "z"]),
                              FilterAtom(BinOp("=", Var("z"), Var("b")))], True),
    "AssignAtom": AssignAtom("v", If(Var("c"), Var("a"), Agg("count", None))),
    "FilterAtom": FilterAtom(Ext("like", (Var("s"), Const("a%")))),
    "OuterAtom": OuterAtom("left", 0, 1, [("a", "b"), ("c", "d")]),
}
ZOO = {**TERMS, **ATOMS}
CONCRETE = sorted(ZOO)


def _crawl_terms(value) -> list:
    """The terms held under *value* without passing through a term,
    atoms entered, by crawling whatever the dataclass fields hold."""
    if isinstance(value, Term):
        return [value]
    if isinstance(value, (list, tuple)):
        return [t for v in value for t in _crawl_terms(v)]
    if isinstance(value, Atom):
        return [t for f in dataclasses.fields(value)
                for t in _crawl_terms(getattr(value, f.name))]
    return []


def _fields_terms(node) -> list:
    return [t for f in dataclasses.fields(node)
            for t in _crawl_terms(getattr(node, f.name))]


def _leaves(value, path=()):
    """(path, value) for every non-container leaf; a path step is
    (class name, field name) or a list/tuple index."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name),
                               path + ((type(value).__name__, f.name),))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _leaves(v, path + (i,))
    else:
        yield path, value


def _declared_variable(path) -> bool:
    """Does the leaf at *path* sit in a field the class declares as a
    variable (a binding, a reference, or a Var's name)?"""
    cls_name, field = [step for step in path if isinstance(step, tuple)][-1]
    if (cls_name, field) == ("Var", "name"):
        return True
    role = dict(getattr(ir, cls_name)._shape)[field]
    return role in (ir._BIND, ir._BINDS, ir._REFS)


def _mutables(value, out: dict) -> dict:
    """id -> object for every list, atom, rule, head and sort spec under
    *value* (terms are immutable and not collected)."""
    if isinstance(value, (list, Atom, Rule, Head, SortSpec, Program)):
        out[id(value)] = value
    if isinstance(value, (list, tuple)):
        for v in value:
            _mutables(v, out)
    elif dataclasses.is_dataclass(value) and not isinstance(value, Term):
        for f in dataclasses.fields(value):
            _mutables(getattr(value, f.name), out)
    return out


class TestDeclaredShape:
    def test_every_node_class_is_declared_and_in_the_zoo(self):
        defined = sorted(
            name for name, cls in vars(ir).items()
            if dataclasses.is_dataclass(cls) and cls.__module__ == ir.__name__
            and issubclass(cls, (Term, Atom)))
        assert defined == CONCRETE
        for name in CONCRETE:
            cls = getattr(ir, name)
            assert [field for field, _ in cls._shape] == [
                f.name for f in dataclasses.fields(cls)], name

    def test_zoo_is_fully_populated(self):
        for name, node in ZOO.items():
            for f in dataclasses.fields(node):
                value = getattr(node, f.name)
                assert value is not None and value != [] and value != (), \
                    f"{name}.{f.name}"

    @pytest.mark.parametrize("name", sorted(TERMS))
    def test_children_are_every_held_term(self, name):
        term = TERMS[name]
        expected = _fields_terms(term)
        got = children(term)
        assert len(got) == len(expected) and all(
            g is e for g, e in zip(got, expected)), name

    @pytest.mark.parametrize("name", sorted(TERMS))
    def test_walk_is_pre_order(self, name):
        def reference(term):
            return [term] + [t for c in _fields_terms(term) for t in reference(c)]

        expected = reference(TERMS[name])
        got = walk(TERMS[name])
        assert len(got) == len(expected) and all(
            g is e for g, e in zip(got, expected)), name

    @pytest.mark.parametrize("name", sorted(ATOMS))
    def test_atom_terms_are_every_held_term(self, name):
        atom = ATOMS[name]
        expected = _fields_terms(atom)
        got = atom_terms(atom)
        assert len(got) == len(expected) and all(
            g is e for g, e in zip(got, expected)), name

    @pytest.mark.parametrize("name", sorted(TERMS))
    def test_map_children_identity(self, name):
        term = TERMS[name]
        seen = []

        def identity(t):
            seen.append(t)
            return t

        rebuilt = map_children(term, identity)
        assert rebuilt == term and repr(rebuilt) == repr(term), name
        assert len(seen) == len(children(term)) and all(
            s is c for s, c in zip(seen, children(term))), name

    @pytest.mark.parametrize("name", sorted(TERMS))
    def test_map_children_replaces_each_child(self, name):
        term = TERMS[name]
        marker = Var("marked")
        rebuilt = map_children(term, lambda t: marker)
        assert children(rebuilt) == [marker] * len(children(term)), name
        assert type(rebuilt) is type(term)

    @pytest.mark.parametrize("name", sorted(ATOMS))
    def test_rename_changes_exactly_the_declared_variables(self, name):
        atom = ATOMS[name]
        before = list(_leaves(atom))
        # Every string leaf gets a new name — variables, relation names,
        # functions and row data alike; only variables may take it.
        renames = {v: v + "9" for _, v in before if isinstance(v, str)}
        renamed = rename_atom(atom, renames)
        after = list(_leaves(renamed))
        assert [p for p, _ in after] == [p for p, _ in before], name
        for (path, old), (_, new) in zip(before, after):
            if old == "_" or not _declared_variable(path):
                assert new == old and type(new) is type(old), (name, path)
            else:
                assert new == renames[old], (name, path)
        assert atom_vars(renamed) == {renames[v] for v in atom_vars(atom)}
        assert "_" not in atom_vars(atom)
        # A new atom: nothing mutable is shared with the original.
        assert not _mutables(atom, {}).keys() & _mutables(renamed, {}).keys()
        assert repr(atom) == repr(ATOMS[name])

    def test_undeclared_annotation_fails_at_import(self):
        with pytest.raises(TypeError, match="no role"):
            @dataclasses.dataclass(frozen=True)
            class Lookup(Term):
                table: dict[str, Term]

        with pytest.raises(TypeError, match="no role"):
            @dataclasses.dataclass
            class Marker(Atom):
                seen: set[str]

    def test_a_new_node_class_needs_no_traversal_code(self):
        @dataclasses.dataclass(frozen=True)
        class Coalesce(Term):
            first: Term
            rest: tuple[Term, ...] = ()

        term = Coalesce(Var("a"), (Var("b"), Const(0)))
        assert children(term) == [Var("a"), Var("b"), Const(0)]
        assert ir.term_vars(term) == {"a", "b"}
        assert ir.rename_term(term, {"a": "x"}) == Coalesce(Var("x"), (Var("b"), Const(0)))


def _programs() -> list[Program]:
    """Programs that make every pass fire, holding every atom class."""
    chain = Program(rules=[
        Rule(Head("F", ["a", "b", "c"]),
             [RelAtom("R", ["a", "b", "c"]), FilterAtom(BinOp(">", Var("a"), Const(0))),
              AssignAtom("d", BinOp("*", Var("b"), Const(2)))]),
        Rule(Head("G", ["a", "s"], group=["a"]),
             [RelAtom("F", ["a", "b", "_"]), RelAtom("F", ["a", "b2", "_"]),
              AssignAtom("s", Agg("sum", BinOp("+", Var("b"), Var("b2"))))]),
        Rule(Head("K", ["k"]), [ConstRelAtom([[1], [2]], ["k"])]),
        Rule(Head("out", ["a", "s"], sort=SortSpec([("s", False)], limit=5)),
             [RelAtom("G", ["a", "s"]), RelAtom("K", ["a"]),
              ExistsAtom([RelAtom("F", ["a", "_", "c"]),
                          FilterAtom(BinOp("<", Var("c"), Const(9)))], True)]),
    ], sink="out")
    outer = Program(rules=[
        Rule(Head("L", ["a", "x"]), [RelAtom("R", ["a", "x", "_"])]),
        Rule(Head("out", ["a", "y"]),
             [RelAtom("L", ["a", "x"]), RelAtom("S", ["y", "z"]),
              OuterAtom("left", 0, 1, [("a", "y")]),
              AssignAtom("w", Win("rank", (), (Var("a"),), ((Var("x"), True),)))]),
    ], sink="out")
    return [chain, outer]


class TestProgramCopy:
    @pytest.mark.parametrize("level", ["O0", "O1", "O2", "O3", "O4"])
    def test_optimize_leaves_its_input_alone(self, level):
        for program in _programs():
            before = repr(program)
            out = optimize(program, level, base_unique={"R": {"a"}})
            assert repr(program) == before
            shared = _mutables(program, {}).keys() & _mutables(out, {}).keys()
            assert not shared, [_mutables(program, {})[i] for i in shared]

    def test_copy_shares_terms_only(self):
        for program in _programs():
            copied = program.copy()
            assert repr(copied) == repr(program) and copied == program
            assert not _mutables(program, {}).keys() & _mutables(copied, {}).keys()
            original = [t for r in program.rules for a in r.body for t in atom_terms(a)]
            shared = [t for r in copied.rules for a in r.body for t in atom_terms(a)]
            assert all(a is b for a, b in zip(original, shared))
