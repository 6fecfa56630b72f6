"""TondIR: the Datalog-inspired intermediate representation of Table IV.

Grammar correspondence (paper Table IV):

* ``Program``  — a list of rules plus the sink relation name.
* ``Rule``     — ``Head :- Body.``
* ``Head``     — relation access with optional ``group(x)`` and
  ``sort(x, b)[limit(n)]`` clauses.
* Body atoms   — relation access (:class:`RelAtom`), constant relation
  (:class:`ConstRelAtom`), existential filter (:class:`ExistsAtom`), and
  logical/assignment atoms.  The paper folds comparison and assignment into
  one ``x θ t`` form where an already-bound left side means comparison; we
  keep them as distinct classes (:class:`FilterAtom` / :class:`AssignAtom`)
  with the same semantics, which simplifies the optimizer.
* Terms        — variables, aggregations, external functions, conditionals,
  binary operations, constants.

Outer joins are encoded with :class:`OuterAtom` markers, the translation of
the paper's ``outer_left/outer_right/outer_full`` external atoms
(Section III-C).

This module is the one place that knows a node's shape.  What each field of
a term or atom holds — a term, a tuple of terms, ``(term, ascending)``
pairs, a variable it binds, variable pairs it references, a nested body,
constant rows, or a plain attribute — is read off the field's annotation
once, at class creation (:data:`_ROLES`); an annotation with no role fails
at import.  Every traversal derives from that: :func:`children`,
:func:`walk` and :func:`map_children` for terms, :func:`atom_terms`,
:func:`atom_binds`, :func:`atom_vars`, :func:`rename_atom` and
:func:`relation_accesses` for atoms, and :meth:`Program.copy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

__all__ = [
    "Term", "Var", "Const", "BinOp", "If", "Agg", "Ext", "Win",
    "Atom", "RelAtom", "ConstRelAtom", "ExistsAtom", "AssignAtom",
    "FilterAtom", "OuterAtom",
    "SortSpec", "Head", "Rule", "Program",
    "children", "walk", "map_children", "term_vars", "map_term_vars",
    "rename_term", "atom_terms", "atom_binds", "atom_vars", "rename_atom",
    "relation_accesses",
]

# A field annotated ``VarName`` holds a variable name; ``"_"`` is the
# placeholder for an ignored column and is never renamed.
VarName = str

# What a field holds.
_ATTR, _TERM, _TERMS, _KEYED, _BIND, _BINDS, _REFS, _BODY, _ROWS = range(9)

# Field annotation (blanks removed) -> role.
_ROLES = {
    "str": _ATTR, "bool": _ATTR, "int": _ATTR, "object": _ATTR,
    "Optional[tuple]": _ATTR,
    "Term": _TERM,
    "Optional[Term]": _TERM,                    # count(*) has no argument
    "tuple[Term,...]": _TERMS,
    "tuple[tuple[Term,bool],...]": _KEYED,      # (term, ascending) pairs
    "VarName": _BIND,
    "list[VarName]": _BINDS,
    "list[tuple[VarName,VarName]]": _REFS,      # joined, not bound
    "list[Atom]": _BODY,
    "list[list[object]]": _ROWS,
}


class _Shaped:
    """``_shape`` pairs every dataclass field, in declaration order, with
    its role."""

    _shape: tuple = ()

    def __init_subclass__(cls) -> None:
        shape = []
        for name, annotation in cls.__dict__.get("__annotations__", {}).items():
            role = _ROLES.get(annotation.replace(" ", ""))
            if role is None:
                raise TypeError(f"{cls.__name__}.{name}: no role for "
                                f"annotation {annotation!r}")
            shape.append((name, role))
        cls._shape = tuple(shape)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term(_Shaped):
    """Base class for TondIR terms."""


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const(Term):
    value: object  # int | float | bool | str | numpy datetime64 | None

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class BinOp(Term):
    op: str  # + - * / % = <> < <= > >= and or like
    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class If(Term):
    cond: Term
    then: Term
    otherwise: Term

    def __repr__(self) -> str:
        return f"if({self.cond!r}, {self.then!r}, {self.otherwise!r})"


@dataclass(frozen=True)
class Agg(Term):
    func: str  # sum min max avg count count_distinct stddev var
    arg: Optional[Term]  # None for count(*)
    distinct: bool = False

    def __repr__(self) -> str:
        inner = "*" if self.arg is None else repr(self.arg)
        d = "distinct " if self.distinct else ""
        return f"{self.func}({d}{inner})"


@dataclass(frozen=True)
class Ext(Term):
    """External function call: ``uid()``, ``year(x)``, ``like(x, p)``, ..."""

    name: str
    args: tuple[Term, ...] = ()

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True)
class Win(Term):
    """A window-function term: ``func(args) over (partition, order, frame)``.

    ``func`` is a ranking function (``row_number``/``rank``/``dense_rank``/
    ``ntile``), an offset function (``lag``/``lead``), or an aggregate
    (``sum``/``avg``/``min``/``max``/``count``).  ``order_by`` pairs are
    ``(term, ascending)``; ``frame`` is ``None`` (SQL default framing) or
    ``(unit, start_kind, start_offset, end_kind, end_offset)`` mirroring
    :data:`repro.sqlengine.sqlast.WindowFrame`.  Unlike :class:`Agg`, a
    window term preserves the row count of its rule's body, so rules
    containing one are flow breakers but need no ``group`` head clause.
    """

    func: str
    args: tuple[Term, ...] = ()
    partition_by: tuple[Term, ...] = ()
    order_by: tuple[tuple[Term, bool], ...] = ()
    frame: Optional[tuple] = None

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.args))
        parts = []
        if self.partition_by:
            parts.append("part(" + ", ".join(map(repr, self.partition_by)) + ")")
        if self.order_by:
            parts.append("order(" + ", ".join(
                f"{t!r}{'' if asc else ' desc'}" for t, asc in self.order_by) + ")")
        if self.frame is not None:
            parts.append(f"frame{self.frame!r}")
        return f"{self.func}({inner}) over [{' '.join(parts)}]"


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


class Atom(_Shaped):
    """Base class for body atoms."""


@dataclass
class RelAtom(Atom):
    """Access to relation *rel*, binding positional columns to variables."""

    rel: str
    vars: list[VarName]

    def __repr__(self) -> str:
        return f"{self.rel}({', '.join(self.vars)})"


@dataclass
class ConstRelAtom(Atom):
    """A constant inline relation (``[<c>]`` in the grammar)."""

    rows: list[list[object]]
    vars: list[VarName]

    def __repr__(self) -> str:
        return f"const({self.rows!r} as {', '.join(self.vars)})"


@dataclass
class ExistsAtom(Atom):
    """Existential filter over a sub-body: ``exists(B)`` / ``not exists``."""

    body: list[Atom]
    negated: bool = False

    def __repr__(self) -> str:
        prefix = "not exists" if self.negated else "exists"
        return f"{prefix}({', '.join(map(repr, self.body))})"


@dataclass
class AssignAtom(Atom):
    """``(x = t)`` where x is fresh — an assignment."""

    var: VarName
    term: Term

    def __repr__(self) -> str:
        return f"({self.var} := {self.term!r})"


@dataclass
class FilterAtom(Atom):
    """A boolean condition over already-bound variables."""

    term: Term

    def __repr__(self) -> str:
        return f"({self.term!r})"


@dataclass
class OuterAtom(Atom):
    """Outer-join marker (``outer_left`` / ``outer_right`` / ``outer_full``).

    ``left_rel`` / ``right_rel`` are indices of the RelAtoms in the body
    that participate in the outer join; ``pairs`` are the joined variable
    pairs (left var name, right var name).
    """

    kind: str  # left | right | full
    left_rel: int
    right_rel: int
    pairs: list[tuple[VarName, VarName]]

    def __repr__(self) -> str:
        return f"outer_{self.kind}({self.pairs!r})"


# ---------------------------------------------------------------------------
# Head / Rule / Program
# ---------------------------------------------------------------------------


@dataclass
class SortSpec:
    keys: list[tuple[str, bool]]  # (var, ascending)
    limit: Optional[int] = None

    def __repr__(self) -> str:
        keys = ", ".join(f"{v}{'' if asc else ' desc'}" for v, asc in self.keys)
        lim = f" limit({self.limit})" if self.limit is not None else ""
        return f"sort({keys}){lim}"


@dataclass
class Head:
    rel: str
    vars: list[str]
    group: Optional[list[str]] = None
    sort: Optional[SortSpec] = None
    distinct: bool = False

    def __repr__(self) -> str:
        extra = ""
        if self.group is not None:
            extra += f" group({', '.join(self.group)})"
        if self.sort is not None:
            extra += f" {self.sort!r}"
        if self.distinct:
            extra += " distinct"
        return f"{self.rel}({', '.join(self.vars)}){extra}"

    def renamed(self, renames: dict[str, str]) -> "Head":
        """A new head (new lists) with variables renamed."""
        def r(v: str) -> str:
            return renames.get(v, v)

        sort = self.sort
        if sort is not None:
            sort = SortSpec([(r(v), asc) for v, asc in sort.keys], sort.limit)
        group = None if self.group is None else [r(v) for v in self.group]
        return Head(self.rel, [r(v) for v in self.vars], group, sort, self.distinct)


@dataclass
class Rule:
    head: Head
    body: list[Atom]

    def __repr__(self) -> str:
        return f"{self.head!r} :- {', '.join(map(repr, self.body))}."

    def rel_atoms(self) -> list[RelAtom]:
        return [a for a in self.body if isinstance(a, RelAtom)]

    def assigned_vars(self) -> set[str]:
        return {a.var for a in self.body if isinstance(a, AssignAtom)}

    def bound_vars(self) -> set[str]:
        return {v for atom in self.body for v in atom_binds(atom)}

    def renamed(self, renames: dict[str, str]) -> "Rule":
        """A new rule — head, atoms and lists new — with variables renamed."""
        return Rule(self.head.renamed(renames),
                    [rename_atom(a, renames) for a in self.body])


@dataclass
class Program:
    rules: list[Rule]
    sink: str

    def __repr__(self) -> str:
        return "\n".join(map(repr, self.rules)) + f"\n-- sink: {self.sink}"

    def rule_for(self, rel: str) -> Optional[Rule]:
        for rule in self.rules:
            if rule.head.rel == rel:
                return rule
        return None

    def copy(self) -> "Program":
        """A copy sharing no rule, head, atom or list with this program;
        terms are frozen, so they are shared."""
        return Program([rule.renamed({}) for rule in self.rules], self.sink)


# ---------------------------------------------------------------------------
# Traversals derived from the declared shape
# ---------------------------------------------------------------------------


def _field_terms(role: int, value) -> Sequence[Term]:
    """The terms one field holds."""
    if role == _TERM:
        return () if value is None else (value,)
    if role == _TERMS:
        return value
    if role == _KEYED:
        return [t for t, _asc in value]
    return ()


def _map_field(role: int, value, fn: Callable[[Term], Term]):
    """One field's value with *fn* applied to each term it holds."""
    if role == _TERM:
        return value if value is None else fn(value)
    if role == _TERMS:
        return tuple(map(fn, value))
    if role == _KEYED:
        return tuple((fn(t), asc) for t, asc in value)
    return value


def children(term: Term) -> list[Term]:
    """The direct sub-terms of *term*, in field order."""
    return [t for name, role in type(term)._shape
            for t in _field_terms(role, getattr(term, name))]


def walk(term: Term) -> list[Term]:
    """*term* and every term under it, pre-order in field order."""
    out = [term]
    for child in children(term):
        out.extend(walk(child))
    return out


def map_children(term: Term, fn: Callable[[Term], Term]) -> Term:
    """A new *term* with *fn* applied to each of its :func:`children` —
    the rebuild step of every bottom-up term rewrite."""
    cls = type(term)
    return cls(*[_map_field(role, getattr(term, name), fn)
                 for name, role in cls._shape])


def term_vars(term: Term) -> frozenset[str]:
    """Free variables of a term, computed once per (frozen) term."""
    found = term.__dict__.get("_vars")
    if found is None:
        found = frozenset((term.name,)) if isinstance(term, Var) \
            else frozenset().union(*map(term_vars, children(term)))
        object.__setattr__(term, "_vars", found)
    return found


def map_term_vars(term: Term, mapping: dict[str, Term]) -> Term:
    """Substitute variables in a term by other terms; a sub-term with no
    substituted variable is shared, not rebuilt."""
    if mapping.keys().isdisjoint(term_vars(term)):
        return term
    if isinstance(term, Var):
        return mapping[term.name]
    return map_children(term, lambda t: map_term_vars(t, mapping))


def rename_term(term: Term, renames: dict[str, str]) -> Term:
    """Rename variables in a term; ``"_"`` is never renamed."""
    return map_term_vars(term, {v: Var(renames[v]) for v in term_vars(term)
                                if v in renames and v != "_"})


def atom_terms(atom: Atom) -> list[Term]:
    """The terms *atom* holds, nested bodies included, in field order."""
    out: list[Term] = []
    for name, role in type(atom)._shape:
        value = getattr(atom, name)
        if role == _BODY:
            for inner in value:
                out.extend(atom_terms(inner))
        else:
            out.extend(_field_terms(role, value))
    return out


def atom_binds(atom: Atom) -> list[str]:
    """The variables *atom* binds in its own scope (relation columns, an
    assignment's target), once per binding position; never ``"_"``."""
    out: list[str] = []
    for name, role in type(atom)._shape:
        if role == _BIND:
            out.append(getattr(atom, name))
        elif role == _BINDS:
            out.extend(getattr(atom, name))
    return [v for v in out if v != "_"]


def atom_vars(atom: Atom) -> set[str]:
    """Every variable *atom* mentions — bound, referenced, or used by a
    term, nested bodies included; never ``"_"``."""
    out: set[str] = set()
    for name, role in type(atom)._shape:
        value = getattr(atom, name)
        if role == _BIND:
            out.add(value)
        elif role == _BINDS:
            out.update(value)
        elif role == _REFS:
            out.update(v for pair in value for v in pair)
        elif role == _BODY:
            out.update(*map(atom_vars, value))
        else:
            out.update(*map(term_vars, _field_terms(role, value)))
    out.discard("_")
    return out


def rename_atom(atom: Atom, renames: dict[str, str]) -> Atom:
    """A new atom — lists and nested atoms new — with every declared
    variable position renamed per *renames*; ``"_"`` is never renamed.
    Terms without a renamed variable are shared, not copied."""
    def var(v: str) -> str:
        return v if v == "_" else renames.get(v, v)

    values = []
    for name, role in type(atom)._shape:
        value = getattr(atom, name)
        if role == _BIND:
            value = var(value)
        elif role == _BINDS:
            value = [var(v) for v in value]
        elif role == _REFS:
            value = [(var(left), var(right)) for left, right in value]
        elif role == _BODY:
            value = [rename_atom(inner, renames) for inner in value]
        elif role == _ROWS:
            value = [list(row) for row in value]
        else:
            value = _map_field(role, value, lambda t: rename_term(t, renames))
        values.append(value)
    return type(atom)(*values)


def relation_accesses(atoms: list[Atom],
                      nested: bool = False) -> Iterator[tuple[RelAtom, bool]]:
    """Every :class:`RelAtom` in *atoms*, nested bodies entered, each with
    whether it sits inside a nested body."""
    for atom in atoms:
        if isinstance(atom, RelAtom):
            yield atom, nested
        for name, role in type(atom)._shape:
            if role == _BODY:
                yield from relation_accesses(getattr(atom, name), True)
