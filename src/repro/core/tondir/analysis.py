"""Program analyses: dependencies, flow breakers, uniqueness propagation."""

from __future__ import annotations

from typing import Callable

from .ir import (
    Agg, AssignAtom, Ext, OuterAtom, Program, RelAtom, Rule, Term, Win,
    atom_binds, atom_terms, atom_vars, relation_accesses, walk,
)

__all__ = [
    "references", "consumers", "contains_term", "is_flow_breaker",
    "is_union_branch", "unique_head_vars", "body_unique_vars", "used_vars",
]


def contains_term(rule: Rule, predicate: Callable[[Term], bool]) -> bool:
    """Does any term anywhere in the rule body (exists bodies included)
    satisfy *predicate*?"""
    return any(predicate(t) for atom in rule.body
               for top in atom_terms(atom) for t in walk(top))


def references(rule: Rule) -> set[str]:
    """Relations this rule reads (including inside exists bodies)."""
    return {atom.rel for atom, _nested in relation_accesses(rule.body)}


def consumers(program: Program) -> dict[str, list[Rule]]:
    """Map from relation name to the rules that read it."""
    out: dict[str, list[Rule]] = {}
    for rule in program.rules:
        for rel in references(rule):
            out.setdefault(rel, []).append(rule)
    return out


def is_union_branch(rule: Rule, program: Program) -> bool:
    """Is *rule* one of several rules defining its head relation?

    Multiple rules with one head are the Datalog encoding of UNION ALL
    (emitted for ``pd.concat``); inlining or pruning a single branch would
    change the union, so passes must treat the branches as one unit.
    """
    return sum(1 for r in program.rules if r.head.rel == rule.head.rel) > 1


def is_flow_breaker(rule: Rule, program: Program) -> bool:
    """Flow breakers per Table VII of the paper.

    Aggregate / group-by / distinct / sort-limit / outer-join / sink rules
    cannot be fused into their consumers.  Rules generating a UID or
    containing a window term are also breakers because the computed value
    depends on the whole relation the function runs over — fusing one into
    a filtering consumer would change its input (and SQL forbids window
    functions in WHERE) (Section IV "Rule Inlining").  Union branches
    (several rules, one head) are breakers as a unit.
    """
    if rule.head.rel == program.sink:
        return True
    if is_union_branch(rule, program):
        return True
    if rule.head.group is not None:
        return True
    if rule.head.distinct:
        return True
    if rule.head.sort is not None:
        return True
    if any(isinstance(a, OuterAtom) for a in rule.body):
        return True
    return contains_term(rule, _breaks_flow)


def _breaks_flow(term: Term) -> bool:
    return isinstance(term, (Agg, Win)) or (
        isinstance(term, Ext) and term.name == "uid")


def used_vars(rule: Rule) -> set[str]:
    """Variables the rule actually uses (beyond just binding them).

    A bound variable counts as used when it appears in the head (vars,
    group, sort), in any assignment/filter/exists term, or when it is bound
    more than once (an implicit equi-join).
    """
    used: set[str] = set(rule.head.vars)
    if rule.head.group:
        used.update(rule.head.group)
    if rule.head.sort:
        used.update(v for v, _ in rule.head.sort.keys)
    binding_counts: dict[str, int] = {}
    for atom in rule.body:
        binds = atom_binds(atom)
        for v in binds:
            binding_counts[v] = binding_counts.get(v, 0) + 1
        # An assignment to a variable that a relation atom also binds is an
        # equality constraint — both bindings are live.  Inside exists,
        # every variable can constrain.
        used |= atom_vars(atom).difference(binds)
    used.update(v for v, c in binding_counts.items() if c > 1)
    return used


def unique_head_vars(program: Program, base_unique: dict[str, set[str]]) -> dict[str, set[str]]:
    """Which head variables of each rule are row-unique in its output.

    *base_unique* maps base-table names to their unique column names (from
    the database catalog).  Propagation rules:

    * a group-by with a single key makes that key unique;
    * ``uid()`` assignments are unique by construction;
    * variables bound to unique source columns stay unique when every other
      joined relation joins through its own unique key (an N:1 join);
    * a distinct head over a single variable is unique.
    """
    out: dict[str, set[str]] = {rel: set(cols) for rel, cols in base_unique.items()}
    seen_rels: set[str] = set()
    for rule in program.rules:
        unique_in_body = body_unique_vars(rule, out)
        head_unique: set[str] = set()
        if rule.head.group is not None:
            if len(rule.head.group) == 1:
                head_unique.add(rule.head.group[0])
        elif rule.head.distinct and len(rule.head.vars) == 1:
            head_unique.add(rule.head.vars[0])
        else:
            head_unique = {v for v in rule.head.vars if v in unique_in_body}
        if rule.head.rel in seen_rels:
            # A union of branches is never unique, even if each branch is.
            head_unique = set()
        seen_rels.add(rule.head.rel)
        out[rule.head.rel] = head_unique
    return out


def body_unique_vars(rule: Rule, unique_of: dict[str, set[str]]) -> set[str]:
    """Variables that are row-unique in the rule's joined body relation."""
    rel_atoms = rule.rel_atoms()
    if not rel_atoms:
        return set()

    def atom_unique_vars(atom: RelAtom) -> set[str]:
        unique_cols = unique_of.get(atom.rel, set())
        return {v for v in atom.vars if v in unique_cols and v != "_"}

    uid_vars = {
        a.var for a in rule.body
        if isinstance(a, AssignAtom) and isinstance(a.term, Ext) and a.term.name == "uid"
    }

    if len(rel_atoms) == 1:
        return atom_unique_vars(rel_atoms[0]) | uid_vars

    # Multi-way join: a variable from atom A stays unique if every other
    # atom B joins to the body through one of B's unique variables.
    shared: dict[str, int] = {}
    for atom in rel_atoms:
        for v in set(atom.vars):
            if v != "_":
                shared[v] = shared.get(v, 0) + 1
    join_vars = {v for v, c in shared.items() if c > 1}

    result: set[str] = set(uid_vars)
    for i, atom in enumerate(rel_atoms):
        candidates = atom_unique_vars(atom)
        if not candidates:
            continue
        others_n_to_1 = True
        for j, other in enumerate(rel_atoms):
            if i == j:
                continue
            other_join = {v for v in other.vars if v in join_vars}
            other_unique = atom_unique_vars(other)
            if not (other_join & other_unique):
                others_n_to_1 = False
                break
        if others_n_to_1:
            result |= candidates
    return result
