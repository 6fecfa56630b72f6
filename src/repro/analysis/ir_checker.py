"""Well-formedness checks for TondIR programs.

:func:`check_program` validates the structural invariants every
optimization pass must preserve — run on entry to
:func:`~repro.core.tondir.optimize.optimize` (covering the translator's
raw output and the O0 identity level) and again after every pass round,
so a pass that leaves a dangling reference behind is caught at the pass
boundary rather than when SQL rendering or execution trips over it.

Checked invariants (rule ids raised in :class:`~repro.errors.
IRInvariantError`):

- ``ir.sink`` — the sink relation is defined by some rule (or is a known
  base relation).
- ``ir.dangling-rel`` — every relation a rule reads is defined by a rule
  or is a base relation.  The base-relation set is *inferred at entry*
  (reads with no defining rule) and then frozen, so a pass that deletes
  a still-referenced rule cannot re-classify the orphan as "base".
- ``ir.union-arity`` — all rules defining one head relation (the UNION
  ALL encoding) agree on arity.
- ``ir.head-bound`` — head variables, group keys, and sort keys are
  bound in the rule body.
- ``ir.dangling-var`` — filter/assign/exists terms only use bound
  variables (an exists body may additionally use its own local bindings).
- ``ir.single-assignment`` — no variable is assigned by two AssignAtoms
  in one scope.
- ``ir.const-arity`` — ConstRelAtom rows match their variable list.
- ``ir.outer-rel`` — OuterAtom relation indices point at distinct
  RelAtoms of the same body, with a known join kind.
- ``ir.recursion`` — no relation (transitively) reads itself; the SQL
  renderer emits non-recursive CTEs only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from ..core.tondir.analysis import references
from ..core.tondir.ir import (
    AssignAtom,
    Atom,
    ConstRelAtom,
    ExistsAtom,
    OuterAtom,
    Program,
    RelAtom,
    Rule,
    atom_binds,
    atom_vars,
)
from ..errors import IRInvariantError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import NoReturn


def _fail(invariant: str, message: str, stage: str) -> "NoReturn":
    raise IRInvariantError(invariant, message, stage)


def _check_atoms(atoms: Iterable[Atom], outer_bound: set[str], where: str,
                 stage: str) -> None:
    """Check one atom list (a rule body or an exists body)."""
    atoms = list(atoms)
    bound = set(outer_bound)
    assigned: set[str] = set()
    rel_count = 0
    for atom in atoms:
        bound.update(atom_binds(atom))
        if isinstance(atom, (RelAtom, ConstRelAtom)):
            rel_count += 1
        elif isinstance(atom, AssignAtom):
            if atom.var in assigned:
                _fail("ir.single-assignment",
                      f"{where}: variable {atom.var!r} assigned twice",
                      stage)
            assigned.add(atom.var)

    for atom in atoms:
        if isinstance(atom, ConstRelAtom):
            for i, row in enumerate(atom.rows):
                if len(row) != len(atom.vars):
                    _fail("ir.const-arity",
                          f"{where}: const row {i} has {len(row)} value(s) "
                          f"for {len(atom.vars)} variable(s)", stage)
        elif isinstance(atom, ExistsAtom):
            _check_atoms(atom.body, bound, where + " exists", stage)
            continue
        elif isinstance(atom, OuterAtom):
            if atom.kind not in ("left", "right", "full"):
                _fail("ir.outer-rel",
                      f"{where}: unknown outer join kind {atom.kind!r}",
                      stage)
            for idx in (atom.left_rel, atom.right_rel):
                if not (0 <= idx < rel_count):
                    _fail("ir.outer-rel",
                          f"{where}: outer join relation index {idx} out "
                          f"of range (body has {rel_count} relation "
                          f"atom(s))", stage)
            if atom.left_rel == atom.right_rel:
                _fail("ir.outer-rel",
                      f"{where}: outer join of relation atom "
                      f"{atom.left_rel} with itself", stage)
        dangling = atom_vars(atom) - bound
        if dangling:
            _fail("ir.dangling-var",
                  f"{where}: {atom!r} uses unbound variable(s) "
                  f"{sorted(dangling)!r}", stage)


def _check_rule(rule: Rule, stage: str) -> None:
    where = f"rule {rule.head.rel!r}"
    _check_atoms(rule.body, set(), where, stage)
    bound = rule.bound_vars()
    for label, keys in (("head", rule.head.vars),
                       ("group", rule.head.group or []),
                       ("sort", [v for v, _asc in rule.head.sort.keys]
                        if rule.head.sort is not None else [])):
        dangling = set(keys) - bound
        if dangling:
            _fail("ir.head-bound",
                  f"{where}: {label} variable(s) {sorted(dangling)!r} are "
                  f"not bound in the body", stage)


def check_program(program: Program,
                  base_rels: Optional[set[str]] = None,
                  stage: str = "") -> set[str]:
    """Validate *program*; raise :class:`IRInvariantError` on the first
    violation.

    Returns the base-relation set: ``base_rels`` unchanged when given,
    otherwise inferred as every relation read but defined by no rule.
    Callers running a pass pipeline should capture the entry-time result
    and pass it back after each pass, freezing the base set.
    """
    defined: dict[str, int] = {}
    for rule in program.rules:
        arity = len(rule.head.vars)
        if rule.head.rel in defined and defined[rule.head.rel] != arity:
            _fail("ir.union-arity",
                  f"rules for {rule.head.rel!r} disagree on arity "
                  f"({defined[rule.head.rel]} vs {arity})", stage)
        defined.setdefault(rule.head.rel, arity)

    if base_rels is None:
        base_rels = set()
        for rule in program.rules:
            base_rels |= references(rule) - set(defined)

    for rule in program.rules:
        _check_rule(rule, stage)
        dangling = references(rule) - set(defined) - base_rels
        if dangling:
            _fail("ir.dangling-rel",
                  f"rule {rule.head.rel!r} reads undefined relation(s) "
                  f"{sorted(dangling)!r}", stage)

    if program.rules and program.sink not in defined \
            and program.sink not in base_rels:
        _fail("ir.sink",
              f"sink relation {program.sink!r} is defined by no rule",
              stage)

    # Recursion: depth-first over the defined-relation read graph.
    graph = {rel: set() for rel in defined}
    for rule in program.rules:
        graph[rule.head.rel] |= references(rule) & set(defined)
    state: dict[str, int] = {}  # 1 = on stack, 2 = done

    def visit(rel: str, trail: list[str]) -> None:
        state[rel] = 1
        for dep in sorted(graph[rel]):
            if state.get(dep) == 1:
                cycle = trail[trail.index(dep):] + [dep] \
                    if dep in trail else [rel, dep]
                _fail("ir.recursion",
                      f"recursive relation definition: "
                      f"{' -> '.join(cycle)}", stage)
            if state.get(dep) is None:
                visit(dep, trail + [dep])
        state[rel] = 2

    for rel in defined:
        if state.get(rel) is None:
            visit(rel, [rel])

    return base_rels
