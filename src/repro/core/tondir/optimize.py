"""TondIR optimization passes (Section IV of the paper).

Levels match Figure 10's breakdown:

* **O1** — local + global dead-code elimination;
* **O2** — O1 + group/aggregate elimination;
* **O3** — O2 + self-join elimination;
* **O4** — O3 + rule inlining.

Each pass is a pure ``Program -> bool`` transformer (returns whether it
changed anything); :func:`optimize` runs the enabled passes to fixpoint.
"""

from __future__ import annotations

import itertools

from .analysis import (
    body_unique_vars, consumers, contains_term, is_flow_breaker,
    unique_head_vars, used_vars,
)
from .ir import (
    Agg, AssignAtom, Const, Ext, FilterAtom, If, OuterAtom, Program, RelAtom,
    Rule, Term, atom_vars, map_children, relation_accesses, rename_atom,
)

__all__ = ["optimize", "OPT_LEVELS", "local_dce", "global_dce",
           "group_aggregate_elimination", "self_join_elimination", "rule_inlining"]

OPT_LEVELS = {
    "O0": (),
    "O1": ("dce",),
    "O2": ("dce", "groupagg"),
    "O3": ("dce", "groupagg", "selfjoin"),
    "O4": ("dce", "groupagg", "selfjoin", "inline"),
}

_fresh_counter = itertools.count(1)


def _fresh(prefix: str = "t") -> str:
    return f"__{prefix}{next(_fresh_counter)}"


# ---------------------------------------------------------------------------
# O1a: local dead code elimination
# ---------------------------------------------------------------------------

def local_dce(program: Program) -> bool:
    """Remove assignments whose variable is never consumed (per rule)."""
    changed = False
    for rule in program.rules:
        while True:
            used = used_vars(rule)
            removable = [
                a for a in rule.body
                if isinstance(a, AssignAtom) and a.var not in used
            ]
            if not removable:
                break
            for atom in removable:
                rule.body.remove(atom)
            changed = True
    return changed


# ---------------------------------------------------------------------------
# O1b: global dead code elimination
# ---------------------------------------------------------------------------

def global_dce(program: Program) -> bool:
    """Drop unused head columns and unreachable rules program-wide."""
    changed = False

    # 1. Remove rules that no one reads (and are not the sink).
    while True:
        cons = consumers(program)
        dead = [
            r for r in program.rules
            if r.head.rel != program.sink and not cons.get(r.head.rel)
        ]
        if not dead:
            break
        for r in dead:
            program.rules.remove(r)
        changed = True

    # 2. Column pruning: for each producer, keep only head positions that
    #    some consumer actually uses.  Relations defined by several rules
    #    (union branches) are skipped: pruning them one rule at a time
    #    would desynchronize branch arities.
    cons = consumers(program)
    defined_count: dict[str, int] = {}
    for r in program.rules:
        defined_count[r.head.rel] = defined_count.get(r.head.rel, 0) + 1
    for producer in program.rules:
        rel = producer.head.rel
        if rel == program.sink or defined_count.get(rel, 0) > 1:
            continue
        readers = cons.get(rel, [])
        used_positions: set[int] = set()
        for reader in readers:
            reader_used = used_vars(reader)
            for atom, nested in relation_accesses(reader.body):
                if atom.rel == rel:
                    # Inside exists, every bound variable can constrain.
                    used_positions.update(
                        pos for pos, var in enumerate(atom.vars)
                        if var != "_" and (nested or var in reader_used))
        arity = len(producer.head.vars)
        if len(used_positions) == arity:
            continue
        keep = sorted(used_positions)
        if not keep:
            keep = [0]  # keep one column so the relation stays well-formed
        # Shrink producer head.
        producer.head.vars = [producer.head.vars[i] for i in keep]
        # Shrink every access in consumers.
        for reader in readers:
            for atom, _nested in relation_accesses(reader.body):
                if atom.rel == rel and len(atom.vars) == arity:
                    atom.vars = [atom.vars[i] for i in keep]
        changed = True
    if changed:
        # Pruned heads can strand assignments: clean locally again.
        local_dce(program)
    return changed


# ---------------------------------------------------------------------------
# O2: group/aggregate elimination
# ---------------------------------------------------------------------------

def group_aggregate_elimination(program: Program, base_unique: dict[str, set[str]]) -> bool:
    """Remove group-bys over keys that are already unique (Section IV).

    When the grouping column is unique in the rule's body, every group has
    exactly one row: the ``group`` clause is dropped and each aggregate
    collapses to that row's value under pandas' NULL rules
    (:func:`_collapse`).  A rule holding ``stddev`` or ``var`` keeps its
    group: over one row those are NULL, not the row's value.
    """
    changed = False
    unique_of = unique_head_vars(program, base_unique)
    for rule in program.rules:
        if rule.head.group is None or len(rule.head.group) != 1:
            continue
        if rule.head.group[0] not in body_unique_vars(rule, unique_of):
            continue
        if contains_term(rule, lambda t: isinstance(t, Agg)
                         and t.func in ("stddev", "var")):
            continue
        rule.head.group = None
        for atom in rule.body:
            if isinstance(atom, AssignAtom):
                atom.term = _collapse(atom.term)
        changed = True
    return changed


def _collapse(term: Term) -> Term:
    """An aggregate over a one-row group: ``sum(x)`` -> ``coalesce(x, 0)``,
    ``count(x)`` / ``count_distinct(x)`` -> ``if(notnull(x), 1, 0)``,
    ``count(*)`` -> ``1``, ``min`` / ``max`` / ``avg`` -> ``x``."""
    if not isinstance(term, Agg):
        return map_children(term, _collapse)
    if term.arg is None:
        return Const(1)
    if term.func == "sum":
        return Ext("coalesce", (term.arg, Const(0)))
    if term.func in ("count", "count_distinct"):
        return If(Ext("notnull", (term.arg,)), Const(1), Const(0))
    return term.arg


# ---------------------------------------------------------------------------
# O3: self-join elimination
# ---------------------------------------------------------------------------

def self_join_elimination(program: Program, base_unique: dict[str, set[str]]) -> bool:
    """Merge redundant self-joins on unique columns (Section IV).

    Two accesses of the same relation joined on a unique column always pair
    a row with itself, so the second access can be substituted by the
    first.
    """
    changed = False
    unique_of = unique_head_vars(program, base_unique)
    for rule in program.rules:
        if any(isinstance(a, OuterAtom) for a in rule.body):
            continue
        while _eliminate_one_self_join(rule, unique_of):
            changed = True
    return changed


def _eliminate_one_self_join(rule: Rule, unique_of: dict[str, set[str]]) -> bool:
    rel_atoms = rule.rel_atoms()
    for i in range(len(rel_atoms)):
        for j in range(i + 1, len(rel_atoms)):
            a, b = rel_atoms[i], rel_atoms[j]
            if a.rel != b.rel or len(a.vars) != len(b.vars):
                continue
            unique_cols = unique_of.get(a.rel, set())
            joined_on_unique = any(
                av == bv and av != "_" and av in unique_cols
                for av, bv in zip(a.vars, b.vars)
            )
            if not joined_on_unique:
                continue
            renames = {
                bv: av
                for av, bv in zip(a.vars, b.vars)
                if bv != av and bv != "_" and av != "_"
            }
            # Fill positions where a has '_' but b binds a variable.
            for pos, (av, bv) in enumerate(zip(a.vars, b.vars)):
                if av == "_" and bv != "_":
                    a.vars[pos] = bv
            rule.body.remove(b)
            _rename_rule_vars(rule, renames)
            return True
    return False


def _rename_rule_vars(rule: Rule, renames: dict[str, str]) -> None:
    if renames:
        renamed = rule.renamed(renames)
        rule.head, rule.body[:] = renamed.head, renamed.body


# ---------------------------------------------------------------------------
# O4: rule inlining
# ---------------------------------------------------------------------------

def rule_inlining(program: Program) -> bool:
    """Fuse producer rules into consumers until flow breakers (Section IV)."""
    changed = False
    while True:
        cons = consumers(program)
        target = None
        for producer in program.rules:
            if is_flow_breaker(producer, program):
                continue
            readers = cons.get(producer.head.rel, [])
            if not readers:
                continue
            total_accesses = sum(
                sum(1 for a in r.rel_atoms() if a.rel == producer.head.rel)
                for r in readers
            )
            if total_accesses > 1 and not _is_cheap(producer):
                continue
            if any(nested and atom.rel == producer.head.rel
                   for r in readers
                   for atom, nested in relation_accesses(r.body)):
                continue
            # Outer-join markers index relation atoms positionally; do not
            # shift them by splicing a body into such a reader.
            if any(any(isinstance(a, OuterAtom) for a in r.body) for r in readers):
                continue
            target = producer
            break
        if target is None:
            return changed
        for reader in cons.get(target.head.rel, []):
            _inline_into(reader, target)
        program.rules.remove(target)
        changed = True


def _is_cheap(rule: Rule) -> bool:
    """Cheap enough to duplicate: one source, projections and filters only."""
    if len(rule.rel_atoms()) != 1:
        return False
    return all(isinstance(a, (RelAtom, AssignAtom, FilterAtom)) for a in rule.body)


def _inline_into(reader: Rule, producer: Rule) -> None:
    """Replace each access to the producer's relation with its body."""
    while True:
        access = next(
            (a for a in reader.rel_atoms() if a.rel == producer.head.rel), None
        )
        if access is None:
            return
        position = reader.body.index(access)

        # Map producer head vars -> reader's access vars; all other producer
        # vars — and a head var the access ignores with '_', which the
        # producer may still use — get fresh names to avoid capture.
        renames = {head_var: reader_var for head_var, reader_var
                   in zip(producer.head.vars, access.vars) if reader_var != "_"}
        producer_vars = set().union(*map(atom_vars, producer.body))
        for v in sorted(producer_vars):
            if v not in renames:
                renames[v] = _fresh(v.strip("_"))
        reader.body[position : position + 1] = [
            rename_atom(atom, renames) for atom in producer.body]


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def optimize(
    program: Program,
    level: str = "O4",
    base_unique: dict[str, set[str]] | None = None,
    max_rounds: int = 20,
) -> Program:
    """Run the optimization pipeline at *level* ('O0'..'O4') to fixpoint.

    The well-formedness checker (:mod:`repro.analysis.ir_checker`) runs
    on the input program and again after every pass, with the
    base-relation set frozen at entry — a pass that breaks an invariant
    raises :class:`~repro.errors.IRInvariantError` naming that pass
    rather than leaving a malformed program for the SQL renderer.
    """
    # Imported here: repro.analysis also pulls in the plan verifier (and
    # with it the SQL engine), which must not become an import-time
    # dependency of the core translator.
    from ...analysis.ir_checker import check_program
    from ...errors import TondIRError

    if level not in OPT_LEVELS:
        raise TondIRError(f"unknown optimization level {level!r}")
    passes = OPT_LEVELS[level]
    base_unique = base_unique or {}
    program = program.copy()
    base_rels = check_program(program, stage=f"{level} input")

    def checked(pass_name: str, changed: bool) -> bool:
        if changed:
            check_program(program, base_rels, stage=pass_name)
        return changed

    for _ in range(max_rounds):
        changed = False
        if "dce" in passes:
            changed |= checked("local_dce", local_dce(program))
            changed |= checked("global_dce", global_dce(program))
        if "groupagg" in passes:
            changed |= checked(
                "group_aggregate_elimination",
                group_aggregate_elimination(program, base_unique))
        if "selfjoin" in passes:
            changed |= checked("self_join_elimination",
                               self_join_elimination(program, base_unique))
        if "inline" in passes:
            changed |= checked("rule_inlining", rule_inlining(program))
        if not changed:
            break
    return program
