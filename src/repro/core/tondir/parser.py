"""Textual TondIR parser: reads the Datalog-style syntax the printer emits.

Lets programs be written/stored in the paper's concrete syntax::

    R1(a, s) group(a) :- R(a, b, c), (s := sum(b)).
    R2(a, s) sort(s desc) limit(10) :- R1(a, s).
    -- sink: R2

``parse_program(repr(p)) == p`` holds for programs built from
:class:`RelAtom`, :class:`AssignAtom`, :class:`FilterAtom` and
:class:`ExistsAtom` whose terms are :class:`Var`, :class:`Const` (an int, a
float printed with a decimal point and no exponent, a str without quotes or
backslashes, a bool, ``None``), :class:`BinOp`, :class:`If`, :class:`Agg`
and :class:`Ext`, with variable and relation names that are not keywords and
every ``sort`` naming at least one key.  It does not hold for date constants
(``numpy.datetime64`` prints as ``np.datetime64(...)``), :class:`Win` terms,
:class:`ConstRelAtom` or :class:`OuterAtom`, which the parser does not read.
Used by tests and the examples.
"""

from __future__ import annotations

import re


from ...errors import TondIRError
from .ir import (
    Agg, AssignAtom, Atom, BinOp, Const, ExistsAtom, Ext,
    FilterAtom, Head, If, Program, RelAtom, Rule, SortSpec, Term, Var,
)

__all__ = ["parse_program", "parse_rule", "parse_term"]

_TOKEN = re.compile(
    r"\s*(:=|:-|<=|>=|<>|!=|[(),.\[\]]|'(?:[^']|'')*'|[-+*/%=<>]|[A-Za-z_][A-Za-z0-9_]*"
    r"|\d+\.\d+(?:[eE][-+]?\d+)?|\d+)"
)

_AGG_NAMES = {"sum", "min", "max", "avg", "count", "count_distinct", "stddev", "var"}
_KEYWORDS = {"group", "sort", "limit", "distinct", "exists", "not", "if", "and", "or", "like"}


class _Tokens:
    def __init__(self, text: str):
        self.items: list[str] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if not m:
                raise TondIRError(f"cannot tokenize TondIR at: {text[pos:pos+25]!r}")
            self.items.append(m.group(1))
            pos = m.end()
        self.pos = 0

    def peek(self, offset: int = 0) -> str | None:
        i = self.pos + offset
        return self.items[i] if i < len(self.items) else None

    def next(self) -> str:
        if self.pos >= len(self.items):
            raise TondIRError("unexpected end of TondIR input")
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise TondIRError(f"expected {tok!r}, found {got!r}")

    def accept(self, tok: str) -> bool:
        if self.peek() == tok:
            self.pos += 1
            return True
        return False

    @property
    def done(self) -> bool:
        return self.pos >= len(self.items)


def parse_program(text: str) -> Program:
    """Parse a full program; the sink defaults to the last rule's head."""
    sink = None
    rule_lines: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("--"):
            m = re.match(r"--\s*sink:\s*(\w+)", line)
            if m:
                sink = m.group(1)
            continue
        rule_lines.append(line)
    # Rules end with '.', possibly spanning lines.
    joined = " ".join(rule_lines)
    rules = []
    for chunk in _split_rules(joined):
        rules.append(parse_rule(chunk))
    if not rules:
        raise TondIRError("empty TondIR program")
    return Program(rules=rules, sink=sink or rules[-1].head.rel)


def _split_rules(text: str) -> list[str]:
    out = []
    depth = 0
    in_str = False
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if in_str:
            if ch == "'":
                in_str = False
        elif ch == "'":
            in_str = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "." and depth == 0 and not (i + 1 < len(text) and text[i + 1].isdigit()):
            out.append(text[start:i].strip())
            start = i + 1
        i += 1
    rest = text[start:].strip()
    if rest:
        out.append(rest)
    return [r for r in out if r]


def parse_rule(text: str) -> Rule:
    """Parse one ``Head :- Body`` rule (without the trailing dot)."""
    tokens = _Tokens(text)
    head = _parse_head(tokens)
    tokens.expect(":-")
    body = _parse_body(tokens)
    if not tokens.done:
        raise TondIRError(f"trailing tokens in rule: {tokens.items[tokens.pos:]}")
    return Rule(head=head, body=body)


def _parse_head(tokens: _Tokens) -> Head:
    rel = tokens.next()
    tokens.expect("(")
    vars_: list[str] = []
    if not tokens.accept(")"):
        vars_.append(tokens.next())
        while tokens.accept(","):
            vars_.append(tokens.next())
        tokens.expect(")")
    group = None
    sort = None
    distinct = False
    while True:
        if tokens.accept("group"):
            tokens.expect("(")
            group = [tokens.next()]
            while tokens.accept(","):
                group.append(tokens.next())
            tokens.expect(")")
        elif tokens.accept("sort"):
            tokens.expect("(")
            keys = []
            while True:
                var = tokens.next()
                asc = True
                if tokens.accept("desc"):
                    asc = False
                else:
                    tokens.accept("asc")
                keys.append((var, asc))
                if not tokens.accept(","):
                    break
            tokens.expect(")")
            sort = SortSpec(keys=keys)
        elif tokens.accept("limit"):
            tokens.expect("(")
            n = int(tokens.next())
            tokens.expect(")")
            if sort is None:
                sort = SortSpec(keys=[])
            sort.limit = n
        elif tokens.accept("distinct"):
            distinct = True
        else:
            break
    return Head(rel=rel, vars=vars_, group=group, sort=sort, distinct=distinct)


def _parse_body(tokens: _Tokens) -> list[Atom]:
    atoms = [_parse_atom(tokens)]
    while tokens.accept(","):
        atoms.append(_parse_atom(tokens))
    return atoms


def _parse_atom(tokens: _Tokens) -> Atom:
    tok = tokens.peek()
    if tok in ("exists", "not"):
        negated = False
        if tokens.accept("not"):
            negated = True
        tokens.expect("exists")
        tokens.expect("(")
        body = _parse_body(tokens)
        tokens.expect(")")
        return ExistsAtom(body=body, negated=negated)
    if tok == "(":
        # Parenthesized condition / assignment: (x := term) or (term).
        tokens.expect("(")
        if (
            tokens.peek() is not None
            and re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tokens.peek() or "")
            and tokens.peek(1) == ":="
        ):
            var = tokens.next()
            tokens.next()  # :=
            term = parse_term_tokens(tokens)
            tokens.expect(")")
            return AssignAtom(var=var, term=term)
        term = parse_term_tokens(tokens)
        tokens.expect(")")
        return FilterAtom(term=term)
    # Relation access: name(v1, ..., vn)
    rel = tokens.next()
    tokens.expect("(")
    vars_: list[str] = []
    if not tokens.accept(")"):
        vars_.append(tokens.next())
        while tokens.accept(","):
            vars_.append(tokens.next())
        tokens.expect(")")
    return RelAtom(rel=rel, vars=vars_)


# ---------------------------------------------------------------------------
# Terms — precedence: or < and < comparison < additive < multiplicative
# ---------------------------------------------------------------------------

def parse_term(text: str) -> Term:
    tokens = _Tokens(text)
    term = parse_term_tokens(tokens)
    if not tokens.done:
        raise TondIRError(f"trailing term tokens: {tokens.items[tokens.pos:]}")
    return term


def parse_term_tokens(tokens: _Tokens) -> Term:
    return _parse_or(tokens)


def _parse_or(tokens: _Tokens) -> Term:
    left = _parse_and(tokens)
    while tokens.accept("or"):
        left = BinOp("or", left, _parse_and(tokens))
    return left


def _parse_and(tokens: _Tokens) -> Term:
    left = _parse_cmp(tokens)
    while tokens.accept("and"):
        left = BinOp("and", left, _parse_cmp(tokens))
    return left


def _parse_cmp(tokens: _Tokens) -> Term:
    left = _parse_add(tokens)
    while tokens.peek() in ("=", "<>", "!=", "<", "<=", ">", ">=", "like"):
        op = tokens.next()
        if op == "!=":
            op = "<>"
        left = BinOp(op, left, _parse_add(tokens))
    return left


def _parse_add(tokens: _Tokens) -> Term:
    left = _parse_mul(tokens)
    while tokens.peek() in ("+", "-"):
        op = tokens.next()
        left = BinOp(op, left, _parse_mul(tokens))
    return left


def _parse_mul(tokens: _Tokens) -> Term:
    left = _parse_primary(tokens)
    while tokens.peek() in ("*", "/", "%"):
        op = tokens.next()
        left = BinOp(op, left, _parse_primary(tokens))
    return left


def _parse_primary(tokens: _Tokens) -> Term:
    tok = tokens.peek()
    if tok is None:
        raise TondIRError("unexpected end of term")
    if tok == "(":
        tokens.next()
        inner = parse_term_tokens(tokens)
        tokens.expect(")")
        return inner
    if tok == "-":
        tokens.next()
        inner = _parse_primary(tokens)
        if isinstance(inner, Const) and isinstance(inner.value, (int, float)):
            return Const(-inner.value)
        return Ext("neg", (inner,))
    if tok.startswith("'"):
        tokens.next()
        return Const(tok[1:-1].replace("''", "'"))
    if re.fullmatch(r"\d+\.\d+(?:[eE][-+]?\d+)?", tok):
        tokens.next()
        return Const(float(tok))
    if re.fullmatch(r"\d+", tok):
        tokens.next()
        return Const(int(tok))
    if tok in ("True", "False"):
        tokens.next()
        return Const(tok == "True")
    if tok == "None":
        tokens.next()
        return Const(None)
    if tok == "if":
        tokens.next()
        tokens.expect("(")
        cond = parse_term_tokens(tokens)
        tokens.expect(",")
        then = parse_term_tokens(tokens)
        tokens.expect(",")
        otherwise = parse_term_tokens(tokens)
        tokens.expect(")")
        return If(cond, then, otherwise)
    # identifier: variable, aggregate, or external function
    name = tokens.next()
    if tokens.peek() == "(":
        tokens.next()
        if name in _AGG_NAMES:
            distinct = bool(tokens.accept("distinct"))
            if tokens.accept("*"):
                tokens.expect(")")
                return Agg("count", None)
            arg = parse_term_tokens(tokens)
            tokens.expect(")")
            return Agg(name, arg, distinct=distinct)
        args: list[Term] = []
        if not tokens.accept(")"):
            args.append(parse_term_tokens(tokens))
            while tokens.accept(","):
                args.append(parse_term_tokens(tokens))
            tokens.expect(")")
        return Ext(name, tuple(args))
    return Var(name)
