"""Einsum planning and lowering to TondIR (Section III-D, Table VI).

Dense layout: an order-2 tensor is a relation ``(ID, c0..c{n-1})`` whose
row dimension is dynamic and whose column dimension is static (known from
type inference).  The planner normalizes the einsum spec, applies the
paper's reduction steps (diagonalize repeated indices, sum out missing
indices, operand swap) and dispatches to one of the fundamental kernels
ES1..ES9 (plus the matmul/matvec compositions built from them).

Sparse (COO) layout: the fully denormalized ``(dims..., val)`` relation
admits a single generic lowering — shared index letters become shared join
variables, output letters become group keys, and the value is
``sum(v1 * v2)`` — following Blacher et al. as described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import TranslationError
from ..tondir.ir import (
    Agg, AssignAtom, BinOp, Const, ConstRelAtom, Head, If,
    RelAtom, Rule, Term, Var,
)
from .symbols import ColumnInfo, SymConstArray, SymFrame, SymScalar, SymScalarRel

__all__ = ["parse_spec", "normalize_spec", "lower_dense", "lower_sparse", "optimize_path"]


def parse_spec(spec: str) -> tuple[list[str], str]:
    """Split ``'ij,ik->jk'`` into ``(['ij', 'ik'], 'jk')``."""
    if "->" not in spec:
        raise TranslationError(f"einsum spec {spec!r} must be explicit (contain '->')")
    lhs, rhs = spec.split("->")
    inputs = lhs.split(",") if lhs else [""]
    for part in list(inputs) + [rhs]:
        if not all(c.isalpha() or c == "" for c in part):
            raise TranslationError(f"bad einsum spec {spec!r}")
    return inputs, rhs


def normalize_spec(spec: str) -> tuple[str, dict[str, str]]:
    """Rename index letters to i, j, k... in order of first appearance."""
    inputs, output = parse_spec(spec)
    mapping: dict[str, str] = {}
    alphabet = "ijklmnop"
    for part in inputs + [output]:
        for ch in part:
            if ch not in mapping:
                if len(mapping) >= len(alphabet):
                    raise TranslationError("too many distinct einsum indices")
                mapping[ch] = alphabet[len(mapping)]
    new_inputs = ["".join(mapping[c] for c in part) for part in inputs]
    new_output = "".join(mapping[c] for c in output)
    return ",".join(new_inputs) + "->" + new_output, mapping


# ---------------------------------------------------------------------------
# Dense lowering
# ---------------------------------------------------------------------------


@dataclass
class _Emitter:
    """Thin facade over the translator's rule-emission services."""

    new_rel: callable
    emit: callable  # (Rule) -> None


def _mul(a: Term, b: Term) -> Term:
    return BinOp("*", a, b)


def _add_chain(terms: list[Term]) -> Term:
    out = terms[0]
    for t in terms[1:]:
        out = BinOp("+", out, t)
    return out


def _array_frame(em: _Emitter, ncols: int, body, head_vars, group=None) -> SymFrame:
    rel = em.new_rel()
    em.emit(Rule(Head(rel, head_vars, group=group), body))
    cols = [ColumnInfo(name=v, var=v, dtype="float", unique=(v == "ID")) for v in head_vars]
    return SymFrame(rel=rel, cols=cols, kind="array")


def _id_const_rel(count: int) -> ConstRelAtom:
    """A constant relation with rows 1..count binding variable ``rid``."""
    return ConstRelAtom(rows=[[i + 1] for i in range(count)], vars=["rid"])


_uniq_counter = [0]


def _uniq(prefix: str) -> str:
    """Globally fresh variable name: einsum-generated variables must never
    collide with the input arrays' column variables (c0..cn, ID)."""
    _uniq_counter[0] += 1
    return f"e{_uniq_counter[0]}_{prefix}"


def _fresh_vars(prefix: str, n: int) -> list[str]:
    base = _uniq(prefix)
    return [f"{base}{i}" for i in range(n)]


def lower_dense(em: _Emitter, spec: str, operands: list) -> object:
    """Lower a dense einsum; returns a SymFrame / SymScalarRel / SymSeries."""
    norm, _ = normalize_spec(spec)
    inputs, output = parse_spec(norm)

    # Constant-fold: scalars in operand positions become multipliers.
    if len(inputs) == 2:
        return _lower_dense_binary(em, inputs, output, operands)
    if len(inputs) == 1:
        return _lower_dense_unary(em, inputs[0], output, operands[0])
    raise TranslationError(
        f"einsum {spec!r}: more than two operands — decompose with optimize_path first"
    )


def _require_frame(op, what: str) -> SymFrame:
    if not isinstance(op, SymFrame):
        raise TranslationError(f"einsum operand for {what} must be a dense array")
    return op


def _lower_dense_unary(em: _Emitter, idx: str, output: str, op) -> object:
    if isinstance(op, SymConstArray):
        raise TranslationError("constant-array unary einsum should be folded in Python")
    frame = _require_frame(op, idx)
    values = frame.value_cols()
    n = len(values)

    if idx == "i" and output == "":  # ES1: vector sum
        rel = em.new_rel()
        em.emit(Rule(Head(rel, ["v"]), [frame.atom(), AssignAtom("v", Agg("sum", Var(values[0].var)))]))
        return SymScalarRel(rel=rel, var="v", dtype="float")

    if idx == "ij" and output == "":  # full matrix sum
        rel = em.new_rel()
        total = Agg("sum", _add_chain([Var(c.var) for c in values]))
        em.emit(Rule(Head(rel, ["v"]), [frame.atom(), AssignAtom("v", total)]))
        return SymScalarRel(rel=rel, var="v", dtype="float")

    if idx == "ij" and output == "i":  # row sum -> column vector
        out = _uniq("c")
        body = [frame.atom(), AssignAtom(out, _add_chain([Var(c.var) for c in values]))]
        id_var = _ensure_id(frame, body)
        return _array_frame(em, 1, body, [id_var, out])

    if idx == "ij" and output == "j":  # ES2-style column sums -> vector
        sums = _fresh_vars("s", n)
        body = [frame.atom()] + [
            AssignAtom(s, Agg("sum", Var(c.var))) for s, c in zip(sums, values)
        ]
        wide = _array_frame(em, n, body, sums)
        return _reshape_row_to_vector(em, wide, n)

    if idx == "ii" and output == "i":  # ES3: diagonal
        body = [frame.atom()]
        id_var = _ensure_id(frame, body)
        diag: Term = Const(0.0)
        for pos in range(n - 1, -1, -1):
            diag = If(BinOp("=", Var(id_var), Const(pos + 1)), Var(values[pos].var), diag)
        out = _uniq("c")
        body.append(AssignAtom(out, diag))
        return _array_frame(em, 1, body, [id_var, out])

    if idx == "ii" and output == "":  # trace
        diag_frame = _lower_dense_unary(em, "ii", "i", op)
        return _lower_dense_unary(em, "i", "", diag_frame)

    if idx == "ij" and output == "ji":  # ES4: transpose (static width only)
        raise TranslationError(
            "dense transpose requires a statically known row count; "
            "use the sparse layout for transposes of data-dependent size"
        )

    raise TranslationError(f"unsupported unary einsum {idx}->{output}")


def _ensure_id(frame: SymFrame, body: list) -> str:
    for c in frame.cols:
        if c.var == "ID":
            return "ID"
    from ..tondir.ir import Ext

    body.append(AssignAtom("ID", Ext("uid", ())))
    return "ID"


def _reshape_row_to_vector(em: _Emitter, wide: SymFrame, n: int) -> SymFrame:
    """Reshape a 1-row, n-column relation into an n-row (ID, c0) vector."""
    svars = [c.var for c in wide.cols]
    chain: Term = Const(0.0)
    for pos in range(n - 1, -1, -1):
        chain = If(BinOp("=", Var("rid"), Const(pos + 1)), Var(svars[pos]), chain)
    out = _uniq("c")
    body = [
        wide.atom(),
        _id_const_rel(n),
        AssignAtom("ID", Var("rid")),
        AssignAtom(out, chain),
    ]
    return _array_frame(em, 1, body, ["ID", out])


def _lower_dense_binary(em: _Emitter, inputs: list[str], output: str, operands: list) -> object:
    a_idx, b_idx = inputs
    a, b = operands

    # Scalar operands (ES5 / ES6): fold into the other side.
    if a_idx == "" or b_idx == "":
        scalar, tensor, t_idx = (a, b, b_idx) if a_idx == "" else (b, a, a_idx)
        return _scale_tensor(em, scalar, tensor, t_idx, output)

    # Operand swap (the paper's normalization step).
    if (a_idx, b_idx) in (("j", "ij"), ("k", "ik")):
        a_idx, b_idx, a, b = b_idx, a_idx, b, a
        # fall through with matrix first

    if a_idx == "i" and b_idx == "i" and output == "":  # inner product
        fa, fb = _require_frame(a, "i"), _require_frame(b, "i")
        return _inner_product(em, fa, fb)

    if a_idx == "ij" and b_idx == "ij" and output == "ij":  # ES7 Hadamard
        return _hadamard(em, _require_frame(a, "ij"), _require_frame(b, "ij"))

    if a_idx == "ij" and b_idx == "ik" and output == "jk":  # ES8 batch outer
        return _batch_outer(em, _require_frame(a, "ij"), _require_frame(b, "ik"))

    if a_idx == "ij" and b_idx == "ik" and output == "ij":  # ES9
        return _es9(em, _require_frame(a, "ij"), _require_frame(b, "ik"))

    if a_idx == "ij" and b_idx == "jk" and output == "ik":  # matmul
        return _matmul(em, _require_frame(a, "ij"), b)

    if a_idx == "ij" and b_idx == "j" and output == "i":  # matrix-vector
        return _matvec(em, _require_frame(a, "ij"), b)

    if a_idx == "i" and b_idx == "ij" and output == "j":  # vector-matrix
        raise TranslationError("vector-matrix einsum requires the sparse layout")

    raise TranslationError(f"unsupported binary einsum {a_idx},{b_idx}->{output}")


def _scale_tensor(em: _Emitter, scalar, tensor, t_idx: str, output: str):
    frame = _require_frame(tensor, t_idx)
    values = frame.value_cols()
    body = [frame.atom()]
    if isinstance(scalar, SymScalar):
        s_term: Term = Const(float(scalar.value))
    elif isinstance(scalar, SymScalarRel):
        body.append(scalar.atom())
        s_term = Var(scalar.var)
    else:
        raise TranslationError("scalar einsum operand must be a scalar")
    id_var = _ensure_id(frame, body)
    out_vars = _fresh_vars("c", len(values))
    for out, col in zip(out_vars, values):
        body.append(AssignAtom(out, _mul(s_term, Var(col.var))))
    return _array_frame(em, len(values), body, [id_var] + out_vars)


def _inner_product(em: _Emitter, fa: SymFrame, fb: SymFrame) -> SymScalarRel:
    a_atom, b_atom = fa.atom(), fb.atom()
    b_vars = _join_on_id(fa, fb, b_atom)
    rel = em.new_rel()
    prod = _mul(Var(fa.value_cols()[0].var), Var(b_vars[0]))
    em.emit(Rule(Head(rel, ["v"]), [a_atom, b_atom, AssignAtom("v", Agg("sum", prod))]))
    return SymScalarRel(rel=rel, var="v", dtype="float")


def _join_on_id(fa: SymFrame, fb: SymFrame, b_atom: RelAtom) -> list[str]:
    """Rename fb's access so its ID var joins fa's ID; return value vars."""
    a_id = next(c.var for c in fa.cols if c.var == "ID")
    out_value_vars: list[str] = []
    for pos, col in enumerate(fb.cols):
        if col.var == "ID":
            b_atom.vars[pos] = a_id
        else:
            if fa is fb or col.var in {c.var for c in fa.cols}:
                new = f"b_{col.var}"
                b_atom.vars[pos] = new
                out_value_vars.append(new)
            else:
                out_value_vars.append(col.var)
    return out_value_vars


def _hadamard(em: _Emitter, fa: SymFrame, fb: SymFrame) -> SymFrame:
    a_atom, b_atom = fa.atom(), fb.atom()
    b_vars = _join_on_id(fa, fb, b_atom)
    a_vals = fa.value_cols()
    if len(a_vals) != len(b_vars):
        raise TranslationError("hadamard operands must have equal width")
    out_vars = _fresh_vars("c", len(a_vals))
    body = [a_atom, b_atom]
    for out, ac, bv in zip(out_vars, a_vals, b_vars):
        body.append(AssignAtom(out, _mul(Var(ac.var), Var(bv))))
    return _array_frame(em, len(a_vals), body, ["ID"] + out_vars)


def _batch_outer(em: _Emitter, fa: SymFrame, fb: SymFrame) -> SymFrame:
    """ES8 ``'ij,ik->jk'``: J x K result (e.g. covariance when fa is fb)."""
    a_atom, b_atom = fa.atom(), fb.atom()
    b_vars = _join_on_id(fa, fb, b_atom)
    a_vals = [c.var for c in fa.value_cols()]
    J, K = len(a_vals), len(b_vars)
    base = _uniq("s")
    sums = [[f"{base}_{j}_{k}" for k in range(K)] for j in range(J)]
    body = [a_atom, b_atom]
    for j in range(J):
        for k in range(K):
            body.append(AssignAtom(sums[j][k], Agg("sum", _mul(Var(a_vals[j]), Var(b_vars[k])))))
    wide = _array_frame(em, J * K, body, [s for row in sums for s in row])

    # Reshape the 1 x (J*K) row into J rows of K columns via a constant
    # relation — the VALUES-based reshape of the paper's Figure 2.
    out_vars = _fresh_vars("c", K)
    body2: list = [wide.atom(), _id_const_rel(J), AssignAtom("ID", Var("rid"))]
    for k in range(K):
        chain: Term = Const(0.0)
        for j in range(J - 1, -1, -1):
            chain = If(BinOp("=", Var("rid"), Const(j + 1)), Var(sums[j][k]), chain)
        body2.append(AssignAtom(out_vars[k], chain))
    return _array_frame(em, K, body2, ["ID"] + out_vars)


def _es9(em: _Emitter, fa: SymFrame, fb: SymFrame) -> SymFrame:
    """ES9 ``'ij,ik->ij'``: scale each row of A by the row-sum of B."""
    a_atom, b_atom = fa.atom(), fb.atom()
    b_vars = _join_on_id(fa, fb, b_atom)
    a_vals = fa.value_cols()
    row_sum = _add_chain([Var(v) for v in b_vars])
    out_vars = _fresh_vars("c", len(a_vals))
    body = [a_atom, b_atom, AssignAtom("bsum", row_sum)]
    for out, ac in zip(out_vars, a_vals):
        body.append(AssignAtom(out, _mul(Var(ac.var), Var("bsum"))))
    return _array_frame(em, len(a_vals), body, ["ID"] + out_vars)


def _matmul(em: _Emitter, fa: SymFrame, b) -> SymFrame:
    """``'ij,jk->ik'``: B is reshaped to one row of J*K sums, then fused."""
    J = fa.width
    if isinstance(b, SymConstArray):
        matrix = b.values
        if len(matrix) != J:
            raise TranslationError("matmul inner dimensions disagree")
        K = len(matrix[0])
        a_vals = [c.var for c in fa.value_cols()]
        out_vars = _fresh_vars("c", K)
        body: list = [fa.atom()]
        for k in range(K):
            prods = [_mul(Var(a_vals[j]), Const(float(matrix[j][k]))) for j in range(J)]
            body.append(AssignAtom(out_vars[k], _add_chain(prods)))
        return _array_frame(em, K, body, ["ID"] + out_vars)

    fb = _require_frame(b, "jk")
    K = fb.width
    b_vals = [c.var for c in fb.value_cols()]
    # Pivot B: w_jk = sum(if(ID=j, b_k, 0)).
    wbase = _uniq("w")
    w = [[f"{wbase}_{j}_{k}" for k in range(K)] for j in range(J)]
    body = [fb.atom()]
    for j in range(J):
        for k in range(K):
            picked = If(BinOp("=", Var("ID"), Const(j + 1)), Var(b_vals[k]), Const(0.0))
            body.append(AssignAtom(w[j][k], Agg("sum", picked)))
    wide = _array_frame(em, J * K, body, [x for row in w for x in row])

    a_vals = [c.var for c in fa.value_cols()]
    out_vars = _fresh_vars("c", K)
    body2: list = [fa.atom(), wide.atom()]
    for k in range(K):
        prods = [_mul(Var(a_vals[j]), Var(w[j][k])) for j in range(J)]
        body2.append(AssignAtom(out_vars[k], _add_chain(prods)))
    return _array_frame(em, K, body2, ["ID"] + out_vars)


def _matvec(em: _Emitter, fa: SymFrame, b) -> SymFrame:
    """``'ij,j->i'``: constant vectors fold inline; stored vectors pivot."""
    J = fa.width
    a_vals = [c.var for c in fa.value_cols()]
    if isinstance(b, SymConstArray):
        weights = b.values
        if len(weights) != J:
            raise TranslationError("matvec dimensions disagree")
        out = _uniq("c")
        prods = [_mul(Var(a_vals[j]), Const(float(weights[j]))) for j in range(J)]
        body: list = [fa.atom(), AssignAtom(out, _add_chain(prods))]
        return _array_frame(em, 1, body, ["ID", out])

    fb = _require_frame(b, "j")
    v_var = fb.value_cols()[0].var
    w = _fresh_vars("w", J)
    body = [fb.atom()]
    for j in range(J):
        picked = If(BinOp("=", Var("ID"), Const(j + 1)), Var(v_var), Const(0.0))
        body.append(AssignAtom(w[j], Agg("sum", picked)))
    wide = _array_frame(em, J, body, w)
    out = _uniq("c")
    prods = [_mul(Var(a_vals[j]), Var(w[j])) for j in range(J)]
    body2: list = [fa.atom(), wide.atom(), AssignAtom(out, _add_chain(prods))]
    return _array_frame(em, 1, body2, ["ID", out])


# ---------------------------------------------------------------------------
# Sparse (COO) lowering — generic
# ---------------------------------------------------------------------------

def lower_sparse(em: _Emitter, spec: str, operands: list) -> object:
    """Generic COO lowering: joins on shared letters, group by output."""
    norm, _ = normalize_spec(spec)
    inputs, output = parse_spec(norm)
    frames: list[SymFrame] = []
    for op, idx in zip(operands, inputs):
        if not isinstance(op, SymFrame) or op.kind != "sparse":
            raise TranslationError("sparse einsum operands must be COO relations")
        if len(op.cols) != len(idx) + 1:
            raise TranslationError(
                f"COO relation {op.rel!r} has {len(op.cols) - 1} dims, spec wants {len(idx)}"
            )
        frames.append(op)

    body: list = []
    val_terms: list[Term] = []
    letter_var: dict[str, str] = {}
    for n, (frame, idx) in enumerate(zip(frames, inputs)):
        atom = RelAtom(frame.rel, [""] * len(frame.cols))
        for pos, letter in enumerate(idx):
            if letter not in letter_var:
                letter_var[letter] = f"d_{letter}"
            atom.vars[pos] = letter_var[letter]
        val_var = f"v{n}"
        atom.vars[len(idx)] = val_var
        val_terms.append(Var(val_var))
        body.append(atom)

    prod = val_terms[0]
    for t in val_terms[1:]:
        prod = _mul(prod, t)

    out_vars = [letter_var[letter] for letter in output]
    body.append(AssignAtom("val", Agg("sum", prod)))
    rel = em.new_rel()
    if output:
        em.emit(Rule(Head(rel, out_vars + ["val"], group=list(out_vars)), body))
        cols = [ColumnInfo(name=v, var=v, dtype="int") for v in out_vars]
        cols.append(ColumnInfo(name="val", var="val", dtype="float"))
        return SymFrame(rel=rel, cols=cols, kind="sparse")
    em.emit(Rule(Head(rel, ["val"]), body))
    return SymScalarRel(rel=rel, var="val", dtype="float")


def optimize_path(specs: list[str], output: str) -> list[tuple[int, int, str]]:
    """Greedy pairwise contraction path (opt_einsum substitute).

    *specs* are per-operand index strings; *output* the final indices.
    Returns steps ``(a, b, 'xy,zw->uv')`` over a shrinking operand list —
    after each step the two operands are removed and the intermediate is
    appended at the end.
    """
    operands = list(specs)
    steps: list[tuple[int, int, str]] = []
    while len(operands) > 2:
        best = None
        for i in range(len(operands)):
            for j in range(i + 1, len(operands)):
                shared = set(operands[i]) & set(operands[j])
                score = len(shared)
                if best is None or score > best[0]:
                    best = (score, i, j)
        _, i, j = best
        others = set(output)
        for k, op in enumerate(operands):
            if k not in (i, j):
                others |= set(op)
        keep = sorted((set(operands[i]) | set(operands[j])) & others)
        inter = "".join(keep)
        steps.append((i, j, f"{operands[i]},{operands[j]}->{inter}"))
        new_ops = [op for k, op in enumerate(operands) if k not in (i, j)]
        new_ops.append(inter)
        operands = new_ops
    if len(operands) == 2:
        steps.append((0, 1, f"{operands[0]},{operands[1]}->{output}"))
    elif len(operands) == 1:
        steps.append((0, 0, f"{operands[0]}->{output}"))
    return steps
