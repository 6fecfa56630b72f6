"""CASE evaluation: nested ``np.where`` over constants that stay scalars.

Every row of the table is a CASE shape — branch values of each type (int,
float, bool, string, NULL, date; literals and columns), with and without
ELSE, one or several branches — and is checked three ways: dtype and
values against the rule CASE had before (full-length defaults +
``np.select``, kept below as the reference), and rows against sqlite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import connect
from repro.bench.differential import assert_matches_backend
from repro.sqlengine.expressions import Evaluator, Scope
from repro.sqlengine.parser import parse_expression
from repro.sqlengine.table import Chunk

DATA = {
    "i": np.array([1, -2, 3, 0, 7], dtype=np.int64),
    "f": np.array([1.25, np.nan, 2.75, -1.0, 0.5]),
    "b": np.array([True, False, True, True, False]),
    "s": np.array(["x", None, "y", "x", "z"], dtype=object),
    "d": np.array(["1994-03-15", "NaT", "1996-12-31", "1995-07-01",
                   "1999-01-02"], dtype="datetime64[D]"),
}

# (WHEN ... THEN ... pairs, ELSE or None)
CASES = [
    ([("i > 1", "1")], "0"),                       # n3's shape
    ([("i > 1", "1")], None),
    ([("i > 1", "1.5")], "2"),
    ([("i > 1", "i")], "0"),
    ([("f < 2", "f")], "NULL"),
    ([("f < 2", "NULL")], "i"),
    ([("i > 1", "TRUE")], "FALSE"),
    ([("i > 1", "b")], None),
    ([("i > 1", "b")], "0"),
    ([("s = 'x'", "'a'")], "'b'"),
    ([("s = 'x'", "'a'")], None),
    ([("i > 0", "s")], "'none'"),
    ([("i > 0", "NULL")], "'c'"),
    ([("i > 0", "d")], None),
    ([("i > 0", "d")], "d"),
    ([("i > 2", "1"), ("i > 0", "2.5")], "3"),
    ([("i > 2", "'hi'"), ("f < 1", "'lo'"), ("b", "'mid'")], None),
    ([("i > 2", "i"), ("f > 0", "f"), ("b", "10")], "NULL"),
    ([("s IS NULL", "0"), ("s = 'x'", "1")], "2"),
]

# sqlite has no bool or date type; these rows check dtype and values only.
NOT_IN_SQLITE = {6, 7, 8, 13, 14}


def case_sql(branches, default) -> str:
    whens = " ".join(f"WHEN {c} THEN {v}" for c, v in branches)
    other = "" if default is None else f" ELSE {default}"
    return f"CASE {whens}{other} END"


def old_case(ev: Evaluator, expr) -> np.ndarray:
    """CASE as it was evaluated before: every value broadcast to a full
    column, the default built with ``np.full``, then ``np.select``."""
    conditions = [ev.eval_mask(c) for c, _ in expr.branches]
    values = [ev._array(v) for _, v in expr.branches]
    default = ev._array(expr.default) if expr.default is not None else None
    if default is None:
        sample = values[0]
        if sample.dtype == object:
            default = np.full(ev.nrows, None, dtype=object)
        elif sample.dtype.kind == "M":
            default = np.full(ev.nrows, np.datetime64("NaT"), dtype=sample.dtype)
        else:
            default = np.full(ev.nrows, np.nan)
    target = default.dtype
    for v in values:
        if v.dtype != target:
            target = np.promote_types(v.dtype, target) \
                if v.dtype != object and target != object else np.dtype(object)
    values = [v.astype(target, copy=False) for v in values]
    return np.select(conditions, values,
                     default=default.astype(target, copy=False))


def evaluator() -> Evaluator:
    chunk = Chunk(list(DATA), list(DATA.values()))
    scope = Scope()
    for slot, name in enumerate(chunk.columns):
        scope.add("t", name, slot)
    return Evaluator(chunk, scope)


@pytest.mark.parametrize("k", range(len(CASES)))
def test_matches_the_old_rule(k):
    expr = parse_expression(case_sql(*CASES[k]))
    got = evaluator().eval_array(expr)
    want = old_case(evaluator(), expr)
    assert got.dtype == want.dtype
    assert [repr(v) for v in got.tolist()] == [repr(v) for v in want.tolist()]


@pytest.mark.parametrize("k", sorted(set(range(len(CASES))) - NOT_IN_SQLITE))
def test_matches_sqlite(k):
    db = connect()
    db.register("t", dict(DATA))
    assert_matches_backend(
        db, f"SELECT i, {case_sql(*CASES[k])} AS c FROM t ORDER BY i",
        context=f"CASE row {k}")


def test_n3_shape_stays_int64_without_full_length_constants():
    expr = parse_expression(case_sql(*CASES[0]))
    out = evaluator().eval_array(expr)
    assert out.dtype == np.int64 and out.tolist() == [0, 0, 1, 0, 1]
