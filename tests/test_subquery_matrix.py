"""Every subquery form in every clause, against sqlite3.

Positions (WHERE conjunct, WHERE under OR, select item, grouped select
item, aggregate argument, HAVING, ORDER BY, window ORDER BY, JOIN ON) x
forms (scalar, IN, NOT IN, EXISTS, NOT EXISTS), each uncorrelated and
equality-correlated, over NULL-laden tables; the uncorrelated forms also
over an empty outer table.  Each cell either returns sqlite3's rows or —
only for a shape the planner does not unnest (a correlated scalar
subquery) — raises a typed error at plan time.  Each cell's plan has the
shape correlation decides, whatever the clause: an uncorrelated form is a
value an InitPlan binds, with no subquery join; a correlated one is a
MarkJoin with at least one correlation key.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import connect
from repro.bench.differential import assert_same_results, load_sqlite
from repro.errors import UnsupportedFeatureError
from repro.sqlengine import plan as p
from repro.sqlengine.parser import parse
from repro.sqlengine.planner import Planner

# {f} is the form; {t} the outer table.  Predicate forms are read through
# COALESCE(.., 0) on the sqlite side only: the engine's booleans are
# two-valued (UNKNOWN is FALSE), sqlite's three-valued.
POSITIONS = {
    "where": "SELECT id FROM {t} WHERE {p}",
    "where_or": "SELECT id FROM {t} WHERE {p} OR id = 1",
    "select_item": "SELECT id, {v} AS v FROM {t}",
    "grouped_item": "SELECT g, x, COUNT(*) AS n, {v} AS v FROM {t} "
                    "GROUP BY g, x",
    "aggregate_arg": "SELECT COUNT(*) AS n, SUM({a}) AS v FROM {t}",
    "having": "SELECT g, x FROM {t} GROUP BY g, x HAVING {h}",
    "order_by": "SELECT id FROM {t} ORDER BY {v}, id DESC LIMIT 4",
    "window_order_by": "SELECT id, ROW_NUMBER() OVER (ORDER BY {v}, id) "
                       "AS r FROM {t}",
    "join_on": "SELECT {t}.id, w.y FROM {t} JOIN u AS w "
               "ON {t}.g = w.k AND {p}",
}

# (uncorrelated, correlated) text of each form; a scalar form is a value,
# every other form a predicate.
FORMS = {
    "scalar": ("(SELECT MAX(y) FROM u)",
               "(SELECT MAX(y) FROM u WHERE u.k = {t}.g)"),
    "in": ("x IN (SELECT y FROM u)",
           "x IN (SELECT y FROM u WHERE u.k = {t}.g)"),
    "not_in": ("x NOT IN (SELECT y FROM u)",
               "x NOT IN (SELECT y FROM u WHERE u.k = {t}.g)"),
    "exists": ("EXISTS (SELECT 1 FROM u WHERE y > 5.0)",
               "EXISTS (SELECT 1 FROM u WHERE u.k = {t}.g AND u.y > 1.0)"),
    "not_exists": ("NOT EXISTS (SELECT 1 FROM u WHERE y > 5.0)",
                   "NOT EXISTS (SELECT 1 FROM u WHERE u.k = {t}.g "
                   "AND u.y > 1.0)"),
}

CELLS = [(pos, form, corr, outer)
         for pos in POSITIONS for form in FORMS
         for corr in ("uncorrelated", "correlated")
         for outer in (("t", "empty") if corr == "uncorrelated" else ("t",))]


def _sql(position: str, form: str, correlated: bool, table: str,
         oracle: bool) -> str:
    text = FORMS[form][correlated].format(t=table)
    if form == "scalar":
        slots = {"p": f"x < {text}", "v": text, "a": f"x + {text}",
                 "h": f"SUM(x) < {text}"}
    else:
        pred = f"COALESCE(({text}), 0)" if oracle else text
        slots = {"p": pred, "v": pred, "h": pred,
                 "a": f"CASE WHEN {pred} THEN 1 ELSE 0 END"}
    return POSITIONS[position].format(t=table, **slots)


@pytest.fixture(scope="module")
def dbs():
    db = connect()
    t = {"id": np.arange(1, 7, dtype=np.int64),
         "x": np.array([1.0, 2.0, 3.0, np.nan, 5.0, np.nan]),
         "g": np.array([1, 1, 2, 2, 3, 3], dtype=np.int64)}
    db.register("t", t, primary_key="id")
    db.register("empty", {name: col[:0] for name, col in t.items()})
    db.register("u", {"y": np.array([2.0, np.nan, 7.0]),
                      "k": np.array([1, 2, 3], dtype=np.int64)})
    conn = load_sqlite(db)
    yield db, conn
    conn.close()


def _operators(sql: str, db) -> list:
    """Every operator of *sql*'s plan, subplans included."""
    root = Planner(db.catalog, db.config).plan_body(
        parse(sql).body, {}, final=True).root
    ops, stack = [], [root]
    while stack:
        op = stack.pop()
        ops.append(op)
        stack.extend(op.children())
    return ops


@pytest.mark.parametrize("position,form,correlation,outer", CELLS,
                         ids=["-".join(c) for c in CELLS])
def test_matches_sqlite(dbs, position, form, correlation, outer):
    db, conn = dbs
    correlated = correlation == "correlated"
    sql = _sql(position, form, correlated, outer, oracle=False)
    if correlated and form == "scalar":
        # Not unnested: refused while planning, before anything runs.
        with pytest.raises(UnsupportedFeatureError, match="correlated scalar"):
            db.explain_plan(sql)
        return
    ops = _operators(sql, db)
    joins = [op for op in ops if isinstance(op, p.MarkJoin)]
    if correlated:
        assert joins, sql
        assert all(len(op.probe_exprs) > (op.source == "IN")
                   for op in joins), sql
    else:
        assert any(isinstance(op, p.InitPlan) for op in ops), sql
        assert not joins, sql
    assert_same_results(db, conn, sql, context=sql,
                        oracle_sql=_sql(position, form, correlated, outer,
                                        oracle=True))
