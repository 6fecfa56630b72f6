"""Differential suite: our engine vs the stdlib ``sqlite3`` oracle.

Every TPC-H query plus a generated corpus of SELECT/JOIN/GROUP BY queries
runs through both engines on identical data, asserting row-level equality.
This is the safety net behind the physical-plan refactor: a planner or
operator bug that changes results diverges from an independent engine.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro import connect
from repro.backends import get_backend
from repro.backends.rows import chunk_rows, norm_cell, rows_equal
from repro.bench.differential import (
    assert_matches_backend, assert_same_results, load_sqlite, to_sqlite_sql,
)
from repro.errors import SQLBindError
from repro.sqlengine import EngineConfig
from repro.workloads.tpch import QUERIES


# ---------------------------------------------------------------------------
# TPC-H (via the backend registry: the sqlite oracle compiles + executes
# through its ExecutionBackend protocol methods, mirror cached per catalog)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", sorted(QUERIES))
def test_tpch_query_matches_sqlite(q, tpch_db):
    sql = QUERIES[q].sql("duckdb", level="O4", db=tpch_db)
    assert_matches_backend(tpch_db, sql, backend="sqlite", context=f"tpch_q{q}")


@pytest.mark.parametrize("q", [1, 3, 5, 9, 10, 18])
def test_tpch_query_matches_sqlite_parallel(q, tpch_db):
    """The morsel-parallel join/aggregate paths must agree with the oracle."""
    sql = QUERIES[q].sql("hyper", level="O4", db=tpch_db)
    config = get_backend("hyper").config(threads=4)
    assert_matches_backend(tpch_db, sql, backend="sqlite", config=config,
                           context=f"tpch_q{q}[threads=4]")


# ---------------------------------------------------------------------------
# Generated corpus
# ---------------------------------------------------------------------------

def _corpus_db():
    rng = np.random.default_rng(1234)
    n = 240
    db = connect()
    db.register(
        "sales",
        {
            "id": np.arange(1, n + 1, dtype=np.int64),
            "cust": rng.integers(1, 41, n),
            "amt": np.round(rng.uniform(1.0, 500.0, n), 2),
            "qty": rng.integers(1, 20, n),
            "day": (np.datetime64("2020-01-01") +
                    rng.integers(0, 365, n).astype("timedelta64[D]")),
            "tag": rng.choice(np.array(["red", "blue", "green", "amber"],
                                       dtype=object), n),
            "note": rng.choice(np.array(["ok", "late", "hold", None],
                                        dtype=object), n),
        },
        primary_key="id",
    )
    db.register(
        "customers",
        {
            "cust": np.arange(1, 41, dtype=np.int64),
            "region": rng.choice(np.array(["north", "south", "east", "west"],
                                          dtype=object), 40),
            "credit": np.round(rng.uniform(0.0, 10.0, 40), 2),
        },
        primary_key="cust",
    )
    db.register(
        "regions",
        {
            "region": np.array(["north", "south", "east", "west", "hinter"],
                               dtype=object),
            "bonus": np.array([5, 3, 8, 1, 0], dtype=np.int64),
        },
        primary_key="region",
    )
    return db


# Deterministic "generated" corpus: the cross product of clause templates a
# fuzzer would explore — filters, expressions, joins, grouping, subqueries.
CORPUS = [
    # projections + filters
    "SELECT id, amt FROM sales WHERE amt > 250.0",
    "SELECT id, amt * 1.1 AS amt_up, qty + 1 AS q2 FROM sales WHERE qty <= 5",
    "SELECT id FROM sales WHERE amt BETWEEN 100.0 AND 200.0",
    "SELECT id, tag FROM sales WHERE tag IN ('red', 'blue') AND qty > 10",
    "SELECT id FROM sales WHERE tag LIKE 'a%'",
    "SELECT id, note FROM sales WHERE note IS NULL",
    "SELECT id, note FROM sales WHERE note IS NOT NULL AND note <> 'ok'",
    "SELECT id FROM sales WHERE qty > 15 OR amt < 20.0",
    "SELECT id, CASE WHEN amt > 300.0 THEN 'big' WHEN amt > 100.0 THEN 'mid' "
    "ELSE 'small' END AS bucket FROM sales WHERE id < 50",
    "SELECT id FROM sales WHERE day >= '2020-07-01' AND day < '2020-08-01'",
    "SELECT DISTINCT tag FROM sales",
    "SELECT DISTINCT tag, note FROM sales WHERE qty < 4",
    "SELECT id, amt FROM sales ORDER BY amt DESC, id LIMIT 7",
    "SELECT id, amt FROM sales WHERE tag = 'green' ORDER BY amt LIMIT 5",
    # aggregation
    "SELECT COUNT(*) AS n, SUM(amt) AS total, AVG(qty) AS avg_qty FROM sales",
    "SELECT tag, COUNT(*) AS n FROM sales GROUP BY tag",
    "SELECT tag, SUM(amt) AS total, MIN(amt) AS lo, MAX(amt) AS hi "
    "FROM sales GROUP BY tag",
    "SELECT tag, AVG(amt) AS avg_amt FROM sales WHERE qty > 3 GROUP BY tag",
    "SELECT tag, COUNT(note) AS with_note FROM sales GROUP BY tag",
    "SELECT tag, COUNT(DISTINCT cust) AS custs FROM sales GROUP BY tag",
    "SELECT cust, SUM(amt) AS total FROM sales GROUP BY cust "
    "HAVING SUM(amt) > 800.0",
    "SELECT tag, note, COUNT(*) AS n FROM sales GROUP BY tag, note",
    "SELECT SUM(amt) AS z FROM sales WHERE amt < 0.0",
    # joins
    "SELECT s.id, c.region FROM sales AS s, customers AS c "
    "WHERE s.cust = c.cust AND c.credit > 5.0",
    "SELECT s.id, c.region, r.bonus FROM sales AS s, customers AS c, regions AS r "
    "WHERE s.cust = c.cust AND c.region = r.region AND s.amt > 400.0",
    "SELECT s.id, c.credit FROM sales AS s JOIN customers AS c ON s.cust = c.cust "
    "WHERE s.qty = 1",
    "SELECT c.cust, s.id, s.amt FROM customers AS c LEFT JOIN sales AS s "
    "ON c.cust = s.cust",
    "SELECT c.region, SUM(s.amt) AS total FROM sales AS s, customers AS c "
    "WHERE s.cust = c.cust GROUP BY c.region ORDER BY total DESC",
    "SELECT r.region, COUNT(*) AS n FROM customers AS c JOIN regions AS r "
    "ON c.region = r.region GROUP BY r.region",
    # subqueries
    "SELECT id, amt FROM sales WHERE amt > (SELECT AVG(amt) FROM sales)",
    "SELECT id FROM sales WHERE cust IN "
    "(SELECT cust FROM customers WHERE region = 'north')",
    "SELECT cust FROM customers AS c WHERE EXISTS "
    "(SELECT 1 FROM sales AS s WHERE s.cust = c.cust AND s.amt > 450.0)",
    "SELECT cust FROM customers AS c WHERE NOT EXISTS "
    "(SELECT 1 FROM sales AS s WHERE s.cust = c.cust)",
    # CTE + derived tables
    "WITH big(id, amt) AS (SELECT id, amt FROM sales WHERE amt > 300.0) "
    "SELECT COUNT(*) AS n, SUM(amt) AS total FROM big",
    "SELECT t.tag, t.total FROM (SELECT tag, SUM(amt) AS total FROM sales "
    "GROUP BY tag) AS t WHERE t.total > 1000.0",
    # LIKE edge cases: ESCAPE clauses and NULL patterns/operands.
    "SELECT id FROM sales WHERE note LIKE 'l_te'",
    "SELECT id FROM sales WHERE note LIKE 'l!_te' ESCAPE '!'",
    "SELECT id FROM sales WHERE tag LIKE 'a!%' ESCAPE '!'",
    "SELECT id FROM sales WHERE note LIKE NULL",
    "SELECT id FROM sales WHERE note NOT LIKE 'o%'",
    "SELECT id FROM sales WHERE note NOT LIKE 'l_te' AND qty > 15",
]


@pytest.fixture(scope="module")
def corpus():
    db = _corpus_db()
    conn = load_sqlite(db)
    yield db, conn
    conn.close()


@pytest.mark.parametrize("i", range(len(CORPUS)))
def test_generated_query_matches_sqlite(i, corpus):
    db, conn = corpus
    assert_same_results(db, conn, CORPUS[i], context=f"corpus[{i}]")


@pytest.mark.parametrize("i", [1, 15, 16, 23, 24, 27, 34])
@pytest.mark.parametrize("threads", [2, 4])
def test_generated_query_matches_sqlite_parallel(i, threads, corpus):
    db, conn = corpus
    config = get_backend("hyper").config(threads=threads)
    assert_same_results(db, conn, CORPUS[i], config=config,
                        context=f"corpus[{i}][threads={threads}]")


# Positional ORDER BY / GROUP BY: the planner resolves an integer literal to
# the select-list position it names (it used to be evaluated as a constant,
# so ORDER BY 2 sorted nothing and GROUP BY 1 collapsed to one group).
# Every ORDER BY here is a total order, so rows compare *in order*.
ORDINAL_CORPUS = [
    "SELECT tag, SUM(amt) AS total FROM sales GROUP BY tag ORDER BY 2 DESC",
    "SELECT cust, SUM(amt) AS total FROM sales GROUP BY cust "
    "ORDER BY 2 DESC, 1 LIMIT 5",
    "SELECT tag, COUNT(*) AS n FROM sales GROUP BY 1 ORDER BY 1",
    "SELECT cust % 4 AS bucket, tag, SUM(qty) AS q FROM sales "
    "GROUP BY 1, 2 ORDER BY 1, 2 DESC",
    "SELECT tag, SUM(qty) AS q FROM sales GROUP BY 1 HAVING SUM(qty) > 100 "
    "ORDER BY 2 LIMIT 3",
    "SELECT * FROM regions ORDER BY 2 DESC, 1",
    "SELECT id, amt FROM sales WHERE qty = 7 ORDER BY 2 DESC, 1 LIMIT 4",
    "SELECT DISTINCT tag, qty FROM sales WHERE qty < 3 ORDER BY 2 DESC, 1",
    "SELECT cust FROM sales WHERE amt > 400.0 "
    "UNION SELECT cust FROM customers WHERE credit > 9.0 ORDER BY 1 DESC LIMIT 4",
    "SELECT tag AS k, qty AS v FROM sales WHERE qty > 17 "
    "UNION SELECT region, bonus FROM regions ORDER BY 2 DESC, 1",
]

ORDINAL_CONFIGS = {
    "default": EngineConfig(),
    "threads4": EngineConfig(threads=4),
    "no-topk": EngineConfig(topk_rewrite=False),
    # Smaller than any input here: every grouped query grace-partitions.
    "spill": EngineConfig(memory_budget=1024, spill_partitions=3),
}


@pytest.mark.parametrize("i", range(len(ORDINAL_CORPUS)))
@pytest.mark.parametrize("profile", sorted(ORDINAL_CONFIGS))
def test_ordinal_query_matches_sqlite_in_order(i, profile, corpus):
    db, conn = corpus
    sql = ORDINAL_CORPUS[i]
    chunk = db.execute_chunk(sql, ORDINAL_CONFIGS[profile])
    ours = [tuple(map(norm_cell, row)) for row in chunk_rows(chunk)]
    theirs = [tuple(map(norm_cell, row))
              for row in conn.execute(to_sqlite_sql(sql)).fetchall()]
    ok, detail = rows_equal(ours, theirs)
    assert ok, f"ordinal[{i}][{profile}] diverged from sqlite3: {detail}\nsql: {sql}"


@pytest.mark.parametrize("sql", [
    "SELECT id, amt FROM sales ORDER BY 5",
    "SELECT id, amt FROM sales ORDER BY 0",
    "SELECT tag, COUNT(*) FROM sales GROUP BY 3",
    "SELECT tag, COUNT(*) FROM sales GROUP BY 2",  # position names an aggregate
    "SELECT cust FROM sales UNION SELECT cust FROM customers ORDER BY 2",
])
def test_out_of_range_ordinal_is_a_bind_error(sql, corpus):
    db, conn = corpus
    with pytest.raises(SQLBindError):
        db.execute(sql)
    with pytest.raises(sqlite3.Error):  # the oracle rejects them too
        conn.execute(to_sqlite_sql(sql)).fetchall()


def test_ordinal_naming_a_duplicated_output_column_is_a_bind_error(corpus):
    """ORDER BY positions resolve to output-column *names*; when two output
    columns share the name, a typed error beats silently sorting by the
    wrong one (sqlite accepts this, so it is not a differential case)."""
    db, _ = corpus
    with pytest.raises(SQLBindError, match="ambiguous"):
        db.execute("SELECT s.cust, c.cust FROM sales AS s, customers AS c "
                   "WHERE s.cust = c.cust ORDER BY 1")


def _all_variant_oracle(op: str, cols: str, left: str, right: str) -> str:
    """sqlite3 has no INTERSECT ALL / EXCEPT ALL; tag each row with its
    per-duplicate ROW_NUMBER and run the DISTINCT operation over the tagged
    rows — (row, 1), (row, 2), … pair up exactly ``min``/``difference`` of
    the two multiplicities, the ALL-variant semantics."""
    tag = f"ROW_NUMBER() OVER (PARTITION BY {cols}) AS rn"
    return (f"SELECT {cols} FROM ("
            f"SELECT {cols}, {tag} FROM ({left}) "
            f"{op} "
            f"SELECT {cols}, {tag} FROM ({right}))")


# Set-operation corpus: every form (UNION [ALL], INTERSECT [ALL],
# EXCEPT [ALL]), standard precedence, trailing ORDER BY/LIMIT on the
# compound, NULL key rows (set operations treat NULLs as equal), joins and
# aggregates inside operands, CTE/derived-table compounds.  Entries are
# (our_sql, oracle_sql): oracle_sql is None when sqlite runs the same text,
# and an explicit rewrite where sqlite's dialect diverges (no ALL variants
# of INTERSECT/EXCEPT; left-associative-only precedence).
SETOP_CORPUS: list[tuple[str, str | None]] = [
    ("SELECT cust FROM sales WHERE amt > 300.0 "
     "UNION ALL SELECT cust FROM customers", None),
    ("SELECT cust FROM sales UNION SELECT cust FROM customers", None),
    ("SELECT note FROM sales UNION SELECT tag FROM sales", None),
    ("SELECT cust FROM sales INTERSECT "
     "SELECT cust FROM customers WHERE credit > 5.0", None),
    ("SELECT cust FROM customers EXCEPT "
     "SELECT cust FROM sales WHERE amt > 400.0", None),
    ("SELECT tag, qty FROM sales WHERE qty < 3 "
     "UNION SELECT tag, qty FROM sales WHERE qty > 17", None),
    ("SELECT day FROM sales WHERE qty > 10 INTERSECT "
     "SELECT day FROM sales WHERE amt > 100.0", None),
    ("SELECT note FROM sales EXCEPT SELECT tag FROM sales", None),
    ("SELECT note FROM sales INTERSECT "
     "SELECT note FROM sales WHERE qty > 5", None),
    ("SELECT c.region FROM customers AS c JOIN sales AS s ON c.cust = s.cust "
     "WHERE s.amt > 400.0 UNION SELECT region FROM regions", None),
    ("SELECT id FROM sales WHERE amt > 250.0 "
     "UNION SELECT id FROM sales WHERE qty > 15 ORDER BY id LIMIT 10", None),
    ("SELECT id, cust FROM sales WHERE tag = 'red' "
     "UNION ALL SELECT id, cust FROM sales WHERE qty > 17 "
     "ORDER BY id DESC, cust LIMIT 7", None),
    ("SELECT cust FROM sales WHERE qty > 15 "
     "UNION SELECT cust FROM sales WHERE amt > 450.0 "
     "UNION ALL SELECT cust FROM customers WHERE credit > 9.0", None),
    ("WITH u(cust) AS (SELECT cust FROM sales WHERE qty > 10 "
     "UNION SELECT cust FROM customers WHERE credit > 8.0) "
     "SELECT COUNT(*) AS n FROM u", None),
    ("SELECT t.cust, COUNT(*) AS n FROM "
     "(SELECT cust FROM sales WHERE amt > 300.0 "
     "UNION ALL SELECT cust FROM sales WHERE qty > 15) AS t "
     "GROUP BY t.cust", None),
    ("SELECT cust, amt * 2.0 AS v FROM sales WHERE amt < 50.0 "
     "UNION ALL SELECT cust, credit FROM customers", None),
    ("SELECT tag FROM sales WHERE qty > 15 INTERSECT ALL "
     "SELECT tag FROM sales WHERE amt > 200.0",
     _all_variant_oracle(
         "INTERSECT", "tag",
         "SELECT tag FROM sales WHERE qty > 15",
         "SELECT tag FROM sales WHERE amt > 200.0")),
    ("SELECT cust FROM sales EXCEPT ALL "
     "SELECT cust FROM sales WHERE qty > 5",
     _all_variant_oracle(
         "EXCEPT", "cust",
         "SELECT cust FROM sales",
         "SELECT cust FROM sales WHERE qty > 5")),
    ("SELECT tag, note FROM sales WHERE qty > 8 EXCEPT ALL "
     "SELECT tag, note FROM sales WHERE amt > 150.0",
     _all_variant_oracle(
         "EXCEPT", "tag, note",
         "SELECT tag, note FROM sales WHERE qty > 8",
         "SELECT tag, note FROM sales WHERE amt > 150.0")),
    ("SELECT cust FROM sales WHERE day >= '2020-06-01' INTERSECT ALL "
     "SELECT cust FROM sales WHERE tag = 'blue'",
     _all_variant_oracle(
         "INTERSECT", "cust",
         "SELECT cust FROM sales WHERE day >= '2020-06-01'",
         "SELECT cust FROM sales WHERE tag = 'blue'")),
    # Standard precedence: INTERSECT binds tighter than UNION.  sqlite
    # groups purely left-to-right, so the oracle spells the standard
    # grouping out with a derived table.
    ("SELECT cust FROM sales UNION SELECT cust FROM customers "
     "INTERSECT SELECT cust FROM sales WHERE qty > 15",
     "SELECT cust FROM sales UNION SELECT cust FROM "
     "(SELECT cust FROM customers INTERSECT "
     "SELECT cust FROM sales WHERE qty > 15)"),
]


@pytest.mark.parametrize("i", range(len(SETOP_CORPUS)))
@pytest.mark.parametrize("threads", [1, 4])
def test_set_op_query_matches_sqlite(i, threads, corpus):
    db, conn = corpus
    sql, oracle_sql = SETOP_CORPUS[i]
    config = get_backend("hyper").config(threads=threads)
    assert_same_results(db, conn, sql, config=config,
                        context=f"setop[{i}][threads={threads}]",
                        oracle_sql=oracle_sql)


# Window-function corpus: partitioned ranks, LAG/LEAD with defaults, framed
# running sums — the workload family the `Window` physical operator unlocked.
# ROW_NUMBER ties are broken by id so both engines order deterministically,
# and ORDER BY keys are non-nullable: the engine sorts NULLs last
# (PostgreSQL's ascending default) while sqlite sorts them first, so a
# nullable order key would legitimately diverge (see docs/ARCHITECTURE.md).
WINDOW_CORPUS = [
    "SELECT id, ROW_NUMBER() OVER (PARTITION BY cust ORDER BY amt DESC, id) "
    "AS rn FROM sales",
    "SELECT id, RANK() OVER (PARTITION BY tag ORDER BY qty) AS r FROM sales",
    "SELECT id, DENSE_RANK() OVER (PARTITION BY tag ORDER BY qty DESC) AS r "
    "FROM sales",
    "SELECT id, NTILE(4) OVER (ORDER BY amt, id) AS quartile FROM sales",
    "SELECT id, LAG(amt) OVER (PARTITION BY cust ORDER BY day, id) AS prev "
    "FROM sales",
    "SELECT id, LAG(amt, 2, 0.0) OVER (PARTITION BY cust ORDER BY id) AS prev2 "
    "FROM sales",
    "SELECT id, LEAD(qty, 1, -1) OVER (PARTITION BY tag ORDER BY id) AS nxt "
    "FROM sales",
    "SELECT id, SUM(amt) OVER (PARTITION BY cust ORDER BY id) AS running "
    "FROM sales",
    "SELECT id, SUM(qty) OVER (PARTITION BY tag ORDER BY id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS running FROM sales",
    "SELECT id, AVG(amt) OVER (PARTITION BY cust ORDER BY id "
    "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS avg4 FROM sales",
    "SELECT id, MIN(amt) OVER (PARTITION BY cust ORDER BY id "
    "ROWS BETWEEN 5 PRECEDING AND 1 FOLLOWING) AS lo FROM sales",
    "SELECT id, MAX(qty) OVER (PARTITION BY tag ORDER BY id) AS hi FROM sales",
    "SELECT id, COUNT(note) OVER (PARTITION BY tag) AS notes, "
    "COUNT(*) OVER (PARTITION BY tag) AS n FROM sales",
    "SELECT id, amt - AVG(amt) OVER (PARTITION BY cust) AS dev FROM sales "
    "WHERE qty > 2",
    "SELECT id, SUM(amt) OVER (ORDER BY qty) AS by_peers FROM sales",
    "SELECT s.id, RANK() OVER (PARTITION BY c.region ORDER BY s.amt DESC, s.id) "
    "AS r FROM sales AS s, customers AS c WHERE s.cust = c.cust",
    "SELECT id, LAG(note) OVER (ORDER BY id) AS prev_note FROM sales",
    "SELECT t.cust, t.rn FROM (SELECT cust, ROW_NUMBER() OVER "
    "(PARTITION BY cust ORDER BY amt DESC, id) AS rn FROM sales) AS t "
    "WHERE t.rn = 1",
    # A window call among the items of an IN list, and as its operand.
    "SELECT id, 1 IN (ROW_NUMBER() OVER (PARTITION BY cust ORDER BY id), 7) "
    "AS first_or_seventh FROM sales",
    "SELECT id, ROW_NUMBER() OVER (PARTITION BY cust ORDER BY id) IN (1, 2) "
    "AS early FROM sales",
]


@pytest.mark.parametrize("i", range(len(WINDOW_CORPUS)))
def test_window_query_matches_sqlite(i, corpus):
    db, conn = corpus
    assert_same_results(db, conn, WINDOW_CORPUS[i], context=f"window[{i}]")


@pytest.mark.parametrize("i", range(len(WINDOW_CORPUS)))
@pytest.mark.parametrize("threads", [4])
def test_window_query_matches_sqlite_parallel(i, threads, corpus):
    """The partition-parallel Window reductions must agree with the oracle."""
    db, conn = corpus
    config = get_backend("hyper").config(threads=threads)
    assert_same_results(db, conn, WINDOW_CORPUS[i], config=config,
                        context=f"window[{i}][threads={threads}]")


def test_to_sqlite_sql_rewrites():
    assert to_sqlite_sql("WHERE d < DATE '1995-03-15'") == "WHERE d < '1995-03-15'"
    assert to_sqlite_sql("SELECT EXTRACT(YEAR FROM o.d) FROM o") == \
        "SELECT CAST(STRFTIME('%Y', o.d) AS INTEGER) FROM o"
    assert to_sqlite_sql("STRFTIME(x, '%Y-%m')") == "STRFTIME('%Y-%m', x)"
    assert to_sqlite_sql("SUBSTRING(s, 1, 2)") == "SUBSTR(s, 1, 2)"


# ---------------------------------------------------------------------------
# Dictionary-encoded string columns (ROADMAP 4d)
# ---------------------------------------------------------------------------

def _dict_db():
    """A fact table whose string columns come out of the Scan as
    ``DictColumn``s — low cardinality, with NULLs and the empty string —
    large enough for the parallel and the spilling paths, and a small
    dimension keyed by the same strings (one key absent from the facts, one
    fact value absent from the dimension, a NULL key on both sides)."""
    rng = np.random.default_rng(99)
    n = 6000
    kinds = np.array(["ash", "birch", "", None, "Zed", "ashen", "oak"],
                     dtype=object)
    db = connect()
    db.register(
        "items",
        {
            "id": np.arange(1, n + 1, dtype=np.int64),
            "kind": rng.choice(kinds, n),
            "alt": rng.choice(kinds[:5], n),
            "qty": rng.integers(0, 50, n),
            # Numeric strings but for one entry: CAST is partial on it.
            "code": rng.choice(np.array(["7", "10", "-3", "n/a", None],
                                        dtype=object), n),
        },
        primary_key="id",
    )
    db.register(
        "kinds",
        {
            "kind": np.array(["ash", "birch", "", "oak", "yew", None],
                             dtype=object),
            "label": np.array(["A", "B", "empty", None, "Y", "null"],
                              dtype=object),
            "rank": np.arange(6, dtype=np.int64),
        },
    )
    return db


DICT_CORPUS = [
    # comparisons, evaluated on the dictionary
    "SELECT id FROM items WHERE kind = 'ash'",
    "SELECT id FROM items WHERE kind <> 'ash'",
    "SELECT id FROM items WHERE kind < 'b'",
    "SELECT id FROM items WHERE kind >= 'ash' AND kind <= 'birch'",
    "SELECT id FROM items WHERE kind = ''",
    "SELECT id FROM items WHERE kind = 'no such value'",
    "SELECT id FROM items WHERE kind BETWEEN 'a' AND 'b'",
    "SELECT id FROM items WHERE kind IN ('ash', '', 'nope')",
    "SELECT id FROM items WHERE kind NOT IN ('ash', 'oak')",
    "SELECT id FROM items WHERE kind IN ('ash', NULL)",
    "SELECT id FROM items WHERE kind NOT IN ('ash', NULL)",
    "SELECT id FROM items WHERE kind LIKE 'ash%'",
    "SELECT id FROM items WHERE kind NOT LIKE 'a%'",
    "SELECT id FROM items WHERE kind LIKE ''",
    "SELECT id FROM items WHERE kind IS NULL",
    "SELECT id FROM items WHERE kind IS NOT NULL AND qty > 40",
    # (NOT over a comparison is two-valued in this engine: keep NULLs out.)
    "SELECT id FROM items WHERE kind IS NOT NULL "
    "AND NOT (kind = 'ash' OR kind = 'oak')",
    # scalar functions and CASE over one encoded column
    "SELECT id, COALESCE(kind, 'none') AS k FROM items WHERE qty = 7",
    "SELECT id, CASE WHEN kind = 'ash' THEN 1 WHEN kind IS NULL THEN 2 "
    "ELSE 0 END AS c FROM items WHERE qty < 3",
    "SELECT id, CASE WHEN kind LIKE 'a%' THEN 'a-word' ELSE kind END AS c "
    "FROM items WHERE qty = 11",
    "SELECT id, SUBSTR(kind, 1, 2) AS pre FROM items WHERE qty = 5",
    "SELECT id, UPPER(kind) AS up, LENGTH(kind) AS len FROM items "
    "WHERE kind IS NOT NULL AND qty = 9",
    "SELECT id FROM items WHERE SUBSTR(kind, 1, 3) = 'ash'",
    # a partial function sees only the entries the filter below it left
    "SELECT id, CAST(code AS INT) AS c FROM items WHERE code <> 'n/a'",
    "SELECT id, CASE WHEN code LIKE 'n%' THEN 0 ELSE CAST(code AS INT) END "
    "AS c FROM items WHERE code NOT LIKE 'n%'",
    "SELECT CAST(code AS INT) AS c, COUNT(*) AS n FROM items "
    "WHERE code IN ('7', '10') GROUP BY CAST(code AS INT)",
    # two columns: nothing to lift, the values are compared
    "SELECT id FROM items WHERE kind = alt",
    "SELECT id FROM items WHERE kind <> alt AND qty > 45",
    "SELECT id, CASE WHEN kind = 'ash' THEN alt ELSE kind END AS c "
    "FROM items WHERE qty = 13",
    # keys: GROUP BY, DISTINCT, aggregates over the column, set operations
    "SELECT kind, COUNT(*) AS n, SUM(qty) AS q FROM items GROUP BY kind",
    "SELECT kind, alt, COUNT(*) AS n FROM items GROUP BY kind, alt",
    "SELECT kind, COUNT(alt) AS n, COUNT(DISTINCT alt) AS d, MIN(alt) AS lo, "
    "MAX(alt) AS hi FROM items GROUP BY kind",
    "SELECT COUNT(kind) AS n, COUNT(DISTINCT kind) AS d FROM items",
    "SELECT SUBSTR(kind, 1, 1) AS initial, COUNT(*) AS n FROM items "
    "GROUP BY SUBSTR(kind, 1, 1)",
    "SELECT kind, COUNT(*) AS n FROM items GROUP BY kind "
    "HAVING kind <> 'ash' AND COUNT(*) > 10",
    "SELECT DISTINCT kind FROM items",
    "SELECT DISTINCT kind, alt FROM items WHERE qty < 10",
    "SELECT kind FROM items WHERE qty < 5 UNION SELECT kind FROM kinds",
    "SELECT kind FROM items UNION ALL SELECT label FROM kinds",
    "SELECT kind FROM items INTERSECT SELECT kind FROM kinds",
    "SELECT kind FROM items EXCEPT SELECT kind FROM kinds",
    "SELECT kind, COUNT(*) AS n FROM items GROUP BY kind ORDER BY kind",
    # joins, semi- and anti-joins on the string key
    "SELECT i.id, k.label FROM items AS i, kinds AS k "
    "WHERE i.kind = k.kind AND i.qty > 44",
    "SELECT k.label, COUNT(*) AS n FROM items AS i JOIN kinds AS k "
    "ON i.kind = k.kind GROUP BY k.label",
    "SELECT i.id, k.label, k.rank FROM items AS i LEFT JOIN kinds AS k "
    "ON i.kind = k.kind WHERE i.qty = 3",
    "SELECT k.kind, k.label, i.id FROM kinds AS k LEFT JOIN "
    "(SELECT id, kind FROM items WHERE qty = 0) AS i ON k.kind = i.kind",
    "SELECT i.id FROM items AS i, items AS j "
    "WHERE i.kind = j.alt AND i.id = j.id",
    "SELECT id FROM items WHERE kind IN (SELECT kind FROM kinds WHERE rank < 3)",
    "SELECT id FROM items WHERE kind NOT IN "
    "(SELECT kind FROM kinds WHERE kind IS NOT NULL)",
    "SELECT id FROM items WHERE kind NOT IN (SELECT kind FROM kinds)",
    "SELECT id FROM items AS i WHERE EXISTS "
    "(SELECT 1 FROM kinds AS k WHERE k.kind = i.kind AND k.rank > 1)",
    "SELECT kind FROM kinds AS k WHERE NOT EXISTS "
    "(SELECT 1 FROM items AS i WHERE i.kind = k.kind)",
    "SELECT kind FROM kinds WHERE kind IN (SELECT alt FROM items WHERE qty = 1)",
    # through a CTE and a derived table: the codes survive a materialization
    "WITH picked(id, kind) AS (SELECT id, kind FROM items WHERE qty > 40) "
    "SELECT kind, COUNT(*) AS n FROM picked WHERE kind <> 'oak' GROUP BY kind",
    "SELECT t.kind, t.n FROM (SELECT kind, COUNT(*) AS n FROM items "
    "GROUP BY kind) AS t WHERE t.kind LIKE '%sh%'",
    # window partitions and values
    "SELECT id, ROW_NUMBER() OVER (PARTITION BY kind ORDER BY id) AS rn "
    "FROM items WHERE qty = 2",
    "SELECT id, LAG(kind) OVER (ORDER BY id) AS prev FROM items WHERE qty = 4",
]

# Total orders over non-NULL keys (the engine sorts NULLs last, sqlite
# first), so these compare row by row.
DICT_ORDERED_CORPUS = [
    "SELECT id, kind FROM items WHERE kind IS NOT NULL ORDER BY kind, id LIMIT 40",
    "SELECT id, kind FROM items WHERE kind IS NOT NULL "
    "ORDER BY kind DESC, id DESC LIMIT 40",
    "SELECT kind, alt, COUNT(*) AS n FROM items "
    "WHERE kind IS NOT NULL AND alt IS NOT NULL GROUP BY kind, alt "
    "ORDER BY kind DESC, alt",
    "SELECT kind FROM items WHERE kind IS NOT NULL "
    "UNION SELECT kind FROM kinds WHERE kind IS NOT NULL ORDER BY 1",
]

DICT_CONFIGS = {
    "default": EngineConfig(),
    "threads4": EngineConfig(threads=4),
    # Smaller than the fact table: joins and grouped queries over it spill.
    "spill": EngineConfig(memory_budget=4096, spill_partitions=3),
}


@pytest.fixture(scope="module")
def dict_corpus():
    db = _dict_db()
    conn = load_sqlite(db)
    yield db, conn
    conn.close()


def test_dict_corpus_columns_are_encoded(dict_corpus):
    from repro.sqlengine.table import DictColumn

    db, _ = dict_corpus
    for table, column in (("items", "kind"), ("items", "alt"), ("items", "code"),
                          ("kinds", "kind"), ("kinds", "label")):
        col = db.catalog.get(table).scan([column]).arrays[0]
        assert isinstance(col, DictColumn), (table, column)


@pytest.mark.parametrize("i", range(len(DICT_CORPUS)))
@pytest.mark.parametrize("profile", sorted(DICT_CONFIGS))
def test_dict_query_matches_sqlite(i, profile, dict_corpus):
    db, conn = dict_corpus
    assert_same_results(db, conn, DICT_CORPUS[i], config=DICT_CONFIGS[profile],
                        context=f"dict[{i}][{profile}]")


@pytest.mark.parametrize("i", range(len(DICT_ORDERED_CORPUS)))
@pytest.mark.parametrize("profile", sorted(DICT_CONFIGS))
def test_dict_ordered_query_matches_sqlite_in_order(i, profile, dict_corpus):
    db, conn = dict_corpus
    sql = DICT_ORDERED_CORPUS[i]
    chunk = db.execute_chunk(sql, DICT_CONFIGS[profile])
    ours = [tuple(map(norm_cell, row)) for row in chunk_rows(chunk)]
    theirs = [tuple(map(norm_cell, row))
              for row in conn.execute(to_sqlite_sql(sql)).fetchall()]
    assert ours == theirs, f"dict-ordered[{i}][{profile}]\nsql: {sql}"


# ---------------------------------------------------------------------------
# LIKE against sqlite's case-sensitive LIKE, on a dictionary-encoded column
# (the pattern runs once per dictionary entry) and on a column with more
# distinct values than a dictionary may hold (the pattern runs per row)
# ---------------------------------------------------------------------------

LIKE_VALUES = ["", "a", "a\n", "xa\n", "\n", "aa", "aaa", "aaaa", "aXa",
               "aa\naa", "ba", "a%", "%", "_", "x_y", "xay", None]

LIKE_PATTERNS = [
    "'a%a'", "'a'", "'%aa%aa%'", "'aaa'", "''", "'%'", "'%%'", "'_'",
    "'%a'", "'a%'", "'%a%'", "'_a%'", "'%a_'",
    "'a!%' ESCAPE '!'", "'!%%' ESCAPE '!'", "'%!_%' ESCAPE '!'",
    "'x!_y' ESCAPE '!'", "'x_y' ESCAPE '!'", "'%!!%' ESCAPE '!'",
]


def _like_db():
    db = connect()
    n = 4 * len(LIKE_VALUES)
    db.register("few", {
        "id": np.arange(n, dtype=np.int64),
        "s": np.array(LIKE_VALUES * 4, dtype=object)})
    # Well over MAX_DICT_ENTRIES distinct values, some matching a pattern.
    filler = [f"a{i}a" if i % 3 == 0 else f"f{i}" for i in range(5000)]
    values = LIKE_VALUES + filler
    db.register("many", {
        "id": np.arange(len(values), dtype=np.int64),
        "s": np.array(values, dtype=object)})
    return db


@pytest.fixture(scope="module")
def like_corpus():
    db = _like_db()
    conn = load_sqlite(db)
    conn.execute("PRAGMA case_sensitive_like=ON")
    yield db, conn
    conn.close()


def test_like_tables_take_both_paths(like_corpus):
    from repro.sqlengine.table import DictColumn

    db, _ = like_corpus
    assert isinstance(db.catalog.get("few").scan(["s"]).arrays[0], DictColumn)
    assert not isinstance(db.catalog.get("many").scan(["s"]).arrays[0],
                          DictColumn)


@pytest.mark.parametrize("table", ["few", "many"])
def test_like_does_not_match_before_a_trailing_newline(like_corpus, table):
    # `$` also matches just before a final newline: 'a\n' LIKE 'a' was TRUE.
    db, _ = like_corpus
    ids = {v: i for i, v in enumerate(LIKE_VALUES)}
    for pattern, value in (("a", "a\n"), ("%a", "xa\n"), ("a%a", "a")):
        got = db.execute(f"SELECT id FROM {table} WHERE s LIKE '{pattern}' "
                         f"AND id = {ids[value]}")["id"].tolist()
        assert got == [], (pattern, value)


def test_series_like_does_not_match_before_a_trailing_newline():
    import repro.dataframe as rpd

    s = rpd.Series(["a", "a\n", "xa\n", None])
    assert s.str.like("a").tolist() == [True, False, False, False]
    assert s.str.like("%a").tolist() == [True, False, False, False]
    assert s.str.like("%a%").tolist() == [True, True, True, False]


@pytest.mark.parametrize("negated", [False, True])
@pytest.mark.parametrize("pattern", LIKE_PATTERNS)
@pytest.mark.parametrize("table", ["few", "many"])
def test_like_matches_sqlite(like_corpus, table, pattern, negated):
    db, conn = like_corpus
    op = "NOT LIKE" if negated else "LIKE"
    assert_same_results(db, conn, f"SELECT id FROM {table} WHERE s {op} {pattern}",
                        context=f"like[{table}]")


# ---------------------------------------------------------------------------
# Arithmetic over a column whose every value is NULL
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("expr", [
    "v + 1.0", "-v", "v * k", "k - v", "v / 2", "v % 2", "v + v",
    "-(v * k) + 1",
])
def test_arithmetic_over_all_null_column_is_null(expr):
    # An all-NULL column stays an object array (nothing tells its type);
    # arithmetic over it is NULL, as in sqlite, not a TypeError.
    db = connect()
    db.register("n", {"id": np.arange(3, dtype=np.int64),
                      "v": np.array([None, None, None], dtype=object),
                      "k": np.array([1, 2, 3], dtype=np.int64)})
    conn = load_sqlite(db)
    for sql in (f"SELECT id, {expr} AS a FROM n",
                f"SELECT id FROM n WHERE {expr} IS NULL",
                f"SELECT SUM({expr}) AS s, COUNT({expr}) AS c FROM n"):
        assert_same_results(db, conn, sql, context=sql)
    conn.close()
