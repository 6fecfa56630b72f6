"""Extended TPC-H validation matrix: intermediate optimization levels and
the remaining LingoDB queries (the ones not in the representative set)."""

import pytest

from repro.workloads.tpch import QUERIES, QUERY_TABLES

from tests.helpers import rows

SCALAR_QUERIES = {6, 14, 17, 19}
LINGODB_REST = [2, 3, 5, 7, 8, 10, 11, 14, 16, 17, 18, 19, 20, 21]


def compare(py, res, scalar):
    if scalar:
        got = list(res.to_dict().values())[0][0]
        assert float(got) == pytest.approx(float(py), rel=1e-6, abs=1e-6)
        return
    a = rows(py.reset_index(drop=True))
    b = rows(res)
    if a != b:
        assert sorted(map(str, a)) == sorted(map(str, b))


@pytest.mark.parametrize("q", LINGODB_REST)
def test_remaining_lingodb_queries(q, tpch_db, tpch_frames):
    fn = QUERIES[q]
    py = fn(*[tpch_frames[t] for t in QUERY_TABLES[q]])
    res = fn.run(tpch_db, "lingodb")
    compare(py, res, q in SCALAR_QUERIES)


@pytest.mark.parametrize("q", [2, 4, 11, 16, 17, 20, 22])
@pytest.mark.parametrize("level", ["O1", "O2", "O3"])
def test_intermediate_levels_on_subquery_heavy_queries(q, level, tpch_db, tpch_frames):
    """The queries with EXISTS / scalar subqueries / self-joins are the ones
    each individual pass touches; check every intermediate level."""
    fn = QUERIES[q]
    py = fn(*[tpch_frames[t] for t in QUERY_TABLES[q]])
    res = fn.run(tpch_db, "hyper", level=level)
    compare(py, res, q in SCALAR_QUERIES)


@pytest.mark.parametrize("q", [1, 6, 13])
def test_duckdb_profile_multithreaded(q, tpch_db, tpch_frames):
    """The DuckDB profile's SQL under its own config at threads=4 must agree."""
    from repro.backends import DuckDBSim

    fn = QUERIES[q]
    py = fn(*[tpch_frames[t] for t in QUERY_TABLES[q]])
    sql = fn.sql("duckdb", db=tpch_db)
    res = tpch_db.execute(sql, config=DuckDBSim.config(threads=4))
    compare(py, res, q in SCALAR_QUERIES)


def test_sql_is_deterministic_across_calls(tpch_db):
    first = QUERIES[9].sql("hyper", db=tpch_db)
    second = QUERIES[9].sql("hyper", db=tpch_db)
    assert first == second


def test_all_queries_compile_on_all_dialects(tpch_db):
    for q, fn in QUERIES.items():
        for backend in ("duckdb", "hyper", "lingodb"):
            sql = fn.sql(backend, db=tpch_db)
            assert "SELECT" in sql, (q, backend)
