"""Integration tests for the SQL engine executor."""

import numpy as np
import pytest

from repro import connect
from repro.errors import SQLBindError, SQLExecutionError, UnsupportedFeatureError
from repro.sqlengine import EngineConfig


@pytest.fixture()
def db():
    db = connect()
    db.register("t", {
        "a": [1, 2, 3, 4, 5],
        "b": ["x", "y", "x", "z", "y"],
        "c": [1.5, 2.5, 3.5, 4.5, 5.5],
        "d": np.array(["1994-01-01", "1994-06-01", "1995-01-01", "1995-06-01", "1996-01-01"],
                      dtype="datetime64[D]"),
    }, primary_key="a")
    db.register("u", {"b": ["x", "y"], "w": [10, 20]}, primary_key="b")
    return db


class TestProjectionFilter:
    def test_select_columns(self, db):
        out = db.execute("SELECT a, c FROM t")
        assert out.columns == ["a", "c"]
        assert len(out) == 5

    def test_star(self, db):
        assert db.execute("SELECT * FROM t").shape == (5, 4)

    def test_expressions_and_aliases(self, db):
        out = db.execute("SELECT a * 2 + 1 AS e FROM t WHERE a <= 2")
        assert out["e"].tolist() == [3, 5]

    def test_filter_and_or_not(self, db):
        out = db.execute("SELECT a FROM t WHERE (a > 1 AND a < 5) AND NOT b = 'x'")
        assert out["a"].tolist() == [2, 4]

    def test_between(self, db):
        out = db.execute("SELECT a FROM t WHERE c BETWEEN 2.0 AND 4.0")
        assert out["a"].tolist() == [2, 3]

    def test_in_list(self, db):
        out = db.execute("SELECT a FROM t WHERE b IN ('x', 'z')")
        assert out["a"].tolist() == [1, 3, 4]

    def test_like(self, db):
        db.register("s", {"v": ["green apple", "red pear", "evergreen"]})
        out = db.execute("SELECT v FROM s WHERE v LIKE '%green%'")
        assert len(out) == 2
        out = db.execute("SELECT v FROM s WHERE v LIKE 'green%'")
        assert len(out) == 1

    def test_date_compare(self, db):
        out = db.execute("SELECT a FROM t WHERE d >= DATE '1995-01-01'")
        assert out["a"].tolist() == [3, 4, 5]

    def test_date_string_coercion(self, db):
        out = db.execute("SELECT a FROM t WHERE d >= '1995-01-01'")
        assert out["a"].tolist() == [3, 4, 5]

    def test_date_interval_arithmetic(self, db):
        out = db.execute("SELECT a FROM t WHERE d < DATE '1994-01-01' + INTERVAL '200' DAY")
        assert out["a"].tolist() == [1, 2]

    def test_case_when(self, db):
        out = db.execute("SELECT CASE WHEN a < 3 THEN 'lo' ELSE 'hi' END AS s FROM t")
        assert out["s"].tolist() == ["lo", "lo", "hi", "hi", "hi"]

    def test_select_without_from(self, db):
        out = db.execute("SELECT 1 + 1 AS two")
        assert out["two"].tolist() == [2]

    def test_cast(self, db):
        out = db.execute("SELECT CAST(c AS INT) AS i FROM t WHERE a = 1")
        assert out["i"].tolist() == [1]

    def test_functions(self, db):
        out = db.execute(
            "SELECT ROUND(c, 0) AS r, ABS(-a) AS ab, UPPER(b) AS ub, "
            "SUBSTR(b, 1, 1) AS sb, LENGTH(b) AS lb, EXTRACT(YEAR FROM d) AS y "
            "FROM t WHERE a = 2")
        assert out["r"].tolist() == [2.0]
        assert out["ab"].tolist() == [2]
        assert out["ub"].tolist() == ["Y"]
        assert out["y"].tolist() == [1994]

    def test_unknown_column_raises(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT nonexistent FROM t")

    def test_unknown_table_raises(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT 1 FROM missing_table")


class TestJoins:
    def test_comma_equi_join(self, db):
        out = db.execute("SELECT t.a, u.w FROM t, u WHERE t.b = u.b ORDER BY a")
        assert out["a"].tolist() == [1, 2, 3, 5]
        assert out["w"].tolist() == [10, 20, 10, 20]

    def test_explicit_inner_join(self, db):
        out = db.execute("SELECT t.a FROM t JOIN u ON t.b = u.b ORDER BY a")
        assert out["a"].tolist() == [1, 2, 3, 5]

    def test_left_join_nulls(self, db):
        out = db.execute("SELECT t.a, u.w FROM t LEFT JOIN u ON t.b = u.b ORDER BY t.a")
        w = out["w"].values
        assert np.isnan(w[3])  # b='z' has no match

    def test_full_outer(self, db):
        db.register("v", {"b": ["z", "qq"], "q": [1, 2]})
        out = db.execute("SELECT t.b, v.q FROM t FULL JOIN v ON t.b = v.b")
        assert len(out) == 6  # 5 t rows + unmatched 'qq'

    def test_right_join(self, db):
        db.register("v", {"b": ["x", "nope"], "q": [1, 2]})
        out = db.execute("SELECT v.q, t.a FROM t RIGHT JOIN v ON t.b = v.b")
        assert len(out) == 3  # x matches twice + 'nope' null-extended

    def test_cross_product_via_comma(self, db):
        out = db.execute("SELECT t.a, u.w FROM t, u")
        assert len(out) == 10

    def test_composite_key_join(self, db):
        db.register("p", {"x": [1, 1, 2], "y": [1, 2, 1], "v": [10, 20, 30]})
        db.register("q", {"x": [1, 2], "y": [2, 1], "w": [5, 6]})
        out = db.execute("SELECT p.v, q.w FROM p, q WHERE p.x = q.x AND p.y = q.y")
        assert sorted(out["v"].tolist()) == [20, 30]

    def test_self_join(self, db):
        out = db.execute(
            "SELECT t1.a AS a1, t2.a AS a2 FROM t AS t1, t AS t2 "
            "WHERE t1.b = t2.b AND t1.a < t2.a")
        assert sorted(zip(out["a1"].tolist(), out["a2"].tolist())) == [(1, 3), (2, 5)]

    def test_huge_cartesian_guarded(self, db):
        db.register("big1", {"x": np.arange(20000)})
        db.register("big2", {"y": np.arange(20000)})
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT 1 FROM big1, big2")

    def test_string_join_keys(self, db):
        out = db.execute("SELECT u.w FROM t, u WHERE u.b = t.b AND t.a = 1")
        assert out["w"].tolist() == [10]


class TestAggregation:
    def test_global_aggregates(self, db):
        out = db.execute("SELECT SUM(a) AS s, MIN(c) AS lo, MAX(c) AS hi, "
                         "AVG(a) AS m, COUNT(*) AS n FROM t")
        assert out["s"].tolist() == [15]
        assert out["lo"].tolist() == [1.5]
        assert out["hi"].tolist() == [5.5]
        assert out["m"].tolist() == [3.0]
        assert out["n"].tolist() == [5]

    def test_global_aggregate_empty_input(self, db):
        out = db.execute("SELECT COUNT(*) AS n, SUM(a) AS s FROM t WHERE a > 100")
        assert out["n"].tolist() == [0]
        assert np.isnan(out["s"].values[0])

    def test_group_by(self, db):
        out = db.execute("SELECT b, SUM(c) AS s FROM t GROUP BY b ORDER BY b")
        assert out["b"].tolist() == ["x", "y", "z"]
        assert out["s"].tolist() == [5.0, 8.0, 4.5]

    def test_group_by_expression(self, db):
        out = db.execute("SELECT EXTRACT(YEAR FROM d) AS y, COUNT(*) AS n "
                         "FROM t GROUP BY EXTRACT(YEAR FROM d) ORDER BY y")
        assert out["y"].tolist() == [1994, 1995, 1996]
        assert out["n"].tolist() == [2, 2, 1]

    def test_count_distinct(self, db):
        out = db.execute("SELECT COUNT(DISTINCT b) AS n FROM t")
        assert out["n"].tolist() == [3]

    def test_count_column_skips_null(self, db):
        out = db.execute("SELECT COUNT(u.w) AS n FROM t LEFT JOIN u ON t.b = u.b")
        assert out["n"].tolist() == [4]

    def test_having(self, db):
        out = db.execute("SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(*) > 1 ORDER BY b")
        assert out["b"].tolist() == ["x", "y"]

    def test_aggregate_of_expression(self, db):
        out = db.execute("SELECT SUM(a * c) AS s FROM t")
        assert out["s"].values[0] == pytest.approx(sum(a * c for a, c in
                                                       zip([1, 2, 3, 4, 5], [1.5, 2.5, 3.5, 4.5, 5.5])))

    def test_case_inside_aggregate(self, db):
        out = db.execute("SELECT SUM(CASE WHEN b = 'x' THEN c ELSE 0 END) AS s FROM t")
        assert out["s"].tolist() == [5.0]

    def test_multi_key_group(self, db):
        out = db.execute("SELECT b, EXTRACT(YEAR FROM d) AS y, COUNT(*) AS n "
                         "FROM t GROUP BY b, EXTRACT(YEAR FROM d) ORDER BY b, y")
        assert len(out) == 5


class TestOrderingDistinctLimit:
    def test_order_by_desc(self, db):
        out = db.execute("SELECT a FROM t ORDER BY c DESC")
        assert out["a"].tolist() == [5, 4, 3, 2, 1]

    def test_order_by_multi(self, db):
        out = db.execute("SELECT a, b FROM t ORDER BY b, a DESC")
        assert out["a"].tolist() == [3, 1, 5, 2, 4]

    def test_order_by_output_alias(self, db):
        out = db.execute("SELECT a * -1 AS neg FROM t ORDER BY neg")
        assert out["neg"].tolist() == [-5, -4, -3, -2, -1]

    def test_limit(self, db):
        out = db.execute("SELECT a FROM t ORDER BY a DESC LIMIT 2")
        assert out["a"].tolist() == [5, 4]

    def test_distinct(self, db):
        out = db.execute("SELECT DISTINCT b FROM t ORDER BY b")
        assert out["b"].tolist() == ["x", "y", "z"]

    def test_distinct_multi_column(self, db):
        out = db.execute("SELECT DISTINCT b, a > 3 AS big FROM t")
        assert len(out) == 4

    def test_order_nulls_last(self, db):
        out = db.execute("SELECT t.a, u.w FROM t LEFT JOIN u ON t.b = u.b ORDER BY u.w")
        assert out["a"].tolist()[-1] == 4  # null w sorts last


class TestSubqueries:
    def test_scalar_subquery(self, db):
        out = db.execute("SELECT a FROM t WHERE c > (SELECT AVG(c) FROM t) ORDER BY a")
        assert out["a"].tolist() == [4, 5]

    def test_in_subquery(self, db):
        out = db.execute("SELECT a FROM t WHERE b IN (SELECT b FROM u) ORDER BY a")
        assert out["a"].tolist() == [1, 2, 3, 5]

    def test_not_in_subquery(self, db):
        out = db.execute("SELECT a FROM t WHERE b NOT IN (SELECT b FROM u)")
        assert out["a"].tolist() == [4]

    def test_correlated_exists(self, db):
        out = db.execute("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.b = t.b) ORDER BY a")
        assert out["a"].tolist() == [1, 2, 3, 5]

    def test_correlated_not_exists(self, db):
        out = db.execute("SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.b = t.b)")
        assert out["a"].tolist() == [4]

    def test_exists_with_extra_filter(self, db):
        out = db.execute(
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.b = t.b AND u.w > 15)")
        assert out["a"].tolist() == [2, 5]

    def test_uncorrelated_exists(self, db):
        out = db.execute("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.w > 100)")
        assert len(out) == 0

    def test_exists_correlated_expression(self, db):
        out = db.execute(
            "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.b = SUBSTR(t.b, 1, 1))"
            " ORDER BY a")
        assert out["a"].tolist() == [1, 2, 3, 5]


class TestCTEsValuesWindows:
    def test_cte_chain(self, db):
        out = db.execute(
            "WITH big(a, c) AS (SELECT a, c FROM t WHERE a > 2), "
            "scaled(a, c2) AS (SELECT a, c * 10 FROM big) "
            "SELECT a, c2 FROM scaled ORDER BY a")
        assert out["c2"].tolist() == [35.0, 45.0, 55.0]

    def test_cte_referenced_twice(self, db):
        out = db.execute(
            "WITH x(a) AS (SELECT a FROM t WHERE a <= 2) "
            "SELECT x1.a AS p, x2.a AS q FROM x AS x1, x AS x2 WHERE x1.a = x2.a ORDER BY p")
        assert out["p"].tolist() == [1, 2]

    def test_values_cte(self, db):
        out = db.execute("WITH v(n, s) AS (VALUES (1, 'a'), (2, 'b')) SELECT * FROM v ORDER BY n")
        assert out["s"].tolist() == ["a", "b"]

    def test_values_join(self, db):
        out = db.execute(
            "WITH v(b, bonus) AS (VALUES ('x', 100), ('y', 200)) "
            "SELECT t.a, v.bonus FROM t, v WHERE t.b = v.b ORDER BY a")
        assert out["bonus"].tolist() == [100, 200, 100, 200]

    def test_row_number_order(self, db):
        out = db.execute("SELECT a, ROW_NUMBER() OVER (ORDER BY c DESC) AS rn FROM t ORDER BY a")
        assert out["rn"].tolist() == [5, 4, 3, 2, 1]

    def test_row_number_partition(self, db):
        out = db.execute(
            "SELECT a, ROW_NUMBER() OVER (PARTITION BY b ORDER BY a) AS rn FROM t ORDER BY a")
        assert out["rn"].tolist() == [1, 1, 2, 1, 2]

    def test_row_number_no_order(self, db):
        out = db.execute("SELECT ROW_NUMBER() OVER () AS rn FROM t")
        assert out["rn"].tolist() == [1, 2, 3, 4, 5]

    def test_window_unsupported_backend(self, db):
        config = EngineConfig(name="lingo-like", supports_window=False)
        with pytest.raises(UnsupportedFeatureError):
            db.execute("SELECT ROW_NUMBER() OVER () AS rn FROM t", config=config)


    # A window call outside the select list is a user error, reported with
    # one typed error from the planner: the same from explain_plan (nothing
    # runs) and from execute.
    MISPLACED_WINDOWS = [
        ("SELECT a FROM t WHERE ROW_NUMBER() OVER (ORDER BY a) = 1",
         SQLBindError, "WHERE"),
        ("SELECT t.a FROM t JOIN u ON t.b = u.b "
         "AND t.a = ROW_NUMBER() OVER (ORDER BY u.w)", SQLBindError, "ON"),
        ("SELECT COUNT(*) FROM t GROUP BY ROW_NUMBER() OVER (ORDER BY a)",
         SQLBindError, "GROUP BY"),
        ("SELECT b, COUNT(*) FROM t GROUP BY b "
         "HAVING ROW_NUMBER() OVER (ORDER BY b) = 1", SQLBindError, "HAVING"),
        ("SELECT a FROM t ORDER BY ROW_NUMBER() OVER (ORDER BY c)",
         UnsupportedFeatureError, "ORDER BY"),
        ("SELECT a FROM t UNION SELECT a FROM t "
         "ORDER BY ROW_NUMBER() OVER (ORDER BY a)",
         UnsupportedFeatureError, "ORDER BY"),
        ("SELECT a FROM t WHERE a IN "
         "(SELECT a FROM t WHERE RANK() OVER (ORDER BY a) = 1)",
         SQLBindError, "WHERE"),
    ]

    @pytest.mark.parametrize("sql, error, clause", MISPLACED_WINDOWS)
    def test_misplaced_window_is_rejected_at_plan_time(self, db, sql, error,
                                                       clause):
        with pytest.raises(error, match=clause) as planned:
            db.explain_plan(sql)
        with pytest.raises(error) as executed:
            db.execute(sql)
        assert str(executed.value) == str(planned.value)

    def test_translated_window_in_where_fails_at_plan_time(self):
        """``covariance_dense`` over a table registered without a primary
        key still translates to ``WHERE r1.ID = ROW_NUMBER() OVER ()``
        (ROADMAP 5c, translator half); until it does not, the engine
        refuses that SQL before running anything."""
        from repro.workloads.covariance import (
            covariance_dense, dense_table, make_matrix,
        )

        db = connect()
        db.register("matrix", dense_table(make_matrix(20, 3, 1.0)))
        with pytest.raises(SQLBindError, match="not allowed in WHERE"):
            db.explain_plan(covariance_dense.sql(db=db))


class TestEngineConfigs:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_threads_agree(self, db, threads):
        config = EngineConfig(threads=threads)
        out = db.execute(
            "SELECT b, SUM(a * c) AS s FROM t WHERE a > 1 GROUP BY b ORDER BY b",
            config=config)
        assert out["b"].tolist() == ["x", "y", "z"]
        assert out["s"].values == pytest.approx([10.5, 32.5, 18.0])

    def test_join_reorder_same_result(self, db):
        for reorder in (True, False):
            config = EngineConfig(join_reorder=reorder)
            out = db.execute("SELECT t.a FROM t, u WHERE t.b = u.b ORDER BY a", config=config)
            assert out["a"].tolist() == [1, 2, 3, 5]
