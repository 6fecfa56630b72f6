"""Robustness tests: empty inputs, nulls everywhere, degenerate shapes.

Failure-injection style: every operator must behave on the boundary inputs
(empty tables, all-NULL columns, single rows, deep CTE chains) rather than
crash or silently produce wrong cardinalities.
"""

import numpy as np
import pytest

import repro.dataframe as rpd
from repro import connect, pytond
from repro.sqlengine import EngineConfig


@pytest.fixture()
def db():
    db = connect()
    db.register("empty", {"a": np.array([], dtype=np.int64),
                          "s": np.array([], dtype=object)})
    db.register("one", {"a": [7], "s": ["only"]})
    db.register("nully", {
        "k": [1, 2, 3, 4],
        "f": np.array([1.0, np.nan, 3.0, np.nan]),
        "s": np.array(["a", None, "c", None], dtype=object),
    })
    return db


class TestEmptyInputs:
    def test_scan_empty(self, db):
        assert len(db.execute("SELECT a FROM empty")) == 0

    def test_filter_empty(self, db):
        assert len(db.execute("SELECT a FROM empty WHERE a > 0")) == 0

    def test_join_with_empty(self, db):
        out = db.execute("SELECT one.a FROM one, empty WHERE one.a = empty.a")
        assert len(out) == 0

    def test_left_join_empty_right(self, db):
        out = db.execute("SELECT one.a, empty.a AS b FROM one LEFT JOIN empty ON one.a = empty.a")
        assert len(out) == 1
        assert np.isnan(out["b"].values[0])

    def test_group_by_empty(self, db):
        out = db.execute("SELECT s, COUNT(*) AS n FROM empty GROUP BY s")
        assert len(out) == 0

    def test_global_agg_empty(self, db):
        out = db.execute("SELECT COUNT(*) AS n, SUM(a) AS s, AVG(a) AS m FROM empty")
        assert out["n"].tolist() == [0]
        assert np.isnan(out["s"].values[0])
        assert np.isnan(out["m"].values[0])

    def test_order_limit_empty(self, db):
        assert len(db.execute("SELECT a FROM empty ORDER BY a LIMIT 5")) == 0

    def test_distinct_empty(self, db):
        assert len(db.execute("SELECT DISTINCT s FROM empty")) == 0

    def test_window_empty(self, db):
        out = db.execute("SELECT ROW_NUMBER() OVER (ORDER BY a) AS rn FROM empty")
        assert len(out) == 0

    def test_exists_against_empty(self, db):
        out = db.execute("SELECT a FROM one WHERE EXISTS (SELECT 1 FROM empty WHERE empty.a = one.a)")
        assert len(out) == 0
        out = db.execute("SELECT a FROM one WHERE NOT EXISTS (SELECT 1 FROM empty WHERE empty.a = one.a)")
        assert out["a"].tolist() == [7]

    def test_in_subquery_empty(self, db):
        out = db.execute("SELECT a FROM one WHERE a IN (SELECT a FROM empty)")
        assert len(out) == 0

    def test_empty_threads(self, db):
        config = EngineConfig(threads=4)
        out = db.execute("SELECT a * 2 AS d FROM empty WHERE a > 1", config=config)
        assert len(out) == 0


class TestSingleRow:
    def test_single_row_everything(self, db):
        out = db.execute(
            "SELECT s, COUNT(*) AS n, SUM(a) AS t FROM one GROUP BY s ORDER BY s LIMIT 1")
        assert out["n"].tolist() == [1]
        assert out["t"].tolist() == [7]

    def test_self_join_single(self, db):
        out = db.execute("SELECT l.a FROM one AS l, one AS r WHERE l.a = r.a")
        assert out["a"].tolist() == [7]


class TestNullHeavy:
    def test_aggregates_skip_nulls(self, db):
        out = db.execute("SELECT COUNT(f) AS n, SUM(f) AS s, AVG(f) AS m FROM nully")
        assert out["n"].tolist() == [2]
        assert out["s"].tolist() == [4.0]
        assert out["m"].tolist() == [2.0]

    def test_group_by_null_key(self, db):
        out = db.execute("SELECT s, COUNT(*) AS n FROM nully GROUP BY s")
        assert int(np.sum(out["n"].values)) == 4

    def test_join_on_null_never_matches(self, db):
        db.register("other", {"s": np.array(["a", None], dtype=object), "v": [1, 2]})
        out = db.execute("SELECT nully.k FROM nully, other WHERE nully.s = other.s")
        assert out["k"].tolist() == [1]

    def test_null_ordering_last(self, db):
        out = db.execute("SELECT k FROM nully ORDER BY f")
        assert out["k"].tolist()[:2] == [1, 3]

    def test_case_with_null_condition(self, db):
        out = db.execute("SELECT CASE WHEN f > 0 THEN 1 ELSE 0 END AS c FROM nully")
        assert out["c"].tolist() == [1, 0, 1, 0]

    def test_all_null_column_aggregate(self, db):
        db.register("allnull", {"x": np.array([np.nan, np.nan])})
        out = db.execute("SELECT COUNT(x) AS n, MIN(x) AS lo FROM allnull")
        assert out["n"].tolist() == [0]
        assert np.isnan(out["lo"].values[0])


class TestDegenerateShapes:
    def test_deep_cte_chain(self, db):
        sql = "WITH c0(a) AS (SELECT a FROM one)"
        for i in range(1, 30):
            sql += f", c{i}(a) AS (SELECT a + 1 FROM c{i - 1})"
        sql += " SELECT a FROM c29"
        assert db.execute(sql)["a"].tolist() == [7 + 29]

    def test_many_columns(self, db):
        cols = {f"c{i}": [i] for i in range(120)}
        db.register("wide", cols)
        out = db.execute("SELECT * FROM wide")
        assert out.shape == (1, 120)

    def test_duplicate_output_names_disambiguated(self, db):
        out = db.execute("SELECT a AS x, a AS x FROM one")
        assert out.columns == ["x", "x_1"]

    def test_repeated_execution_is_pure(self, db):
        sql = "SELECT s, COUNT(*) AS n FROM nully GROUP BY s"
        first = db.execute(sql).to_dict()
        for _ in range(5):
            assert db.execute(sql).to_dict() == first


class TestTranslatorEdgeCases:
    def test_empty_result_pipeline(self, db):
        @pytond()
        def f(one):
            nothing = one[one.a > 1000]
            return nothing.groupby('s').agg(n=('a', 'count')).reset_index()
        frame = rpd.DataFrame({"a": [7], "s": ["only"]})
        py = f(frame)
        res = f.run(db, "hyper")
        assert len(py) == len(res) == 0

    def test_scalar_over_empty_filter(self, db):
        @pytond()
        def f(one):
            return one[one.a > 1000].a.sum()
        res = f.run(db, "hyper")
        value = list(res.to_dict().values())[0][0]
        assert value == 0  # COALESCE(SUM(...), 0) matches Pandas
