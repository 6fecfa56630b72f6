"""Planner-native subqueries: kernel units, NULL-semantics regressions,
scalar-subquery cardinality errors, shapes refused at plan time, dataframe
semi/anti rides, and hypothesis properties (planned result ≡ sqlite3).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.dataframe as rpd
from repro import connect
from repro.bench.differential import assert_same_results, load_sqlite
from repro.errors import (
    SQLBindError, SQLExecutionError, UnsupportedFeatureError,
)
from repro.sqlengine.joins import semi_join_flags
from tests.helpers import semi_join_mask


# ---------------------------------------------------------------------------
# Membership kernel units
# ---------------------------------------------------------------------------

class TestSemiJoinFlags:
    def test_int_exact_path(self):
        probe = np.array([1, 5, 9, -3, 100], dtype=np.int64)
        build = np.array([5, 9, 9, 0], dtype=np.int64)
        assert semi_join_flags([probe], [build]).tolist() == \
            [False, True, True, False, False]

    def test_int_hashed_path_sparse_keys(self):
        # Key span >> count forces the prime-sized hash table + verification.
        probe = np.array([0, 10**15, 2 * 10**15, 7], dtype=np.int64)
        build = np.array([10**15, 7], dtype=np.int64)
        assert semi_join_flags([probe], [build]).tolist() == \
            [False, True, False, True]

    def test_float_nan_never_matches(self):
        probe = np.array([1.0, np.nan, 2.0])
        build = np.array([np.nan, 2.0])
        assert semi_join_flags([probe], [build]).tolist() == \
            [False, False, True]

    def test_datetime_nat_never_matches(self):
        probe = np.array(["2020-01-01", "NaT", "2020-03-01"],
                         dtype="datetime64[D]")
        build = np.array(["NaT", "2020-03-01"], dtype="datetime64[D]")
        assert semi_join_flags([probe], [build]).tolist() == \
            [False, False, True]

    def test_object_keys_none_never_matches(self):
        probe = np.array(["a", None, "b", "c"], dtype=object)
        build = np.array(["c", None, "a"], dtype=object)
        assert semi_join_flags([probe], [build]).tolist() == \
            [True, False, False, True]

    def test_multi_key_composite(self):
        p1 = np.array([1, 1, 2, 2], dtype=np.int64)
        p2 = np.array([10, 20, 10, 20], dtype=np.int64)
        b1 = np.array([1, 2], dtype=np.int64)
        b2 = np.array([20, 10], dtype=np.int64)
        assert semi_join_flags([p1, p2], [b1, b2]).tolist() == \
            [False, True, True, False]

    def test_empty_sides(self):
        probe = np.array([1, 2], dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        assert semi_join_flags([probe], [empty]).tolist() == [False, False]
        assert semi_join_flags([empty], [probe]).tolist() == []

    def test_all_null_build(self):
        probe = np.array([1.0, 2.0])
        build = np.array([np.nan, np.nan])
        assert semi_join_flags([probe], [build]).tolist() == [False, False]

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_threads_equivalent_large(self, threads):
        rng = np.random.default_rng(5)
        probe = rng.integers(0, 5000, 20_000)
        build = rng.integers(0, 5000, 3_000)
        serial = semi_join_flags([probe], [build], threads=1)
        assert (semi_join_flags([probe], [build], threads=threads)
                == serial).all()

    @given(
        st.lists(st.one_of(st.integers(-50, 50), st.none()),
                 min_size=0, max_size=60),
        st.lists(st.one_of(st.integers(-50, 50), st.none()),
                 min_size=0, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_flags_match_reference_mask(self, probe, build):
        """The vectorized kernel must agree with the audited reference
        implementation on NULL-laden inputs (ints become floats w/ NaN)."""
        from repro.dataframe._common import coerce_array

        p = coerce_array(np.array(probe, dtype=object))
        b = coerce_array(np.array(build, dtype=object))
        fast = semi_join_flags([p], [b])
        slow = semi_join_mask([p], [b])
        assert fast.tolist() == slow.tolist()


# ---------------------------------------------------------------------------
# Engine-level NULL semantics and errors
# ---------------------------------------------------------------------------

@pytest.fixture()
def db():
    db = connect()
    db.register("t", {
        "id": np.arange(1, 7, dtype=np.int64),
        "x": np.array([1.0, 2.0, 3.0, np.nan, 5.0, np.nan]),
        "s": np.array(["a", "b", None, "c", None, "a"], dtype=object),
        "g": np.array([1, 1, 2, 2, 3, 3], dtype=np.int64),
    }, primary_key="id")
    db.register("u", {
        "y": np.array([2.0, np.nan, 7.0]),
        "z": np.array(["a", None, "q"], dtype=object),
        "k": np.array([1, 2, 3], dtype=np.int64),
    })
    db.register("v", {"y": np.zeros(0), "k": np.zeros(0, dtype=np.int64)})
    return db


def _ids(db, sql):
    return sorted(db.execute(sql).to_dict()["id"])


class TestNotInNullSemantics:
    def test_inner_null_drops_every_unmatched_row(self, db):
        # u.y = {2.0, NULL, 7.0}: NOT IN is FALSE for 2.0, UNKNOWN otherwise.
        sql = "SELECT id FROM t WHERE x NOT IN (SELECT y FROM u)"
        assert _ids(db, sql) == []

    def test_null_free_inner_keeps_unmatched_non_null_rows(self, db):
        sql = "SELECT id FROM t WHERE x NOT IN (SELECT y FROM u WHERE y > 0.0)"
        assert _ids(db, sql) == [1, 3, 5]  # NaN operands dropped

    def test_empty_inner_keeps_all_rows_even_null_operands(self, db):
        sql = "SELECT id FROM t WHERE x NOT IN (SELECT y FROM v)"
        assert _ids(db, sql) == [1, 2, 3, 4, 5, 6]

    def test_string_not_in_with_inner_nulls(self, db):
        sql = ("SELECT id FROM t WHERE s NOT IN "
               "(SELECT z FROM u WHERE z IS NOT NULL)")
        assert _ids(db, sql) == [2, 4]

    def test_positive_in_never_matches_nulls(self, db):
        sql = "SELECT id FROM t WHERE x IN (SELECT y FROM u)"
        assert _ids(db, sql) == [2]

    def test_not_wrapped_in_is_null_aware(self, db):
        # NOT (x IN (...)) must fold into the three-valued NOT IN, not a
        # two-valued ~mask (which would leak NULL operands and rows
        # poisoned by inner NULLs).
        base = "SELECT id FROM t WHERE {}"
        for wrapped, plain in [
            ("NOT (x IN (SELECT y FROM u))",
             "x NOT IN (SELECT y FROM u)"),
            ("NOT (x IN (SELECT y FROM u WHERE y > 0.0))",
             "x NOT IN (SELECT y FROM u WHERE y > 0.0)"),
            ("NOT (x IN (1.0, NULL))", "x NOT IN (1.0, NULL)"),
            ("NOT (x NOT IN (1.0, 5.0))", "x IN (1.0, 5.0)"),
        ]:
            assert _ids(db, base.format(wrapped)) == \
                _ids(db, base.format(plain)), wrapped

    def test_not_in_literal_list_with_null(self, db):
        assert _ids(db, "SELECT id FROM t WHERE x NOT IN (1.0, NULL)") == []
        assert _ids(db, "SELECT id FROM t WHERE x NOT IN (1.0, 5.0)") == \
            [2, 3]

    def test_correlated_not_in(self, db):
        sql = ("SELECT id FROM t WHERE x NOT IN "
               "(SELECT y FROM u WHERE u.k = t.g)")
        # Per-group inner sets: g=1 -> {2.0}, g=2 -> {NULL}, g=3 -> {7.0}.
        assert _ids(db, sql) == [1, 5]

    def test_select_list_not_in_over_empty_subquery(self, db):
        # An empty set makes NOT IN TRUE for every row, NULL operands too.
        out = db.execute("SELECT id, x NOT IN (SELECT y FROM v) AS f FROM t")
        assert [bool(v) for v in out.to_dict()["f"]] == [True] * 6


class TestScalarSubqueries:
    def test_multi_row_scalar_subquery_raises(self, db):
        with pytest.raises(SQLExecutionError, match="scalar subquery"):
            db.execute("SELECT id FROM t WHERE x > (SELECT y FROM u)")

    def test_multi_row_scalar_in_select_list_raises(self, db):
        with pytest.raises(SQLExecutionError, match="scalar subquery"):
            db.execute("SELECT id, (SELECT y FROM u) AS v FROM t")

    def test_empty_scalar_subquery_is_null(self, db):
        sql = "SELECT id FROM t WHERE x > (SELECT y FROM v)"
        assert _ids(db, sql) == []

    def test_aggregate_scalar_subquery(self, db):
        sql = "SELECT id FROM t WHERE x > (SELECT AVG(y) FROM u)"  # avg=4.5
        assert _ids(db, sql) == [5]

    def test_null_scalar_value_in_arithmetic(self, db):
        # An empty scalar subquery is NULL, and NULL + x is NULL, as for the
        # literal.
        for sql in ("SELECT id, g + (SELECT z FROM u WHERE k > 9) AS v FROM t",
                    "SELECT id, g + NULL AS v FROM t"):
            out = db.execute(sql).to_dict()
            assert all(np.isnan(v) for v in out["v"]), sql

    def test_values_beside_bound_placeholders(self, db):
        # The InitPlan's values join the statement's own bound parameters,
        # which also reach the subquery it runs.
        sql = ("SELECT id, (SELECT MAX(y) FROM u WHERE y < ?) AS m, "
               "x IN (SELECT y FROM u WHERE k = ?) AS f FROM t WHERE id > ?")
        out = db.execute(sql, params=[5.0, 1, 4]).to_dict()
        assert out == {"id": [5, 6], "m": [2.0, 2.0], "f": [False, False]}
        out = db.execute(sql, params=[9.0, 1, 0]).to_dict()
        assert out["m"] == [7.0] * 6
        assert out["f"] == [False, True, False, False, False, False]

    def test_scalar_beside_aggregate_over_empty_input(self, db):
        # A value, not a broadcast column: no outer row survives the
        # WHERE, yet the global aggregate's one row still reads it.
        sql = ("SELECT COUNT(*) + (SELECT MAX(y) FROM u) AS c "
               "FROM t WHERE x > 100")
        assert db.execute(sql).to_dict() == {"c": [7.0]}
        assert "InitPlan $" in db.explain_plan(sql)


class TestExistsShapes:
    def test_correlated_exists(self, db):
        sql = ("SELECT id FROM t WHERE EXISTS "
               "(SELECT 1 FROM u WHERE u.k = t.g AND u.y > 1.0)")
        assert _ids(db, sql) == [1, 2, 5, 6]

    def test_correlated_not_exists(self, db):
        sql = ("SELECT id FROM t WHERE NOT EXISTS "
               "(SELECT 1 FROM u WHERE u.k = t.g AND u.y > 1.0)")
        assert _ids(db, sql) == [3, 4]

    def test_uncorrelated_exists(self, db):
        assert _ids(db, "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM v)") \
            == []
        assert _ids(db, "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u)") \
            == [1, 2, 3, 4, 5, 6]

    def test_exists_under_or_with_plain_predicate(self, db):
        sql = ("SELECT id FROM t WHERE NOT EXISTS "
               "(SELECT 1 FROM u WHERE u.k = t.g) OR x = 1.0")
        assert _ids(db, sql) == [1]

    def test_select_list_in_subquery(self, db):
        sql = "SELECT id, x IN (SELECT y FROM u WHERE y > 0.0) AS f FROM t"
        out = db.execute(sql).to_dict()
        assert [bool(v) for v in out["f"]] == \
            [False, True, False, False, False, False]

    def test_having_aggregate_in_subquery(self, db):
        # Per-group sums 3.0, 3.0, 5.0 against the value set {3.0, NULL,
        # 8.0}: the set is a value of the execution, probed per group.
        sql = ("SELECT g FROM t GROUP BY g "
               "HAVING SUM(x) IN (SELECT y + 1.0 FROM u)")
        assert db.execute(sql).to_dict() == {"g": [1, 2]}
        sql = sql.replace(" IN ", " NOT IN ")
        assert db.execute(sql).to_dict() == {"g": []}

    def test_having_exists_on_group_key(self, db):
        # The mark is computed below the aggregate; HAVING reads it as the
        # group's value (it depends on the group key only).
        sql = ("SELECT g, COUNT(*) AS n FROM t GROUP BY g "
               "HAVING EXISTS (SELECT 1 FROM u WHERE u.k = t.g AND u.y > 1.0)")
        assert db.execute(sql).to_dict() == {"g": [1, 3], "n": [2, 2]}
        assert "MarkJoin __mark_0 = EXISTS on [t.g]" in db.explain_plan(sql)


class TestRefusedAtPlanTime:
    """Shapes the planner does not unnest raise while planning — in
    ``explain_plan`` as in ``execute`` — instead of returning rows that
    differ from sqlite3's."""

    def test_correlated_exists_with_limit(self, db):
        # sqlite3: no row (LIMIT 0 leaves every EXISTS empty).
        sql = ("SELECT id FROM t WHERE EXISTS "
               "(SELECT 1 FROM u WHERE u.k = t.g LIMIT 0)")
        with pytest.raises(UnsupportedFeatureError, match="LIMIT"):
            db.explain_plan(sql)
        with pytest.raises(UnsupportedFeatureError, match="LIMIT"):
            db.execute("SELECT id, EXISTS (SELECT 1 FROM u WHERE u.k = t.g "
                       "LIMIT 0) AS f FROM t")

    def test_correlated_exists_over_global_aggregate(self, db):
        # sqlite3: every row (a global aggregate always yields one row).
        sql = ("SELECT id FROM t WHERE EXISTS (SELECT MAX(y) FROM u "
               "WHERE u.k = t.g AND u.y > 100)")
        with pytest.raises(UnsupportedFeatureError, match="aggregate"):
            db.explain_plan(sql)
        with pytest.raises(UnsupportedFeatureError, match="aggregate"):
            db.execute(sql)

    def test_two_column_subquery_as_a_value(self, db):
        # sqlite3: "sub-select returns 2 columns - expected 1".
        for sql in ("SELECT id FROM t WHERE x IN (SELECT y, k FROM u)",
                    "SELECT (SELECT y, k FROM u WHERE k = 1) AS v FROM t"):
            with pytest.raises(SQLBindError, match="2 columns"):
                db.explain_plan(sql)
            with pytest.raises(SQLBindError, match="2 columns"):
                db.execute(sql)

    def test_correlated_scalar_subquery(self, db):
        sql = ("SELECT id, (SELECT MAX(y) FROM u WHERE u.k = t.g) AS m "
               "FROM t")
        with pytest.raises(UnsupportedFeatureError, match="correlated scalar"):
            db.explain_plan(sql)

    def test_non_equality_correlation(self, db):
        sql = "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.k > t.g)"
        with pytest.raises(UnsupportedFeatureError, match="equalities"):
            db.execute(sql)


# ---------------------------------------------------------------------------
# Dataframe layer rides the same kernels
# ---------------------------------------------------------------------------

class TestDataframeSemiAnti:
    def test_isin_series_target(self):
        s = rpd.Series([1, 2, 3, 4])
        other = rpd.Series([2, 4, 9])
        assert s.isin(other).tolist() == [False, True, False, True]

    def test_isin_pandas_null_matching(self):
        # pandas semantics: NaN matches a NaN in the value set.
        s = rpd.Series([1.0, np.nan, 3.0])
        assert s.isin([np.nan, 3.0]).tolist() == [False, True, True]
        assert s.isin([3.0]).tolist() == [False, False, True]

    def test_merge_semi(self):
        left = rpd.DataFrame({"k": [1, 2, 3, 4], "v": list("abcd")})
        right = rpd.DataFrame({"k": [2, 4, 4, 9], "w": [1, 2, 3, 4]})
        out = left.merge(right, how="semi", on="k")
        assert out.to_dict() == {"k": [2, 4], "v": ["b", "d"]}
        assert list(out.columns) == ["k", "v"]  # left columns only

    def test_merge_anti_keeps_null_keys(self):
        left = rpd.DataFrame({"k": [1.0, 2.0, np.nan], "v": list("abc")})
        right = rpd.DataFrame({"k": [2.0]})
        out = left.merge(right, how="anti", on="k")
        assert out.to_dict()["v"] == ["a", "c"]

    def test_merge_semi_no_row_duplication(self):
        left = rpd.DataFrame({"k": [1, 2]})
        right = rpd.DataFrame({"k": [2, 2, 2]})
        assert left.merge(right, how="semi", on="k").to_dict() == {"k": [2]}


# ---------------------------------------------------------------------------
# Hypothesis: planned ≡ sqlite3 on random inputs
# ---------------------------------------------------------------------------

nullable_ints = st.lists(st.one_of(st.integers(0, 8), st.none()),
                         min_size=0, max_size=40)
group_keys = st.lists(st.integers(0, 5), min_size=0, max_size=40)

DECORRELATION_TEMPLATES = [
    "SELECT id FROM o WHERE v IN (SELECT w FROM i)",
    "SELECT id FROM o WHERE v NOT IN (SELECT w FROM i)",
    "SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.g = o.g)",
    "SELECT id FROM o WHERE NOT EXISTS "
    "(SELECT 1 FROM i WHERE i.g = o.g AND i.w > 3.0)",
    "SELECT id FROM o WHERE v IN (SELECT w FROM i WHERE w > 2.0) OR g = 1",
    "SELECT id FROM o WHERE v > (SELECT AVG(w) FROM i)",
    "SELECT id FROM o WHERE NOT (v IN (SELECT w FROM i))",
    "SELECT id FROM o WHERE v NOT IN (SELECT w FROM i WHERE i.g = o.g)",
    "SELECT id FROM o WHERE v IN (SELECT w FROM i WHERE i.g = o.g)",
    "SELECT id, v + (SELECT MAX(w) FROM i) AS s FROM o",
    "SELECT g, COUNT(*) AS n FROM o GROUP BY g "
    "HAVING SUM(v) > (SELECT MIN(w) FROM i)",
]
# Boolean select items: the engine's are two-valued (UNKNOWN is FALSE), so
# sqlite3 reads the same predicate through COALESCE(.., 0).
BOOLEAN_ITEM_TEMPLATES = [
    "v NOT IN (SELECT w FROM i)",
    "v IN (SELECT w FROM i WHERE i.g = o.g)",
    "NOT EXISTS (SELECT 1 FROM i WHERE i.g = o.g AND i.w > 3.0)",
]


class TestDecorrelationProperties:
    @given(outer=st.tuples(nullable_ints, group_keys),
           inner=st.tuples(nullable_ints, group_keys))
    @settings(max_examples=30, deadline=None)
    def test_planned_equals_sqlite(self, outer, inner):
        from repro.dataframe._common import coerce_array

        ov, og = outer
        iv, ig = inner
        n_o, n_i = min(len(ov), len(og)), min(len(iv), len(ig))
        db = connect()
        db.register("o", {
            "id": np.arange(n_o, dtype=np.int64),
            "v": coerce_array(np.array(ov[:n_o], dtype=object))
            if n_o else np.zeros(0),
            "g": np.array(og[:n_o], dtype=np.int64),
        })
        db.register("i", {
            "w": coerce_array(np.array(iv[:n_i], dtype=object))
            if n_i else np.zeros(0),
            "g": np.array(ig[:n_i], dtype=np.int64),
        })
        conn = load_sqlite(db)
        for sql in DECORRELATION_TEMPLATES:
            assert_same_results(db, conn, sql, context=sql)
        for pred in BOOLEAN_ITEM_TEMPLATES:
            sql = f"SELECT id, {pred} AS f FROM o"
            assert_same_results(
                db, conn, sql, context=sql,
                oracle_sql=f"SELECT id, COALESCE(({pred}), 0) AS f FROM o")
        conn.close()

    def test_templates_actually_decorrelate(self):
        """Every template plans one of the two subquery operators (a
        MarkJoin filtering a whole conjunct is labelled SemiJoin /
        AntiJoin)."""
        db = connect()
        db.register("o", {"id": np.arange(4, dtype=np.int64),
                          "v": np.arange(4, dtype=np.int64) * 1.0,
                          "g": np.array([0, 1, 0, 1], dtype=np.int64)})
        db.register("i", {"w": np.array([1.0, 2.0]),
                          "g": np.array([0, 1], dtype=np.int64)})
        for sql in DECORRELATION_TEMPLATES + [
                f"SELECT {pred} FROM o" for pred in BOOLEAN_ITEM_TEMPLATES]:
            plan = db.explain_plan(sql)
            assert any(node in plan for node in
                       ("SemiJoin", "AntiJoin", "MarkJoin", "InitPlan")), sql
