"""Unit tests for GroupBy / SeriesGroupBy."""

import numpy as np
import pytest

from repro.dataframe import DataFrame
from repro.errors import DataFrameError


@pytest.fixture()
def df():
    return DataFrame({
        "k": ["a", "b", "a", "b", "a"],
        "j": [1, 1, 2, 2, 1],
        "v": [10.0, 20.0, 30.0, 40.0, 50.0],
        "w": [1, 2, 3, 4, 5],
    })


class TestBasicAggregates:
    def test_sum(self, df):
        out = df.groupby("k")[["v"]].sum().reset_index() if False else df.groupby("k").agg({"v": "sum"}).reset_index()
        assert out["k"].tolist() == ["a", "b"]
        assert out["v"].tolist() == [90.0, 60.0]

    def test_series_sum(self, df):
        s = df.groupby("k")["v"].sum()
        assert s.tolist() == [90.0, 60.0]

    def test_mean(self, df):
        assert df.groupby("k")["v"].mean().tolist() == [30.0, 30.0]

    def test_min_max(self, df):
        assert df.groupby("k")["v"].min().tolist() == [10.0, 20.0]
        assert df.groupby("k")["v"].max().tolist() == [50.0, 40.0]

    def test_count_skips_nulls(self):
        df = DataFrame({"k": ["a", "a", "b"], "v": [1.0, np.nan, 3.0]})
        assert df.groupby("k")["v"].count().tolist() == [1, 1]

    def test_size_counts_all(self):
        df = DataFrame({"k": ["a", "a", "b"], "v": [1.0, np.nan, 3.0]})
        assert df.groupby("k")["v"].size().tolist() == [2, 1]

    def test_nunique(self, df):
        assert df.groupby("k")["j"].nunique().tolist() == [2, 2]

    def test_std_var(self, df):
        got = df.groupby("k")["v"].std().tolist()
        assert got[0] == pytest.approx(np.std([10, 30, 50], ddof=1))

    def test_first(self, df):
        assert df.groupby("k")["v"].first().tolist() == [10.0, 20.0]

    def test_object_min_max(self, df):
        out = df.groupby("j").agg({"k": "max"}).reset_index()
        assert out["k"].tolist() == ["b", "b"]

    def test_dates(self):
        df = DataFrame({
            "k": ["a", "a", "b"],
            "d": np.array(["1994-01-01", "1995-01-01", "1993-06-01"], dtype="datetime64[D]"),
        })
        out = df.groupby("k").agg({"d": "max"}).reset_index()
        assert str(out["d"].values[0]) == "1995-01-01"


class TestAggSpecs:
    def test_dict_spec(self, df):
        out = df.groupby("k").agg({"v": "sum", "w": "max"}).reset_index()
        assert out.columns == ["k", "v", "w"]

    def test_dict_multi_func(self, df):
        out = df.groupby("k").agg({"v": ["sum", "min"]}).reset_index()
        assert "v_sum" in out.columns and "v_min" in out.columns

    def test_named_agg(self, df):
        out = df.groupby("k").agg(total=("v", "sum"), biggest=("w", "max")).reset_index()
        assert out["total"].tolist() == [90.0, 60.0]
        assert out["biggest"].tolist() == [5, 4]

    def test_single_func_string(self, df):
        out = df.groupby("k").agg("sum").reset_index()
        assert out["w"].tolist() == [9, 6]

    def test_unknown_func_raises(self, df):
        with pytest.raises(DataFrameError):
            df.groupby("k").agg({"v": "frobnicate"})

    def test_missing_key_raises(self, df):
        with pytest.raises(DataFrameError):
            df.groupby("nope")

    def test_shorthand_all_columns(self, df):
        out = df.groupby("k").sum().reset_index()
        assert out["v"].tolist() == [90.0, 60.0]


class TestMultiKey:
    def test_two_keys(self, df):
        out = df.groupby(["k", "j"]).agg(total=("v", "sum")).reset_index()
        assert out["k"].tolist() == ["a", "a", "b", "b"]
        assert out["j"].tolist() == [1, 2, 1, 2]
        assert out["total"].tolist() == [60.0, 30.0, 20.0, 40.0]

    def test_two_keys_series(self, df):
        s = df.groupby(["k", "j"])["v"].sum()
        assert s.tolist() == [60.0, 30.0, 20.0, 40.0]
        assert s.index.nlevels == 2

    def test_as_index_false(self, df):
        out = df.groupby("k", as_index=False).agg(total=("v", "sum"))
        assert out.columns == ["k", "total"]

    def test_result_sorted_by_keys(self):
        df = DataFrame({"k": ["z", "a", "m"], "v": [1, 2, 3]})
        out = df.groupby("k")["v"].sum()
        assert list(out.index.values) == ["a", "m", "z"]

    def test_ngroups(self, df):
        assert df.groupby(["k", "j"]).ngroups == 4

    def test_groupby_column_projection(self, df):
        out = df.groupby("k")[["v", "w"]].sum().reset_index()
        assert set(out.columns) == {"k", "v", "w"}


class TestGroupWindowOps:
    """transform / cumsum / rank / shift / cumcount (row-preserving ops)."""

    @pytest.fixture()
    def gdf(self):
        return DataFrame({
            "k": ["a", "b", "a", "b", "a"],
            "v": [1, 2, 3, 4, 5],
            "w": [10.0, 20.0, 30.0, 40.0, 50.0],
        })

    def test_transform_broadcasts_aggregate(self, gdf):
        out = gdf.groupby("k").transform("sum")
        assert out["v"].tolist() == [9, 6, 9, 6, 9]
        assert out["w"].tolist() == [90.0, 60.0, 90.0, 60.0, 90.0]

    def test_series_transform_mean(self, gdf):
        out = gdf.groupby("k")["w"].transform("mean")
        assert out.tolist() == [30.0, 30.0, 30.0, 30.0, 30.0]

    def test_cumsum_preserves_row_order(self, gdf):
        assert gdf.groupby("k")["v"].cumsum().tolist() == [1, 2, 4, 6, 9]
        frame = gdf.groupby("k").cumsum()
        assert frame["v"].tolist() == [1, 2, 4, 6, 9]

    def test_rank_within_groups(self, gdf):
        assert gdf.groupby("k")["w"].rank().tolist() == [1, 1, 2, 2, 3]
        desc = gdf.groupby("k")["w"].rank(ascending=False)
        assert desc.tolist() == [3, 2, 2, 1, 1]

    def test_rank_dense_with_ties(self):
        df = DataFrame({"k": ["a", "a", "a"], "v": [5, 5, 7]})
        assert df.groupby("k")["v"].rank(method="dense").tolist() == [1, 1, 2]

    def test_rank_nan_gets_nan_like_series_rank(self):
        df = DataFrame({"k": ["a", "a", "a", "a"],
                        "v": [1.0, np.nan, 2.0, 1.0]})
        out = df.groupby("k")["v"].rank().tolist()
        assert out[0] == 1.0 and np.isnan(out[1])
        assert out[2] == 3.0 and out[3] == 1.0

    def test_shift_within_groups(self, gdf):
        out = gdf.groupby("k")["v"].shift(1)
        vals = out.tolist()
        assert np.isnan(vals[0]) and np.isnan(vals[1])
        assert vals[2:] == [1.0, 2.0, 3.0]
        filled = gdf.groupby("k")["v"].shift(1, fill_value=0)
        assert filled.tolist() == [0, 0, 1, 2, 3]

    def test_cumcount(self, gdf):
        assert gdf.groupby("k").cumcount().tolist() == [0, 0, 1, 1, 2]


def _nunique(values, gids, ngroups):
    from repro.sqlengine.grouping import GroupedColumn, GroupLayout

    return GroupedColumn(GroupLayout(len(gids), gids, ngroups),
                         values).reduce("nunique")


def _nunique_bucket_loop(values, gids, ngroups):
    """The per-row implementation the sort-based ``nunique`` reduction
    replaced, kept as its oracle."""
    from repro.dataframe._common import isna_array

    valid = ~isna_array(values)
    buckets = [[] for _ in range(ngroups)]
    for i in range(len(values)):
        if valid[i]:
            buckets[gids[i]].append(values[i])
    return np.array([len(set(b)) for b in buckets], dtype=np.int64)


class TestGroupNunique:
    """COUNT(DISTINCT x) per group: sort (group, value code) pairs, count
    the runs — NULLs dropped, an empty or all-NULL group counts 0."""

    GIDS = np.array([0, 0, 0, 1, 1, 2, 2, 2, 4, 4], dtype=np.int64)  # group 3 empty
    NGROUPS = 5

    @pytest.mark.parametrize("values", [
        np.array([5, 5, 7, -3, -3, 9, 8, 9, 0, 0], dtype=np.int64),
        np.array([2**62, -2**62, 0, 1, 1, 5, 6, 7, 9, 9], dtype=np.int64),
        np.array([1.5, np.nan, 1.5, np.nan, np.nan, 0.0, -0.0, 2.5, 7.0, 8.0]),
        np.array(["a", None, "a", None, None, "", "b", "", "z", "y"], dtype=object),
        np.array([True, False, True, True, True, False, False, False, True, False]),
        np.array(["2020-01-01", "NaT", "2020-01-01", "NaT", "NaT", "2021-05-05",
                  "2021-05-06", "2021-05-05", "1999-12-31", "2000-01-01"],
                 dtype="datetime64[D]"),
    ], ids=["ints", "sparse-ints", "floats-nan", "strings-none", "bools", "dates-nat"])
    def test_matches_the_bucket_loop(self, values):
        got = _nunique(values, self.GIDS, self.NGROUPS)
        want = _nunique_bucket_loop(values, self.GIDS, self.NGROUPS)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()
        assert got[3] == 0                      # the empty group
        if values.dtype.kind in "fOM":
            assert got[1] == 0                  # the all-NULL group

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, object, "datetime64[D]"])
    def test_empty_input(self, dtype):
        got = _nunique(np.array([], dtype=dtype), np.array([], dtype=np.int64), 3)
        assert got.dtype == np.int64 and got.tolist() == [0, 0, 0]

    def test_random_against_the_bucket_loop(self):
        rng = np.random.default_rng(5)
        gids = rng.integers(0, 40, 3000)
        for values in (rng.integers(-5, 5, 3000),
                       np.where(rng.random(3000) < 0.2, np.nan,
                                rng.integers(0, 6, 3000).astype(float)),
                       rng.choice(np.array(["p", "q", "", None], dtype=object), 3000)):
            assert _nunique(values, gids, 41).tolist() == \
                _nunique_bucket_loop(values, gids, 41).tolist()

    def test_through_the_dataframe_and_sql_surfaces(self):
        from repro import connect

        df = DataFrame({"k": ["a", "a", "b", "b", "b"],
                        "s": ["x", None, "y", "y", "z"],
                        "v": [1.0, 1.0, np.nan, 2.0, 3.0]})
        assert df.groupby("k")["s"].nunique().tolist() == [1, 2]
        db = connect()
        db.register("t", {c: df[c].values for c in df.columns})
        out = db.execute("SELECT k, COUNT(DISTINCT s) AS ds, COUNT(DISTINCT v) AS dv "
                         "FROM t GROUP BY k ORDER BY k").to_dict()
        assert out == {"k": ["a", "b"], "ds": [1, 2], "dv": [1, 2]}
