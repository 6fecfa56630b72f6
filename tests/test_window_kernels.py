"""Unit tests for the window kernel library (`repro.sqlengine.window`):
layout geometry, ranking/offset/framed-aggregate kernels, thread-count
equivalence, and the regression guard that ORDER BY / window evaluation
never mutates source columns."""

from __future__ import annotations

import numpy as np
import pytest

from repro import connect
from repro.sqlengine import EngineConfig
from repro.sqlengine.window import (
    build_layout, dense_rank, framed_aggregate, ntile, rank,
    row_number, shift, sort_positions,
)

RUNNING = ("rows", "unbounded_preceding", 0, "current", 0)
WHOLE = ("rows", "unbounded_preceding", 0, "unbounded_following", 0)


class TestLayout:
    def test_partition_starts_and_counts(self):
        part = np.array([2, 1, 2, 1, 2])
        layout = build_layout(5, [part], [], [])
        assert layout.starts.tolist() == [0, 2]
        assert layout.counts().tolist() == [2, 3]

    def test_order_within_partition_is_stable(self):
        part = np.array([0, 0, 0, 0])
        vals = np.array([5, 5, 1, 5])
        layout = build_layout(4, [part], [vals], [True])
        # Equal keys keep original relative order (stable sort).
        assert layout.order.tolist() == [2, 0, 1, 3]

    def test_peer_flags_mark_order_key_changes(self):
        part = np.array([0, 0, 0, 1])
        vals = np.array([1, 1, 2, 2])
        layout = build_layout(4, [part], [vals], [True])
        assert layout.peer_starts.tolist() == [True, False, True, True]

    def test_slices_align_to_partition_starts(self):
        part = np.repeat(np.arange(10), 100)
        layout = build_layout(1000, [part], [], [])
        slices = layout.slices(4)
        starts = set(layout.starts.tolist())
        for lo, hi in slices:
            assert lo == 0 or lo in starts
        assert slices[0][0] == 0 and slices[-1][1] == 1000

    def test_empty_input(self):
        layout = build_layout(0, [np.array([], dtype=np.int64)], [], [])
        assert layout.n == 0
        assert layout.starts.tolist() == []


class TestRankingKernels:
    def test_row_number_partitioned(self):
        part = np.array([0, 1, 0, 1])
        order = np.array([2, 9, 1, 3])
        assert row_number(4, [part], [order], [True]).tolist() == [2, 2, 1, 1]

    def test_rank_and_dense_rank_with_ties(self):
        vals = np.array([10, 20, 20, 30])
        assert rank(4, [], [vals], [True]).tolist() == [1, 2, 2, 4]
        assert dense_rank(4, [], [vals], [True]).tolist() == [1, 2, 2, 3]

    def test_rank_without_order_makes_all_peers(self):
        assert rank(3, [], [], []).tolist() == [1, 1, 1]

    def test_ntile_distributes_remainder_first(self):
        layout = build_layout(5, [], [np.arange(5)], [True])
        assert ntile(layout, 2).tolist() == [1, 1, 1, 2, 2]
        assert ntile(layout, 7).tolist() == [1, 2, 3, 4, 5]


class TestShiftKernel:
    def test_lag_and_lead_within_partitions(self):
        part = np.array([0, 0, 1, 1])
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        layout = build_layout(4, [part], [np.arange(4)], [True])
        lag = shift(layout, vals, 1)
        assert np.isnan(lag[0]) and lag[1] == 1.0
        assert np.isnan(lag[2]) and lag[3] == 3.0
        lead = shift(layout, vals, -1)
        assert lead[0] == 2.0 and np.isnan(lead[1])

    def test_default_fill_and_int_promotion(self):
        vals = np.array([1, 2, 3], dtype=np.int64)
        layout = build_layout(3, [], [np.arange(3)], [True])
        filled = shift(layout, vals, 1, default=0)
        assert filled.dtype == np.int64 and filled.tolist() == [0, 1, 2]
        nulled = shift(layout, vals, 1)
        assert nulled.dtype == np.float64 and np.isnan(nulled[0])

    def test_object_values(self):
        vals = np.array(["a", "b", None], dtype=object)
        layout = build_layout(3, [], [np.arange(3)], [True])
        assert shift(layout, vals, 1).tolist() == [None, "a", "b"]


class TestFramedAggregates:
    def test_running_sum_resets_per_partition(self):
        part = np.array([0, 0, 1, 1])
        vals = np.array([1.0, 2.0, 10.0, 20.0])
        layout = build_layout(4, [part], [np.arange(4)], [True])
        out = framed_aggregate(layout, vals, "SUM", RUNNING)
        assert out.tolist() == [1.0, 3.0, 10.0, 30.0]

    def test_running_sum_skips_nulls(self):
        vals = np.array([1.0, np.nan, 2.0])
        layout = build_layout(3, [], [np.arange(3)], [True])
        out = framed_aggregate(layout, vals, "SUM", RUNNING)
        assert out.tolist() == [1.0, 1.0, 3.0]

    def test_sum_over_all_null_frame_is_null(self):
        vals = np.array([np.nan, 1.0])
        layout = build_layout(2, [], [np.arange(2)], [True])
        out = framed_aggregate(layout, vals, "SUM", RUNNING)
        assert np.isnan(out[0]) and out[1] == 1.0

    def test_bounded_sliding_window(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        layout = build_layout(4, [], [np.arange(4)], [True])
        frame = ("rows", "preceding", 1, "current", 0)
        out = framed_aggregate(layout, vals, "SUM", frame)
        assert out.tolist() == [1.0, 3.0, 5.0, 7.0]

    def test_following_only_frame_empty_at_tail(self):
        vals = np.array([1.0, 2.0, 3.0])
        layout = build_layout(3, [], [np.arange(3)], [True])
        frame = ("rows", "following", 1, "following", 2)
        out = framed_aggregate(layout, vals, "SUM", frame)
        assert out[0] == 5.0 and out[1] == 3.0 and np.isnan(out[2])

    def test_range_frame_includes_peers(self):
        vals = np.array([1.0, 1.0, 1.0])
        keys = np.array([5, 5, 9])
        layout = build_layout(3, [], [keys], [True])
        frame = ("range", "unbounded_preceding", 0, "current", 0)
        out = framed_aggregate(layout, vals, "SUM", frame)
        # The two key=5 rows are peers: both see the full peer-group total.
        assert out.tolist() == [2.0, 2.0, 3.0]

    def test_min_max_whole_partition(self):
        part = np.array([0, 1, 0, 1])
        vals = np.array([3.0, 7.0, 1.0, 9.0])
        layout = build_layout(4, [part], [], [])
        assert framed_aggregate(layout, vals, "MIN", WHOLE).tolist() == [1.0, 7.0, 1.0, 7.0]
        assert framed_aggregate(layout, vals, "MAX", WHOLE).tolist() == [3.0, 9.0, 3.0, 9.0]

    def test_running_min_int_restores_dtype(self):
        vals = np.array([3, 1, 2], dtype=np.int64)
        layout = build_layout(3, [], [np.arange(3)], [True])
        out = framed_aggregate(layout, vals, "MIN", RUNNING)
        assert out.dtype == np.int64 and out.tolist() == [3, 1, 1]

    def test_count_star_and_count_arg(self):
        vals = np.array([1.0, np.nan, 2.0])
        layout = build_layout(3, [], [np.arange(3)], [True])
        stars = framed_aggregate(layout, None, "COUNT", RUNNING)
        args = framed_aggregate(layout, vals, "COUNT", RUNNING)
        assert stars.tolist() == [1, 2, 3]
        assert args.tolist() == [1, 1, 2]

    def test_datetime_min(self):
        days = np.array(["2020-01-03", "2020-01-01", "2020-01-02"],
                        dtype="datetime64[D]")
        layout = build_layout(3, [], [np.arange(3)], [True])
        out = framed_aggregate(layout, days, "MIN", RUNNING)
        assert str(out[2]) == "2020-01-01"


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_kernels_thread_equivalent(threads):
    """Every kernel must produce bit-identical results at any thread count."""
    rng = np.random.default_rng(5)
    n = 10_000
    part = rng.integers(0, 23, n)
    order = rng.integers(0, 1000, n)
    vals = np.where(rng.random(n) < 0.05, np.nan, rng.uniform(0, 50, n))
    layout = build_layout(n, [part], [order], [True])
    serial = build_layout(n, [part], [order], [True])
    for frame in (RUNNING, WHOLE, ("rows", "preceding", 9, "following", 3)):
        for func in ("SUM", "AVG", "MIN", "MAX", "COUNT"):
            a = framed_aggregate(serial, vals, func, frame, threads=1)
            b = framed_aggregate(layout, vals, func, frame, threads=threads)
            if func in ("SUM", "AVG"):
                # Prefix sums associate differently per slice; results agree
                # up to float summation order (the engine's aggregate
                # tolerance, tests/test_aggregate_layout.py).
                np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9,
                                           err_msg=f"{func} {frame}")
            else:
                np.testing.assert_array_equal(a, b, err_msg=f"{func} {frame}")
    np.testing.assert_array_equal(
        row_number(n, [part], [order], [True], threads=1),
        row_number(n, [part], [order], [True], threads=threads),
    )
    np.testing.assert_array_equal(
        shift(serial, vals, 2, threads=1), shift(layout, vals, 2, threads=threads)
    )


class TestNoInputMutation:
    """Regression guard: `_sort_key` must never negate or fill a view of the
    caller's column — source chunks survive ORDER BY / window evaluation
    byte-for-byte unmodified."""

    def _columns(self):
        return {
            "f": np.array([3.0, np.nan, 1.0, 2.0]),
            "i": np.array([3, 1, 2, 4], dtype=np.int64),
            "d": np.array(["2020-01-02", "NaT", "2020-01-01", "2020-03-01"],
                          dtype="datetime64[D]"),
            "s": np.array(["b", None, "a", "c"], dtype=object),
        }

    @pytest.mark.parametrize("ascending", [True, False])
    def test_sort_positions_leaves_inputs_alone(self, ascending):
        cols = self._columns()
        copies = {k: v.copy() for k, v in cols.items()}
        for key in cols:
            sort_positions([cols[key]], [ascending])
        for key in cols:
            np.testing.assert_array_equal(cols[key], copies[key])

    def test_window_query_leaves_table_alone(self):
        db = connect()
        amt = np.array([5.0, np.nan, 1.0, 2.0, 9.0])
        day = np.array(["2020-01-05", "2020-01-01", "NaT", "2020-01-02",
                        "2020-01-03"], dtype="datetime64[D]")
        db.register("t", {"id": np.arange(5, dtype=np.int64),
                          "amt": amt, "day": day}, primary_key="id")
        amt_before, day_before = amt.copy(), day.copy()
        table = db.catalog.get("t")
        stored = {c: table.column(c).copy() for c in table.columns}
        db.execute("SELECT id, RANK() OVER (ORDER BY amt DESC) AS r, "
                   "ROW_NUMBER() OVER (ORDER BY day DESC) AS rn, "
                   "SUM(amt) OVER (ORDER BY id) AS rs "
                   "FROM t ORDER BY day DESC, amt DESC")
        np.testing.assert_array_equal(amt, amt_before)
        np.testing.assert_array_equal(day, day_before)
        for c in table.columns:
            np.testing.assert_array_equal(table.column(c), stored[c])


class TestWindowOperatorBehaviour:
    def test_shared_spec_factorizes_once(self):
        db = connect()
        db.register("t", {"g": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
        out = db.execute(
            "SELECT ROW_NUMBER() OVER (PARTITION BY g ORDER BY v) AS rn, "
            "RANK() OVER (PARTITION BY g ORDER BY v) AS r, "
            "SUM(v) OVER (PARTITION BY g ORDER BY v) AS s FROM t")
        assert out["rn"].tolist() == [1, 2, 1]
        assert out["s"].values == pytest.approx([1.0, 3.0, 3.0])

    def test_unsupported_backend_raises(self):
        from repro.errors import UnsupportedFeatureError

        db = connect()
        db.register("t", {"v": [1]})
        cfg = EngineConfig(name="lingo-like", supports_window=False)
        with pytest.raises(UnsupportedFeatureError):
            db.execute("SELECT LAG(v) OVER (ORDER BY v) AS p FROM t", config=cfg)

    def test_window_with_aggregation_rejected(self):
        from repro.errors import UnsupportedFeatureError

        db = connect()
        db.register("t", {"g": [1, 2], "v": [1.0, 2.0]})
        with pytest.raises(UnsupportedFeatureError):
            db.execute("SELECT g, SUM(v) AS s, "
                       "ROW_NUMBER() OVER (ORDER BY g) AS rn FROM t GROUP BY g")

    def test_window_inside_between_bounds(self):
        db = connect()
        db.register("t", {"v": [5, 1, 3]})
        out = db.execute(
            "SELECT v, v BETWEEN ROW_NUMBER() OVER (ORDER BY v) AND 10 AS ok "
            "FROM t ORDER BY v")
        assert out["ok"].tolist() == [True, True, True]

    def test_window_inside_case_expression(self):
        db = connect()
        db.register("t", {"v": [10.0, 20.0, 30.0]})
        out = db.execute(
            "SELECT CASE WHEN ROW_NUMBER() OVER (ORDER BY v DESC) <= 2 "
            "THEN 'top' ELSE 'rest' END AS tier FROM t ORDER BY v")
        assert out["tier"].tolist() == ["rest", "top", "top"]

    def test_empty_table(self):
        db = connect()
        db.register("t", {"v": np.array([], dtype=np.float64)})
        out = db.execute("SELECT LAG(v) OVER (ORDER BY v) AS p, "
                         "SUM(v) OVER (ORDER BY v) AS s FROM t")
        assert out.shape[0] == 0
