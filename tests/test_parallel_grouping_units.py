"""Unit tests for the engine's parallel partitioning, grouping, and sort
primitives (the pieces the executor composes)."""

import numpy as np

from repro.sqlengine.grouping import factorize, factorize_many
from repro.sqlengine.parallel import (
    parallel_arrays, parallel_masks, partition_bounds, run_partitions,
)
from repro.sqlengine.window import row_number, sort_positions


class TestPartitionBounds:
    def test_even_split(self):
        assert partition_bounds(10, 2) == [(0, 5), (5, 10)]

    def test_uneven_split_covers_all(self):
        bounds = partition_bounds(10, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 10
        covered = sum(stop - start for start, stop in bounds)
        assert covered == 10

    def test_more_parts_than_rows(self):
        bounds = partition_bounds(2, 8)
        assert all(stop > start for start, stop in bounds)
        assert bounds[-1][1] == 2

    def test_empty(self):
        assert partition_bounds(0, 4) == [(0, 0)]

    def test_single_partition(self):
        assert partition_bounds(7, 1) == [(0, 7)]


class TestRunPartitions:
    def test_serial_small_input(self):
        calls = []
        run_partitions(10, 4, lambda a, b: calls.append((a, b)))
        # below the 4096-row threshold everything runs inline
        assert calls

    def test_parallel_large_input(self):
        n = 10_000
        parts = run_partitions(n, 4, lambda a, b: b - a)
        assert sum(parts) == n

    def test_results_ordered(self):
        n = 9_000
        parts = run_partitions(n, 3, lambda a, b: a)
        assert parts == sorted(parts)

    def test_parallel_masks_concatenate(self):
        n = 10_000
        data = np.arange(n)
        mask = parallel_masks(n, 4, lambda a, b: data[a:b] % 2 == 0)
        assert mask.sum() == n // 2

    def test_parallel_arrays_dtype_promotion(self):
        n = 10_000

        def make(a, b):
            # first partition yields ints, later ones floats
            if a == 0:
                return [np.arange(a, b)]
            return [np.arange(a, b, dtype=np.float64)]

        out = parallel_arrays(n, 4, make)
        assert len(out) == 1 and len(out[0]) == n
        assert out[0].dtype == np.float64


class TestFactorize:
    def test_int_keys_sorted_uniques(self):
        gids, uniques = factorize(np.array([3, 1, 3, 2]))
        assert uniques.tolist() == [1, 2, 3]
        assert uniques[gids].tolist() == [3, 1, 3, 2]

    def test_object_keys_first_appearance(self):
        gids, uniques = factorize(np.array(["b", "a", "b"], dtype=object))
        assert uniques.tolist() == ["b", "a"]
        assert gids.tolist() == [0, 1, 0]

    def test_object_keys_with_none(self):
        gids, uniques = factorize(np.array(["a", None, "a"], dtype=object))
        assert len(uniques) == 2

    def test_dates(self):
        arr = np.array(["1994-01-01", "1995-01-01", "1994-01-01"], dtype="datetime64[D]")
        gids, uniques = factorize(arr)
        assert len(uniques) == 2
        assert gids[0] == gids[2]

    def test_factorize_many_composite(self):
        a = np.array([1, 1, 2, 2])
        b = np.array(["x", "y", "x", "x"], dtype=object)
        gids, keys, ngroups = factorize_many([a, b])
        assert ngroups == 3
        # decoded key columns reconstruct the input pairs
        assert keys[0][gids].tolist() == a.tolist()
        assert keys[1][gids].tolist() == b.tolist()

    def test_factorize_many_three_keys(self):
        cols = [np.array([0, 0, 1]), np.array([0, 1, 0]), np.array([5, 5, 5])]
        gids, keys, ngroups = factorize_many(cols)
        assert ngroups == 3
        for level, col in enumerate(cols):
            assert keys[level][gids].tolist() == col.tolist()

    @staticmethod
    def _assert_groups_like_dict(cols):
        """gids/key columns agree with a python dict of row tuples, and
        int-only keys come out in lexicographic order."""
        gids, keys, ngroups = factorize_many(cols)
        rows = list(zip(*(c.tolist() for c in cols)))
        groups: dict = {}
        for row in rows:
            groups.setdefault(row, len(groups))
        assert ngroups == len(groups)
        decoded = list(zip(*(k[gids].tolist() for k in keys)))
        assert decoded == rows
        by_gid = list(zip(*(k.tolist() for k in keys)))
        assert len(set(by_gid)) == ngroups
        return by_gid

    def test_factorize_many_seven_keys_do_not_wrap(self):
        # 600**7 > 2**63: the packed code wrapped silently (TPC-H Q10's
        # wrong groups from SF 0.025).
        rng = np.random.default_rng(0)
        cols = [rng.integers(0, 600, 3000) for _ in range(7)]
        by_gid = self._assert_groups_like_dict(cols)
        assert by_gid == sorted(by_gid)

    def test_factorize_many_wide_keys_do_not_overflow(self):
        # ~3000 distinct values per column: the multiplier itself left
        # int64 and raised OverflowError.
        rng = np.random.default_rng(1)
        cols = [rng.integers(0, 2**40, 3000) for _ in range(7)]
        by_gid = self._assert_groups_like_dict(cols)
        assert by_gid == sorted(by_gid)

    def test_factorize_many_mixed_object_int_seven_keys(self):
        rng = np.random.default_rng(2)
        names = np.array([f"n{i}" for i in range(700)], dtype=object)
        cols = [rng.choice(names, 3000) if i % 2 else rng.integers(0, 700, 3000)
                for i in range(7)]
        self._assert_groups_like_dict(cols)


class TestSortPrimitives:
    def test_mixed_direction_multi_key(self):
        a = np.array(["x", "x", "y"], dtype=object)
        b = np.array([1, 2, 0])
        pos = sort_positions([a, b], [True, False])
        assert pos.tolist() == [1, 0, 2]

    def test_float_nulls_sort_last_both_ways(self):
        arr = np.array([2.0, np.nan, 1.0])
        assert sort_positions([arr], [True]).tolist() == [2, 0, 1]
        assert sort_positions([arr], [False]).tolist() == [0, 2, 1]

    def test_date_descending(self):
        arr = np.array(["1994-01-01", "1996-01-01", "1995-01-01"], dtype="datetime64[D]")
        assert sort_positions([arr], [False]).tolist() == [1, 2, 0]

    def test_row_number_desc_order(self):
        arr = np.array([10, 30, 20])
        rn = row_number(3, [], [arr], [False])
        assert rn.tolist() == [3, 1, 2]

    def test_row_number_two_partitions_two_orders(self):
        part = np.array([0, 1, 0, 1])
        order = np.array([5, 5, 1, 1])
        rn = row_number(4, [part], [order], [True])
        assert rn.tolist() == [2, 2, 1, 1]

    def test_empty_sort(self):
        assert sort_positions([], []).tolist() == []
