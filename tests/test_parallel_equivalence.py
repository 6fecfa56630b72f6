"""Parallel-equivalence: every ``threads`` configuration must
produce the same rows as serial whole-column execution, including the
empty-table and single-row edge cases that stress ``partition_bounds``."""

from __future__ import annotations


import numpy as np
import pytest

from repro import connect
from repro.sqlengine import EngineConfig
from repro.sqlengine.parallel import partition_bounds, shutdown_pools

THREADS = [1, 2, 4]

QUERIES = [
    "SELECT id, val * 2.0 AS v2 FROM data WHERE val > 0.5",
    "SELECT grp, COUNT(*) AS n, SUM(val) AS s, MIN(val) AS lo, MAX(val) AS hi, "
    "AVG(val) AS m FROM data GROUP BY grp",
    "SELECT d.grp, SUM(d.val) AS s FROM data AS d, dims AS m "
    "WHERE d.grp = m.grp AND m.w > 0 GROUP BY d.grp",
    "SELECT d.id, m.label FROM data AS d JOIN dims AS m ON d.grp = m.grp "
    "WHERE d.id < 5000 ORDER BY d.id LIMIT 50",
    "SELECT grp, COUNT(*) AS n FROM data GROUP BY grp HAVING COUNT(*) > 10 "
    "ORDER BY n DESC, grp",
    # Window operator: partition-parallel slices must agree with serial.
    "SELECT id, ROW_NUMBER() OVER (PARTITION BY grp ORDER BY val, id) AS rn, "
    "SUM(val) OVER (PARTITION BY grp ORDER BY id) AS running FROM data "
    "ORDER BY id",
    "SELECT id, LAG(val, 1, 0.0) OVER (PARTITION BY grp ORDER BY id) AS prev, "
    "MIN(val) OVER (PARTITION BY grp ORDER BY id "
    "ROWS BETWEEN 7 PRECEDING AND CURRENT ROW) AS floor7 FROM data "
    "ORDER BY id",
    # Set operations: morsel-parallel counts/gathers must agree with serial.
    "SELECT grp FROM data WHERE val > 0.5 UNION SELECT grp FROM dims",
    "SELECT id, grp FROM data WHERE grp < 7 "
    "UNION ALL SELECT id, grp FROM data WHERE grp > 9 ORDER BY id LIMIT 200",
    "SELECT grp FROM data INTERSECT ALL SELECT grp FROM dims",
    "SELECT grp FROM data WHERE val < 0.9 EXCEPT ALL "
    "SELECT grp FROM data WHERE val >= 0.9",
    "SELECT grp FROM dims EXCEPT SELECT grp FROM data WHERE val > 0.01",
    # TopK: per-morsel candidate selection must match a full stable sort.
    "SELECT id, val FROM data ORDER BY val DESC, id LIMIT 37",
    "SELECT id, val FROM data WHERE grp <> 3 ORDER BY val, id DESC LIMIT 61",
    # Subqueries: uncorrelated IN / NOT IN / scalar values probed by each
    # morsel of a filter, correlated forms as morsel-parallel MarkJoins
    # (filtering or marking), must agree with serial.
    "SELECT id FROM data WHERE grp IN (SELECT grp FROM dims WHERE w > 0) "
    "ORDER BY id",
    "SELECT id FROM data WHERE grp NOT IN (SELECT grp FROM dims WHERE w = 1)",
    "SELECT m.grp FROM dims AS m WHERE EXISTS "
    "(SELECT 1 FROM data AS d WHERE d.grp = m.grp AND d.val > 0.95)",
    "SELECT m.grp FROM dims AS m WHERE NOT EXISTS "
    "(SELECT 1 FROM data AS d WHERE d.grp = m.grp AND d.val > 0.9995)",
    "SELECT id FROM data WHERE grp IN (SELECT grp FROM dims WHERE w = 2) "
    "OR val < 0.01",
    "SELECT id FROM data WHERE val > (SELECT AVG(val) FROM data) "
    "ORDER BY id LIMIT 40",
    "SELECT d.id FROM data AS d WHERE d.grp IN (SELECT m.grp FROM dims AS m "
    "WHERE m.w = 2 AND m.grp = d.grp) OR d.val < 0.01 ORDER BY d.id",
]


def _make_db(nrows: int):
    rng = np.random.default_rng(42)
    db = connect()
    db.register(
        "data",
        {
            "id": np.arange(nrows, dtype=np.int64),
            "grp": rng.integers(0, 13, nrows) if nrows else np.zeros(0, dtype=np.int64),
            "val": np.round(rng.uniform(0.0, 1.0, nrows), 9),
        },
        primary_key="id",
    )
    db.register(
        "dims",
        {
            "grp": np.arange(13, dtype=np.int64),
            "w": np.array([i % 3 for i in range(13)], dtype=np.int64),
            "label": np.array([f"g{i}" for i in range(13)], dtype=object),
        },
        primary_key="grp",
    )
    return db


def _rows(chunk):
    out = []
    for i in range(chunk.nrows):
        row = []
        for arr in chunk.arrays:
            v = arr[i]
            if isinstance(v, np.generic):
                v = v.item()
            if isinstance(v, float):
                v = round(v, 9) if v == v else None
            row.append(v)
        out.append(tuple(row))
    return out


def _config(threads: int) -> EngineConfig:
    return EngineConfig(name="test", threads=threads, join_reorder=True)


@pytest.fixture(scope="module")
def big_db():
    # Large enough that every parallel gate (>= 4096 rows) engages.
    return _make_db(10_000)


def _assert_equivalent(db, sql):
    serial = _rows(db.execute_chunk(sql, _config(1)))
    for threads in THREADS:
        got = _rows(db.execute_chunk(sql, _config(threads)))
        assert len(got) == len(serial), threads
        for a, b in zip(got, serial):
            for x, y in zip(a, b):
                if isinstance(x, float) and isinstance(y, float):
                    assert x == pytest.approx(y, rel=1e-9, abs=1e-9), \
                        (threads, sql)
                else:
                    assert x == y, (threads, sql)


@pytest.mark.parametrize("sql", QUERIES)
def test_parallel_matches_serial(big_db, sql):
    _assert_equivalent(big_db, sql)


@pytest.mark.parametrize("nrows", [0, 1])
def test_edge_cardinalities(nrows):
    db = _make_db(nrows)
    for sql in QUERIES:
        _assert_equivalent(db, sql)


@pytest.mark.parametrize("threads", THREADS)
def test_global_aggregate_over_empty_table(threads):
    db = _make_db(0)
    cfg = _config(threads)
    got = db.execute_chunk("SELECT COUNT(*) AS n, SUM(val) AS s FROM data", cfg)
    assert got.arrays[0][0] == 0
    assert np.isnan(got.arrays[1][0])  # SUM of nothing is NULL


class TestPartitionBoundsEdges:
    def test_empty_input_single_empty_partition(self):
        assert partition_bounds(0, 4) == [(0, 0)]

    def test_single_row(self):
        assert partition_bounds(1, 4) == [(0, 1)]

    def test_threads_larger_than_rows(self):
        bounds = partition_bounds(3, 8)
        assert bounds[0][0] == 0 and bounds[-1][1] == 3
        assert all(stop > start for start, stop in bounds)


def test_shutdown_pools_allows_reuse(big_db):
    sql = QUERIES[0]
    before = _rows(big_db.execute_chunk(sql, _config(4)))
    shutdown_pools()
    # pools are lazily recreated after shutdown
    after = _rows(big_db.execute_chunk(sql, _config(4)))
    assert before == after


def test_shutdown_pools_idempotent():
    shutdown_pools()
    shutdown_pools()


class TestCallerParticipatingDispatch:
    """``parallel_map`` / ``run_partitions``: the caller claims work beside
    the pool's helpers, so a late or busy helper costs nothing."""

    def test_results_keep_item_order(self):
        from repro.sqlengine.parallel import parallel_map, run_partitions

        assert parallel_map(4, lambda x: x * x, range(50)) == \
            [x * x for x in range(50)]
        assert run_partitions(10_000, 4, lambda lo, hi: (lo, hi)) == \
            partition_bounds(10_000, 4)

    def test_lowest_failing_item_is_raised(self):
        """As a serial loop would: item 3's error, never item 7's."""
        from repro.sqlengine.parallel import parallel_map

        def fn(i):
            if i == 3:
                raise ValueError("three")
            if i == 7:
                raise KeyError("seven")
            return i

        for _ in range(50):
            with pytest.raises(ValueError, match="three"):
                parallel_map(2, fn, range(10))

    def test_reentry_from_a_pool_worker_completes(self):
        """A helper whose work dispatches again finds the pool's other
        workers busy with its siblings: it runs its own items and cancels
        the helpers it queued, where waiting on them would deadlock."""
        import threading

        from repro.sqlengine.parallel import parallel_map

        def outer(i):
            return sum(parallel_map(2, lambda j: i * j, range(8)))

        out = []
        t = threading.Thread(
            target=lambda: out.append(parallel_map(2, outer, range(6))))
        t.start()
        t.join(30.0)
        assert not t.is_alive()
        assert out == [[i * 28 for i in range(6)]]

    def test_work_runs_on_the_calling_thread_too(self):
        import threading

        from repro.sqlengine.parallel import parallel_map

        me = threading.get_ident()
        seen = set()
        for _ in range(20):
            seen.update(parallel_map(
                2, lambda _: threading.get_ident(), range(16)))
        assert me in seen
