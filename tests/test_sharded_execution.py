"""Multi-process sharded execution: bit-identical to serial, or loudly typed.

The core guarantee: every query a :class:`ShardedDatabase` chooses to
scatter produces **the same answer serial execution would have** — exact
for every non-float column, within the engine's float-merge tolerance for
float aggregates (the same policy the in-process parallel suite uses).
All 22 TPC-H queries run at workers {1, 4} × threads {1, 4} against the
serial answer; a purpose-built store stresses the merge kernels where
partitioning actually bites (groups spanning chunk boundaries, string
keys, all-NULL partitions with COALESCE fills, Top-K ties straddling the
partition cut).  The degradation contract — a SIGKILLed worker surfaces a
typed :class:`ShardError`, never a hang, and the pool serves the next
query — is tested with a live kill.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import connect
from repro.bench.differential import load_sqlite, rows_equal, run_differential
from repro.bench.storage import store_tpch
from repro.errors import ShardError
from repro.server.shard import ShardedDatabase
from repro.sqlengine import EngineConfig
from repro.sqlengine.table import DictColumn
from repro.storage import ColumnStore, open_store
from repro.workloads.tpch import QUERIES, generate

RTOL = ATOL = 1e-9  # float-merge tolerance, matching the parallel suite
# CI runs this module a second time at SF 0.02: ~60 logical lineitem chunks,
# so every worker's range covers several (tier-1's 6 chunks give 1-2 each).
SF = float(os.environ.get("REPRO_TPCH_SF", "0.002"))


def assert_chunks_match(base, got, context: str) -> None:
    assert got.columns == base.columns, context
    assert got.nrows == base.nrows, context
    for col, a, b in zip(base.columns, base.arrays, got.arrays):
        a, b = np.asarray(a), np.asarray(b)
        where = f"{context}:{col}"
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            assert np.allclose(a.astype(np.float64), b.astype(np.float64),
                               rtol=RTOL, atol=ATOL, equal_nan=True), where
        else:
            assert list(a) == list(b), where


# ---------------------------------------------------------------------------
# TPC-H differential: every query, workers x threads, vs serial
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tpch_store_root(request, tmp_path_factory):
    dataset = request.getfixturevalue("tpch_dataset") if SF == 0.002 \
        else generate(scale_factor=SF, seed=7)
    root = tmp_path_factory.mktemp("tpch-shard-store")
    store = ColumnStore(root)
    store_tpch(store, dataset, chunk_rows=2048)
    return root


@pytest.fixture(scope="module")
def serial_db(tpch_store_root):
    db = connect()
    open_store(tpch_store_root).attach(db)
    return db


@pytest.fixture(scope="module")
def sharded_db(tpch_store_root):
    db = ShardedDatabase(tpch_store_root)
    yield db
    db.close_pools()


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("q", sorted(QUERIES))
def test_tpch_sharded_matches_serial(q, workers, threads, serial_db,
                                     sharded_db):
    sql = QUERIES[q].sql("duckdb", level="O4", db=serial_db)
    base = serial_db.execute_chunk(sql, EngineConfig(threads=threads))
    cfg = EngineConfig(threads=threads, shard_workers=workers)
    got = sharded_db.execute_chunk(sql, cfg)
    assert_chunks_match(base, got,
                        f"tpch_q{q}[workers={workers},threads={threads}]")


def test_q1_and_q6_actually_scatter(serial_db, sharded_db):
    """The flagship aggregate queries must take the scatter path — a
    regression that silently falls back would pass the differential."""
    cfg = EngineConfig(shard_workers=2)
    for q in (1, 6):
        sql = QUERIES[q].sql("duckdb", level="O4", db=serial_db)
        before = sharded_db.shard_stats["scattered"]
        sharded_db.execute_chunk(sql, cfg)
        assert sharded_db.shard_stats["scattered"] == before + 1, f"q{q}"


def test_topk_actually_scatters(sharded_db):
    sql = ("SELECT l_orderkey, l_extendedprice FROM lineitem "
           "ORDER BY l_extendedprice DESC, l_orderkey LIMIT 10")
    before = sharded_db.shard_stats["scattered"]
    sharded_db.execute_chunk(sql, EngineConfig(shard_workers=2))
    assert sharded_db.shard_stats["scattered"] == before + 1


def test_zero_workers_never_touches_the_pool(sharded_db):
    """shard_workers=0 is the serial path bit-for-bit — no pool, no stats."""
    before = dict(sharded_db.shard_stats)
    sharded_db.execute_chunk("SELECT COUNT(*) AS n FROM lineitem",
                             EngineConfig(shard_workers=0))
    after = sharded_db.shard_stats
    assert after["scattered"] == before["scattered"]
    assert after["fallbacks"] == before["fallbacks"]


def test_verified_scatter_passes_under_verify_plans(sharded_db):
    """verify_plans=True routes every recipe through the shard verifier."""
    cfg = EngineConfig(shard_workers=2, verify_plans=True)
    got = sharded_db.execute_chunk(
        "SELECT COUNT(*) AS n FROM lineitem", cfg)
    assert got.nrows == 1


def test_prepared_statement_scatters_with_bound_params(serial_db, sharded_db):
    sql = ("SELECT l_returnflag, COUNT(*) AS n, SUM(l_extendedprice) AS rev "
           "FROM lineitem WHERE l_quantity < ? "
           "GROUP BY l_returnflag ORDER BY l_returnflag")
    stmt = sharded_db.prepare(sql, EngineConfig(shard_workers=2))
    before = sharded_db.shard_stats["scattered"]
    got = stmt.execute_chunk([30])
    assert sharded_db.shard_stats["scattered"] == before + 1
    base = serial_db.execute_chunk(sql, EngineConfig(threads=1), [30])
    assert_chunks_match(base, got, "prepared-scatter")


# ---------------------------------------------------------------------------
# Merge-kernel stress: a store built to make partitioning hurt
# ---------------------------------------------------------------------------

N_EVENTS = 4_000
CHUNK = 512  # 8 chunks semantics: groups and ties straddle every boundary


@pytest.fixture(scope="module")
def merge_env(tmp_path_factory):
    rng = np.random.default_rng(23)
    amount = np.round(rng.uniform(-100.0, 100.0, N_EVENTS), 6)
    # Ties by construction: quantize scores so duplicates straddle chunks.
    score = rng.integers(0, 40, N_EVENTS).astype(np.float64)
    events = {
        "ev_id": np.arange(N_EVENTS, dtype=np.int64),
        # String keys in first-appearance order that differs per partition.
        "city": rng.choice(np.array(["osaka", "lagos", "quito", "turin",
                                     "perth"], dtype=object), N_EVENTS),
        "bucket": rng.integers(0, 13, N_EVENTS),
        # "late" lives ONLY in the final chunk: with 4 workers three
        # partitions contribute empty partials for its groups.
        "phase": np.where(np.arange(N_EVENTS) >= N_EVENTS - CHUNK,
                          "late", "early").astype(object),
        "amount": amount,
        "score": score,
    }
    root = tmp_path_factory.mktemp("merge-store")
    store = ColumnStore(root)
    store.write_table("events", events, primary_key="ev_id",
                      chunk_rows=CHUNK)
    serial = connect()
    open_store(root).attach(serial)
    sharded = ShardedDatabase(root)
    yield serial, sharded
    sharded.close_pools()


MERGE_QUERIES = {
    "string_keys_every_agg": (
        "SELECT city, COUNT(*) AS n, SUM(amount) AS s, AVG(amount) AS a, "
        "MIN(amount) AS lo, MAX(amount) AS hi "
        "FROM events GROUP BY city ORDER BY city"),
    "global_aggregate": (
        "SELECT COUNT(*) AS n, SUM(amount) AS s, AVG(score) AS a "
        "FROM events"),
    "global_aggregate_empty_input": (
        "SELECT COUNT(*) AS n, SUM(amount) AS s FROM events "
        "WHERE bucket > 1000"),
    "coalesce_fill_after_merge": (
        "SELECT bucket, COALESCE(SUM(amount), 0) AS s FROM events "
        "WHERE amount > 99.0 GROUP BY bucket ORDER BY bucket"),
    "minmax_on_strings": (
        "SELECT bucket, MIN(city) AS first_city, MAX(city) AS last_city "
        "FROM events GROUP BY bucket ORDER BY bucket"),
    "group_only_in_last_partition": (
        "SELECT phase, COUNT(*) AS n, SUM(score) AS s FROM events "
        "GROUP BY phase ORDER BY phase"),
    "topk_ties_across_partitions": (
        "SELECT ev_id, score FROM events "
        "ORDER BY score DESC LIMIT 50"),
    "topk_with_filter": (
        "SELECT ev_id, amount FROM events WHERE bucket < 4 "
        "ORDER BY amount DESC, ev_id LIMIT 17"),
    "topk_limit_beyond_table": (
        "SELECT ev_id, score FROM events ORDER BY score, ev_id "
        "LIMIT 100000"),
    "topk_string_payload": (
        "SELECT ev_id, city, phase, score FROM events "
        "ORDER BY score DESC, ev_id LIMIT 25"),
    "topk_string_payload_fewer_rows_than_entries": (
        "SELECT ev_id, city, amount FROM events WHERE bucket = 3 "
        "ORDER BY amount, ev_id LIMIT 3"),
    "having": ("SELECT city, COUNT(*) AS n FROM events GROUP BY city "
               "HAVING COUNT(*) > 10"),
    "expression_over_aggregate": ("SELECT city, SUM(amount) / COUNT(*) AS r "
                                  "FROM events GROUP BY city"),
}


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("name", sorted(MERGE_QUERIES))
def test_merge_kernels_match_serial(name, workers, merge_env):
    serial, sharded = merge_env
    sql = MERGE_QUERIES[name]
    base = serial.execute_chunk(sql, EngineConfig(threads=1))
    before = sharded.shard_stats["scattered"]
    got = sharded.execute_chunk(sql, EngineConfig(shard_workers=workers))
    assert sharded.shard_stats["scattered"] == before + 1, (
        f"{name} fell back to serial — the merge path was not exercised")
    assert_chunks_match(base, got, f"{name}[workers={workers}]")


# A select item that negates its group key has a different value per group
# than the key: the split must not hand it the key's ``__k<i>`` column.
NEGATED_GROUP_KEYS = [
    "SELECT bucket NOT IN (1, 2) AS x, COUNT(*) AS c FROM events "
    "GROUP BY bucket IN (1, 2) ORDER BY c",
    "SELECT bucket NOT BETWEEN 3 AND 5 AS x, COUNT(*) AS c FROM events "
    "GROUP BY bucket BETWEEN 3 AND 5 ORDER BY c",
]


@pytest.mark.parametrize("sql", NEGATED_GROUP_KEYS)
def test_negated_item_is_not_its_group_key(sql, merge_env):
    """serial = the sharded plan in-process = shard workers = sqlite3."""
    serial, sharded = merge_env
    conn = load_sqlite(serial)
    try:
        ours, theirs = run_differential(serial, conn, sql)
    finally:
        conn.close()
    assert rows_equal(ours, theirs) == (True, "")
    base = serial.execute_chunk(sql)
    cfg = EngineConfig(shard_workers=2)
    assert_chunks_match(base, serial.execute_chunk(sql, cfg), "in-process")
    assert_chunks_match(base, sharded.execute_chunk(sql, cfg), "workers")


def test_encoded_columns_cross_the_exchange_as_codes(merge_env, monkeypatch):
    """A partition's dictionary-encoded outputs (a string group key, a
    string Top-K payload) are shipped as codes + dictionary and merged by
    ``DictColumn.concat``; a column with fewer rows than dictionary entries
    is shipped decoded.  Either way the answer is the serial one."""
    serial, sharded = merge_env
    shipped: list[tuple] = []
    gather = sharded._gather

    def spy(*args):
        out = gather(*args)
        shipped.extend(out)
        return out

    monkeypatch.setattr(sharded, "_gather", spy)
    cfg = EngineConfig(shard_workers=2)
    cases = [("string_keys_every_agg", {"__k0"}),
             ("minmax_on_strings", set()),
             ("topk_string_payload", {"city", "phase"}),
             ("topk_string_payload_fewer_rows_than_entries", set())]
    for name, encoded in cases:
        del shipped[:]
        sql = MERGE_QUERIES[name]
        assert_chunks_match(serial.execute_chunk(sql),
                            sharded.execute_chunk(sql, cfg), name)
        assert len(shipped) == 2, name
        for status, columns, arrays in shipped:
            assert status == "ok"
            assert {c for c, a in zip(columns, arrays)
                    if isinstance(a, DictColumn)} == encoded, name
            assert all(isinstance(a, DictColumn) or a.ndim == 1
                       for a in arrays), name


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="CPU affinity is Linux-only")
def test_each_worker_runs_on_its_own_cpu(merge_env):
    """Workers pin themselves round-robin over the CPUs the coordinator may
    use (a scatter whose workers share one CPU is the serial plan plus a
    round trip); the coordinator's own affinity is untouched."""
    from repro.server.shard import ShardPool

    allowed = os.sched_getaffinity(0)
    pool = ShardPool(merge_env[1]._store.root, 3)
    try:
        pids = pool.warm()
        # A worker the pings never reached may still be in its initializer.
        give_up = time.monotonic() + 30
        while True:
            masks = [os.sched_getaffinity(pid) for pid in pids]
            if all(len(m) == 1 for m in masks) or time.monotonic() > give_up:
                break
            time.sleep(0.01)
    finally:
        pool.close()
    assert os.sched_getaffinity(0) == allowed
    assert all(len(m) == 1 and m <= allowed for m in masks)
    assert len(set(map(frozenset, masks))) == min(3, len(allowed))


def test_topk_tie_break_is_original_row_order(merge_env):
    """Ties in the sort key resolve to ascending ev_id (row order) — the
    stable-sort contract that makes the gather deterministic."""
    _, sharded = merge_env
    got = sharded.execute_chunk(MERGE_QUERIES["topk_ties_across_partitions"],
                                EngineConfig(shard_workers=4))
    scores = [r for r in np.asarray(got.arrays[1])]
    ids = list(np.asarray(got.arrays[0]))
    for value in set(scores):
        tied = [i for s, i in zip(scores, ids) if s == value]
        assert tied == sorted(tied)


# ---------------------------------------------------------------------------
# Degradation: worker death is typed, bounded, and non-poisoning
# ---------------------------------------------------------------------------

def test_worker_kill_yields_typed_error_then_pool_recovers(merge_env):
    _, sharded = merge_env
    cfg = EngineConfig(shard_workers=2)
    sql = MERGE_QUERIES["string_keys_every_agg"]
    sharded.execute_chunk(sql, cfg)  # warm the pool
    pids = sharded.pool(2).worker_pids()
    assert len(pids) == 2
    errors_before = sharded.shard_stats["shard_errors"]
    restarts_before = sharded.shard_stats["restarts"]
    sharded._test_worker_delay = 1.5
    killer = threading.Timer(0.3, os.kill, (pids[0], signal.SIGKILL))
    killer.start()
    start = time.monotonic()
    try:
        with pytest.raises(ShardError, match="worker died"):
            sharded.execute_chunk(sql, cfg)
    finally:
        killer.join()
        sharded._test_worker_delay = 0.0
    assert time.monotonic() - start < 30.0  # typed error, not a hang
    assert sharded.shard_stats["shard_errors"] == errors_before + 1
    assert sharded.shard_stats["restarts"] == restarts_before + 1
    # The very next query is served by a rebuilt pool.
    got = sharded.execute_chunk(sql, cfg)
    assert got.nrows == 5


def test_worker_side_query_error_keeps_its_type(merge_env):
    """An ordinary execution error inside a worker is rebuilt as its own
    typed class — never laundered into ShardError."""
    from repro.errors import SQLError

    _, sharded = merge_env
    errors_before = sharded.shard_stats["shard_errors"]
    with pytest.raises(SQLError):
        sharded.execute_chunk(
            "SELECT no_such_column, COUNT(*) AS n FROM events "
            "GROUP BY no_such_column", EngineConfig(shard_workers=2))
    assert sharded.shard_stats["shard_errors"] == errors_before


# ---------------------------------------------------------------------------
# Planning: what gets an Exchange, what must not
# ---------------------------------------------------------------------------

REJECTED = {
    "distinct": "SELECT DISTINCT city FROM events",
    "count_distinct": "SELECT COUNT(DISTINCT city) AS n FROM events",
    # A correlated subquery is a MarkJoin, which no shard worker runs.
    "subquery_predicate": ("SELECT COUNT(*) AS n FROM events e WHERE EXISTS "
                           "(SELECT 1 FROM events f WHERE f.ev_id = e.bucket "
                           "AND f.score > 30)"),
    "window_function": ("SELECT ev_id, SUM(amount) OVER "
                        "(PARTITION BY city) AS w FROM events"),
    "topk_without_limit": "SELECT ev_id FROM events ORDER BY score",
    "bare_scan_without_order": "SELECT ev_id, amount FROM events",
    "unstored_table": "SELECT COUNT(*) AS n FROM not_stored",
    # DISTINCT runs between the two Top-K stages' positions: a partial
    # Top-K below it would cut rows before they are deduplicated.
    "distinct_topk": "SELECT DISTINCT city FROM events ORDER BY city LIMIT 3",
    "self_join_on_partition_table": (
        "SELECT COUNT(*) AS n FROM events a, events b "
        "WHERE a.ev_id = b.ev_id AND a.bucket = 3"),
    "outer_join": ("SELECT COUNT(*) AS n FROM events a LEFT JOIN events b "
                   "ON a.ev_id = b.bucket"),
    "non_group_column": ("SELECT city, bucket, COUNT(*) AS n FROM events "
                         "WHERE ev_id < 0 GROUP BY city"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_unmergeable_shapes_plan_without_exchange(name, merge_env):
    """No Exchange in the plan, and the execution lands in ``fallbacks``."""
    serial, sharded = merge_env
    if name == "unstored_table":  # in the catalog, but not in the store
        for db in (serial, sharded):
            db.register("not_stored", {"x": [1, 2, 3]})
    cfg = EngineConfig(shard_workers=2)
    plan = sharded.explain_plan(REJECTED[name], cfg)
    assert "Exchange" not in plan, plan
    before = dict(sharded.shard_stats)
    got = sharded.execute_chunk(REJECTED[name], cfg)
    assert sharded.shard_stats["fallbacks"] == before["fallbacks"] + 1
    assert sharded.shard_stats["scattered"] == before["scattered"]
    assert_chunks_match(serial.execute_chunk(REJECTED[name]), got, name)


def test_rejected_shapes_still_execute_serially(merge_env):
    """A rejection is a fallback, not a failure: DISTINCT runs serial and
    bumps the fallback counter."""
    _, sharded = merge_env
    before = sharded.shard_stats["fallbacks"]
    got = sharded.execute_chunk(
        "SELECT DISTINCT city FROM events", EngineConfig(shard_workers=2))
    assert got.nrows == 5
    assert sharded.shard_stats["fallbacks"] == before + 1


def test_canonical_shapes_plan_with_exchange(merge_env):
    _, sharded = merge_env
    cfg = EngineConfig(shard_workers=2)
    agg = sharded.explain_plan(MERGE_QUERIES["string_keys_every_agg"], cfg)
    assert [ln.strip().split("  [")[0] for ln in agg.splitlines()] == [
        "Sort city",
        "HashAggregate keys=[__k0] items=6",
        "Exchange events 2 partition(s) chunks=[0,4) [4,8)",
        # one partial per distinct call: AVG(amount) reuses SUM(amount)
        "HashAggregate keys=[city] items=6",
        "Scan events cols=[city, amount]",
    ]
    topk = sharded.explain_plan(MERGE_QUERIES["topk_with_filter"], cfg)
    assert [ln.strip().split("  [")[0] for ln in topk.splitlines()][:4] == [
        "TopK 17 by amount DESC, ev_id",
        "Exchange events 2 partition(s) chunks=[0,4) [4,8)",
        "TopK 17 by amount DESC, ev_id",
        "Project ev_id, amount",
    ]


# New shapes the planner-placed Exchange distributes; each is checked
# against serial (and must actually scatter) at workers {1, 2, 4}.
NEW_SHAPES = {
    # Nothing is inlined: the CTE body is planned like any SELECT.
    "cte_wrapped_aggregate": (
        "WITH v AS (SELECT city, SUM(amount) AS s, COUNT(*) AS n FROM events "
        "GROUP BY city) SELECT city, s FROM v ORDER BY s DESC LIMIT 3"),
    "positional_group_and_order": (
        "SELECT city, COUNT(*) FROM events GROUP BY 1 ORDER BY 2 DESC LIMIT 3"),
    "having_on_non_projected_aggregate": (
        "SELECT city, COUNT(*) AS n FROM events GROUP BY city "
        "HAVING MAX(score) >= 39 AND SUM(amount) > -1000000 ORDER BY city"),
    "sum_over_count": (
        "SELECT bucket, SUM(amount) / COUNT(*) AS r FROM events "
        "GROUP BY bucket ORDER BY bucket"),
    # 'late' rows exist only in the last chunk: every other partition's
    # AVG / MIN input is all-NULL, in every group it has.
    "avg_over_all_null_partition": (
        "SELECT phase, AVG(CASE WHEN phase = 'late' THEN amount END) AS a, "
        "MIN(CASE WHEN phase = 'late' THEN city END) AS c, "
        "COUNT(*) AS n FROM events GROUP BY phase ORDER BY phase"),
    "aggregate_cte_joined_later": (
        "WITH t AS (SELECT bucket, SUM(amount) AS s FROM events "
        "GROUP BY bucket) SELECT e.ev_id, t.s FROM events e, t "
        "WHERE e.bucket = t.bucket AND e.ev_id < 20 ORDER BY e.ev_id"),
    "order_by_non_projected_aggregate": (
        "SELECT city FROM events GROUP BY city ORDER BY SUM(amount) DESC"),
    "distinct_over_aggregate": (
        "SELECT DISTINCT COUNT(*) > 0 AS any_rows FROM events GROUP BY city"),
    "aggregate_in_in_subquery": (
        "SELECT ev_id FROM events WHERE bucket IN (SELECT bucket FROM events "
        "GROUP BY bucket HAVING COUNT(*) > 310) AND ev_id < 40 "
        "ORDER BY ev_id"),
    # The InitPlan binds the subquery's value set before the Exchange, and
    # the workers probe it as a bound parameter.
    "uncorrelated_in_subquery": (
        "SELECT COUNT(*) AS n FROM events WHERE bucket IN "
        "(SELECT bucket FROM events WHERE score > 30)"),
}


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(NEW_SHAPES))
def test_newly_distributed_shapes_match_serial(name, workers, merge_env):
    serial, sharded = merge_env
    sql = NEW_SHAPES[name]
    cfg = EngineConfig(shard_workers=workers)
    assert "Exchange" in sharded.explain_plan(sql, cfg), name
    base = serial.execute_chunk(sql, EngineConfig(threads=1))
    before = sharded.shard_stats["scattered"]
    got = sharded.execute_chunk(sql, cfg)
    assert sharded.shard_stats["scattered"] == before + 1, name
    assert_chunks_match(base, got, f"{name}[workers={workers}]")


def test_shard_stats_count_every_execution_exactly_once(merge_env):
    """8 threads x 50 mixed prepared/ad-hoc executions, scattering and
    not: ``scattered + fallbacks`` moves by exactly 400 (the counters are
    bumped from scheduler threads, so the increment must be locked, and a
    prepared statement that does not scatter must still count)."""
    _, sharded = merge_env
    cfg = EngineConfig(shard_workers=2)
    scatter_sql = MERGE_QUERIES["global_aggregate"]
    serial_sql = REJECTED["distinct"]
    prepared = {sql: sharded.prepare(sql, cfg)
                for sql in (scatter_sql, serial_sql)}
    before = dict(sharded.shard_stats)
    errors: list[BaseException] = []

    def client(tid: int) -> None:
        try:
            for i in range(50):
                sql = scatter_sql if (tid + i) % 3 == 0 else serial_sql
                if i % 2:
                    prepared[sql].execute_chunk()
                else:
                    sharded.execute_chunk(sql, cfg)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads) and not errors, errors
    after = sharded.shard_stats
    expected_scatter = sum((t + i) % 3 == 0
                           for t in range(8) for i in range(50))
    assert after["scattered"] - before["scattered"] == expected_scatter
    assert after["fallbacks"] - before["fallbacks"] == 400 - expected_scatter
