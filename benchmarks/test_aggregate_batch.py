"""Aggregate-batch gate: a global SELECT of 64 ``SUM(ci * cj)`` items runs
as one matrix product, so it must beat the same 64 items run one query
per item by at least ``MIN_RATIO``.

The gate is a ratio of two timings on one host, not an absolute time.
Before the batch, every item paid its own product, NULL mask, count and
reduction, so the 64-item query cost about what 64 one-item queries did.
"""

from __future__ import annotations

import time

import numpy as np

from repro import connect
from repro.sqlengine import EngineConfig

from conftest import save_series

N_ROWS = 100_000
COLS = [f"c{i}" for i in range(8)]
PAIRS = [(a, b) for a in COLS for b in COLS]
MIN_RATIO = 5.0
RTOL = 1e-9


def _best_ms(run, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def test_sum_of_products_batch_beats_one_query_per_item(benchmark):
    rng = np.random.default_rng(9)
    db = connect()
    db.register("m", {c: rng.normal(size=N_ROWS) for c in COLS})
    config = EngineConfig(threads=1)
    batch_sql = "SELECT " + ", ".join(
        f"SUM({a} * {b}) AS s_{a}_{b}" for a, b in PAIRS) + " FROM m"
    item_sqls = [f"SELECT SUM({a} * {b}) AS s FROM m" for a, b in PAIRS]

    batch = db.execute_chunk(batch_sql, config)
    items = [db.execute_chunk(sql, config).arrays[0][0] for sql in item_sqls]
    np.testing.assert_allclose([a[0] for a in batch.arrays], items, rtol=RTOL)

    benchmark.pedantic(lambda: db.execute_chunk(batch_sql, config),
                       rounds=1, iterations=1)
    batch_ms = _best_ms(lambda: db.execute_chunk(batch_sql, config))
    items_ms = _best_ms(lambda: [db.execute_chunk(sql, config)
                                 for sql in item_sqls])
    ratio = items_ms / batch_ms
    save_series(
        "aggregate_batch",
        f"64 x SUM(ci * cj) over {N_ROWS} rows, threads=1\n"
        f"one query, 64 items   {batch_ms:8.2f} ms\n"
        f"64 queries, 1 item    {items_ms:8.2f} ms\n"
        f"ratio                 {ratio:8.2f}x (gate >= {MIN_RATIO}x)",
    )
    assert ratio >= MIN_RATIO, (
        f"the 64-item batch ({batch_ms:.2f} ms) is only {ratio:.2f}x faster "
        f"than one query per item ({items_ms:.2f} ms)")
    assert "64 aggregates, 64 via matmul" in db.explain(batch_sql, config)
