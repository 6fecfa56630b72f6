"""Unique-build join gate: a join whose build keys are all distinct probes a
direct-address table, one gather per probe row, so it must beat the same
join over a build side with one duplicated key — which needs the counting
index (sort, group starts, repeat, range gather) — by ``MIN_RATIO``.

The gate is a ratio of two timings on one host, not an absolute time.
Before the direct index both joins took the counting path and ran at the
same speed.
"""

from __future__ import annotations

import time

import numpy as np

from repro import connect
from repro.sqlengine import EngineConfig

from conftest import save_series

N_PROBE = 300_000
N_BUILD = 10_000
MIN_RATIO = 2.0


def test_distinct_build_keys_beat_a_duplicated_key(benchmark):
    rng = np.random.default_rng(5)
    build = rng.permutation(N_BUILD)
    duplicated = build.copy()
    duplicated[1] = duplicated[0]
    db = connect()
    db.register("f", {"k": rng.integers(0, N_BUILD, N_PROBE)})
    db.register("u", {"k": build})
    db.register("d", {"k": duplicated})
    config = EngineConfig(threads=1)
    unique_sql = "SELECT COUNT(*) AS n FROM f, u WHERE f.k = u.k"
    dup_sql = "SELECT COUNT(*) AS n FROM f, d WHERE f.k = d.k"
    assert "direct index" in db.explain(unique_sql, config)
    assert "counting index" in db.explain(dup_sql, config)

    benchmark.pedantic(lambda: db.execute_chunk(unique_sql, config),
                       rounds=1, iterations=1)
    # Alternate the two so a slow spell of the host hits both.
    best = {unique_sql: float("inf"), dup_sql: float("inf")}
    for _ in range(7):
        for sql in best:
            start = time.perf_counter()
            db.execute_chunk(sql, config)
            best[sql] = min(best[sql], time.perf_counter() - start)
    unique_ms, dup_ms = best[unique_sql] * 1e3, best[dup_sql] * 1e3
    ratio = dup_ms / unique_ms
    save_series(
        "join_unique_build",
        f"{N_PROBE} probe rows onto {N_BUILD} build rows, threads=1\n"
        f"distinct build keys      {unique_ms:8.2f} ms\n"
        f"one key duplicated       {dup_ms:8.2f} ms\n"
        f"ratio                    {ratio:8.2f}x (gate >= {MIN_RATIO}x)",
    )
    assert ratio >= MIN_RATIO, (
        f"the distinct-key join ({unique_ms:.2f} ms) is only {ratio:.2f}x "
        f"faster than the duplicated-key one ({dup_ms:.2f} ms)")
