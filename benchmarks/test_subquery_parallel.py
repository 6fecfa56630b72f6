"""Subquery benchmark: planned subquery probes vs a per-row membership
loop.

The planner plans an uncorrelated ``IN (SELECT ...)`` / ``NOT IN (SELECT
...)`` as a value set an InitPlan binds and the scan's filter probes, and
a correlated ``EXISTS`` as a MarkJoin (EXPLAIN ``SemiJoin``); both probe
with the vectorized, morsel-parallel membership kernel.  The baseline is
the audited per-row
reference (``tests.helpers.semi_join_mask``: one Python set probe per row)
over the same key arrays — the membership loop alone, without scanning,
filtering or counting.  On 200k-row inputs each whole planned query must
be ≥5x faster than that loop; the query's count and the loop's are
asserted equal first.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import connect
from repro.sqlengine import EngineConfig
from repro.sqlengine.parallel import shutdown_pools
from tests.helpers import semi_join_mask

from conftest import save_series

N_ROWS = int(200_000 * float(os.environ.get("REPRO_DS_SCALE", "1") or 1)) or 50_000

IN_SQL = ("SELECT COUNT(*) AS n FROM events WHERE actor IN "
          "(SELECT actor FROM accounts WHERE flagged = 1)")
NOT_IN_SQL = ("SELECT COUNT(*) AS n FROM events WHERE actor NOT IN "
              "(SELECT actor FROM accounts WHERE flagged = 1)")
EXISTS_SQL = ("SELECT COUNT(*) AS n FROM events AS e WHERE EXISTS "
              "(SELECT 1 FROM accounts AS a WHERE a.actor = e.actor "
              "AND a.flagged = 1)")
STR_IN_SQL = ("SELECT COUNT(*) AS n FROM events WHERE actor_name IN "
              "(SELECT actor_name FROM accounts WHERE flagged = 1)")


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _make_db(n: int):
    """Integer surrogate keys (the dense-presence-bitmap fast path) plus a
    string-keyed mirror (the C-looped set-containment path) — the per-row
    loop walks Python rows either way.  Also returns the probe and build
    key arrays of the integer and the string IN."""
    rng = np.random.default_rng(31)
    n_accounts = max(n // 5, 1000)
    names = np.array([f"acct-{i:07d}" for i in range(n_accounts)],
                     dtype=object)
    actor_of_event = rng.integers(0, n_accounts, n)
    db = connect()
    db.register("events", {
        "id": np.arange(n, dtype=np.int64),
        "actor": actor_of_event,
        "actor_name": names[actor_of_event],
        "amt": np.round(rng.uniform(0.0, 100.0, n), 2),
    }, primary_key="id")
    flagged = (rng.random(n_accounts) < 0.4).astype(np.int64)
    db.register("accounts", {
        "actor": np.arange(n_accounts, dtype=np.int64),
        "actor_name": names,
        "flagged": flagged,
    })
    keys = {"int": (actor_of_event, np.flatnonzero(flagged == 1)),
            "str": (names[actor_of_event], names[flagged == 1])}
    return db, keys


def _best_ms(run, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def test_planned_semi_join_beats_per_row_loop(benchmark):
    n = max(N_ROWS, 50_000)
    db, keys = _make_db(n)

    planned1_cfg = EngineConfig(threads=1)
    planned4_cfg = EngineConfig(threads=4)

    def loop(kind):
        probe, build = keys[kind]
        return lambda: semi_join_mask([probe], [build])

    # The planned shapes must be visible and count what the loop does.
    matched = int(loop("int")().sum())
    for sql, node, kind, want in (
            (IN_SQL, "InitPlan $0 = IN", "int", matched),
            (NOT_IN_SQL, "InitPlan $0 = IN", "int", n - matched),
            (EXISTS_SQL, "SemiJoin", "int", matched),
            (STR_IN_SQL, "InitPlan $0 = IN", "str",
             int(loop("str")().sum()))):
        assert node in db.explain_plan(sql), sql
        for cfg in (planned1_cfg, planned4_cfg):
            assert db.execute_chunk(sql, cfg).arrays[0][0] == want, sql

    def query(sql, cfg):
        return lambda: db.execute_chunk(sql, cfg)

    benchmark.pedantic(query(IN_SQL, planned4_cfg), rounds=1, iterations=1)
    loop_ms = _best_ms(loop("int"))
    str_loop_ms = _best_ms(loop("str"))
    planned1_ms = _best_ms(query(IN_SQL, planned1_cfg))
    planned4_ms = _best_ms(query(IN_SQL, planned4_cfg))
    anti_planned_ms = _best_ms(query(NOT_IN_SQL, planned4_cfg))
    exists_planned_ms = _best_ms(query(EXISTS_SQL, planned4_cfg))
    str_planned_ms = _best_ms(query(STR_IN_SQL, planned4_cfg))
    cores = _available_cores()
    save_series(
        "subquery_parallel",
        f"IN-subquery over {n} events x {max(n // 5, 1000)} accounts, "
        f"cores={cores}\n"
        f"per-row membership loop (int keys)  {loop_ms:8.2f} ms\n"
        f"per-row membership loop (str keys)  {str_loop_ms:8.2f} ms\n"
        f"IN value set (threads=1)            {planned1_ms:8.2f} ms\n"
        f"IN value set (threads=4)            {planned4_ms:8.2f} ms\n"
        f"NOT IN value set (threads=4)        {anti_planned_ms:8.2f} ms\n"
        f"EXISTS SemiJoin (threads=4)         {exists_planned_ms:8.2f} ms\n"
        f"string-key IN value set (threads=4) {str_planned_ms:8.2f} ms\n"
        f"IN planned vs loop (serial)       {loop_ms / planned1_ms:8.2f}x\n"
        f"NOT IN planned vs loop            {loop_ms / anti_planned_ms:8.2f}x\n"
        f"string-key planned vs loop        {str_loop_ms / str_planned_ms:8.2f}x",
    )
    # Acceptance: each whole planned query is >= 5x the membership loop
    # alone, even serially (the win is vectorization; threads only add on
    # top).
    assert planned1_ms * 5 <= loop_ms, (
        f"planned IN ({planned1_ms:.2f} ms) not >=5x faster than the "
        f"per-row loop ({loop_ms:.2f} ms)"
    )
    assert anti_planned_ms * 5 <= loop_ms, (
        f"planned NOT IN ({anti_planned_ms:.2f} ms) not >=5x faster than "
        f"the per-row loop ({loop_ms:.2f} ms)"
    )
    assert exists_planned_ms * 5 <= loop_ms, (
        f"planned EXISTS SemiJoin ({exists_planned_ms:.2f} ms) not >=5x "
        f"faster than the per-row loop ({loop_ms:.2f} ms)"
    )
    # String keys can't use the presence bitmap; the C-looped containment
    # still clears a conservative bound over the per-row Python loop.
    assert str_planned_ms * 3 <= str_loop_ms, (
        f"string-key IN ({str_planned_ms:.2f} ms) not >=3x faster "
        f"than the per-row loop ({str_loop_ms:.2f} ms)"
    )
    if cores >= 4:
        assert planned4_ms <= planned1_ms * 1.5, (
            f"threads=4 ({planned4_ms:.2f} ms) pathologically slower than "
            f"serial ({planned1_ms:.2f} ms)"
        )
    shutdown_pools()
