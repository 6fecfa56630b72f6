"""Network serving gate: socket load at shard workers {1, 2} + identity.

The CI contract for the serving tier, in one artifact
(``benchmarks/results/serving_net.json``, validated by
``tools/check_bench_results.py``):

* **throughput/tail** — the wire protocol sustains ≥25 QPS with p99 ≤
  1500 ms over real TCP sockets on a single-core runner, with zero query
  errors and zero timeouts, both serial (workers=1 still scatters — one
  partition) and sharded (workers=2);
* **identity** — a fixed verification suite (aggregate, Top-K, lookup,
  join) executed over the wire at every worker count returns rows
  identical to in-process serial execution, so the whole stack —
  scatter/gather, JSON framing, cell conversion — preserves answers.

The gates here are deliberately the same constants the standalone result
checker enforces, so a regenerated JSON cannot pass one and fail the
other.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.backends.rows import chunk_rows, normalize_rows, rows_equal
from repro.server import NetClient, NetServer, make_sharded_tpch_db
from repro.sqlengine import EngineConfig

from conftest import RESULTS_DIR

SF = float(os.environ.get("REPRO_TPCH_SF", "0.005"))
SECONDS = 2.0
CLIENTS = 6
WORKER_COUNTS = [1, 2]

MIN_QPS = 25.0       # keep in sync with tools/check_bench_results.py
MAX_P99_MS = 1500.0

VERIFY_QUERIES = [
    ("lineitem_agg",
     "SELECT l_returnflag, COUNT(*) AS cnt, SUM(l_extendedprice) AS rev "
     "FROM lineitem WHERE l_quantity < 30 "
     "GROUP BY l_returnflag ORDER BY l_returnflag"),
    ("lineitem_topk",
     "SELECT l_orderkey, l_extendedprice FROM lineitem "
     "ORDER BY l_extendedprice DESC, l_orderkey LIMIT 25"),
    ("order_lookup",
     "SELECT o_orderkey, o_totalprice, o_orderstatus FROM orders "
     "WHERE o_orderkey = 7"),
    ("customer_join",
     "SELECT c.c_name, o.o_totalprice FROM customer c, orders o "
     "WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 100000.0 "
     "ORDER BY o.o_totalprice DESC LIMIT 10"),
]


def _wire_answers(db, workers: int) -> dict:
    """The verification suite's answers as served over a real socket."""
    answers = {}
    with NetServer(db, default_timeout=60.0) as server:
        with NetClient(server.host, server.port, timeout=60.0) as nc:
            for name, sql in VERIFY_QUERIES:
                answers[name] = normalize_rows(nc.execute(sql).rows)
            metrics = nc.metrics()
    if workers > 0:
        assert metrics["shard"]["scattered"] > 0, (
            "verification queries never scattered — the gate would be "
            "testing the serial path twice")
    return answers


def test_serving_net_gate(benchmark):
    from repro.server import run_net_load

    serial_answers = None
    runs = []
    identical = True
    for workers in WORKER_COUNTS:
        config = EngineConfig(threads=1, shard_workers=workers)
        db = make_sharded_tpch_db(scale_factor=SF, config=config,
                                  workers=workers)
        try:
            if serial_answers is None:
                # In-process, serial, single-threaded: the ground truth.
                serial_answers = {
                    name: normalize_rows(chunk_rows(
                        db.execute_chunk(sql, EngineConfig(threads=1))))
                    for name, sql in VERIFY_QUERIES
                }
            wire = _wire_answers(db, workers)
            for name, _sql in VERIFY_QUERIES:
                if not rows_equal(wire[name], serial_answers[name]):
                    identical = False
                    pytest.fail(f"workers={workers}: wire answer for {name} "
                                f"diverges from serial")
            runner = lambda: run_net_load(db, clients=CLIENTS,  # noqa: E731
                                          duration=SECONDS, seed=workers)
            if workers == WORKER_COUNTS[-1]:
                # The sharded run is the timed figure of record.
                report = benchmark.pedantic(runner, rounds=1, iterations=1)
            else:
                report = runner()
            runs.append({
                "shard_workers": workers,
                "queries": report.queries,
                "errors": report.errors,
                "rejected": report.rejected,
                "timeouts": report.timeouts,
                "qps": round(report.qps, 1),
                "p50_ms": round(report.p50_ms, 2),
                "p99_ms": round(report.p99_ms, 2),
                "scattered": (report.net_metrics or {}).get(
                    "shard", {}).get("scattered", 0),
            })
        finally:
            db.close_pools()

    payload = {
        "workload": {"kind": "serve-net", "sf": SF, "clients": CLIENTS,
                     "seconds": SECONDS, "threads": 1,
                     "verify_queries": [n for n, _ in VERIFY_QUERIES]},
        "runs": runs,
        "identical_results": identical,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "serving_net.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("\n" + json.dumps(payload, indent=2, sort_keys=True))

    for run in runs:
        label = f"workers={run['shard_workers']}"
        assert run["errors"] == 0, f"{label}: {run['errors']} errors"
        assert run["timeouts"] == 0, f"{label}: {run['timeouts']} timeouts"
        assert run["queries"] > 0, f"{label}: no queries completed"
        assert run["qps"] >= MIN_QPS, (
            f"{label}: {run['qps']} QPS below the {MIN_QPS} floor")
        assert run["p99_ms"] <= MAX_P99_MS, (
            f"{label}: p99 {run['p99_ms']} ms above {MAX_P99_MS} ms")
    sharded = [r for r in runs if r["shard_workers"] > 1]
    assert any(r["scattered"] > 0 for r in sharded), (
        "the sharded load run never scattered a query")

    # The report just written must satisfy the standalone checker too.
    import subprocess
    import sys

    repo = RESULTS_DIR.parent.parent
    proc = subprocess.run(
        [sys.executable, str(repo / "tools" / "check_bench_results.py"),
         str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
