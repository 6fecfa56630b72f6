"""Storage benchmark: ingest / reload / prune / spill report.

``python -m repro.bench storage`` exercises the persistent column store
end to end on the TPC-H dataset:

1. **ingest** — generate TPC-H at ``--sf`` and write every table into a
   column store (lineitem clustered on ``l_shipdate``, orders on
   ``o_orderdate`` so zone maps are selective);
2. **reload** — reopen the store from its manifest alone and attach it to
   a fresh database (the restart-without-reload path);
3. **prune** — run a selective shipdate range scan with zone-map pruning
   on and off, reporting chunk files actually read and the reduction
   factor;
4. **scan** — warm, prepared latency of every ``tpch_mix`` serving
   template on the stored tables over the same template on RAM-resident
   copies (CI fails the ``storage`` job when a ratio exceeds 2.0);
5. **spill** — run TPC-H Q1 under ``--budget`` and verify the grace-
   partitioned result matches the in-memory rows, reporting spill events.

``--report`` writes the numbers as JSON (the CI artifact).
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from ..backends.rows import chunk_rows as _rows_of
from ..backends.rows import normalize_rows, rows_equal
from ..sqlengine import Database, EngineConfig
from ..storage import ColumnStore, open_store
from ..workloads.tpch import PRIMARY_KEYS, QUERIES, generate, register_tpch
from ..workloads.tpch.schema import TABLE_ORDER

__all__ = ["store_tpch", "storage_report", "TPCH_SORT_KEYS"]

# Ingest-time clustering: zone maps only prune when values correlate with
# row position, and the paper's selective TPC-H predicates are date ranges.
TPCH_SORT_KEYS = {"lineitem": "l_shipdate", "orders": "o_orderdate"}

_PRUNE_SQL = ("SELECT COUNT(*) AS n, SUM(l_quantity) AS qty FROM lineitem "
              "WHERE l_shipdate BETWEEN DATE '1994-01-01' "
              "AND DATE '1994-03-31'")


def store_tpch(store: ColumnStore, dataset: dict,
               chunk_rows: int = 4096) -> None:
    """Write a generated TPC-H dataset into *store*, clustered for pruning."""
    for name in TABLE_ORDER:
        store.write_table(
            name, dataset[name],
            primary_key=PRIMARY_KEYS[name],
            chunk_rows=chunk_rows,
            sort_by=TPCH_SORT_KEYS.get(name),
        )


def _measure_scan(db: Database, table, sql: str,
                  config: EngineConfig | None) -> dict:
    # Warm the plan cache and the planner's sampling probe first, so the
    # measured pass counts pure scan IO.
    db.execute(sql, config=config)
    table.reset_io_stats()
    t0 = time.perf_counter()
    db.execute(sql, config=config)
    elapsed = (time.perf_counter() - t0) * 1e3
    stats = dict(table.io_stats)
    stats["ms"] = round(elapsed, 3)
    return stats


def _scan_ratios(stored: Database, resident: Database, runs: int = 30) -> dict:
    """Per ``tpch_mix`` template: median warm prepared latency on *stored*
    and on *resident* (same parameter draws for both) and their ratio."""
    from ..server.loadgen import tpch_mix

    rng = np.random.default_rng(7)
    out = {}
    for template in tpch_mix():
        draws = [template.make_params(rng) for _ in range(runs)]
        ms = {}
        for label, db in (("stored", stored), ("memory", resident)):
            statement = db.prepare(template.sql)
            for params in draws[:3]:
                statement.execute_chunk(params)
            times = []
            for params in draws:
                t0 = time.perf_counter()
                statement.execute_chunk(params)
                times.append((time.perf_counter() - t0) * 1e3)
            ms[label] = statistics.median(times)
        out[template.name] = {
            "stored_ms": round(ms["stored"], 4),
            "memory_ms": round(ms["memory"], 4),
            "ratio": round(ms["stored"] / ms["memory"], 3)}
    return out


def storage_report(sf: float = 0.005, chunk_rows: int = 4096,
                   budget: int = 65536, root: str | None = None,
                   report_path: str | None = None) -> str:
    report: dict = {"sf": sf, "chunk_rows": chunk_rows, "budget": budget}
    lines = [f"Storage report: TPC-H SF={sf}, chunk_rows={chunk_rows}, "
             f"budget={budget} bytes"]

    root = root or tempfile.mkdtemp(prefix="repro-store-")
    dataset = generate(scale_factor=sf, seed=42)

    t0 = time.perf_counter()
    store = ColumnStore(root)
    store_tpch(store, dataset, chunk_rows=chunk_rows)
    ingest_ms = (time.perf_counter() - t0) * 1e3
    nrows = sum(len(next(iter(t.values()))) for t in dataset.values())
    report["ingest"] = {"ms": round(ingest_ms, 1), "rows": nrows,
                        "tables": len(TABLE_ORDER)}
    lines.append(f"ingest:  {nrows} rows / {len(TABLE_ORDER)} tables "
                 f"in {ingest_ms:.1f} ms -> {root}")

    t0 = time.perf_counter()
    db = Database()
    reopened = open_store(root)
    reopened.attach(db)
    reload_ms = (time.perf_counter() - t0) * 1e3
    report["reload"] = {"ms": round(reload_ms, 3),
                        "catalog_version": reopened.catalog_version}
    lines.append(f"reload:  manifest-only reopen + attach in {reload_ms:.2f} ms "
                 f"(catalog_version={reopened.catalog_version})")

    lineitem = db.catalog.get("lineitem")
    pruned = _measure_scan(db, lineitem, _PRUNE_SQL, None)
    unpruned = _measure_scan(db, lineitem, _PRUNE_SQL,
                             EngineConfig(zone_map_pruning=False))
    factor = (unpruned["chunks_read"] / pruned["chunks_read"]
              if pruned["chunks_read"] else float("inf"))
    report["prune"] = {"pruned": pruned, "unpruned": unpruned,
                       "scan_reduction": round(factor, 2)}
    lines.append(f"prune:   shipdate range scan reads "
                 f"{pruned['chunks_read']}/{unpruned['chunks_read']} chunks "
                 f"({factor:.1f}x scan reduction), "
                 f"{pruned['ms']:.2f} ms vs {unpruned['ms']:.2f} ms")

    resident = Database()
    register_tpch(resident, dataset)
    report["scan"] = _scan_ratios(db, resident)
    for name, row in report["scan"].items():
        lines.append(f"scan:    {name:<16} stored {row['stored_ms']:.3f} ms / "
                     f"in-memory {row['memory_ms']:.3f} ms = {row['ratio']:.2f}x")

    q1 = QUERIES[1].sql("duckdb", level="O4", db=db)
    base = normalize_rows(_rows_of(db.execute_chunk(q1)))
    spill_cfg = EngineConfig(memory_budget=budget)
    spilled = normalize_rows(_rows_of(db.execute_chunk(q1, spill_cfg)))
    ok, why = rows_equal(base, spilled)
    trace = db.explain(q1, config=spill_cfg)
    events = [ln.strip() for ln in trace.splitlines() if "spill:" in ln]
    report["spill"] = {"query": "tpch_q1", "matches_in_memory": ok,
                       "events": events}
    lines.append(f"spill:   Q1 under budget: "
                 f"{'rows match in-memory' if ok else 'MISMATCH: ' + why}, "
                 f"{len(events)} spill event(s)")
    lines.extend(f"         {e}" for e in events)

    if report_path:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        lines.append(f"report:  {report_path}")
    return "\n".join(lines)
