"""Layer probes of the traced run: each layer's public functions called on
their own, on the workload's own statements and columns.  Results are keyed
by the per-layer metric's full name (perfbench/spec.py).

Probes are spans too (``op`` is ``probe:<what>``), but they are extra calls
made after the traced passes, so they are not part of any pass's time.  Every
``*_ms`` value returned here is a sum over the statements given, i.e. per
pass of the workload.
"""

from __future__ import annotations

import io
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.server.wire import encode_frame, read_frame
from repro.sqlengine import parse
from repro.sqlengine.grouping import factorize
from repro.sqlengine.joins import semi_join_flags
from repro.storage import open_store

from perfbench.harness import median

PARSE_MS = "sqlengine.parser.parse_ms"
PLAN_MS = "sqlengine.planner.plan_ms"
VERIFY_MS = "analysis.plan_verifier.verify_ms"
CTES = "core.codegen.ctes"


def add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0.0) + value


def _timed(tracer, name: str, layer: str, op: str, fn) -> tuple[float, object]:
    with tracer.span(name, layer, op=op) as sp:
        result = fn()
    return (sp["end"] - sp["start"]) * 1000.0, result


def frontend(tracer, db, statements: dict[str, str], cfg, reps: int) -> dict:
    """parse / plan / verify cost of *statements*, by subtraction:
    ``parse(sql)``; ``explain_plan`` with the verifier off, minus parse;
    ``explain_plan`` with it on, minus off."""
    off, on = replace(cfg, verify_plans=False), replace(cfg, verify_plans=True)
    out = dict.fromkeys((PARSE_MS, PLAN_MS, VERIFY_MS, CTES), 0.0)
    out["probed_statements"] = float(len(statements))
    for name, sql in statements.items():
        op = "probe:" + name
        t_parse, t_off, t_on = [], [], []
        for _ in range(reps):
            ms, query = _timed(tracer, "parse", "sqlengine.parser", op,
                               lambda: parse(sql))
            t_parse.append(ms)
            t_off.append(_timed(tracer, "Database.explain_plan[verify=off]",
                                "sqlengine.planner", op,
                                lambda: db.explain_plan(sql, off))[0])
            t_on.append(_timed(tracer, "Database.explain_plan[verify=on]",
                               "analysis.plan_verifier", op,
                               lambda: db.explain_plan(sql, on))[0])
        out[PARSE_MS] += median(t_parse)
        out[PLAN_MS] += max(0.0, median(t_off) - median(t_parse))
        out[VERIFY_MS] += max(0.0, median(t_on) - median(t_off))
        out[CTES] += len(query.ctes)
    return out


def first_exec(tracer, db, statements: dict[str, str], cfg) -> dict:
    """First execution of each statement on a database that has planned
    nothing, minus the second execution of the same statement."""
    total = 0.0
    for name, sql in statements.items():
        op = "probe:" + name
        cold, _ = _timed(tracer, "Database.execute_chunk[first]",
                         "sqlengine.database", op,
                         lambda: db.execute_chunk(sql, cfg))
        warm, _ = _timed(tracer, "Database.execute_chunk[second]",
                         "sqlengine.database", op,
                         lambda: db.execute_chunk(sql, cfg))
        total += cold - warm
    return {"sqlengine.database.first_exec_overhead_ms": total}


def _rate(tracer, name: str, layer: str, rows: int, fn, reps: int = 3) -> float:
    times = [_timed(tracer, name, layer, "probe:kernel", fn)[0] for _ in range(reps)]
    return rows / (median(times) / 1000.0)


def kernels(tracer, dataset: dict) -> dict:
    """Grouping and semi-join kernels on the TPC-H columns the workload
    itself groups and joins on; the int variants are the no-change control
    for string-key work."""
    lineitem, orders = dataset["lineitem"], dataset["orders"]
    flag, okey = lineitem["l_returnflag"], lineitem["l_orderkey"]
    clerk, orderkey = orders["o_clerk"], orders["o_orderkey"]
    return {
        "sqlengine.grouping.factorize_str_rows_per_s": _rate(
            tracer, "factorize[l_returnflag]", "sqlengine.grouping", len(flag),
            lambda: factorize(flag)),
        "sqlengine.grouping.factorize_int_rows_per_s": _rate(
            tracer, "factorize[l_orderkey]", "sqlengine.grouping", len(okey),
            lambda: factorize(okey)),
        "sqlengine.joins.semi_join_str_rows_per_s": _rate(
            tracer, "semi_join_flags[o_clerk]", "sqlengine.joins", len(clerk),
            lambda: semi_join_flags([clerk], [clerk[::2]])),
        "sqlengine.joins.semi_join_int_rows_per_s": _rate(
            tracer, "semi_join_flags[l_orderkey]", "sqlengine.joins", len(okey),
            lambda: semi_join_flags([okey], [orderkey[::2]])),
    }


def wire(tracer, columns: list[str], rows: list[list]) -> dict:
    """Encode and decode one ``rows`` frame of a result of the mix."""
    msg = {"type": "rows", "id": 1, "columns": columns, "rows": rows}
    n = max(len(rows), 1)
    enc = [_timed(tracer, "encode_frame", "server.wire", "probe:wire",
                  lambda: encode_frame(msg)) for _ in range(5)]
    frame = enc[0][1]
    dec = [_timed(tracer, "read_frame", "server.wire", "probe:wire",
                  lambda: read_frame(io.BytesIO(frame)))[0] for _ in range(5)]
    return {"server.wire.encode_us_per_row": median([ms for ms, _ in enc]) * 1000.0 / n,
            "server.wire.decode_us_per_row": median(dec) * 1000.0 / n,
            "server.wire.bytes_per_row": len(frame) / n}


def _tree_bytes(root: Path) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def storage(tracer, root: Path, dataset: dict, scan_sql: str, scan_table: str) -> dict:
    """Space of the column store written at set-up, time to reopen it, and
    the share of chunk files a selective scan of the mix reads."""
    from repro.sqlengine import Database

    user_bytes = sum(
        arr.nbytes if arr.dtype != object else sum(len(str(v)) for v in arr)
        for table in dataset.values() for arr in map(np.asarray, table.values()))
    db = Database()
    open_ms, _ = _timed(tracer, "open_store+attach", "storage", "probe:storage",
                        lambda: open_store(root).attach(db))
    table = db.catalog.get(scan_table)
    db.execute(scan_sql)          # plan and sample first: count scan IO only
    table.reset_io_stats()
    with tracer.span("Database.execute[selective scan]", "storage", op="probe:storage"):
        db.execute(scan_sql)
    chunks_read = table.io_stats["chunks_read"]
    table.reset_io_stats()
    db.execute(scan_sql, config=replace(db.config, zone_map_pruning=False))
    chunks_all = max(table.io_stats["chunks_read"], 1)
    return {"storage.disk_bytes_per_user_byte": _tree_bytes(root) / max(user_bytes, 1),
            "storage.open_ms": open_ms,
            "storage.chunks_read_share": chunks_read / chunks_all}
