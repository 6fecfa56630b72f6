"""What one run measures: the untraced run (every end-to-end metric) and the
traced run (every per-layer metric and trace.json)."""

from __future__ import annotations

import math
import time
from pathlib import Path

from perfbench import harness as h
from perfbench import spec
from perfbench.spans import OPERATOR_CLASSES, Tracer, rollup

PARALLEL_WARM_UP_S = 2.5


def warm_up(w, smoke: bool) -> None:
    """Untimed passes of each kind: plans, thread pools and shard workers
    exist, and what a process pays once only (lazy imports, the source lines
    `inspect` reads, regex caches) is paid, so that a cold pass measures a
    database and a function with nothing cached, not a new interpreter.
    Parallel passes get PARALLEL_WARM_UP_S: their throughput keeps climbing
    for the first seconds the worker threads run (hybrid: 17.6, 18.0, 18.9,
    20.0, 21.9, 21.9 ops/s over six passes, flat afterwards)."""
    if not smoke:
        w.run_pass(False)
        w.run_cold_pass()
        deadline = time.perf_counter() + PARALLEL_WARM_UP_S
        while time.perf_counter() < deadline:
            w.run_pass(True)
    h.quiesce()


def untraced(w, seconds: float, smoke: bool) -> dict:
    """The untraced run: every end-to-end metric."""
    host = h.HostSpeed()
    setup_times = h.timed_setup(w, smoke, host)
    w.prepare()
    warm_up(w, smoke)
    serial, parallel, cold = [], [], []
    fewest = (1, 1, 1) if smoke else (5, 3, 3)
    h.interleave({
        "serial": (lambda: serial.append(host.around(lambda: w.run_pass(False))),
                   seconds * h.PHASE_SHARE["serial"], fewest[0]),
        "parallel": (lambda: parallel.append(host.around(lambda: w.run_pass(True))),
                     seconds * h.PHASE_SHARE["parallel"], fewest[1]),
        "cold": (lambda: cold.append(host.around(w.run_cold_pass)),
                 seconds * h.PHASE_SHARE["cold"], fewest[2]),
    })
    rss = h.peak_rss_mb()                   # before the references run
    verdict = w.verify()

    failures = h.Failures()
    for passes in (serial, parallel, cold):
        failures.add_passes(passes, verdict.wrong)
    metrics = {"setup_s": h.stat(setup_times, "s")}
    metrics.update(h.serial_metrics(serial))
    metrics["ops_per_s_par"] = h.stat(h.throughput(parallel), "op/s")
    metrics["cold_ms_geomean"] = h.cold_metric(cold)
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB", "iqr": 0.0, "n": 1}
    return {"metrics": metrics, "host_speed": h.stat(host.samples, "ratio"),
            "failures": failures, "verdict": verdict,
            "passes": {"serial": len(serial), "parallel": len(parallel),
                       "cold": len(cold), "setup": len(setup_times)},
            "queries": h.per_op_medians(serial)}


def traced(w, seconds: float, smoke: bool, trace_path: Path, meta: dict) -> dict:
    """The traced run: every per-layer metric, and trace.json."""
    tracer = Tracer()
    mark = tracer.mark()
    w.setup(tracer)
    setup_ms = rollup(tracer.spans[mark:])
    w.prepare()
    warm_up(w, smoke)

    plain, spanned, parallel, cold = [], [], [], []   # plain: untraced serial passes
    serial_rolls, cold_rolls = [], []

    def serial_pair() -> None:
        # Untraced then traced, back to back, so both see the same machine.
        plain.append(w.run_pass(False))
        mark = tracer.mark()
        spanned.append(w.run_pass(False, tracer))
        serial_rolls.append(rollup(tracer.spans[mark:]))

    def cold_pass() -> None:
        mark = tracer.mark()
        cold.append(w.run_cold_pass(tracer))
        cold_rolls.append(rollup(tracer.spans[mark:]))

    host = h.HostSpeed()
    fewest = (1, 1, 1) if smoke else (3, 2, 2)
    h.interleave({
        "serial": (lambda: host.around(serial_pair),
                   seconds * h.TRACE_SHARE["serial"], fewest[0]),
        "parallel": (lambda: parallel.append(host.around(lambda: w.run_pass(True))),
                     seconds * h.TRACE_SHARE["parallel"], fewest[1]),
        "cold": (lambda: host.around(cold_pass),
                 seconds * h.TRACE_SHARE["cold"], fewest[2]),
    })
    probe = w.probes(tracer)
    verdict = w.verify()

    failures = h.Failures()
    for passes in (plain, spanned, parallel, cold):
        failures.add_passes(passes, verdict.wrong)

    def layer_ms(layer: str, rolls=serial_rolls) -> float:
        """Median over passes of the layer's self time in one pass."""
        return h.median([r.get(layer, 0.0) for r in rolls])

    def source_ms(layer: str) -> float:
        """core.* layers run in compile's warm passes, elsewhere in the cold ones."""
        return layer_ms(layer) or layer_ms(layer, cold_rolls)

    def per_pass_sum(key: str) -> float:
        for passes in (spanned, cold):
            sums = [sum(c.get(key, 0) for c in p.counts) for p in passes]
            if any(sums):
                return h.median(sums)
        return 0.0

    m = dict.fromkeys((name for name, *_ in spec.PER_LAYER), 0.0)
    m.update({k: v for k, v in probe.items() if k in m})
    for metric, layer in (("workloads.datagen_s", "workloads.datagen"),
                          ("sqlengine.database.register_s", "sqlengine.database.register"),
                          ("storage.write_s", "storage"),
                          ("server.shard.startup_s", "server.shard")):
        m[metric] = setup_ms.get(layer, 0.0) / 1000.0
    m["core.translate.ms"] = source_ms("core.translate")
    m["core.tondir.optimize_ms"] = source_ms("core.tondir")
    m["core.codegen.sqlgen_ms"] = source_ms("core.codegen")
    raw, after = per_pass_sum("rules_raw"), per_pass_sum("rules_o4")
    m["core.translate.rules"] = raw
    m["core.tondir.rules_after_O4"] = after
    m["core.tondir.rules_removed_share"] = 1.0 - after / raw if raw else 0.0
    m["core.codegen.sql_bytes"] = per_pass_sum("sql_bytes")

    # Operator self times: from the passes, except on serve, where the engine
    # runs behind the wire and an in-process replay of one pass stands in.
    engine = probe.get("operator_probe")
    for cls in OPERATOR_CLASSES:
        layer = "sqlengine.plan." + cls
        m[layer + "_self_ms"] = engine.get(layer, 0.0) if engine else layer_ms(layer)
        m["sqlengine.plan.execute_ms"] += m[layer + "_self_ms"]
    for metric, layer in (("sqlengine.database.self_ms", "sqlengine.database"),
                          ("sqlengine.database.to_frame_ms", "sqlengine.database.to_frame")):
        m[metric] = engine.get(layer, 0.0) if engine else layer_ms(layer)
    counts = [c for p in spanned for c in p.counts]
    ratios = [r for c in counts for r in c.get("est_ratios", ())]
    m["sqlengine.planner.est_error_geomean"] = h.geomean(ratios) if ratios else 0.0
    rows_out = sum(max(c.get("rows_out", 0), 1) for c in counts if "rows_scanned" in c)
    m["sqlengine.plan.rows_examined_per_result_row"] = \
        sum(c.get("rows_scanned", 0) for c in counts) / rows_out if rows_out else 0.0
    m["sqlengine.plan.replans"] = per_pass_sum("replans")
    hits = sum(p.cache[0] for p in spanned)
    misses = sum(p.cache[1] for p in spanned)
    m["sqlengine.database.plan_cache_hit_share"] = \
        hits / (hits + misses) if hits + misses else 0.0

    base = h.median(h.throughput(plain))
    m["sqlengine.parallel.speedup"] = h.median(h.throughput(parallel)) / base
    # Pass by pass against its untraced neighbour, so drift of the machine
    # over the phase cancels.
    m["trace.overhead_share"] = h.median(
        [1.0 - t / u for t, u in zip(h.throughput(spanned), h.throughput(plain))])
    engine_ms = h.per_op_medians(plain)
    if verdict.python_ms:
        m["dataframe.python_ms_geomean"] = h.geomean(verdict.python_ms.values())
        m["dataframe.speedup_geomean"] = h.geomean(
            [ms / engine_ms[name] for name, ms in verdict.python_ms.items()
             if name in engine_ms])

    m["server.wire.self_ms"] = layer_ms("server.wire")
    m["server.scheduler.ticket_ms"] = layer_ms("server.scheduler")
    lags = [c["lag_ms"] for c in counts if "lag_ms" in c]
    if lags:
        m["bench.generator_lag_ms_p95"] = h.percentile(lags, 95)
        m["server.wire.overhead_ms_p50"] = w.wire_overhead_ms_p50(counts)

    # Accounting: self times of every layer against the traced pass.
    pass_ms = [p.wall_s * 1000.0 * w.concurrency for p in spanned]
    attributed = [sum(v for layer, v in r.items() if layer != "op") for r in serial_rolls]
    m["trace.pass_ms"] = h.median(pass_ms)
    m["trace.unattributed_ms"] = h.median(
        [max(0.0, p - a) for p, a in zip(pass_ms, attributed)])
    # Front-end time inside a pass: the source ops' own spans, plus parse +
    # plan + verify (probed) for the share of probed statements that missed
    # the plan cache in a pass.
    core = sum(layer_ms(layer) for layer in ("core.translate", "core.tondir", "core.codegen"))
    missed = min(1.0, misses / len(spanned) / max(probe.get("probed_statements", 0), 1))
    replanned = missed * sum(
        m[k] for k in ("sqlengine.parser.parse_ms", "sqlengine.planner.plan_ms",
                       "analysis.plan_verifier.verify_ms"))
    m["trace.frontend_share"] = \
        (core + min(replanned, m["sqlengine.database.self_ms"])) / m["trace.pass_ms"]
    m["trace.spans"] = float(len(tracer.spans))
    m["bench.host_speed"] = h.median(host.samples)
    m["bench.known_failures"] = float(sum(1 for v in verdict.known.values() if v))

    tracer.write(trace_path, meta)
    metrics = {name: {"value": 0.0 if math.isnan(v) else float(v),
                      "unit": spec.UNITS[name], "iqr": 0.0, "n": len(spanned)}
               for name, v in m.items()}
    return {"metrics": metrics, "failures": failures, "verdict": verdict,
            "passes": {"serial_traced": len(spanned), "serial_untraced": len(plain),
                       "parallel": len(parallel), "cold_traced": len(cold)},
            "host_speed": h.stat(host.samples, "ratio"),
            "queries": engine_ms, "trace_file": trace_path.name}
