"""Ops of the in-process workloads, untraced and traced.

The untraced callable is the user's entry point and nothing else
(``Database.execute`` / ``PytondFunction.run``).  The traced callable does the
same work as a sequence of public calls, one span each::

    op
     |- core.translate      PytondFunction.tondir("O0")   source -> raw TondIR
     |- core.tondir         PytondFunction.tondir("O4")   optimize(raw, "O4")
     |- core.codegen        PytondFunction.sql(...)       generate_sql
     |- sqlengine.database  Database.execute_chunk(stats=RuntimeStats())
     |   `- sqlengine.plan.<class>   one per executed operator (synthetic)
     `- sqlengine.database.to_frame  Chunk -> DataFrame

The first three exist only on ops that start from Python source.  What
``execute_chunk`` spends outside its operators (bind, plan-cache lookup and,
on a miss, parse + plan + verify) is its self time; ``layers.frontend``
measures how that splits.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.backends import get_backend
from repro.core.decorator import PytondFunction
from repro.sqlengine import RuntimeStats

from perfbench.harness import Op
from perfbench.spans import operator_spans

NATIVE = get_backend("native")


def config(threads: int):
    return NATIVE.config(threads=threads)


def span(tracer, name: str, layer: str, **attrs):
    return tracer.span(name, layer, **attrs) if tracer is not None else nullcontext()


def fresh(fn: PytondFunction) -> PytondFunction:
    """The same decorated function with no translation cached, as a user's
    first call sees it.  The one place the benchmark reads private state:
    the decorator keeps its arguments nowhere public."""
    return PytondFunction(
        fn.python, db=fn._db, tables=fn._tables, table_info=fn._table_info,
        layout=fn._layout, pivot_values=fn._pivot_values, opt_level=fn._opt_level)


def traced_execute(tracer, db, sql: str, cfg, params=None) -> dict:
    stats = RuntimeStats()
    with tracer.span("Database.execute_chunk", "sqlengine.database") as sp:
        chunk = db.execute_chunk(sql, cfg, params, stats=stats)
    counts = operator_spans(tracer, stats, sp)
    with tracer.span("Database._chunk_to_frame", "sqlengine.database.to_frame"):
        db._chunk_to_frame(chunk)
    counts["rows_out"] = chunk.nrows
    return counts


def sql_op(name: str, db, sql: str, threads: int) -> Op:
    """Execute SQL text that was generated before the timed phase."""
    cfg = config(threads)
    return Op(name,
              run=lambda: db.execute(sql, config=cfg),
              traced=lambda tracer: traced_execute(tracer, db, sql, cfg))


def source_op(name: str, fn: PytondFunction, db, threads: int,
              sql_sink: dict | None = None) -> Op:
    """Run a decorated function from its Python source, nothing reused."""

    def traced(tracer) -> dict:
        f = fresh(fn)
        with tracer.span("PytondFunction.tondir[O0]", "core.translate"):
            raw = f.tondir("O0", db)
        with tracer.span("PytondFunction.tondir[O4]", "core.tondir"):
            program = f.tondir("O4", db)
        with tracer.span("PytondFunction.sql", "core.codegen"):
            sql = f.sql(NATIVE, "O4", db)
        if sql_sink is not None:
            sql_sink[name] = sql
        counts = traced_execute(tracer, db, sql, config(threads))
        counts.update(rules_raw=len(raw.rules), rules_o4=len(program.rules),
                      sql_bytes=len(sql.encode("utf-8")))
        return counts

    return Op(name,
              run=lambda: fresh(fn).run(db, NATIVE, threads=threads, level="O4"),
              traced=traced)
