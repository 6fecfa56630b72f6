"""The three in-process workloads: ``tpch``, ``hybrid`` and ``compile``.

Why these (perfbench/README.md has the long form):

* ``tpch``    warm passes spend their time in sqlengine operators and kernels
              (string-key factorize, hash/semi joins, aggregation); front-end
              changes must not show here.
* ``hybrid``  the translator and TondIR optimizer decide the *shape* of the
              SQL (pivots, cols^2 self-joins, wide projections) on numeric
              keys; string-key work should move nothing here.
* ``compile`` every op pays translate / optimize / sqlgen / parse / plan /
              verify and almost no kernel time: the mirror image of ``tpch``.
              Kernel and parallelism work predicts no change.

Only seeded, generated inputs reach the program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.backends import get_backend
from repro.backends.rows import chunk_rows, normalize_rows, rows_equal
from repro.bench import sqlfuzz
from repro.bench.validate import compare_results
from repro.dataframe import DataFrame
from repro.sqlengine import connect
from repro.workloads import WORKLOADS
from repro.workloads import covariance as cov
from repro.workloads.tpch import QUERIES, QUERY_TABLES, generate, register_tpch

from perfbench import layers
from perfbench.harness import Op, PassResult, run_ops
from perfbench.sqlops import config, source_op, span, sql_op

# Sizes.  Full sizes are set so that one run fits the driver's time cap with
# set-up repeated and every result verified.
TPCH_SF = 0.05
# Queries kept out of the timed mix because they fail at TPCH_SF, and why; a
# workload must not contain a failing op.  verify() still runs them and the
# report names them every time, so a fix shows (README, "Known failures").
# Q10 groups by seven columns; sqlengine.grouping.factorize_many packs their
# codes into one int64, which wraps silently from about SF 0.025 (wrong
# groups) and raises OverflowError from about SF 0.08.
TPCH_KNOWN_FAILURES = {10: "int64 wrap in sqlengine.grouping.factorize_many"}
TPCH_KNOWN_FAILURES_FROM_SF = 0.025
DS_SCALE = 0.5
COV_ROWS, COV_COLS = 20_000, 8
COMPILE_TPCH_SF = 0.005
COMPILE_DS_SCALE = 0.01
FUZZ_ROWS = 220
FUZZ_STATEMENTS = 1000
SMOKE_TPCH_SF = 0.002
SMOKE_DS_SCALE = 0.01
SMOKE_FUZZ_STATEMENTS = 24
SMOKE_COMPILE_QUERIES = (1, 4, 9, 13, 18, 21)


@dataclass
class Verdict:
    wrong: dict[str, str] = field(default_factory=dict)        # op -> reason
    unverified: dict[str, str] = field(default_factory=dict)   # op -> why not
    python_ms: dict[str, float] = field(default_factory=dict)  # op -> eager Python time
    known: dict[str, str] = field(default_factory=dict)        # excluded op -> outcome now

    def check(self, name: str, reference: Callable[[], object],
              result: Callable[[], object], compare: Callable,
              python_baseline: bool = True) -> None:
        """Compare an op's result with its reference, which is never the
        engine under test.  An op that raises here already failed in the
        timed passes and is counted there."""
        try:
            got = result()
        except Exception:
            return
        try:
            start = time.perf_counter()
            want = reference()
            if python_baseline:
                self.python_ms[name] = (time.perf_counter() - start) * 1000.0
        except Exception as exc:
            self.unverified[name] = f"reference raised {type(exc).__name__}"
            return
        ok, detail = compare(want, got)
        if not ok:
            self.wrong[name] = "WrongResult"
            print(f"wrong result: {name}: {detail}", flush=True)


class Workload:
    """Set-up, passes and references of one workload."""

    name = ""
    concurrency = 1   # client threads whose op times add up to a pass

    def __init__(self, seed: int, smoke: bool, workers: int, scratch):
        self.seed = seed
        self.smoke = smoke
        self.workers = workers
        self.scratch = scratch   # directory a workload may write files under
        self._ops: dict[int, list[Op]] = {}
        self.cold_sql: dict[str, str] = {}   # filled by traced cold ops

    def setup(self, tracer=None) -> None:
        raise NotImplementedError

    def close(self) -> None:
        self._ops.clear()

    def prepare(self) -> None:
        """Untimed work after the last set-up (generate SQL once)."""

    def pass_ops(self, threads: int) -> list[Op]:
        raise NotImplementedError

    def cold_ops(self) -> list[Op]:
        raise NotImplementedError

    def run_pass(self, parallel: bool, tracer=None) -> PassResult:
        threads = self.workers if parallel else 1
        if threads not in self._ops:
            self._ops[threads] = self.pass_ops(threads)
        if tracer is None:
            return run_ops(self._ops[threads])
        before = self.cache_stats()
        result = run_ops(self._ops[threads], tracer)
        after = self.cache_stats()
        result.cache = (after["hits"] - before["hits"],
                        after["misses"] - before["misses"])
        return result

    def run_cold_pass(self, tracer=None) -> PassResult:
        return run_ops(self.cold_ops(), tracer)

    def verify(self) -> Verdict:
        raise NotImplementedError

    def probes(self, tracer) -> dict:
        return {}

    def cache_stats(self) -> dict:
        """Plan-cache hits and misses so far, over the workload's databases."""
        raise NotImplementedError

    def sizes(self) -> dict:
        return {}


def _sum_cache_stats(dbs) -> dict:
    total = {"hits": 0, "misses": 0}
    for db in dbs:
        s = db.cache_stats()
        total["hits"] += s["hits"]
        total["misses"] += s["misses"]
    return total


# -- tpch ---------------------------------------------------------------------

class Tpch(Workload):
    name = "tpch"

    def __init__(self, seed, smoke, workers, scratch):
        super().__init__(seed, smoke, workers, scratch)
        self.sf = SMOKE_TPCH_SF if smoke else TPCH_SF
        self.excluded = (sorted(TPCH_KNOWN_FAILURES)
                         if self.sf >= TPCH_KNOWN_FAILURES_FROM_SF else [])
        # Always in query order: one-time costs a cold pass shares between
        # queries (column statistics of a table) then fall on the same query
        # in every run, whatever the seed.
        self.order = sorted(set(QUERIES) - set(self.excluded))

    def setup(self, tracer=None):
        with span(tracer, "tpch.generate", "workloads.datagen"):
            self.dataset = generate(scale_factor=self.sf, seed=self.seed)
        with span(tracer, "register_tpch", "sqlengine.database.register"):
            self.db = self._fresh_db()

    def _fresh_db(self):
        db = connect()
        register_tpch(db, self.dataset)
        return db

    def close(self):
        super().close()
        self.dataset = self.db = None

    def prepare(self):
        self.sql = {q: QUERIES[q].sql("native", db=self.db) for q in self.order}

    def pass_ops(self, threads):
        return [sql_op(f"tpch_q{q}", self.db, self.sql[q], threads)
                for q in self.order]

    def cold_ops(self):
        # A new Database over the same arrays: nothing planned, no column
        # statistics sampled, no translation reused.
        db = self._fresh_db()
        return [source_op(f"tpch_q{q}", QUERIES[q], db, 1, self.cold_sql)
                for q in self.order]

    def verify(self):
        verdict = Verdict()
        frames = {name: DataFrame(cols) for name, cols in self.dataset.items()}
        cfg = config(1)
        for q in self.order:
            verdict.check(
                f"tpch_q{q}",
                lambda: QUERIES[q](*[frames[t] for t in QUERY_TABLES[q]]),
                lambda: self.db.execute(self.sql[q], config=cfg),
                compare_results)
        for q in self.excluded:
            verdict.known[f"tpch_q{q}"] = self._outcome(q, frames)
        return verdict

    def _outcome(self, q: int, frames: dict) -> str:
        """What a query excluded as a known failure does today."""
        try:
            got = QUERIES[q].run(self.db, "native")
        except Exception as exc:
            return type(exc).__name__
        want = QUERIES[q](*[frames[t] for t in QUERY_TABLES[q]])
        return "" if compare_results(want, got)[0] else "WrongResult"

    def probes(self, tracer):
        names = {f"tpch_q{q}": self.sql[q] for q in self.order}
        out = layers.frontend(tracer, self.db, names, config(1), reps=3)
        out.update(layers.first_exec(tracer, self._fresh_db(), names, config(1)))
        out.update(layers.kernels(tracer, self.dataset))
        return out

    def cache_stats(self):
        return _sum_cache_stats([self.db])

    def sizes(self):
        return {"tpch_sf": self.sf,
                "lineitem_rows": len(self.dataset["lineitem"]["l_orderkey"]),
                "excluded_known_failures": [f"tpch_q{q}" for q in self.excluded],
                "ops_per_pass": len(self.order)}


# -- hybrid -------------------------------------------------------------------

@dataclass
class Pipeline:
    """One decorated function with its own tables and reference."""

    name: str
    fn: object
    tables: dict[str, dict]
    primary_keys: dict[str, str | None]
    reference: Callable[[], object]
    compare: Callable = compare_results
    db: object = None
    sql: str = ""

    def register(self):
        db = connect()
        for table, columns in self.tables.items():
            db.register(table, columns, primary_key=self.primary_keys.get(table))
        return db


def _compare_sparse(want: np.ndarray, got) -> tuple[bool, str]:
    """``covariance_sparse`` answers in COO form (d_j, d_k, val)."""
    d = got.to_dict()
    dense = np.zeros_like(want)
    dense[np.asarray(d["d_j"], dtype=int), np.asarray(d["d_k"], dtype=int)] = d["val"]
    if np.allclose(dense, want, rtol=1e-6):
        return True, ""
    return False, "sparse covariance differs from numpy"


def build_pipelines(scale: float, cov_rows: int, seed: int) -> list[Pipeline]:
    out = []
    for k, (name, w) in enumerate(WORKLOADS.items()):
        data = w.make_data(scale=scale, seed=seed * 100 + k)
        tables = {t: data[t] for t in w.tables}
        frames = [DataFrame(tables[t]) for t in w.tables]
        out.append(Pipeline(name, w.fn, tables, w.primary_keys,
                            reference=lambda w=w, frames=frames: w.fn(*frames)))
    dense = cov.make_matrix(cov_rows, COV_COLS, 1.0, seed=seed * 100 + 50)
    out.append(Pipeline("covariance_dense", cov.covariance_dense,
                        {"matrix": cov.dense_table(dense)}, {"matrix": "ID"},
                        reference=lambda: cov.numpy_covariance(dense)))
    sparse = cov.make_matrix(cov_rows, COV_COLS, 0.01, seed=seed * 100 + 51)
    out.append(Pipeline("covariance_sparse", cov.covariance_sparse,
                        {"matrix_coo": cov.sparse_table(sparse)}, {},
                        reference=lambda: cov.numpy_covariance(sparse),
                        compare=_compare_sparse))
    return out


def _verify_pipelines(verdict: Verdict, pipelines: list[Pipeline]) -> None:
    cfg = config(1)
    for p in pipelines:
        verdict.check(p.name, p.reference,
                      lambda: p.db.execute(p.sql, config=cfg), p.compare)


class Hybrid(Workload):
    name = "hybrid"

    def __init__(self, seed, smoke, workers, scratch):
        super().__init__(seed, smoke, workers, scratch)
        self.scale = SMOKE_DS_SCALE if smoke else DS_SCALE
        self.cov_rows = int(COV_ROWS * (0.05 if smoke else 1.0))

    def setup(self, tracer=None):
        with span(tracer, "make_data", "workloads.datagen"):
            self.pipelines = build_pipelines(self.scale, self.cov_rows, self.seed)
        with span(tracer, "Database.register", "sqlengine.database.register"):
            for p in self.pipelines:
                p.db = p.register()

    def close(self):
        super().close()
        self.pipelines = []

    def prepare(self):
        for p in self.pipelines:
            p.sql = p.fn.sql("native", db=p.db)

    def pass_ops(self, threads):
        return [sql_op(p.name, p.db, p.sql, threads) for p in self.pipelines]

    def cold_ops(self):
        return [source_op(p.name, p.fn, p.register(), 1, self.cold_sql)
                for p in self.pipelines]

    def verify(self):
        verdict = Verdict()
        _verify_pipelines(verdict, self.pipelines)
        return verdict

    def probes(self, tracer):
        out: dict = {}
        for p in self.pipelines:
            names = {p.name: p.sql}
            layers.add(out, layers.frontend(tracer, p.db, names, config(1), reps=3))
            layers.add(out, layers.first_exec(tracer, p.register(), names, config(1)))
        return out

    def cache_stats(self):
        return _sum_cache_stats(p.db for p in self.pipelines)

    def sizes(self):
        return {"ds_scale": self.scale, "covariance_rows": self.cov_rows,
                "covariance_cols": COV_COLS, "ops_per_pass": len(self.pipelines)}


# -- compile ------------------------------------------------------------------

class Compile(Workload):
    name = "compile"

    def __init__(self, seed, smoke, workers, scratch):
        super().__init__(seed, smoke, workers, scratch)
        self.sf = SMOKE_TPCH_SF if smoke else COMPILE_TPCH_SF
        self.scale = SMOKE_DS_SCALE if smoke else COMPILE_DS_SCALE
        self.n_fuzz = SMOKE_FUZZ_STATEMENTS if smoke else FUZZ_STATEMENTS
        self.queries = SMOKE_COMPILE_QUERIES if smoke else tuple(sorted(QUERIES))
        # Distinct statements, each a pure function of its seed.
        seen: dict[str, None] = {}
        fuzz_seed = seed * 1_000_003
        while len(seen) < self.n_fuzz:
            seen.setdefault(sqlfuzz.render(sqlfuzz.generate(fuzz_seed)))
            fuzz_seed += 1
        self.statements = list(seen)

    def setup(self, tracer=None):
        with span(tracer, "generate", "workloads.datagen"):
            self.dataset = generate(scale_factor=self.sf, seed=self.seed)
            self.pipelines = build_pipelines(self.scale, int(COV_ROWS * self.scale),
                                             self.seed)
        with span(tracer, "Database.register", "sqlengine.database.register"):
            self.tpch_db = connect()
            register_tpch(self.tpch_db, self.dataset)
            for p in self.pipelines:
                p.db = p.register()
            self.fuzz_db = sqlfuzz.build_fuzz_db(FUZZ_ROWS, seed=self.seed)

    def close(self):
        super().close()
        self.dataset = self.tpch_db = self.fuzz_db = None
        self.pipelines = []

    def prepare(self):
        for p in self.pipelines:   # verify() compares the generated SQL's result
            p.sql = p.fn.sql("native", db=p.db)

    def _dbs(self):
        return [self.tpch_db, self.fuzz_db] + [p.db for p in self.pipelines]

    def _source_ops(self, threads):
        ops = [source_op(f"tpch_q{q}", QUERIES[q], self.tpch_db, threads, self.cold_sql)
               for q in self.queries]
        ops += [source_op(p.name, p.fn, p.db, threads, self.cold_sql)
                for p in self.pipelines]
        return ops

    def pass_ops(self, threads):
        ops = self._source_ops(threads)
        ops += [sql_op(f"fuzz_{i}", self.fuzz_db, sql, threads)
                for i, sql in enumerate(self.statements)]
        return ops

    def run_pass(self, parallel, tracer=None):
        # Every pass starts with nothing planned, so each statement pays
        # parse + plan + verify again.
        for db in self._dbs():
            db.clear_plan_cache()
        return super().run_pass(parallel, tracer)

    def cold_ops(self):
        for db in self._dbs():
            db.clear_plan_cache()
        return self._source_ops(1)

    def verify(self):
        verdict = Verdict()
        frames = {name: DataFrame(cols) for name, cols in self.dataset.items()}
        cfg = config(1)
        for q in self.queries:
            verdict.check(
                f"tpch_q{q}",
                lambda: QUERIES[q](*[frames[t] for t in QUERY_TABLES[q]]),
                lambda: QUERIES[q].run(self.tpch_db, "native"),
                compare_results)
        _verify_pipelines(verdict, self.pipelines)
        oracle = get_backend("sqlite")
        for i, sql in enumerate(self.statements):
            verdict.check(
                f"fuzz_{i}",
                lambda: oracle.execute(self.fuzz_db, oracle.compile(sql)).normalized(),
                lambda: normalize_rows(chunk_rows(self.fuzz_db.execute_chunk(sql, cfg))),
                lambda want, got: rows_equal(got, want), python_baseline=False)
        return verdict

    def probes(self, tracer):
        cfg = config(1)
        out: dict = {}
        fuzz = {f"fuzz_{i}": sql for i, sql in enumerate(self.statements)}
        layers.add(out, layers.frontend(tracer, self.fuzz_db, fuzz, cfg, reps=1))
        tpch = {n: s for n, s in self.cold_sql.items() if n.startswith("tpch_q")}
        layers.add(out, layers.frontend(tracer, self.tpch_db, tpch, cfg, reps=1))
        for p in self.pipelines:
            if p.name in self.cold_sql:
                layers.add(out, layers.frontend(
                    tracer, p.db, {p.name: self.cold_sql[p.name]}, cfg, reps=1))
        self.fuzz_db.clear_plan_cache()
        layers.add(out, layers.first_exec(tracer, self.fuzz_db, fuzz, cfg))
        return out

    def cache_stats(self):
        return _sum_cache_stats(self._dbs())

    def sizes(self):
        return {"tpch_sf": self.sf, "ds_scale": self.scale,
                "fuzz_rows": FUZZ_ROWS, "fuzz_statements": len(self.statements),
                "source_ops": len(self.queries) + len(self.pipelines),
                "ops_per_pass": len(self.queries) + len(self.pipelines) + len(self.statements)}
