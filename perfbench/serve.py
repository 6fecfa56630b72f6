"""The ``serve`` workload: the same engine used differently.

A ``NetServer`` (in a thread of this process) in front of a TPC-H database;
**closed loop**: two ``NetClient`` connections, each sending its next query
only after the reply to the previous one, each replaying a fixed seeded
sequence drawn from ``server.loadgen.tpch_mix()`` (75 % prepared, 25 %
inlined ad-hoc statements).  Callers that each wait for a reply make a closed
loop; two of them because the reference host has two cores and the load
generator must not use more threads or connections than ``nproc``.

Fixed op counts per pass, not a fixed duration, so the work of a pass is the
same from run to run.  Many tiny point / Top-K queries under concurrency make
per-query fixed cost dominate (bind, Executor construction, scheduler queue,
JSON framing, GIL hand-offs): a kernel gain bought with per-query overhead, or
a sharding gain bought with unsharded latency, shows as a loss here.  The
parallel configuration is the same mix against ``ShardedDatabase(workers=P)``.
There is no DML in this system, so ingest (``setup_s``) is the write beside
the read.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.backends import get_backend
from repro.backends.rows import normalize_rows, rows_equal
from repro.bench.storage import store_tpch
from repro.server import (NetClient, NetServer, QueryScheduler, Session,
                          ShardedDatabase, tpch_mix)
from repro.server.wire import exception_for
from repro.sqlengine import connect
from repro.storage import DEFAULT_CHUNK_ROWS, ColumnStore
from repro.workloads.tpch import generate, register_tpch

from perfbench import layers
from perfbench.harness import OP_TIMEOUT_S, PassResult, median, percentile
from perfbench.spans import rollup
from perfbench.sqlops import config, span, traced_execute
from perfbench.workloads import SMOKE_TPCH_SF, Verdict, Workload

SERVE_SF = 0.05
CLIENTS = 2
# Per client and pass; multiples of the mix's total weight (7).
OPS_PER_CLIENT = 210
OPS_PER_CLIENT_SHARDED = 42
SMOKE_OPS_PER_CLIENT = 14
SMOKE_OPS_PER_CLIENT_SHARDED = 7
PREPARED_SHARE = 0.75
VERIFY_PER_TEMPLATE = 3
SOCKET_TIMEOUT_S = OP_TIMEOUT_S + 30.0

# Columns the mix reads: the sqlite oracle mirrors these and no others.
MIRROR_COLUMNS = {
    "orders": ["o_orderkey", "o_custkey", "o_totalprice", "o_orderstatus"],
    "customer": ["c_custkey", "c_name"],
    "lineitem": ["l_returnflag", "l_quantity", "l_extendedprice"],
}


def inline(sql: str, params) -> str:
    """The ad-hoc client shape: bound values written into the statement as
    literals, so every execution is a new text that pays parse + plan."""
    if isinstance(params, dict):
        for name in sorted(params, key=len, reverse=True):
            sql = sql.replace(f":{name}", repr(params[name]))
        return sql
    head, *rest = sql.split("?")
    return head + "".join(repr(v) + tail for v, tail in zip(params, rest))


class _Step:
    __slots__ = ("template", "params", "prepared", "text")

    def __init__(self, template, params, prepared):
        self.template, self.params, self.prepared = template, params, prepared
        self.text = template.sql if prepared else inline(template.sql, params)


OVERSAMPLE = 8


def draw_params(template, rng, count: int) -> list:
    """*count* parameter sets from the template's own generator that hold its
    distribution's quantiles: draw OVERSAMPLE times as many, order them by
    their first value, keep every OVERSAMPLE-th.  How selective a pass's
    heavy queries are then barely depends on the seed."""
    def first(params):
        return next(iter(params.values())) if isinstance(params, dict) else params[0]

    pool = sorted((template.make_params(rng) for _ in range(count * OVERSAMPLE)), key=first)
    return pool[OVERSAMPLE // 2::OVERSAMPLE]


def make_sequence(seed: int, client: int, n: int) -> list[_Step]:
    """*n* steps holding exactly the mix's weights and prepared share: the
    seed decides the order and the parameter values, not how much work a
    pass holds (drawing templates at random moves the share of the one
    heavy template, and with it the pass time, by a tenth between seeds)."""
    mix = tpch_mix()
    total = sum(t.weight for t in mix)
    rng = np.random.default_rng([seed, client])
    steps = []
    for template in mix:
        count = round(n * template.weight / total)
        prepared = rng.permutation(count) < round(count * PREPARED_SHARE)
        steps += [_Step(template, params, bool(p))
                  for params, p in zip(draw_params(template, rng, count), prepared)]
    return [steps[i] for i in rng.permutation(len(steps))]


class _Connection:
    """One client: a socket and its prepared-statement handles."""

    def __init__(self, port: int):
        self.client = NetClient("127.0.0.1", port, timeout=SOCKET_TIMEOUT_S)
        self.handles = {t.name: self.client.prepare(t.sql) for t in tpch_mix()}

    def execute(self, step: _Step):
        if step.prepared:
            return self.client.execute_prepared(
                self.handles[step.template.name], step.params, timeout=OP_TIMEOUT_S)
        return self.client.execute(step.text, timeout=OP_TIMEOUT_S)

    def execute_traced(self, step: _Step, tracer) -> dict:
        """The same exchange through the client's public frame calls, to read
        the server's own time for the query off the ``done`` frame."""
        with tracer.span("NetClient.submit+read_frame", "server.wire") as sp:
            if step.prepared:
                self.client.submit_prepared(self.handles[step.template.name],
                                            step.params, timeout=OP_TIMEOUT_S)
            else:
                self.client.submit(step.text, timeout=OP_TIMEOUT_S)
            while True:
                frame = self.client.read_frame()
                if frame.get("type") == "done":
                    break
                if frame.get("type") == "error":
                    raise exception_for(frame.get("code", "internal"),
                                        frame.get("error", "unknown error"))
        server_ms = float(frame.get("ms") or 0.0)
        tracer.add("QueryTicket[queue+run]", "server.scheduler",
                   sp["start"], sp["start"] + server_ms / 1000.0, sp)
        return {"server_ms": server_ms, "prepared": step.prepared}

    def close(self):
        self.client.close()


def replay(conn: _Connection, steps: list[_Step], tracer, client: int) -> PassResult:
    out = PassResult(0.0)
    last_reply = None
    for i, step in enumerate(steps):
        name = step.template.name
        start = perf_counter()
        lag_ms = (start - last_reply) * 1000.0 if last_reply is not None else 0.0
        counts = None
        try:
            if tracer is None:
                conn.execute(step)
            else:
                with tracer.span(name, "op", op=f"{name}#{client}.{i}"):
                    counts = conn.execute_traced(step, tracer)
        except Exception as exc:  # boundary: account for it and keep replaying
            out.failures.append((name, type(exc).__name__))
            last_reply = perf_counter()
            continue
        last_reply = perf_counter()
        net_ms = (last_reply - start) * 1000.0
        out.samples.append((name, net_ms))
        if counts is not None:
            counts.update(lag_ms=lag_ms, index=(client, i), net_ms=net_ms)
            out.counts.append(counts)
    return out


def run_clients(targets) -> tuple[float, list]:
    """Start one thread per target behind a barrier; wall time of all."""
    results = [None] * len(targets)
    barrier = threading.Barrier(len(targets) + 1)

    def main(i):
        barrier.wait()
        results[i] = targets[i]()

    threads = [threading.Thread(target=main, args=(i,), name=f"perfbench-client-{i}")
               for i in range(len(targets))]
    for t in threads:
        t.start()
    barrier.wait()
    start = perf_counter()
    for t in threads:
        t.join()
    return perf_counter() - start, results


def merge(wall_s: float, parts: list[PassResult]) -> PassResult:
    out = PassResult(wall_s)
    for p in parts:
        out.samples += p.samples
        out.failures += p.failures
        out.counts += p.counts
    return out


class Serve(Workload):
    name = "serve"
    concurrency = CLIENTS

    def __init__(self, seed, smoke, workers, scratch: Path):
        super().__init__(seed, smoke, workers, scratch)
        self.sf = SMOKE_TPCH_SF if smoke else SERVE_SF
        n_plain = SMOKE_OPS_PER_CLIENT if smoke else OPS_PER_CLIENT
        n_sharded = SMOKE_OPS_PER_CLIENT_SHARDED if smoke else OPS_PER_CLIENT_SHARDED
        self.sequences = [make_sequence(seed, c, n_plain) for c in range(CLIENTS)]
        self.sharded_sequences = [make_sequence(seed, CLIENTS + c, n_sharded)
                                  for c in range(CLIENTS)]
        self.cold_round = 0
        self.root = scratch / f"store-{os.getpid()}"
        self.db = self.sdb = self.plain = self.sharded = None
        self.conns: dict[bool, list[_Connection]] = {}

    # -- lifecycle -------------------------------------------------------------
    def setup(self, tracer=None):
        with span(tracer, "tpch.generate", "workloads.datagen"):
            self.dataset = generate(scale_factor=self.sf, seed=self.seed)
        with span(tracer, "register_tpch", "sqlengine.database.register"):
            self.db = connect()
            register_tpch(self.db, self.dataset)
        with span(tracer, "store_tpch", "storage"):
            shutil.rmtree(self.root, ignore_errors=True)
            store_tpch(ColumnStore(self.root), self.dataset, chunk_rows=DEFAULT_CHUNK_ROWS)
        with span(tracer, "ShardedDatabase+warm", "server.shard"):
            self.sdb = ShardedDatabase(self.root, workers=self.workers)
            self.sdb.pool(self.workers).warm()
        self.plain = self._server(self.db)
        self.sharded = self._server(self.sdb)

    @staticmethod
    def _server(db) -> NetServer:
        return NetServer(db, max_concurrent=CLIENTS, default_timeout=OP_TIMEOUT_S,
                         collect_op_stats=False).run_in_thread()

    def close(self):
        """Runs on every exit path: connections, both servers, the shard
        workers (waited for, so none outlives the run) and the store."""
        super().close()
        for conns in self.conns.values():
            for conn in conns:
                conn.close()
        self.conns = {}
        for server in (self.plain, self.sharded):
            if server is not None:
                server.close()
        self.plain = self.sharded = None
        if self.sdb is not None:
            self.sdb.close_pools()
            for child in multiprocessing.active_children():
                child.join(10.0)
                if child.is_alive():
                    child.kill()
                    child.join()
            self.sdb = None
        self.db = self.dataset = None
        shutil.rmtree(self.root, ignore_errors=True)

    def prepare(self):
        self.conns = {False: [_Connection(self.plain.port) for _ in range(CLIENTS)],
                      True: [_Connection(self.sharded.port) for _ in range(CLIENTS)]}

    # -- passes ----------------------------------------------------------------
    def run_pass(self, parallel, tracer=None):
        sequences = self.sharded_sequences if parallel else self.sequences
        db = self.sdb if parallel else self.db
        # The same sequence is replayed every pass; without this its ad-hoc
        # texts would sit in the plan cache from the warm-up on and stop
        # being ad-hoc.  Prepared handles keep their compiled entries.
        db.clear_plan_cache()
        wall, parts = run_clients([
            lambda c=c: replay(self.conns[parallel][c], sequences[c], tracer, c)
            for c in range(CLIENTS)])
        result = merge(wall, parts)
        stats = db.cache_stats()
        result.cache = (stats["hits"], stats["misses"])
        return result

    def run_cold_pass(self, tracer=None):
        """First prepare + execute of each template on a new connection to a
        new server over a database that has planned nothing.  Round k binds
        the template's k-th parameters of the sequence, so the median over
        rounds does not hang on one draw."""
        db = connect()
        register_tpch(db, self.dataset)
        server = self._server(db)
        out = PassResult(0.0)
        begin = perf_counter()
        try:
            with NetClient("127.0.0.1", server.port, timeout=SOCKET_TIMEOUT_S) as nc:
                by_template: dict[str, list[_Step]] = {}
                for step in self.sequences[0]:
                    by_template.setdefault(step.template.name, []).append(step)
                self.cold_round += 1
                for name, steps in sorted(by_template.items()):
                    step = steps[self.cold_round % len(steps)]
                    start = perf_counter()
                    try:
                        handle = nc.prepare(step.template.sql)
                        nc.execute_prepared(handle, step.params, timeout=OP_TIMEOUT_S)
                    except Exception as exc:  # boundary: count and go on
                        out.failures.append((name, type(exc).__name__))
                        continue
                    out.samples.append((name, (perf_counter() - start) * 1000.0))
        finally:
            server.close()
        out.wall_s = perf_counter() - begin
        return out

    # -- correctness -----------------------------------------------------------
    def verify(self):
        """Replies of both servers against the sqlite oracle on mirrored data."""
        verdict = Verdict()
        mirror = connect()
        for table, columns in MIRROR_COLUMNS.items():
            mirror.register(table, {c: self.dataset[table][c] for c in columns})
        oracle = get_backend("sqlite")
        seen: dict[str, int] = {}
        for step in self.sequences[0]:
            name = step.template.name
            if seen.get(name, 0) >= VERIFY_PER_TEMPLATE:
                continue
            seen[name] = seen.get(name, 0) + 1
            artifact = oracle.compile(step.template.sql)
            for sharded in (False, True):
                verdict.check(
                    name,
                    lambda: oracle.execute(mirror, artifact, step.params).normalized(),
                    lambda: normalize_rows(self.conns[sharded][0].execute(step).rows),
                    lambda want, got: rows_equal(got, want), python_baseline=False)
        return verdict

    # -- layer probes ----------------------------------------------------------
    def probes(self, tracer):
        out = self._session_probe()
        out.update(self._operator_probe(tracer))
        adhoc = {f"adhoc#{c}.{i}": step.text
                 for c, steps in enumerate(self.sequences)
                 for i, step in enumerate(steps) if not step.prepared}
        out.update(layers.frontend(tracer, self.db, adhoc, config(1), reps=1))
        lookup = next(s for s in self.sequences[0] if s.template.name == "order_lookup")
        out.update(layers.storage(tracer, self.root, self.dataset,
                                  inline(lookup.template.sql, lookup.params), "orders"))
        orders = self.dataset["orders"]
        rows = [[int(k), float(p)] for k, p in
                zip(orders["o_orderkey"][:1024], orders["o_totalprice"][:1024])]
        out.update(layers.wire(tracer, ["o_orderkey", "o_totalprice"], rows))
        out.update(layers.kernels(tracer, self.dataset))
        with NetClient("127.0.0.1", self.plain.port, timeout=SOCKET_TIMEOUT_S) as nc:
            metrics = nc.metrics()
        sched = metrics.get("scheduler", {})
        out["server.scheduler.rejected"] = float(sched.get("rejected", 0))
        out["server.scheduler.timeouts"] = float(sched.get("timeouts", 0))
        out["server.netserver.latency_ms_p99"] = float(metrics.get("sessions", {}).get("p99_ms") or 0.0)
        shard = self.sdb.shard_stats
        routed = shard["scattered"] + shard["fallbacks"]
        out["server.shard.scattered_share"] = shard["scattered"] / routed if routed else 0.0
        out["server.shard.fallbacks"] = float(shard["fallbacks"])
        out["server.shard.errors"] = float(shard["shard_errors"])
        out["server.shard.restarts"] = float(shard["restarts"])
        return out

    def _session_probe(self) -> dict:
        """The same sequences through in-process Sessions on the same
        scheduler settings: what a query costs without the wire, and how long
        it waited in the admission queue."""
        scheduler = QueryScheduler(self.db, max_concurrent=CLIENTS,
                                   default_timeout=OP_TIMEOUT_S)
        try:
            def client(c):
                session = Session(scheduler, name=f"probe-{c}")
                prepared = {t.name: session.prepare(t.sql) for t in tpch_mix()}
                rows = []
                for step in self.sequences[c]:
                    stmt = prepared[step.template.name] if step.prepared else step.text
                    ticket = session.submit(stmt, step.params if step.prepared else None)
                    ticket.result()
                    rows.append((step.prepared, ticket.queue_ms, ticket.total_ms))
                return rows
            _, per_client = run_clients([lambda c=c: client(c) for c in range(CLIENTS)])
        finally:
            scheduler.close()
        self.inproc_ms = {(c, i): row[2] for c, rows in enumerate(per_client)
                          for i, row in enumerate(rows)}
        rows = [r for rows in per_client for r in rows]
        queue = [q for _, q, _ in rows]
        return {
            "server.scheduler.queue_ms_p50": percentile(queue, 50),
            "server.scheduler.queue_ms_p95": percentile(queue, 95),
            "server.session.prepared_ms_p50": percentile([t for p, _, t in rows if p], 50),
            "server.session.adhoc_ms_p50": percentile([t for p, _, t in rows if not p], 50),
        }

    def _operator_probe(self, tracer) -> dict:
        """One in-process, single-threaded replay of a pass with operator
        statistics on: where the engine's share of a pass goes."""
        cfg = config(1)
        mark = tracer.mark()
        for c, steps in enumerate(self.sequences):
            for i, step in enumerate(steps):
                with tracer.span(step.template.name, "op",
                                 op=f"probe:{step.template.name}#{c}.{i}"):
                    traced_execute(tracer, self.db, step.text, cfg,
                                   step.params if step.prepared else None)
        return {"operator_probe": rollup(tracer.spans[mark:])}

    def wire_overhead_ms_p50(self, counts: list[dict]) -> float:
        """Net op minus the same op through an in-process Session."""
        diffs = [c["net_ms"] - self.inproc_ms[c["index"]] for c in counts
                 if "net_ms" in c and c["index"] in self.inproc_ms]
        return median(diffs) if diffs else 0.0

    def sizes(self):
        return {"tpch_sf": self.sf, "clients": CLIENTS, "loop": "closed",
                "prepared_share": PREPARED_SHARE,
                "ops_per_pass": CLIENTS * len(self.sequences[0]),
                "ops_per_pass_sharded": CLIENTS * len(self.sharded_sequences[0])}
