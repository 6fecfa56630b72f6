"""Multi-process sharded execution: the transport under ``plan.Exchange``.

What is distributed is decided in one place, the planner: with
``EngineConfig.shard_workers > 0`` it splits a mergeable aggregate or a
bounded Top-K over stored tables into ``final ← Exchange ← partial``
stages and fixes the chunk ranges of the largest table (see
:mod:`repro.sqlengine.planner`).  This module only carries such a plan
out across processes:

* :class:`ShardPool` — N ``multiprocessing`` engine workers over one
  column store, each pinned to its own CPU.  Every worker opens the store
  once; all of them mmap the same column files, so replicating the
  unpartitioned tables costs page-cache residency, not copies.
* :class:`ShardedDatabase` — a :class:`~repro.sqlengine.Database` attached
  to that store which hands every execution a scatter hook
  (:attr:`~repro.sqlengine.plan.ExecContext.exchange`).  An ``Exchange``
  gives the hook its pickled child and ranges; each worker unpickles the
  subplan, clips the partitioned ``Scan`` to its range and runs it
  (:meth:`~repro.sqlengine.plan.Exchange.run_partition`) — no SQL, no
  parser, no planner on the worker side.

A plan without an ``Exchange`` never reaches this module, so sharding
cannot change what a query means; ``shard_stats`` counts every execution
under ``shard_workers > 0`` as either ``scattered`` (an Exchange went to
the pool) or ``fallbacks``.

Degradation: a worker death (``BrokenProcessPool``) surfaces as a typed
:class:`~repro.errors.ShardError` on the in-flight query — never a hang —
and the pool is rebuilt lazily so subsequent queries are served.  Errors a
worker raises while executing come back as ``("err", class, message)`` and
are rebuilt as their own typed class.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from ..errors import (
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    ShardError,
    SQLExecutionError,
)
from ..sqlengine.catalog import Catalog
from ..sqlengine.database import Database, PlanCacheEntry
from ..sqlengine.executor import EngineConfig, Executor
from ..sqlengine.plan import Exchange
from ..sqlengine.table import Chunk, DictColumn
from ..storage.format import open_store
from .wire import exception_for

__all__ = ["ShardedDatabase", "ShardPool"]


# ---------------------------------------------------------------------------
# Worker side (module-level: must be picklable under fork *and* spawn)
# ---------------------------------------------------------------------------

_WORKER_CATALOG: Catalog | None = None


def _shard_worker_init(root: str, started) -> None:
    global _WORKER_CATALOG
    # One CPU per worker.  Left to the scheduler, forked workers can stay on
    # the CPU of the process that wakes them for as long as they run (seen
    # on a 2-vCPU VM: two busy workers shared one CPU beside an idle one),
    # which turns a scatter into the serial plan plus a round trip.
    if hasattr(os, "sched_setaffinity"):
        with started.get_lock():
            slot, started.value = started.value, started.value + 1
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[slot % len(cpus)]})
    db = Database()
    open_store(root).attach(db)
    _WORKER_CATALOG = db.catalog


def _shard_worker_run(task: dict) -> tuple:
    """Execute one task; returns a plain tuple (never raises, so no
    exception ever has to survive pickling):

    * ``("ok", columns, arrays)`` — one partition's output; a
      dictionary-encoded column travels as codes + dictionary (the
      coordinator's ``Chunk.concat`` merges the partitions' dictionaries)
      unless its dictionary is larger than its rows,
    * ``("err", exc_class_name, message)`` — a typed failure to rebuild,
    * ``("pong", pid)`` — pool warmup / liveness probe.
    """
    try:
        if task["kind"] == "ping":
            return ("pong", os.getpid())
        if task.get("delay"):
            time.sleep(float(task["delay"]))
        executor = Executor(_WORKER_CATALOG, task["config"],
                            params=task["params"])
        lo, hi = task["range"]
        chunk = Exchange.run_partition(task["plan"], task["table"], lo, hi,
                                       executor)
        return ("ok", list(chunk.columns), [
            arr.decode(counted=False) if isinstance(arr, DictColumn)
            and arr.null_code > len(arr) else arr
            for arr in chunk.arrays])
    except BaseException as exc:
        return ("err", type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

class ShardPool:
    """N engine worker processes over one column store.

    The executor is created lazily and *replaced* after a
    ``BrokenProcessPool`` — the erroring query gets a typed
    :class:`~repro.errors.ShardError`, the next one gets a fresh pool.
    """

    def __init__(self, root, workers: int, *, start_method: str | None = None):
        if workers < 1:
            raise ShardError("shard_workers must be >= 1")
        self.root = str(root)
        self.workers = int(workers)
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._started = self._ctx.Value("i", 0)  # workers ever launched
        self.restarts = 0

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=self._ctx,
                    initializer=_shard_worker_init,
                    initargs=(self.root, self._started),
                )
            return self._executor

    def submit(self, task: dict) -> Future:
        try:
            return self._ensure().submit(_shard_worker_run, task)
        except (BrokenProcessPool, RuntimeError) as exc:
            self.mark_broken()
            raise ShardError(f"shard pool unavailable: {exc}") from None

    def warm(self) -> list[int]:
        """Spin up every worker; returns their pids (degradation tests and
        the soak harness kill one of these deliberately)."""
        executor = self._ensure()
        futures = [executor.submit(_shard_worker_run, {"kind": "ping"})
                   for _ in range(self.workers)]
        for f in futures:
            f.result(timeout=120)
        return sorted(p.pid for p in executor._processes.values())

    def worker_pids(self) -> list[int]:
        return self.warm()

    def mark_broken(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
            if executor is not None:
                self.restarts += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------

class ShardedDatabase(Database):
    """A Database over a column store whose ``Exchange`` operators run in
    worker processes.

    ``config.shard_workers`` (also settable per query/config override)
    selects the worker count and, through the planner, whether a statement
    contains an Exchange at all; a plan without one runs exactly as it
    would on a plain Database.
    """

    def __init__(self, store_root, config: EngineConfig | None = None, *,
                 workers: int | None = None,
                 start_method: str | None = None):
        cfg = config or EngineConfig()
        if workers is not None:
            cfg = replace(cfg, shard_workers=int(workers))
        super().__init__(cfg)
        self._store = open_store(store_root)
        self._store.attach(self)
        self._start_method = start_method
        self._pools: dict[int, ShardPool] = {}
        self._pool_lock = threading.Lock()
        # Updated from scheduler threads: every write holds _stats_lock.
        self.shard_stats = {"scattered": 0, "fallbacks": 0,
                            "shard_errors": 0, "restarts": 0, "workers": 0}
        self._stats_lock = threading.Lock()
        # Test/soak hook: per-task sleep inside the worker, making "kill a
        # worker mid-query" deterministic on fast queries.
        self._test_worker_delay = 0.0

    # -- pools -------------------------------------------------------------
    def pool(self, workers: int) -> ShardPool:
        with self._pool_lock:
            pool = self._pools.get(workers)
            if pool is None:
                pool = ShardPool(self._store.root, workers,
                                 start_method=self._start_method)
                self._pools[workers] = pool
            return pool

    def close_pools(self) -> None:
        with self._pool_lock:
            pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.close()

    # -- execution ---------------------------------------------------------
    def _run(self, entry: PlanCacheEntry, config: EngineConfig, params,
             **runtime) -> Chunk:
        if config.shard_workers <= 0:
            return super()._run(entry, config, params, **runtime)
        scattered: list[str] = []

        def scatter(payload: bytes, table: str, ranges, bound, cfg):
            scattered.append(table)
            return self._scatter(payload, table, ranges, bound, cfg,
                                 runtime.get("cancel_event"),
                                 runtime.get("deadline"), runtime.get("stats"))

        try:
            return super()._run(entry, config, params, exchange=scatter,
                                **runtime)
        finally:
            with self._stats_lock:
                self.shard_stats["scattered" if scattered else "fallbacks"] += 1

    def _scatter(self, payload: bytes, table: str,
                 ranges: list[tuple[int, int]], params, config: EngineConfig,
                 cancel_event, deadline, stats) -> list[Chunk]:
        """One task per range to the pool; the outputs in range order."""
        pool = self.pool(config.shard_workers)
        tasks = [{"kind": "run", "plan": payload, "table": table,
                  "range": span, "params": params, "config": config,
                  "delay": self._test_worker_delay} for span in ranges]
        try:
            futures = [pool.submit(task) for task in tasks]
            gathered = self._gather(pool, futures, cancel_event, deadline)
        except ShardError:
            with self._stats_lock:
                self.shard_stats["shard_errors"] += 1
                self.shard_stats["restarts"] = sum(
                    p.restarts for p in self._pools.values())
            raise
        chunks = []
        for item in gathered:
            if item[0] == "err":
                raise _rebuild_worker_error(item[1], item[2])
            chunks.append(Chunk(item[1], item[2]))
        with self._stats_lock:
            self.shard_stats["workers"] = config.shard_workers
        if stats is not None:
            stats.event(f"shard: scattered {table} over {len(tasks)} "
                        f"worker partition(s)")
        return chunks

    def _gather(self, pool: ShardPool, futures: list[Future], cancel_event,
                deadline) -> list[tuple]:
        gathered = []
        for future in futures:
            while True:
                try:
                    gathered.append(future.result(timeout=0.05))
                    break
                except _FuturesTimeout:
                    if cancel_event is not None and cancel_event.is_set():
                        for f in futures:
                            f.cancel()
                        raise QueryCancelledError("query cancelled") from None
                    if deadline is not None and time.monotonic() > deadline:
                        for f in futures:
                            f.cancel()
                        raise QueryTimeoutError(
                            "query exceeded its timeout") from None
                except BrokenProcessPool:
                    pool.mark_broken()
                    raise ShardError(
                        "a shard worker died mid-query; the pool was "
                        "rebuilt — resubmit the query"
                    ) from None
        return gathered


def _rebuild_worker_error(class_name: str, message: str) -> ReproError:
    """Rebuild a typed exception from a worker's ``("err", name, msg)``.

    Workers never pickle exception objects (custom constructors make that
    fragile); the name + message round-trip always works and keeps the
    typed hierarchy for everything a client dispatches on.
    """
    import repro.errors as errors_module

    cls = getattr(errors_module, class_name, None)
    if isinstance(cls, type) and issubclass(cls, ReproError):
        try:
            return cls(message)
        except TypeError:
            return SQLExecutionError(f"{class_name}: {message}")
    return exception_for("execution", f"worker {class_name}: {message}")
