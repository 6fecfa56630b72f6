"""Serving layer: sessions, an admission-controlled scheduler, a TCP wire
protocol, and multi-process sharded execution.

The :mod:`repro.sqlengine` engine plans and executes one query fast; this
package is what sits between that engine and *many* concurrent callers:

* :class:`QueryScheduler` — bounded admission queue, capped concurrency,
  per-query timeouts, cooperative cancellation, serving counters;
* :class:`Session` — a client connection handle with per-session stats
  (counts, rows, p50/p99 latency) and prepared-statement access;
* :class:`NetServer` / :class:`NetClient` — the network serving tier: an
  asyncio TCP server speaking length-prefixed JSON frames (sessions,
  prepared handles, streamed results, in-flight cancellation, a
  ``metrics`` endpoint) and its blocking client;
* :class:`ShardedDatabase` / :class:`ShardPool` — run the ``Exchange``
  operators the planner places under ``EngineConfig.shard_workers > 0``
  across N ``multiprocessing`` engine workers over a column store (this
  package ships plans to workers; it never decides what is distributed);
* :func:`run_load` / :func:`run_net_load` — the load generators behind
  ``python -m repro.bench serve``: N clients replaying a parameterized
  TPC-H mix in-process or over real sockets, reporting QPS and tail
  latency.

Prepared statements themselves live on the engine
(:meth:`repro.sqlengine.Database.prepare`): the serving layer consumes
them, the engine compiles them.
"""

from .loadgen import (
    LoadReport,
    QueryTemplate,
    make_sharded_tpch_db,
    make_tpch_db,
    run_load,
    run_net_load,
    tpch_mix,
)
from .netserver import NetServer
from .scheduler import QueryScheduler, QueryTicket
from .session import Session, percentile
from .shard import ShardedDatabase, ShardPool
from .wire import MAX_FRAME, NetClient, NetResult

__all__ = [
    "QueryScheduler",
    "QueryTicket",
    "Session",
    "percentile",
    "LoadReport",
    "QueryTemplate",
    "tpch_mix",
    "make_tpch_db",
    "make_sharded_tpch_db",
    "run_load",
    "run_net_load",
    "NetServer",
    "NetClient",
    "NetResult",
    "MAX_FRAME",
    "ShardedDatabase",
    "ShardPool",
]
