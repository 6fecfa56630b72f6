"""Pluggable execution backends behind the :class:`~.base.ExecutionBackend`
Protocol (``supports``/``compile``/``execute``/``introspect``).

Registered unconditionally:

* ``native`` — the in-process NumPy engine, plain profile;
* ``duckdb``/``hyper``/``lingodb`` — *simulated* system profiles over the
  native engine (PyTond's "Backend Adaptation", Section III-E), used by
  the paper-figure harness;
* ``sqlite`` — the stdlib sqlite3 engine as an independent oracle.

Registered when the optional dependency is importable:

* ``duckdb_real`` — the actual DuckDB engine.

See ``docs/ARCHITECTURE.md`` ("Backends") for the Protocol, capability
gating, and how to add a backend.
"""

from ..errors import BackendError
from .base import (
    Backend,
    BackendInfo,
    CompiledQuery,
    Dialect,
    ExecutionBackend,
    ResultTable,
    available_backends,
    backend_infos,
    get_backend,
    register_backend,
    rewrite_sql,
)
from .duckdb_real import DuckDBBackend, duckdb_available
from .profiles import DuckDBSim, HyperSim, LingoDBSim, NativeBackend
from .sqlite import SQLITE_DIALECT, SqliteBackend, load_sqlite, to_sqlite_sql

__all__ = [
    "Backend",
    "BackendError",
    "BackendInfo",
    "CompiledQuery",
    "Dialect",
    "ExecutionBackend",
    "ResultTable",
    "NativeBackend",
    "SqliteBackend",
    "DuckDBBackend",
    "DuckDBSim",
    "HyperSim",
    "LingoDBSim",
    "SQLITE_DIALECT",
    "available_backends",
    "backend_infos",
    "duckdb_available",
    "get_backend",
    "register_backend",
    "rewrite_sql",
    "load_sqlite",
    "to_sqlite_sql",
]
