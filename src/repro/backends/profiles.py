"""The native-engine backend profiles, one row each.

``native`` is the engine as itself.  ``duckdb``/``hyper``/``lingodb`` are
the *simulated* systems of the paper's experiments (Section V): the same
engine, restricted or re-shaped to what the paper attributes to each
system.  A row states only what differs from the :class:`EngineConfig` /
:class:`Dialect` defaults:

* **duckdb** — filter pushdown and projection pruning, but the syntactic
  join order is kept (the weaker planning is why the TondIR-level
  optimizations help DuckDB more than Hyper — Section V-B);
* **hyper** — cardinality-based join re-ordering (the defaults) and its own
  spellings of ``SUBSTRING``/``TO_CHAR``;
* **lingodb** — a research prototype: no SQL window functions (so UID
  generation, and with it the Grizzly-simulated baseline, cannot run on it)
  and a join-processing limitation that rejects the plan for TPC-H Q12.
"""

from __future__ import annotations

from ..sqlengine.executor import EngineConfig
from .base import Backend, Dialect, register_backend

__all__ = ["NativeBackend", "DuckDBSim", "HyperSim", "LingoDBSim"]

_SIMULATED = "simulated-profile"

NativeBackend = register_backend(Backend(
    name="native",
    engine_config=EngineConfig(name="native"),
    dialect=Dialect(),
    description="in-process NumPy engine (default execution backend)",
))

DuckDBSim = register_backend(Backend(
    name="duckdb",
    engine_config=EngineConfig(name="duckdb", join_reorder=False),
    dialect=Dialect(name="duckdb"),
    kind=_SIMULATED,
    description="DuckDB execution paradigm simulated on the native engine",
))

HyperSim = register_backend(Backend(
    name="hyper",
    engine_config=EngineConfig(name="hyper"),
    dialect=Dialect(name="hyper",
                    substring_function="SUBSTRING({arg}, {start}, {length})",
                    strftime_function="TO_CHAR({arg}, {fmt})"),
    kind=_SIMULATED,
    description="Hyper execution paradigm simulated on the native engine",
))

LingoDBSim = register_backend(Backend(
    name="lingodb",
    engine_config=EngineConfig(name="lingodb", supports_window=False),
    dialect=Dialect(name="lingodb", supports_window=False),
    rejects=frozenset({"tpch_q12"}),
    kind=_SIMULATED,
    description="LingoDB research prototype simulated on the native engine",
))
