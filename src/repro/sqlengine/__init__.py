"""In-memory columnar SQL engine (substrate #2 of the reproduction).

A pure-Python/NumPy analytical RDBMS: SQL parser, catalog with constraint
metadata, a cost-aware physical planner (filter pushdown, projection
pruning, cardinality-estimated join ordering) compiling to an explicit
operator pipeline — the one execution path — with intra-query
thread parallelism (filters, projections, hash-join probes, hash-aggregate
reductions, partition-parallel window functions), and a per-connection
plan cache.
"""

from .catalog import Catalog, TableSchema
from .database import Database, PreparedStatement, connect
from .executor import EngineConfig, Executor
from .params import ParamSignature, bind_parameters, signature_of
from .parser import parse, parse_expression
from .plan import PhysicalPlan
from .planner import Planner
from .runtime_stats import OpStats, RuntimeStats
from .table import Chunk, Table

__all__ = [
    "Catalog",
    "TableSchema",
    "Database",
    "PreparedStatement",
    "connect",
    "EngineConfig",
    "Executor",
    "ParamSignature",
    "bind_parameters",
    "signature_of",
    "parse",
    "parse_expression",
    "PhysicalPlan",
    "Planner",
    "OpStats",
    "RuntimeStats",
    "Chunk",
    "Table",
]
