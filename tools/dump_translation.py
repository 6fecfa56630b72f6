"""Dump the TondIR and native SQL of every registry ``@pytond`` function.

For each of the 22 TPC-H queries, the data-science pipelines of
``repro.workloads.WORKLOADS`` and the two covariance layouts, prints
``repr(fn.tondir(level))`` and ``fn.sql("native", db=...)`` at O0..O4.
The output is deterministic, so two commits translate identically exactly
when their dumps are byte-identical::

    PYTHONPATH=src python tools/dump_translation.py > a.txt
    (other checkout) PYTHONPATH=src python tools/dump_translation.py > b.txt
    cmp a.txt b.txt

A function whose translation fails prints its error type and message in
place of the program, so a refusal is part of the comparison too.
"""

from __future__ import annotations

import sys

from repro.sqlengine import connect
from repro.workloads import WORKLOADS
from repro.workloads import covariance as cov
from repro.workloads.tpch import QUERIES, generate, register_tpch

LEVELS = ("O0", "O1", "O2", "O3", "O4")


def _database(tables: dict, primary_keys: dict):
    db = connect()
    for table, columns in tables.items():
        db.register(table, columns, primary_key=primary_keys.get(table))
    return db


def _cases():
    tpch = connect()
    register_tpch(tpch, generate(scale_factor=0.002, seed=1))
    for q in sorted(QUERIES):
        yield f"tpch_q{q}", QUERIES[q], tpch
    for k, (name, w) in enumerate(sorted(WORKLOADS.items())):
        data = w.make_data(scale=0.05, seed=100 + k)
        yield name, w.fn, _database({t: data[t] for t in w.tables}, w.primary_keys)
    dense = cov.make_matrix(40, 4, 1.0, seed=150)
    yield ("covariance_dense", cov.covariance_dense,
           _database({"matrix": cov.dense_table(dense)}, {"matrix": "ID"}))
    sparse = cov.make_matrix(40, 4, 0.3, seed=151)
    yield ("covariance_sparse", cov.covariance_sparse,
           _database({"matrix_coo": cov.sparse_table(sparse)}, {}))


def main() -> int:
    out = sys.stdout
    for name, fn, db in _cases():
        for level in LEVELS:
            out.write(f"== {name} {level}\n")
            try:
                out.write(repr(fn.tondir(level, db=db)) + "\n")
                out.write(fn.sql("native", level, db=db) + "\n")
            except Exception as exc:  # noqa: BLE001 - the refusal is the output
                out.write(f"!! {type(exc).__name__}: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
