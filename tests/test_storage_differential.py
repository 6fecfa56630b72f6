"""Out-of-core differential suite: all 22 TPC-H queries vs the sqlite3
oracle, with every table loaded from the persistent column store and the
engine driven through three memory-budget scenarios:

* ``none``  — no budget: pure on-disk scan path (plus zone-map pruning);
* ``agg``   — 256 KiB: aggregate inputs exceed the budget and take the
  grace-partitioned spill path, join build sides still fit;
* ``low``   — 8 KiB: joins *and* aggregates spill.

Each scenario must agree row-for-row with an independent engine at
threads 1 and 4 — the safety net behind the storage tentpole: a spill or
pruning bug that changes results diverges from the oracle.

A second leg compares the store against RAM-resident copies of the same
rows: string columns come off disk as ``DictColumn``s (codes are slices of
the column mapping), and the 22 queries and the four ``tpch_mix`` serving
templates must return identical chunks — columns, dtypes, row order, bits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import connect
from repro.bench.differential import assert_matches_backend
from repro.bench.storage import store_tpch
from repro.server.loadgen import tpch_mix
from repro.sqlengine import EngineConfig
from repro.sqlengine.runtime_stats import RuntimeStats
from repro.sqlengine.table import DictColumn
from repro.storage import ColumnStore, open_store
from repro.workloads.tpch import PRIMARY_KEYS, QUERIES

# Budgets calibrated to the SF=0.002 dataset (lineitem ~12k rows, ~96 KiB
# per int64 column): AGG exceeds every join build side but not the wide
# aggregate inputs; LOW forces both operators to spill.
AGG_BUDGET = 262_144
LOW_BUDGET = 8_192
SCENARIOS = {"none": None, "agg": AGG_BUDGET, "low": LOW_BUDGET}


@pytest.fixture(scope="module")
def stored_db(tpch_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("tpch-store")
    store = ColumnStore(root)
    store_tpch(store, tpch_dataset, chunk_rows=2048)
    db = connect()
    open_store(root).attach(db)
    return db


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("q", sorted(QUERIES))
def test_tpch_from_store_matches_sqlite(q, scenario, threads, stored_db):
    sql = QUERIES[q].sql("duckdb", level="O4", db=stored_db)
    config = EngineConfig(threads=threads,
                          memory_budget=SCENARIOS[scenario])
    assert_matches_backend(
        stored_db, sql, backend="sqlite", config=config,
        context=f"tpch_q{q}[store,{scenario},threads={threads}]")


def test_agg_budget_actually_spills_q1(stored_db):
    """The ``agg`` scenario must exercise the aggregate spill path."""
    sql = QUERIES[1].sql("duckdb", level="O4", db=stored_db)
    trace = stored_db.explain(sql, config=EngineConfig(
        memory_budget=AGG_BUDGET))
    assert "spill: hash aggregate" in trace
    assert "spill: hash join" not in trace


def test_low_budget_actually_spills_q9_joins(stored_db):
    """The ``low`` scenario must exercise the join spill path."""
    sql = QUERIES[9].sql("duckdb", level="O4", db=stored_db)
    trace = stored_db.explain(sql, config=EngineConfig(
        memory_budget=LOW_BUDGET))
    assert "spill: hash join" in trace
    assert "spill: hash aggregate" in trace


def _assert_identical(stored, resident, context):
    assert stored.columns == resident.columns, context
    for col, a, b in zip(stored.columns, stored.arrays, resident.arrays):
        assert a.dtype == b.dtype, f"{context}.{col}"
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), f"{context}.{col}"
        else:
            assert a.tolist() == b.tolist(), f"{context}.{col}"


@pytest.mark.parametrize("q", [1, 9])
def test_spilled_results_bit_identical(q, stored_db):
    """Q1/Q9 under a sub-working-set budget are *bit-identical* to the
    same tables executed fully in memory at threads=1: the grace join's
    canonical output order matches the integer fast path, and aggregate
    partitions preserve per-group row order, so float sums agree exactly
    (not merely to tolerance)."""
    sql = QUERIES[q].sql("duckdb", level="O4", db=stored_db)
    base = stored_db.execute_chunk(sql, EngineConfig(threads=1))
    spilled = stored_db.execute_chunk(
        sql, EngineConfig(threads=1, memory_budget=LOW_BUDGET))
    _assert_identical(spilled, base, f"tpch_q{q}[spilled]")


# ---------------------------------------------------------------------------
# Stored vs RAM-resident identity
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def resident_db(stored_db):
    """The stored rows (in their clustered order) as RAM-resident tables."""
    db = connect()
    for name in stored_db.catalog.names():
        table = stored_db.catalog.get(name)
        db.register(name, dict(zip(table.columns, table.arrays)),
                    primary_key=PRIMARY_KEYS[name])
    return db


def test_string_columns_come_off_disk_encoded(stored_db):
    chunk = stored_db.catalog.get("lineitem").scan(
        ["l_returnflag", "l_shipmode", "l_comment"], chunk_ids=[1, 2])
    flag, mode, comment = chunk.arrays
    assert isinstance(flag, DictColumn) and isinstance(mode, DictColumn)
    assert not flag.codes.flags.owndata         # a slice of the mapping
    assert isinstance(comment, np.ndarray)      # over MAX_DICT_ENTRIES


@pytest.mark.parametrize("q", sorted(QUERIES))
def test_tpch_stored_identical_to_resident(q, stored_db, resident_db):
    sql = QUERIES[q].sql("duckdb", level="O4", db=stored_db)
    _assert_identical(stored_db.execute_chunk(sql),
                      resident_db.execute_chunk(sql), f"tpch_q{q}")


@pytest.mark.parametrize("template", tpch_mix(), ids=lambda t: t.name)
def test_mix_template_stored_identical_to_resident(template, stored_db,
                                                   resident_db):
    rng = np.random.default_rng(5)
    stored = stored_db.prepare(template.sql)
    resident = resident_db.prepare(template.sql)
    for _ in range(5):
        params = template.make_params(rng)
        _assert_identical(stored.execute_chunk(params),
                          resident.execute_chunk(params), template.name)


def test_lineitem_agg_over_store_never_reencodes(stored_db):
    """The group key arrives as codes: no kernel encodes (or decodes) a
    row — EXPLAIN ANALYZE would show it as ``dict_encoded_rows``."""
    template = next(t for t in tpch_mix() if t.name == "lineitem_agg")
    stats = RuntimeStats()
    stored_db.execute_chunk(template.sql, params={"maxqty": 30}, stats=stats)
    assert "l_returnflag(" in "".join(stats.scan_dicts.values())
    assert stats.dict_encoded_rows == 0 and stats.dict_decoded_rows == 0
    assert "dict_encoded_rows=0" in stats.render()
