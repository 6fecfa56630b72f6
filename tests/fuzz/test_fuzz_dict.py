"""Tier-1 dictionary fuzz corpus: 200 fixed-seed grammar-driven queries run
twice over the same data — once with the string columns dictionary-encoded
at the Scan (the engine as shipped), once with the cardinality limit patched
*in this test* so that no column is encoded and every string reaches the
kernels as a plain object array — at threads {1, 4}.

There is one string-key path (a plain array is encoded inside the kernel
that needs codes), so the two runs must agree cell for cell, row order
included; an error must be the same error.
"""

from __future__ import annotations

import pytest

from repro.backends.rows import chunk_rows, norm_cell
from repro.bench.sqlfuzz import build_fuzz_db, generate, render
from repro.sqlengine import EngineConfig
from repro.sqlengine import table as table_mod
from repro.sqlengine.table import DictColumn

N_SEEDS = 200
BATCH = 50
# Enough rows that filters, joins and aggregates take their parallel paths.
NROWS = 4200


def _rows(db, sql: str, threads: int):
    try:
        chunk = db.execute_chunk(sql, EngineConfig(threads=threads))
    except Exception as exc:  # any engine error is data here
        return type(exc).__name__
    return [tuple(map(norm_cell, row)) for row in chunk_rows(chunk)]


@pytest.fixture(scope="module")
def dbs():
    return build_fuzz_db(nrows=NROWS), build_fuzz_db(nrows=NROWS)


@pytest.mark.parametrize("batch", range(N_SEEDS // BATCH))
def test_encoded_and_plain_columns_agree(batch, dbs, monkeypatch):
    encoded_db, plain_db = dbs
    for seed in range(batch * BATCH, (batch + 1) * BATCH):
        sql = render(generate(seed))
        for threads in (1, 4):
            want = _rows(encoded_db, sql, threads)
            with monkeypatch.context() as patch:
                patch.setattr(table_mod, "MAX_DICT_ENTRIES", -1)
                got = _rows(plain_db, sql, threads)
            assert got == want, f"seed={seed} threads={threads}\nsql: {sql}"


def test_the_two_databases_differ_only_in_representation(dbs, monkeypatch):
    encoded_db, plain_db = dbs
    strings = {"orders": ["tag", "note"], "parts": ["label", "code"]}
    for table, columns in strings.items():
        chunk = encoded_db.catalog.get(table).scan(columns)
        assert all(isinstance(a, DictColumn) for a in chunk.arrays)
        with monkeypatch.context() as patch:
            patch.setattr(table_mod, "MAX_DICT_ENTRIES", -1)
            chunk = plain_db.catalog.get(table).scan(columns)
        assert not any(isinstance(a, DictColumn) for a in chunk.arrays)
