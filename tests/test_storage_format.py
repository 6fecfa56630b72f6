"""Persistent column-store format tests: roundtrip, restart-without-reload,
typed corruption errors, the materializer registry, and a property test
that zone-map pruning never changes results.
"""

from __future__ import annotations

import json
import sqlite3

import numpy as np
import pytest

from repro import connect
from repro.errors import StorageError
from repro.sqlengine import EngineConfig
from repro.sqlengine.table import DictColumn, plain
from repro.storage import (
    ColumnStore, StoredTable, ingest, materialize, materializers,
    open_store, register_materializer,
)


def _dataset(n=1000, seed=3):
    rng = np.random.default_rng(seed)
    return {
        "id": np.arange(n, dtype=np.int64),
        "grp": rng.integers(0, 17, n),
        "val": np.round(rng.normal(50.0, 20.0, n), 3),
        "day": (np.datetime64("2021-01-01") +
                rng.integers(0, 365, n).astype("timedelta64[D]")),
        "tag": rng.choice(np.array(["ab", "cd", "ef", "gh"], dtype=object), n),
    }


@pytest.fixture()
def store(tmp_path):
    s = ColumnStore(tmp_path / "store")
    s.write_table("t", _dataset(), primary_key="id", chunk_rows=128,
                  sort_by="day")
    return s


# ---------------------------------------------------------------------------
# Roundtrip + restart without reload
# ---------------------------------------------------------------------------

class TestRoundtrip:
    def test_attach_and_query(self, store):
        db = connect()
        assert store.attach(db) == ["t"]
        table = db.catalog.get("t")
        assert isinstance(table, StoredTable)
        assert table.nchunks == 8 and table.has_zone_maps
        out = db.execute("SELECT COUNT(*) AS n, SUM(grp) AS s FROM t")
        data = _dataset()
        assert out["n"][0] == 1000
        assert out["s"][0] == int(data["grp"].sum())

    def test_columns_roundtrip_exactly(self, store):
        data = _dataset()
        table = store.table("t")
        order = np.argsort(data["day"], kind="stable")
        for col in data:
            np.testing.assert_array_equal(table.column(col), data[col][order])

    def test_restart_without_reload(self, store, tmp_path):
        """Ingest -> close -> reopen from the manifest alone: identical
        results, sane cache/catalog counters."""
        sql = ("SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM t "
               "WHERE day >= DATE '2021-06-01' GROUP BY grp ORDER BY grp")
        db1 = connect()
        store.attach(db1)
        before = db1.execute(sql).to_dict()

        reopened = open_store(store.root)  # nothing shared with `store`
        assert reopened.catalog_version == store.catalog_version == 1
        db2 = connect()
        reopened.attach(db2)
        assert db2.catalog.version == 1
        after = db2.execute(sql).to_dict()
        assert before == after
        stats = db2.cache_stats()
        assert stats["entries"] >= 0 and stats["misses"] >= 0

    def test_reattach_invalidates_plans(self, store):
        db = connect()
        store.attach(db)
        db.execute("SELECT COUNT(*) AS n FROM t")
        v = db.catalog.version
        store.write_table("t2", {"x": np.arange(5)}, chunk_rows=2)
        store.attach(db, ["t2"])
        assert db.catalog.version == v + 1

    def test_drop_table(self, store):
        store.drop_table("t")
        assert store.tables() == []
        with pytest.raises(StorageError):
            store.table("t")


# ---------------------------------------------------------------------------
# Typed corruption errors
# ---------------------------------------------------------------------------

class TestCorruption:
    def test_missing_store(self, tmp_path):
        with pytest.raises(StorageError, match="no column store"):
            open_store(tmp_path / "nothing-here")

    def test_garbage_manifest(self, store):
        (store.root / "manifest.json").write_text("{not json at all")
        with pytest.raises(StorageError, match="corrupt manifest"):
            open_store(store.root)

    def test_wrong_structure_manifest(self, store):
        doc = json.loads((store.root / "manifest.json").read_text())
        doc["tables"] = ["t"]
        (store.root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(StorageError, match="tables is not an object"):
            open_store(store.root)

    def test_nrows_chunk_mismatch(self, store):
        doc = json.loads((store.root / "manifest.json").read_text())
        doc["tables"]["t"]["nrows"] = 999
        (store.root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(StorageError, match="chunk boundaries"):
            open_store(store.root)

    def test_unknown_format(self, store):
        doc = json.loads((store.root / "manifest.json").read_text())
        doc["format"] = "somebody-elses"
        (store.root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(StorageError, match="unknown format"):
            open_store(store.root)

    # One file per column: ``id`` is c000.npy, ``tag`` (strings) is
    # c004.npy (int32 codes) + c004.dict.npy (the dictionary page).
    def test_missing_column_file(self, store):
        (store.root / "t" / "c000.npy").unlink()
        table = open_store(store.root).table("t")      # attach reads no file
        with pytest.raises(StorageError, match="missing column file"):
            table.scan(["id"])

    def test_truncated_column_file(self, store):
        path = store.root / "t" / "c000.npy"
        path.write_bytes(path.read_bytes()[:-4000])    # header intact
        table = open_store(store.root).table("t")
        with pytest.raises(StorageError, match="unreadable column file"):
            table.scan(["id"])
        path.write_bytes(path.read_bytes()[:40])       # header cut
        with pytest.raises(StorageError):
            table.scan(["id"], chunk_ids=[7])

    def test_short_column_file(self, store):
        np.save(store.root / "t" / "c000.npy", np.arange(999, dtype=np.int64))
        table = open_store(store.root).table("t")
        with pytest.raises(StorageError, match="manifest expects 1000"):
            table.scan(["id"], chunk_ids=[0])

    def test_wrong_dtype_column_file(self, store):
        np.save(store.root / "t" / "c000.npy", np.zeros(1000, dtype=np.float32))
        table = open_store(store.root).table("t")
        with pytest.raises(StorageError, match="dtype"):
            table.scan(["id"])
        # A string column's file must hold int32 codes, not pickled objects.
        np.save(store.root / "t" / "c004.npy",
                np.array(["ab"] * 1000, dtype=object), allow_pickle=True)
        with pytest.raises(StorageError, match="unreadable column file"):
            table.scan(["tag"])

    def test_corrupt_dictionary_page(self, store):
        path = store.root / "t" / "c004.dict.npy"
        path.write_bytes(path.read_bytes()[:-7] + b"garbage")
        table = open_store(store.root).table("t")
        with pytest.raises(StorageError, match="unreadable column file"):
            table.scan(["tag"])
        path.unlink()
        with pytest.raises(StorageError, match="missing column file"):
            table.scan(["tag"])

    def test_short_dictionary_page(self, store):
        np.save(store.root / "t" / "c004.dict.npy",
                np.array(["ab", "cd", "ef"], dtype=object), allow_pickle=True)
        table = open_store(store.root).table("t")
        with pytest.raises(StorageError, match="manifest expects 4"):
            table.scan(["tag"])

    @pytest.mark.parametrize("bad", [5, -1])
    def test_code_outside_dictionary(self, store, bad):
        """Codes 0..3 are values and 4 is NULL; anything else would index
        past the dictionary (or wrap to its end) and decode a wrong row."""
        path = store.root / "t" / "c004.npy"
        codes = np.load(path)
        codes[500] = bad
        np.save(path, codes)
        table = open_store(store.root).table("t")
        with pytest.raises(StorageError, match="codes outside"):
            table.scan(["tag"], chunk_ids=[0])

    def test_bad_column_never_poisons_the_others(self, store):
        (store.root / "t" / "c001.npy").unlink()
        table = open_store(store.root).table("t")
        with pytest.raises(StorageError):
            table.scan(["grp"])
        assert table.scan(["id"]).nrows == 1000
        with pytest.raises(StorageError):              # and is not cached
            table.scan(["grp"])

    def test_version_1_store_asks_for_reingest(self, store):
        doc = json.loads((store.root / "manifest.json").read_text())
        doc["format_version"] = 1
        (store.root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(StorageError, match="re-ingest"):
            open_store(store.root)

    def test_malformed_dict_entry_in_manifest(self, store):
        doc = json.loads((store.root / "manifest.json").read_text())
        doc["tables"]["t"]["columns"][4]["dict"] = "four"
        (store.root / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(StorageError, match="malformed column list"):
            open_store(store.root)

    def test_unhashable_object_column_is_rejected_at_write(self, tmp_path):
        s = ColumnStore(tmp_path / "store")
        col = np.empty(2, dtype=object)
        col[0], col[1] = [1], [2]
        with pytest.raises(StorageError, match="cannot be stored"):
            s.write_table("bad", {"x": col})


# ---------------------------------------------------------------------------
# Scans: one mapping per column, slices per chunk run
# ---------------------------------------------------------------------------

def _sorted_dataset():
    data = _dataset()
    order = np.argsort(data["day"], kind="stable")
    return {c: a[order] for c, a in data.items()}


class TestScan:
    def test_contiguous_run_is_a_zero_copy_slice(self, store):
        table = store.table("t")
        whole = table.scan(["id", "val"])
        part = table.scan(["id", "val"], chunk_ids=[2, 3, 4])
        expected = _sorted_dataset()
        for chunk, rows in ((whole, slice(None)), (part, slice(256, 640))):
            for col, arr in zip(chunk.columns, chunk.arrays):
                np.testing.assert_array_equal(arr, expected[col][rows])
                assert not arr.flags.owndata and not arr.flags.writeable
        assert np.shares_memory(whole.arrays[0], part.arrays[0])

    def test_non_contiguous_runs_are_concatenated_in_order(self, store):
        table = store.table("t")
        expected = _sorted_dataset()
        rows = np.r_[0:128, 384:640, 896:1000]
        chunk = table.scan(None, chunk_ids=[0, 3, 4, 7])
        assert chunk.columns == list(expected)
        for col, arr in zip(chunk.columns, chunk.arrays):
            np.testing.assert_array_equal(plain(arr), expected[col][rows])

    def test_string_column_leaves_the_scan_encoded(self, store):
        table = store.table("t")
        tag = table.scan(["tag"], chunk_ids=[1, 5]).arrays[0]
        assert isinstance(tag, DictColumn) and tag.codes.dtype == np.int32
        assert tag.null_code == 4
        again = table.scan(["tag"]).arrays[0]
        assert again.dictionary is tag.dictionary       # loaded once
        np.testing.assert_array_equal(
            tag.decode(), _sorted_dataset()["tag"][np.r_[128:256, 640:768]])

    def test_column_over_the_dictionary_limit_is_gathered(self, store,
                                                          monkeypatch):
        import repro.sqlengine.table as engine_table

        monkeypatch.setattr(engine_table, "MAX_DICT_ENTRIES", 3)
        tag = store.table("t").scan(["tag"], chunk_ids=[6]).arrays[0]
        assert isinstance(tag, np.ndarray) and tag.dtype == object
        np.testing.assert_array_equal(tag, _sorted_dataset()["tag"][768:896])

    def test_nulls_roundtrip_through_the_null_code(self, tmp_path):
        s = ColumnStore(tmp_path / "store")
        s.write_table("n", {"k": np.arange(5),
                            "s": np.array(["x", None, "y", None, "x"],
                                          dtype=object)}, chunk_rows=2)
        table = s.table("n")
        assert table.column("s").tolist() == ["x", None, "y", None, "x"]
        assert table.chunk_stats("s", 0).nulls == 1
        assert (table.chunk_stats("s", 1).min, table.chunk_stats("s", 1).max) \
            == ("y", "y")
        db = connect()
        s.attach(db)
        out = db.execute("SELECT k FROM n WHERE s IS NULL ORDER BY k")
        assert out["k"].tolist() == [1, 3]

    def test_empty_chunk_ids(self, store):
        chunk = store.table("t").scan(["id", "tag", "day"], chunk_ids=[])
        assert chunk.nrows == 0 and chunk.columns == ["id", "day", "tag"]
        assert [a.dtype for a in chunk.arrays] == [
            np.dtype(np.int64), np.dtype("datetime64[D]"), np.dtype(object)]

    def test_keep_columns_matching_nothing_keeps_the_first(self, store):
        chunk = store.table("t").scan(["nope"], chunk_ids=[1])
        assert chunk.columns == ["id"] and chunk.nrows == 128

    def test_zero_row_table(self, tmp_path):
        s = ColumnStore(tmp_path / "store")
        s.write_table("e", {"a": np.empty(0, dtype=np.int64),
                            "s": np.empty(0, dtype=object)})
        table = open_store(s.root).table("e")
        assert table.nrows == 0 and table.nchunks == 1
        for ids in (None, [0], []):
            chunk = table.scan(None, chunk_ids=ids)
            assert chunk.nrows == 0 and chunk.columns == ["a", "s"]
        db = connect()
        s.attach(db)
        out = db.execute("SELECT COUNT(*) AS n, MIN(s) AS m FROM e")
        assert out["n"][0] == 0

    def test_io_stats_count_logical_chunks(self, store):
        table = store.table("t")
        table.scan(["id", "val"], chunk_ids=[0, 1, 5])
        assert table.io_stats == {"chunks_read": 6, "rows_read": 768,
                                  "bytes_read": 768 * 8}
        table.reset_io_stats()
        table.scan(["tag"])
        assert table.io_stats == {"chunks_read": 8, "rows_read": 1000,
                                  "bytes_read": 4000}

    def test_scans_open_no_file_after_the_first(self, store, monkeypatch):
        """Every column file is mapped once per StoredTable; a warm scan —
        whole, pruned or through SQL — touches no file API at all."""
        import builtins
        import io

        db = connect()
        open_store(store.root).attach(db)
        table = db.catalog.get("t")
        sql = ("SELECT tag, COUNT(*) AS n, SUM(val) AS s FROM t "
               "WHERE day >= DATE '2021-06-01' GROUP BY tag ORDER BY tag")
        first = db.execute(sql).to_dict()
        table.scan()
        opened = []

        def counting(real):
            def wrapper(*args, **kwargs):
                opened.append(args[0])
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(io, "open", counting(io.open))
        monkeypatch.setattr(np, "load", counting(np.load))
        assert db.execute(sql).to_dict() == first
        table.scan()
        table.scan(["id", "tag"], chunk_ids=[0, 2, 3])
        assert opened == []

    def test_rewrite_and_reattach_serves_the_new_data(self, store):
        """Mappings belong to the StoredTable: a table object attached
        before a re-write keeps serving the rows it was opened on, a
        re-attach serves the new ones."""
        db = connect()
        store.attach(db)
        before = db.catalog.get("t")
        assert db.execute("SELECT SUM(grp) AS s, MIN(tag) AS m FROM t")["s"][0] \
            == int(_dataset()["grp"].sum())
        store.write_table("t", {"id": np.arange(10, dtype=np.int64),
                                "grp": np.full(10, 7),
                                "tag": np.array(["zz"] * 10, dtype=object)},
                          primary_key="id", chunk_rows=4)
        assert before.scan(["grp"]).nrows == 1000
        version = db.catalog.version
        store.attach(db, ["t"])
        assert db.catalog.version == version + 1
        out = db.execute("SELECT SUM(grp) AS s, MIN(tag) AS m FROM t")
        assert (out["s"][0], out["m"][0]) == (70, "zz")

    def test_concurrent_scans_lose_no_io_stats(self, store):
        """Scheduler threads scan one StoredTable concurrently while it
        maps its columns; every scan's counts must land."""
        import sys
        import threading

        table = store.table("t")
        scans, workers = 200, 8
        errors = []

        def worker():
            try:
                for _ in range(scans):
                    table.scan(["id", "tag"], chunk_ids=[1, 2])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        total = scans * workers
        assert table.io_stats == {"chunks_read": total * 4,
                                  "rows_read": total * 512,
                                  "bytes_read": total * 256 * 12}
        assert len(table._handles) == 2


# ---------------------------------------------------------------------------
# Materializers
# ---------------------------------------------------------------------------

class TestMaterializers:
    def test_builtins_registered(self):
        names = materializers()
        for expected in ("csv", "sqlite", "parquet", "arrays"):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(StorageError, match="unknown materializer"):
            materialize("no-such-format", "whatever")

    def test_csv_ingest(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,b,d\n1,x,2024-01-02\n2,y,2024-02-03\n")
        store = ColumnStore(tmp_path / "store")
        ingest(store, "csvt", "csv", str(csv_path), chunk_rows=1)
        db = connect()
        store.attach(db)
        out = db.execute("SELECT a, b FROM csvt ORDER BY a").to_dict()
        assert out == {"a": [1, 2], "b": ["x", "y"]}

    def test_sqlite_ingest(self, tmp_path):
        sq = tmp_path / "src.db"
        con = sqlite3.connect(sq)
        con.execute("CREATE TABLE src (k INTEGER, name TEXT, v REAL)")
        con.executemany("INSERT INTO src VALUES (?, ?, ?)",
                        [(1, "a", 1.5), (2, "b", 2.5), (3, None, 3.5)])
        con.commit()
        con.close()
        store = ColumnStore(tmp_path / "store")
        ingest(store, "src", "sqlite", str(sq), table="src", chunk_rows=2)
        db = connect()
        store.attach(db)
        out = db.execute("SELECT k, v FROM src WHERE name IS NOT NULL "
                         "ORDER BY k").to_dict()
        assert out == {"k": [1, 2], "v": [1.5, 2.5]}

    def test_sqlite_ingest_needs_table_or_query(self, tmp_path):
        with pytest.raises(StorageError, match="exactly one"):
            materialize("sqlite", str(tmp_path / "x.db"))

    def test_custom_materializer(self, tmp_path):
        def load_range(source, n=4):
            return {"x": np.arange(n, dtype=np.int64)}

        register_materializer("range-test", load_range, replace=True)
        store = ColumnStore(tmp_path / "store")
        ingest(store, "r", "range-test", None, n=6, chunk_rows=4)
        assert store.table("r").nrows == 6

    def test_duplicate_registration_raises(self):
        with pytest.raises(StorageError, match="already registered"):
            register_materializer("csv", lambda s: {})

    def test_parquet_ingest(self, tmp_path):
        pa = pytest.importorskip("pyarrow")
        pq = pytest.importorskip("pyarrow.parquet")
        table = pa.table({"a": [1, 2, 3], "s": ["x", "y", "z"]})
        path = tmp_path / "data.parquet"
        pq.write_table(table, path)
        store = ColumnStore(tmp_path / "store")
        ingest(store, "p", "parquet", str(path), chunk_rows=2)
        db = connect()
        store.attach(db)
        out = db.execute("SELECT a, s FROM p ORDER BY a").to_dict()
        assert out == {"a": [1, 2, 3], "s": ["x", "y", "z"]}

    def test_parquet_without_pyarrow_raises_typed(self, monkeypatch):
        import builtins

        real_import = builtins.__import__

        def no_pyarrow(name, *a, **k):
            if name.startswith("pyarrow"):
                raise ImportError(name)
            return real_import(name, *a, **k)

        monkeypatch.setattr(builtins, "__import__", no_pyarrow)
        with pytest.raises(StorageError, match="requires pyarrow"):
            materialize("parquet", "whatever.parquet")


# ---------------------------------------------------------------------------
# Property test: pruning never changes results
# ---------------------------------------------------------------------------

class TestPruningProperty:
    def test_randomized_range_predicates(self, store):
        """Zone-map pruning is an optimization, never a semantic change:
        randomized comparison/range/IN predicates over every prunable
        column must return identical rows with pruning on and off."""
        db = connect()
        store.attach(db)
        rng = np.random.default_rng(11)
        off = EngineConfig(zone_map_pruning=False)
        days = [f"2021-{m:02d}-{d:02d}"
                for m in range(1, 13) for d in (1, 15)]
        for _ in range(40):
            col, lo, hi = {
                0: ("id", int(rng.integers(0, 1000)),
                    int(rng.integers(0, 1000))),
                1: ("grp", int(rng.integers(0, 17)), int(rng.integers(0, 17))),
                2: ("val", round(float(rng.uniform(-20, 120)), 2),
                    round(float(rng.uniform(-20, 120)), 2)),
                3: ("day", f"DATE '{days[rng.integers(0, len(days))]}'",
                    f"DATE '{days[rng.integers(0, len(days))]}'"),
                4: ("tag", "'cd'", "'gh'"),
            }[int(rng.integers(0, 5))]
            lo, hi = (hi, lo) if str(lo) > str(hi) else (lo, hi)
            pred = rng.choice([
                f"{col} >= {lo}",
                f"{col} < {hi}",
                f"{col} BETWEEN {lo} AND {hi}",
                f"{col} = {lo}",
            ])
            sql = (f"SELECT id, grp, val FROM t WHERE {pred} "
                   f"ORDER BY id")
            assert db.execute(sql).to_dict() == \
                db.execute(sql, config=off).to_dict(), pred

    def test_in_list_pruning_agrees(self, store):
        db = connect()
        store.attach(db)
        off = EngineConfig(zone_map_pruning=False)
        sql = ("SELECT COUNT(*) AS n FROM t "
               "WHERE grp IN (1, 5, 16) AND tag IN ('ab', 'gh')")
        assert db.execute(sql).to_dict() == \
            db.execute(sql, config=off).to_dict()

    def test_null_literal_predicate_prunes_everything(self, store):
        db = connect()
        store.attach(db)
        out = db.execute("SELECT COUNT(*) AS n FROM t WHERE grp = NULL")
        assert out["n"][0] == 0
