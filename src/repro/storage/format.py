"""The persistent columnar format: one ``.npy`` file per column + manifest.

On-disk layout of a store rooted at ``<root>`` (format version 2)::

    <root>/manifest.json            # schema, chunk boundaries, zone maps
    <root>/<table>/c<col>.npy       # one file per column, every row
    <root>/<table>/c<col>.dict.npy  # string column: its dictionary page

The manifest is the single source of truth: it records the format version,
a monotonically increasing catalog version (bumped on every write/drop so
reopened databases see a sane DDL counter), and per table the column
schema, constraint metadata, chunk row counts, and per-chunk **zone maps**
(min/max/null-count per column) that the planner's interval tests consume
for partition pruning.  A chunk is a *logical* row range of the column
files.  Those are plain ``.npy`` arrays, memory-mapped once per
:class:`~repro.storage.table.StoredTable` (:func:`open_column`), so a scan
is a slice of the mapping and touches only the pages it needs.  A string
(``object``) column is stored as the engine computes on it: ``int32`` codes
plus one dictionary page of the distinct values in first-appearance order;
the code one past the last entry is NULL.

Every failure mode — unparsable or structurally invalid manifest, a store
of another format version (re-ingest it: only :meth:`ColumnStore.write_table`
writes stores), missing or truncated column files, dtype/row-count
mismatches, a corrupt dictionary page or a code outside it — raises a typed
:class:`~repro.errors.StorageError`.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ..dataframe._common import coerce_array
from ..errors import StorageError
from ..sqlengine.table import encode

__all__ = ["ColumnStore", "ZoneStats", "open_store", "create_store",
           "open_column", "DEFAULT_CHUNK_ROWS", "FORMAT_NAME",
           "FORMAT_VERSION", "MANIFEST_NAME"]

FORMAT_NAME = "repro-columnar"
FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
DEFAULT_CHUNK_ROWS = 8192


@dataclass(frozen=True)
class ZoneStats:
    """One chunk's zone map for one column: min/max over non-NULL values
    (None/None when the chunk is all-NULL), NULL count, row count, and the
    column dtype (so literal coercion happens in the right domain)."""

    min: object
    max: object
    nulls: int
    rows: int
    dtype: np.dtype


def _column_file(root: Path, table: str, col_idx: int, page: str = "") -> Path:
    # Files are named by column *position*, not name: column names are SQL
    # identifiers and make poor cross-platform file names.
    return root / table / f"c{col_idx:03d}{page}.npy"


# ---------------------------------------------------------------------------
# Zone-map computation / (de)serialization
# ---------------------------------------------------------------------------

def _zone_of(arr: np.ndarray, dictionary: np.ndarray | None = None) -> dict | None:
    """The JSON-able zone map of one chunk of a column (for a string column:
    of its codes, with *dictionary*), or None when the dtype has no total
    order worth tracking."""
    kind = arr.dtype.kind
    n = len(arr)
    if dictionary is not None:
        null_code = len(dictionary) - 1
        present = np.unique(arr)
        valid = dictionary[present[present != null_code]].tolist()
        return {"min": min(valid, default=None), "max": max(valid, default=None),
                "nulls": int(np.count_nonzero(arr == null_code))}
    if kind in ("i", "u"):
        if n == 0:
            return {"min": None, "max": None, "nulls": 0}
        return {"min": int(arr.min()), "max": int(arr.max()), "nulls": 0}
    if kind == "b":
        if n == 0:
            return {"min": None, "max": None, "nulls": 0}
        return {"min": bool(arr.min()), "max": bool(arr.max()), "nulls": 0}
    if kind == "f":
        null = np.isnan(arr)
        valid = arr[~null]
        if not len(valid):
            return {"min": None, "max": None, "nulls": int(null.sum())}
        return {"min": float(valid.min()), "max": float(valid.max()),
                "nulls": int(null.sum())}
    if kind == "M":
        null = np.isnat(arr)
        valid = arr[~null]
        if not len(valid):
            return {"min": None, "max": None, "nulls": int(null.sum())}
        return {"min": str(valid.min()), "max": str(valid.max()),
                "nulls": int(null.sum())}
    return None


def _decode_zone(zone: dict | None, dtype: np.dtype, rows: int) -> ZoneStats | None:
    if zone is None:
        return None
    lo, hi = zone.get("min"), zone.get("max")
    if dtype.kind == "M":
        lo = np.datetime64(lo) if lo is not None else None
        hi = np.datetime64(hi) if hi is not None else None
    return ZoneStats(min=lo, max=hi, nulls=int(zone.get("nulls", 0)),
                     rows=rows, dtype=dtype)


# ---------------------------------------------------------------------------
# Column file IO
# ---------------------------------------------------------------------------

def _load_array(path: Path, dtype: np.dtype, expected_rows: int) -> np.ndarray:
    """Load one ``.npy`` file, validated against the manifest.  Non-object
    dtypes are memory-mapped (the OS page cache, not the heap, owns the
    data) and returned as a plain read-only ``ndarray`` view."""
    try:
        if dtype == object:
            arr = np.load(path, allow_pickle=True)
        else:
            arr = np.asarray(np.load(path, mmap_mode="r"))
    except FileNotFoundError:
        raise StorageError(f"missing column file {path}") from None
    except Exception as exc:
        raise StorageError(f"unreadable column file {path}: {exc}") from exc
    if arr.ndim != 1 or len(arr) != expected_rows:
        raise StorageError(
            f"column file {path} holds {arr.shape} values, manifest expects "
            f"{expected_rows} (truncated or foreign file?)"
        )
    if arr.dtype != dtype:
        raise StorageError(
            f"column file {path} has dtype {arr.dtype}, manifest says {dtype}"
        )
    return arr


def open_column(root: Path, table: str, col_idx: int, meta: dict,
                nrows: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Map column *col_idx* of *table*: ``(data, None)``, or for a string
    column ``(codes, dictionary)`` with the dictionary's trailing NULL slot
    in place, every code checked to fall inside it."""
    entries = meta.get("dict")
    if entries is None:
        return _load_array(_column_file(root, table, col_idx),
                           np.dtype(meta["dtype"]), nrows), None
    codes = _load_array(_column_file(root, table, col_idx),
                        np.dtype(np.int32), nrows)
    dictionary = np.empty(entries + 1, dtype=object)
    dictionary[:-1] = _load_array(_column_file(root, table, col_idx, ".dict"),
                                  np.dtype(object), entries)
    if nrows and not 0 <= codes.min() <= codes.max() <= entries:
        raise StorageError(f"column {meta['name']!r} of table {table!r} holds "
                           f"codes outside its {entries}-entry dictionary")
    return codes, dictionary


# ---------------------------------------------------------------------------
# Manifest validation
# ---------------------------------------------------------------------------

def _validate_manifest(doc, path: Path) -> dict:
    def fail(why: str):
        raise StorageError(f"corrupt manifest {path}: {why}")

    if not isinstance(doc, dict):
        fail("top level is not an object")
    if doc.get("format") != FORMAT_NAME:
        fail(f"unknown format {doc.get('format')!r}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise StorageError(
            f"store {path.parent} has format_version "
            f"{doc.get('format_version')!r}, this build reads version "
            f"{FORMAT_VERSION}: re-ingest it with write_table")
    if not isinstance(doc.get("catalog_version"), int):
        fail("catalog_version is not an integer")
    tables = doc.get("tables")
    if not isinstance(tables, dict):
        fail("tables is not an object")
    for name, meta in tables.items():
        if not isinstance(meta, dict):
            fail(f"table {name!r} entry is not an object")
        columns = meta.get("columns")
        if not isinstance(columns, list) or not all(
            isinstance(c, dict) and isinstance(c.get("name"), str)
            and isinstance(c.get("dtype"), str)
            and isinstance(c.get("dict", 0), int) and c.get("dict", 0) >= 0
            for c in columns
        ):
            fail(f"table {name!r} has a malformed column list")
        for c in columns:
            try:
                np.dtype(c["dtype"])
            except TypeError:
                fail(f"table {name!r} column {c['name']!r} has invalid "
                     f"dtype {c['dtype']!r}")
        chunks = meta.get("chunks")
        if not isinstance(chunks, list) or not all(
            isinstance(ch, dict) and isinstance(ch.get("rows"), int)
            for ch in chunks
        ):
            fail(f"table {name!r} has a malformed chunk list")
        nrows = meta.get("nrows")
        if not isinstance(nrows, int) or nrows != sum(
            ch["rows"] for ch in chunks
        ):
            fail(f"table {name!r}: nrows does not match chunk boundaries")
    return doc


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class ColumnStore:
    """A directory of persistently stored columnar tables.

    ``ColumnStore(root)`` opens an existing store or initializes an empty
    one (``create=False`` insists the manifest already exists — the
    restart-without-reload path).  :meth:`write_table` ingests a mapping of
    columns, optionally clustering rows on a sort key so zone maps become
    selective; :meth:`table` returns a lazily-reading
    :class:`~repro.storage.table.StoredTable`; :meth:`attach` registers
    every stored table into a :class:`~repro.sqlengine.Database` catalog.
    """

    def __init__(self, root: str | os.PathLike, create: bool = True):
        self.root = Path(root)
        manifest_path = self.root / MANIFEST_NAME
        if manifest_path.exists():
            self._manifest = self._load_manifest(manifest_path)
        elif create:
            self.root.mkdir(parents=True, exist_ok=True)
            self._manifest = {
                "format": FORMAT_NAME,
                "format_version": FORMAT_VERSION,
                "catalog_version": 0,
                "tables": {},
            }
            self._save_manifest()
        else:
            raise StorageError(f"no column store at {self.root} "
                               f"(missing {MANIFEST_NAME})")

    # -- manifest ----------------------------------------------------------
    @staticmethod
    def _load_manifest(path: Path) -> dict:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise StorageError(f"corrupt manifest {path}: {exc}") from exc
        return _validate_manifest(doc, path)

    def _save_manifest(self) -> None:
        # Atomic replace: a crash mid-write leaves the previous manifest
        # intact rather than a half-written JSON document.
        tmp = self.root / (MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._manifest, fh, indent=1)
        os.replace(tmp, self.root / MANIFEST_NAME)

    @property
    def catalog_version(self) -> int:
        return self._manifest["catalog_version"]

    # -- writing -----------------------------------------------------------
    def write_table(
        self,
        name: str,
        data: Mapping[str, np.ndarray],
        primary_key: list[str] | str | None = None,
        unique: Iterable[str] | None = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        sort_by: str | list[str] | None = None,
    ) -> None:
        """Persist *data* (a mapping of equal-length columns) as *name*.

        ``chunk_rows`` fixes the chunk boundary stride.  ``sort_by``
        clusters rows on the named column(s) before chunking — zone maps
        only prune when values correlate with row position, so ingest-time
        clustering is what makes a date-range scan skip chunks.
        """
        if isinstance(primary_key, str):
            primary_key = [primary_key]
        if isinstance(sort_by, str):
            sort_by = [sort_by]
        if chunk_rows < 1:
            raise StorageError(f"chunk_rows must be positive, got {chunk_rows}")
        columns = [str(c) for c in data.keys()]
        arrays = [coerce_array(v) for v in data.values()]
        nrows = len(arrays[0]) if arrays else 0
        for col, arr in zip(columns, arrays):
            if len(arr) != nrows:
                raise StorageError(
                    f"column {col!r} length mismatch in table {name!r}"
                )
        if sort_by:
            for key in sort_by:
                if key not in columns:
                    raise StorageError(
                        f"sort_by column {key!r} not in table {name!r}"
                    )
            keys = [arrays[columns.index(k)] for k in reversed(sort_by)]
            order = np.lexsort(keys) if len(keys) > 1 else \
                np.argsort(keys[0], kind="stable")
            arrays = [a[order] for a in arrays]

        table_dir = self.root / name
        if table_dir.exists():
            shutil.rmtree(table_dir)
        table_dir.mkdir(parents=True)

        starts = list(range(0, nrows, chunk_rows)) or [0]
        chunks = [{"rows": min(start + chunk_rows, nrows) - start, "zones": {}}
                  for start in starts]
        schema: list[dict] = []
        for col_idx, (col, arr) in enumerate(zip(columns, arrays)):
            schema.append({"name": col, "dtype": arr.dtype.str})
            dictionary = None
            tracked = True
            if arr.dtype == object:
                try:
                    encoded = encode(arr)
                except TypeError as exc:
                    raise StorageError(f"column {col!r} of table {name!r} "
                                       f"cannot be stored: {exc}") from exc
                arr, dictionary = encoded.codes, encoded.dictionary
                np.save(_column_file(self.root, name, col_idx, ".dict"),
                        dictionary[:-1], allow_pickle=True)
                schema[-1]["dict"] = encoded.null_code
                # Strings have a total order; a mixed-type column does not.
                tracked = set(map(type, dictionary[:-1].tolist())) <= {str}
            np.save(_column_file(self.root, name, col_idx), arr)
            for chunk, start in zip(chunks, starts):
                zone = _zone_of(arr[start:start + chunk_rows], dictionary) \
                    if tracked else None
                if zone is not None:
                    chunk["zones"][col] = zone

        self._manifest["tables"][name] = {
            "nrows": nrows,
            "chunk_rows": chunk_rows,
            "primary_key": list(primary_key) if primary_key else [],
            "unique": sorted(set(unique)) if unique else [],
            "sort_by": list(sort_by) if sort_by else [],
            "columns": schema,
            "chunks": chunks,
        }
        self._manifest["catalog_version"] += 1
        self._save_manifest()

    def drop_table(self, name: str) -> None:
        if name not in self._manifest["tables"]:
            raise StorageError(f"unknown stored table {name!r}")
        del self._manifest["tables"][name]
        shutil.rmtree(self.root / name, ignore_errors=True)
        self._manifest["catalog_version"] += 1
        self._save_manifest()

    # -- reading -----------------------------------------------------------
    def tables(self) -> list[str]:
        return sorted(self._manifest["tables"])

    def table_meta(self, name: str) -> dict:
        try:
            return self._manifest["tables"][name]
        except KeyError:
            raise StorageError(f"unknown stored table {name!r}") from None

    def table(self, name: str):
        from .table import StoredTable

        return StoredTable(self.root, name, self.table_meta(name))

    def attach(self, db, names: Iterable[str] | None = None) -> list[str]:
        """Register stored tables into *db*'s catalog (no data is read and
        no column file opened — the first scan of a column maps it).
        Returns the attached names."""
        attached = []
        for name in (list(names) if names is not None else self.tables()):
            db.catalog.register(self.table(name))
            attached.append(name)
        return attached


def open_store(root: str | os.PathLike) -> ColumnStore:
    """Open an existing store; raise :class:`StorageError` when absent."""
    return ColumnStore(root, create=False)


def create_store(root: str | os.PathLike) -> ColumnStore:
    """Open a store, initializing an empty one when absent."""
    return ColumnStore(root, create=True)
