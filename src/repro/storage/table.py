"""StoredTable: a catalog table whose columns live on disk.

Behaves exactly like an in-memory :class:`~repro.sqlengine.table.Table`
behind the same interface — ``columns``/``dtypes``/``nrows``/``column``/
``scan``/``chunk`` — over the column store's files.  Each column file is
memory-mapped once, by the first scan that asks for it, validated against
the manifest and kept for the life of this object: a scan is a zero-copy
slice of the mapping (the runs of a pruned, non-contiguous scan are
concatenated) and its residency is whatever the OS page cache keeps warm.
A string column is ``int32`` codes + dictionary on disk and leaves the
scan as the :class:`~repro.sqlengine.table.DictColumn` a RAM-resident
table hands out — up to ``MAX_DICT_ENTRIES`` distinct values, beyond that
as ``dictionary[codes]``.

Zone-map metadata (``has_zone_maps`` / ``chunk_stats`` / ``chunk_length``)
is what the planner's partition pruning consumes; ``io_stats`` counts the
logical (column, chunk) pieces scans covered so tests and benchmarks can
assert a pruned scan read fewer of them.
"""

from __future__ import annotations

import threading
from itertools import accumulate
from pathlib import Path

import numpy as np

from ..errors import SQLBindError
from ..sqlengine import table as _table
from ..sqlengine.table import Chunk, DictColumn, Table
from .format import ZoneStats, _decode_zone, open_column

__all__ = ["StoredTable"]


class StoredTable(Table):
    """A table backed by a :class:`~repro.storage.format.ColumnStore`."""

    stored = True

    def __init__(self, root: Path, name: str, meta: dict):
        # Deliberately no super().__init__: the base constructor coerces an
        # in-memory mapping; here everything comes from the manifest.
        self.name = name
        self._root = Path(root)
        self._meta = meta
        self.columns = [c["name"] for c in meta["columns"]]
        self._dtypes = [np.dtype(c["dtype"]) for c in meta["columns"]]
        self.nrows = int(meta["nrows"])
        self.primary_key = list(meta.get("primary_key") or [])
        self.unique_columns = set(meta.get("unique") or [])
        if len(self.primary_key) == 1:
            self.unique_columns.add(self.primary_key[0])
        self._chunks = meta["chunks"]
        self._starts = list(accumulate(  # row offset of each chunk boundary
            (int(ch["rows"]) for ch in self._chunks), initial=0))
        # Column position -> (data, dictionary | None), mapped on first use.
        self._handles: dict[int, tuple] = {}
        # Guards _handles and io_stats: scans run on scheduler threads.
        self._lock = threading.Lock()
        self.reset_io_stats()

    # -- storage metadata (planner-facing) ---------------------------------
    @property
    def dtypes(self) -> list[np.dtype]:
        return list(self._dtypes)

    @property
    def nchunks(self) -> int:
        return len(self._chunks)

    @property
    def has_zone_maps(self) -> bool:
        return any(ch.get("zones") for ch in self._chunks)

    def chunk_length(self, chunk_id: int) -> int:
        return int(self._chunks[chunk_id]["rows"])

    def chunk_stats(self, column: str, chunk_id: int) -> ZoneStats | None:
        ch = self._chunks[chunk_id]
        zone = (ch.get("zones") or {}).get(column)
        if zone is None:
            return None
        dtype = self._dtypes[self.columns.index(column)]
        return _decode_zone(zone, dtype, int(ch["rows"]))

    def reset_io_stats(self) -> None:
        with self._lock:
            self.io_stats = {"chunks_read": 0, "rows_read": 0, "bytes_read": 0}

    # -- column IO ---------------------------------------------------------
    def _open(self, col_idx: int) -> tuple:
        handle = self._handles.get(col_idx)
        if handle is None:
            with self._lock:
                handle = self._handles.get(col_idx)
                if handle is None:
                    handle = self._handles[col_idx] = open_column(
                        self._root, self.name, col_idx,
                        self._meta["columns"][col_idx], self.nrows)
        return handle

    def _runs(self, chunk_ids) -> list[tuple[int, int]]:
        """*chunk_ids* as row ranges, neighbouring chunks merged."""
        if chunk_ids is None:
            return [(0, self.nrows)]
        runs: list[tuple[int, int]] = []
        for cid in chunk_ids:
            lo, hi = self._starts[cid], self._starts[cid + 1]
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        return runs or [(0, 0)]

    # -- Table interface ---------------------------------------------------
    def sample(self, name: str, step: int) -> np.ndarray:
        try:
            col_idx = self.columns.index(name)
        except ValueError:
            raise SQLBindError(
                f"column {name!r} not found in table {self.name!r}"
            ) from None
        data, dictionary = self._open(col_idx)
        data = data[:: max(1, step)]
        return data if dictionary is None else dictionary[data]

    def column(self, name: str) -> np.ndarray:
        """Full column as a plain array: the mapping itself, or a string
        column decoded (not cached — scans never come through here)."""
        return self.sample(name, 1)

    @property
    def arrays(self) -> list[np.ndarray]:
        """All columns materialized — used by oracle mirror loaders that
        iterate ``zip(table.columns, table.arrays)``."""
        return [self.column(c) for c in self.columns]

    def chunk(self) -> Chunk:
        return self.scan()

    def scan(self, keep_columns: list[str] | None = None,
             chunk_ids: list[int] | None = None,
             encode: list[str] | None = None) -> Chunk:
        """The (pruned) rows of the kept columns as slices of the mappings.
        A string column within ``MAX_DICT_ENTRIES`` stays encoded whether or
        not *encode* names it: :meth:`Table.scan` leaves a column that is
        only returned plain to save the encoding pass; here the pass to
        save is the decode."""
        keep = self._kept(keep_columns)
        runs = self._runs(chunk_ids)
        arrays = []
        nbytes = 0
        for i in keep:
            data, dictionary = self._open(i)
            if len(runs) == 1:
                data = data[runs[0][0]:runs[0][1]]
            else:
                data = np.concatenate([data[lo:hi] for lo, hi in runs])
            nbytes += data.nbytes
            if dictionary is not None:
                data = DictColumn(data, dictionary) \
                    if len(dictionary) - 1 <= _table.MAX_DICT_ENTRIES \
                    else dictionary[data]
            arrays.append(data)
        nchunks = self.nchunks if chunk_ids is None else len(chunk_ids)
        pieces = nchunks * len(keep)
        rows = sum(hi - lo for lo, hi in runs) * len(keep)
        with self._lock:
            self.io_stats["chunks_read"] += pieces
            self.io_stats["rows_read"] += rows
            self.io_stats["bytes_read"] += nbytes
        return Chunk([self.columns[i] for i in keep], arrays)

    def __repr__(self) -> str:
        return (f"StoredTable({self.name!r}, cols={self.columns}, "
                f"n={self.nrows}, chunks={self.nchunks})")
