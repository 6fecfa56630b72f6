"""StoredTable: a catalog table whose columns live on disk.

Behaves exactly like an in-memory :class:`~repro.sqlengine.table.Table`
behind the same interface — ``columns``/``dtypes``/``nrows``/``column``/
``scan``/``chunk`` — but materializes data from the column store's chunk
files on demand.  Numeric/datetime/bool chunks are memory-mapped, so a
scan's residency is whatever the OS page cache keeps warm; ``column()``
promotes a whole column to a RAM-cached array (dual residency) for hot
paths like oracle mirrors and planner sampling.

Zone-map metadata (``has_zone_maps`` / ``chunk_stats`` / ``chunk_length``)
is what the planner's partition pruning consumes; ``io_stats`` counts the
chunk files actually opened so tests and benchmarks can assert a pruned
scan read fewer chunks.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import SQLBindError
from ..sqlengine.table import Chunk, Table
from .format import ZoneStats, _chunk_file, _decode_zone, load_chunk_array

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
        self._column_cache: dict[str, np.ndarray] = {}
        self.io_stats = {"chunks_read": 0, "rows_read": 0, "bytes_read": 0}

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
        self.io_stats = {"chunks_read": 0, "rows_read": 0, "bytes_read": 0}

    # -- chunk IO ----------------------------------------------------------
    def _load(self, col_idx: int, chunk_id: int) -> np.ndarray:
        dtype = self._dtypes[col_idx]
        rows = self.chunk_length(chunk_id)
        path = _chunk_file(self._root, self.name, col_idx, chunk_id)
        arr = load_chunk_array(path, dtype, rows)
        self.io_stats["chunks_read"] += 1
        self.io_stats["rows_read"] += rows
        self.io_stats["bytes_read"] += int(arr.nbytes)
        return arr

    def _read_column(self, col_idx: int, chunk_ids: list[int]) -> np.ndarray:
        dtype = self._dtypes[col_idx]
        if not chunk_ids:
            return np.empty(0, dtype=dtype)
        parts = [self._load(col_idx, cid) for cid in chunk_ids]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    # -- Table interface ---------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Full column, materialized once and cached in RAM thereafter."""
        cached = self._column_cache.get(name)
        if cached is None:
            try:
                idx = self.columns.index(name)
            except ValueError:
                raise SQLBindError(
                    f"column {name!r} not found in table {self.name!r}"
                ) from None
            cached = np.asarray(self._read_column(idx, list(range(self.nchunks))))
            self._column_cache[name] = cached
        return cached

    @property
    def arrays(self) -> list[np.ndarray]:
        """All columns materialized — used by oracle mirror loaders that
        iterate ``zip(table.columns, table.arrays)``."""
        return [self.column(c) for c in self.columns]

    def sample(self, name: str, step: int) -> np.ndarray:
        return self.column(name)[:: max(1, step)]

    def chunk(self) -> Chunk:
        return self.scan()

    def scan(self, keep_columns: list[str] | None = None,
             chunk_ids: list[int] | None = None,
             encode: list[str] | None = None) -> Chunk:
        """Read (pruned) chunk files from disk into a runtime Chunk
        (always of plain arrays: *encode* is for RAM-resident tables).

        Always hits the chunk files — never the RAM column cache — so
        ``io_stats`` faithfully reflects what a pruned scan avoided.
        """
        if keep_columns is None:
            keep = list(range(len(self.columns)))
        else:
            names = set(keep_columns)
            keep = [i for i, c in enumerate(self.columns) if c in names]
            if not keep:
                keep = [0] if self.columns else []
        ids = list(range(self.nchunks)) if chunk_ids is None else list(chunk_ids)
        return Chunk(
            [self.columns[i] for i in keep],
            [self._read_column(i, ids) for i in keep],
        )

    def __repr__(self) -> str:
        return (f"StoredTable({self.name!r}, cols={self.columns}, "
                f"n={self.nrows}, chunks={self.nchunks})")
