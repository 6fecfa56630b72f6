"""In-memory columnar tables and runtime chunks."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..errors import SQLBindError
from ..dataframe._common import coerce_array

__all__ = ["Table", "Chunk"]


class Table:
    """A named base table with constraint metadata.

    Constraint metadata (primary key / unique columns) is what PyTond's
    translator reads from the database catalog to drive the
    group-aggregate-elimination and self-join-elimination optimizations
    (Section III-A / IV of the paper).
    """

    def __init__(
        self,
        name: str,
        data: Mapping[str, np.ndarray],
        primary_key: list[str] | None = None,
        unique: Iterable[str] | None = None,
    ):
        self.name = name
        self.columns: list[str] = []
        self.arrays: list[np.ndarray] = []
        n = None
        for col, values in data.items():
            arr = coerce_array(values)
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise SQLBindError(f"column {col!r} length mismatch in table {name!r}")
            self.columns.append(str(col))
            self.arrays.append(arr)
        self.nrows = n if n is not None else 0
        self.primary_key = list(primary_key) if primary_key else []
        self.unique_columns = set(unique) if unique else set()
        if len(self.primary_key) == 1:
            self.unique_columns.add(self.primary_key[0])

    def column(self, name: str) -> np.ndarray:
        try:
            return self.arrays[self.columns.index(name)]
        except ValueError:
            raise SQLBindError(f"column {name!r} not found in table {self.name!r}") from None

    @property
    def dtypes(self) -> list[np.dtype]:
        """Per-column dtypes without forcing column materialization.

        Stored tables override this to answer from the manifest; planner
        and catalog code must use it instead of touching ``arrays``."""
        return [a.dtype for a in self.arrays]

    def sample(self, name: str, step: int) -> np.ndarray:
        """A strided sample of one column (planner statistics probe)."""
        return self.column(name)[:: max(1, step)]

    def chunk(self) -> "Chunk":
        return Chunk(list(self.columns), list(self.arrays))

    def scan(self, keep_columns: list[str] | None = None,
             chunk_ids: list[int] | None = None) -> "Chunk":
        """Materialize the table for a Scan operator.

        *keep_columns* prunes to the referenced columns (same fallback as
        :meth:`Chunk.project`).  *chunk_ids* selects storage chunks for
        zone-map pruned scans — meaningless for a RAM-resident table, which
        has a single implicit chunk, so it is ignored here; stored tables
        override this method and honour it.
        """
        chunk = self.chunk()
        if keep_columns is not None:
            chunk = chunk.project(keep_columns)
        return chunk

    # Storage metadata defaults: a RAM-resident table is one implicit chunk
    # with no zone maps; the stored-table subclass overrides these.
    # ``stored`` says the data lives in a column store another process can
    # open (what the planner needs to know before it places an Exchange).
    stored = False

    @property
    def nchunks(self) -> int:
        return 1 if self.nrows else 0

    def chunk_stats(self, column: str, chunk_id: int):
        """Per-chunk zone-map stats (``ZoneStats``) or None when untracked."""
        return None

    def __repr__(self) -> str:
        return f"Table({self.name!r}, cols={self.columns}, n={self.nrows})"


class Chunk:
    """A runtime relation: ordered column names + equal-length arrays."""

    __slots__ = ("columns", "arrays")

    def __init__(self, columns: list[str], arrays: list[np.ndarray]):
        self.columns = columns
        self.arrays = arrays

    @property
    def nrows(self) -> int:
        return len(self.arrays[0]) if self.arrays else 0

    @property
    def ncols(self) -> int:
        return len(self.columns)

    def slot(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise SQLBindError(f"column {name!r} not found") from None

    def project(self, wanted) -> "Chunk":
        """Keep columns whose name is in *wanted* (first column if none
        match, so downstream operators always see a row count)."""
        names = set(wanted)
        keep = [i for i, c in enumerate(self.columns) if c in names]
        if len(keep) == len(self.columns):
            return self
        if not keep:
            keep = [0]
        return Chunk([self.columns[i] for i in keep], [self.arrays[i] for i in keep])

    def take(self, positions: np.ndarray) -> "Chunk":
        return Chunk(list(self.columns), [a[positions] for a in self.arrays])

    def mask(self, mask: np.ndarray) -> "Chunk":
        return Chunk(list(self.columns), [a[mask] for a in self.arrays])

    def slice(self, start: int, stop: int) -> "Chunk":
        return Chunk(list(self.columns), [a[start:stop] for a in self.arrays])

    def head(self, n: int) -> "Chunk":
        return self.slice(0, n)

    @staticmethod
    def concat(chunks: list["Chunk"]) -> "Chunk":
        if not chunks:
            return Chunk([], [])
        first = chunks[0]
        arrays = []
        for i in range(first.ncols):
            parts = [c.arrays[i] for c in chunks]
            target = parts[0].dtype
            for p in parts[1:]:
                if p.dtype != target:
                    target = np.promote_types(target, p.dtype) if p.dtype != object and target != object else np.dtype(object)
            arrays.append(np.concatenate([p.astype(target) for p in parts]))
        return Chunk(list(first.columns), arrays)

    def to_dict(self) -> dict[str, list]:
        return {c: a.tolist() for c, a in zip(self.columns, self.arrays)}

    def __repr__(self) -> str:
        return f"Chunk(cols={self.columns}, n={self.nrows})"
