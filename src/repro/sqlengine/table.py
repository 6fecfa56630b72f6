"""In-memory columnar tables, runtime chunks and the column
representations a chunk can hold.

A materialized chunk column is either a plain NumPy array or a
:class:`DictColumn` — ``int32`` codes into a dictionary of distinct values.
A ``DictColumn`` is born in a scan, under one rule — an object (string)
column with at most :data:`MAX_DICT_ENTRIES` distinct values — in two
places: :meth:`Table.scan` of a RAM-resident table, which encodes lazily and
keeps the encoding, and :meth:`StoredTable.scan
<repro.storage.table.StoredTable.scan>`, whose columns are stored as codes +
dictionary.  From there the codes flow through gathers, joins and
group/sort/semi-join kernels as 4-byte integers and expressions over the
column are evaluated on the dictionary (:class:`~.expressions.Evaluator`).
Code that was not taught about the representation asks :func:`plain` for an
object array; :meth:`Chunk.decoded` does so for a whole result.  A kernel
handed a plain string column encodes it itself, per call (:func:`as_dict`);
an analyzed execution counts those rows (``RuntimeStats.dict_encoded_rows``).

A chunk column may also be a gather not yet done (late materialization):
rows :class:`Selection` of a materialized source column.  ``take``,
``mask``, ``slice`` and the join's :meth:`Chunk.gathered` compose
positions — one ``int64`` gather per input relation, shared by all of its
columns — instead of gathering every column, and :meth:`Chunk.column`
gathers the one column a consumer reads (and keeps it).  An outer join's
``NULL`` padding travels in the selection too (``missing``, and the
``nullable`` flag that keeps the padded column's promoted type after a
later selection drops every padded row).  :attr:`Chunk.arrays` is the
boundary where every column is materialized: results, serialization and set
operations.
"""

from __future__ import annotations

import threading
from contextvars import ContextVar
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np

from ..errors import SQLBindError
from ..dataframe._common import coerce_array, combine_dtypes, isna_array

__all__ = ["Table", "Chunk", "DictColumn", "Selection", "MAX_DICT_ENTRIES",
           "encode", "encode_watch", "gather_threads", "as_dict", "plain",
           "isna", "gather", "concat_columns"]

# A scanned object column is dictionary-encoded when it has at most this
# many distinct values: every expression lifted onto the dictionary costs
# O(entries) interpreter work per evaluation, so the bound is what keeps
# that work small whatever the row count.
MAX_DICT_ENTRIES = 4096

# The RuntimeStats of the analyzed execution running in this context (set by
# Executor.execute; None otherwise), told when a kernel encodes a column and
# which pending columns were gathered.
encode_watch: ContextVar = ContextVar("encode_watch", default=None)
# EngineConfig.threads of the execution running in this context (set by
# Executor.execute): a pending gather of at least PARALLEL_GATHER_ROWS rows
# splits by row ranges over that many threads of the shared pool.
gather_threads: ContextVar = ContextVar("gather_threads", default=1)
PARALLEL_GATHER_ROWS = 1 << 16


class DictColumn:
    """A string column as ``int32`` codes into a dictionary.

    ``dictionary`` holds the distinct values in first-appearance order
    followed by one trailing ``None``: the last code is NULL, so
    ``dictionary[codes]`` is the decoded column.  Indexing with positions, a
    boolean mask or a slice gathers the codes only.  ``watch`` is the
    :class:`~.runtime_stats.RuntimeStats` of an analyzed execution (else
    None); it follows the column through every gather and is told about
    decodes and dictionary-lifted expressions.
    """

    __slots__ = ("codes", "dictionary", "watch")

    dtype = np.dtype(object)

    def __init__(self, codes: np.ndarray, dictionary: np.ndarray, watch=None):
        self.codes = codes
        self.dictionary = dictionary
        self.watch = watch

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def nbytes(self) -> int:
        return int(self.codes.nbytes)

    @property
    def null_code(self) -> int:
        return len(self.dictionary) - 1

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self.dictionary[self.codes[key]]
        return DictColumn(self.codes[key], self.dictionary, self.watch)

    def isna(self) -> np.ndarray:
        return self.codes == self.null_code

    def decode(self, counted: bool = True) -> np.ndarray:
        """The column as a plain object array — the one way out of the
        representation.  *counted* is False only for the final result."""
        if counted and self.watch is not None:
            self.watch.count_dict(decoded_rows=len(self.codes))
        return self.dictionary[self.codes]

    def watched(self, watch) -> "DictColumn":
        return DictColumn(self.codes, self.dictionary, watch)

    def take_with_nulls(self, positions: np.ndarray,
                        missing: np.ndarray) -> "DictColumn":
        """Outer-join gather: a missing row is the NULL code."""
        if not missing.any():
            return self[positions]
        if not len(self.codes):
            codes = np.full(len(positions), self.null_code, dtype=np.int32)
        else:
            codes = self.codes[np.where(missing, 0, positions)]
            codes[missing] = self.null_code
        return DictColumn(codes, self.dictionary, self.watch)

    def codes_of(self, other) -> np.ndarray:
        """The rows of *other* (either representation) as ``int64`` codes in
        this column's dictionary, for equality matching against
        :attr:`codes`: a value the dictionary does not hold — NULL included,
        so that it equals no row of this column — gets ``len(dictionary)``,
        one past the NULL code."""
        absent = len(self.dictionary)
        if isinstance(other, DictColumn) and other.dictionary is self.dictionary:
            codes = other.codes.astype(np.int64)
            codes[other.isna()] = absent
            return codes
        index = dict(zip(self.dictionary[:-1].tolist(), range(self.null_code)))
        values = other.dictionary[:-1] if isinstance(other, DictColumn) else other
        codes = np.fromiter(map(index.get, values.tolist(), repeat(absent)),
                            dtype=np.int64, count=len(values))
        if isinstance(other, DictColumn):
            return np.append(codes, absent)[other.codes]
        return codes

    @staticmethod
    def concat(parts: list["DictColumn"]) -> "DictColumn":
        """Concatenate; parts over different dictionaries are recoded into
        the union dictionary (first part's entries first)."""
        first = parts[0]
        if all(p.dictionary is first.dictionary for p in parts):
            return DictColumn(np.concatenate([p.codes for p in parts]),
                              first.dictionary, first.watch)
        index = dict.fromkeys(v for p in parts
                              for v in p.dictionary[:-1].tolist())
        merged = _dictionary_of(index)
        codes = [np.append(
            np.fromiter(map(index.__getitem__, p.dictionary[:-1].tolist()),
                        dtype=np.int32, count=p.null_code),
            np.int32(len(index)))[p.codes] for p in parts]
        return DictColumn(np.concatenate(codes), merged, first.watch)

    def __repr__(self) -> str:
        return f"DictColumn(n={len(self.codes)}, entries={self.null_code})"


def _dictionary_of(index: dict) -> np.ndarray:
    """Number the keys of *index* in place (``value -> code``) and return
    them as a dictionary array with its trailing NULL slot."""
    entries = len(index)
    dictionary = np.empty(entries + 1, dtype=object)
    dictionary[:entries] = np.fromiter(index, dtype=object, count=entries)
    index.update(zip(list(index), range(entries)))
    return dictionary


def encode(arr: np.ndarray, max_entries: int | None = None) -> DictColumn | None:
    """Dictionary-encode an object array (None/NaN become the NULL code).

    With *max_entries*, returns None as soon as the column is known to have
    more distinct values than that (probing a prefix first, so a column of
    unique strings costs a few thousand rows, not all of them).
    """
    if max_entries is not None and len(arr) > 2 * max_entries and \
            len(dict.fromkeys(arr[:2 * max_entries].tolist())) > max_entries:
        return None
    values = arr.tolist()
    index = dict.fromkeys(values)
    nulls = [v for v in index if v is None or v != v]
    for v in nulls:
        del index[v]
    if max_entries is not None and len(index) > max_entries:
        return None
    dictionary = _dictionary_of(index)
    for v in nulls:
        index[v] = len(dictionary) - 1
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.int32,
                        count=len(values))
    return DictColumn(codes, dictionary)


def as_dict(col) -> DictColumn:
    """*col* as codes + dictionary: the entry to every string-key kernel."""
    if isinstance(col, DictColumn):
        return col
    watch = encode_watch.get()
    if watch is not None:
        watch.count_dict(encoded_rows=len(col))
    return encode(col if col.dtype == object else col.astype(object))


def plain(col) -> np.ndarray:
    """*col* as a NumPy array (a :class:`DictColumn` is decoded)."""
    return col.decode() if isinstance(col, DictColumn) else col


def isna(col) -> np.ndarray:
    """NULL mask of either column representation."""
    return col.isna() if isinstance(col, DictColumn) else isna_array(col)


def gather(col, positions: np.ndarray, missing: np.ndarray):
    """Rows *positions* of *col* (either representation), NULL where
    *missing* is set (the position there is not read): an outer-join
    gather done now (see :class:`Selection`)."""
    if not missing.any():
        return _gather_selection(col, Selection(positions))
    return _gather_selection(col, Selection(np.where(missing, 0, positions),
                                            missing, True))


def concat_columns(parts: list):
    """Concatenate column segments: all-encoded parts stay encoded, mixed
    ones are decoded; dtypes combine under the library's shared rule
    (:func:`~repro.dataframe._common.combine_dtypes`)."""
    if any(isinstance(p, DictColumn) for p in parts):
        if all(isinstance(p, DictColumn) for p in parts):
            return DictColumn.concat(parts)
        parts = [plain(p) for p in parts]
    target = parts[0]
    for p in parts[1:]:
        target = np.empty(0, dtype=combine_dtypes(target, p))
    return np.concatenate([p.astype(target.dtype) for p in parts])


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
        # Lazily built encodings, column position -> DictColumn, or None for
        # an object column remembered as not worth encoding.
        self._encoded: dict[int, DictColumn | None] = {}
        self._encode_lock = threading.Lock()
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
             chunk_ids: list[int] | None = None,
             encode: list[str] | None = None) -> "Chunk":
        """Materialize the table for a Scan operator.

        *keep_columns* prunes to the referenced columns (same fallback as
        :meth:`Chunk.project`).  *chunk_ids* selects storage chunks for
        zone-map pruned scans — meaningless for a RAM-resident table, which
        has a single implicit chunk, so it is ignored here; stored tables
        override this method and honour it.

        An object column named in *encode* (None: every one) comes out as a
        :class:`DictColumn` when it has at most :data:`MAX_DICT_ENTRIES`
        distinct values.  The encoding is built by the first scan that asks
        for it and kept on the table, so registering a table costs nothing
        and a column no query computes on is never encoded — a point lookup
        that only returns a string column does not pay for a pass over it.
        """
        keep = self._kept(keep_columns)
        arrays = []
        for i in keep:
            arr = self.arrays[i]
            if arr.dtype == object and (encode is None
                                        or self.columns[i] in encode):
                encoded = self._dict_column(i)
                if encoded is not None:
                    arr = encoded
            arrays.append(arr)
        return Chunk([self.columns[i] for i in keep], arrays)

    def _kept(self, keep_columns: list[str] | None) -> list[int]:
        """Positions of the columns a scan keeps: all of them for None, the
        first one when nothing matches (a row count must survive)."""
        if keep_columns is None:
            return list(range(len(self.columns)))
        names = set(keep_columns)
        return [i for i, c in enumerate(self.columns) if c in names] \
            or [0][:len(self.columns)]

    def _dict_column(self, i: int) -> "DictColumn | None":
        try:
            return self._encoded[i]
        except KeyError:
            pass
        with self._encode_lock:
            if i not in self._encoded:
                self._encoded[i] = encode(self.arrays[i], MAX_DICT_ENTRIES)
            return self._encoded[i]

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


class Selection:
    """The rows a chunk keeps of one input relation: ``positions`` into that
    relation's columns, shared by every pending column that comes from it.

    ``missing`` (None, or a mask) flags rows an outer join padded with NULL;
    their positions are valid but unread.  ``nullable`` says an outer join
    padded some row on the way here, so the gathered column takes the
    padded type (int and bool become float64, anything but float and date
    becomes object) even when a later selection dropped every padded row —
    exactly what gathering at the join and again afterwards produces.
    """

    __slots__ = ("positions", "missing", "nullable")

    def __init__(self, positions: np.ndarray, missing: np.ndarray | None = None,
                 nullable: bool = False):
        self.positions = positions
        self.missing = missing
        self.nullable = nullable

    def take(self, positions: np.ndarray,
             missing: np.ndarray | None = None) -> "Selection":
        """This selection's rows *positions* (*missing*: padded rows)."""
        before = _rows(self.missing, positions)
        if before is not None:
            missing = before if missing is None else before | missing
        return Selection(self.positions[positions], missing,
                         self.nullable or missing is not None)

    def slice(self, start: int, stop: int) -> "Selection":
        return Selection(self.positions[start:stop],
                         _rows(self.missing, slice(start, stop)),
                         self.nullable)


def _rows(missing: np.ndarray | None, rows) -> np.ndarray | None:
    """Rows *rows* of a padding mask; None when none of them is padding."""
    if missing is None:
        return None
    missing = missing[rows]
    return missing if missing.any() else None


class _Lineage:
    """EXPLAIN ANALYZE bookkeeping of one pending column: whether it was
    gathered, or handed on to a later selection (the slices a partitioned
    operator evaluates share their column's lineage)."""

    __slots__ = ("gathered", "passed_on")

    def __init__(self):
        self.gathered = False
        self.passed_on = False


class _Pending:
    """A chunk column not yet gathered: rows *sel* of the materialized
    column *source*.  :meth:`get` gathers it once and keeps the result;
    two threads racing to gather compute the same value."""

    __slots__ = ("source", "sel", "value", "lineage")

    def __init__(self, source, sel: Selection, lineage: _Lineage | None):
        self.source = source
        self.sel = sel
        self.value = None
        self.lineage = lineage

    def __len__(self) -> int:
        return len(self.sel.positions)

    def get(self):
        value = self.value
        if value is None:
            value = self.value = _gather_selection(self.source, self.sel)
            if self.lineage is not None:
                self.lineage.gathered = True
        return value


def _take(arr: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``arr[positions]``, split by row ranges over the execution's threads
    when it is large (fancy indexing of a non-object array releases the
    GIL)."""
    threads = gather_threads.get()
    n = len(positions)
    if threads < 2 or n < PARALLEL_GATHER_ROWS or arr.dtype == object:
        return arr[positions]
    from .parallel import run_partitions

    out = np.empty(n, dtype=arr.dtype)
    run_partitions(n, threads, lambda start, stop: arr.take(
        positions[start:stop], out=out[start:stop], mode="clip"))
    return out


def _padded_dtype(col) -> np.dtype:
    """The type an outer join's NULL padding gives a column of *col*."""
    if isinstance(col, DictColumn):
        return col.dtype
    kind = col.dtype.kind
    if not len(col):
        # Every row is padding (take_with_nulls' all-null column).
        return np.dtype(object if kind == "O" else
                        "datetime64[D]" if kind == "M" else np.float64)
    if kind in "iub":
        return np.dtype(np.float64)
    return col.dtype if kind in "fM" else np.dtype(object)


def _gather_selection(col, sel: Selection):
    """Rows *sel* of the materialized column *col*."""
    positions, missing = sel.positions, sel.missing
    if isinstance(col, DictColumn):
        if missing is not None:
            return col.take_with_nulls(positions, missing)
        return DictColumn(_take(col.codes, positions), col.dictionary,
                          col.watch)
    if not sel.nullable:
        return _take(col, positions)
    dtype = _padded_dtype(col)
    null = None if dtype == object else \
        np.datetime64("NaT") if dtype.kind == "M" else np.nan
    if not len(col):
        return np.full(len(positions), null, dtype=dtype)
    out = _take(col, positions).astype(dtype, copy=False)
    if missing is not None:
        out[missing] = null
    return out


class Chunk:
    """A runtime relation: ordered column names + equal-length columns.

    A column is materialized (a NumPy array or a :class:`DictColumn`) or
    pending (see the module docstring).  Operators read a column through
    :meth:`column` / :meth:`kind` / :meth:`dtype`, which gather only that
    column; :attr:`arrays` materializes all of them.  A chunk is never
    mutated: every operation returns a new one (or itself).
    """

    __slots__ = ("columns", "_cols")

    def __init__(self, columns: list[str], arrays: list):
        self.columns = columns
        self._cols = arrays

    @property
    def arrays(self) -> list:
        """Every column, materialized: the boundary where a relation
        leaves late materialization."""
        return [c.get() if type(c) is _Pending else c for c in self._cols]

    def column(self, i: int):
        """Column *i*, gathered now if it was pending (and kept)."""
        c = self._cols[i]
        return c.get() if type(c) is _Pending else c

    def kind(self, i: int) -> type:
        """The class column *i* has (or will have once gathered):
        ``np.ndarray`` or :class:`DictColumn`."""
        c = self._cols[i]
        c = c.source if type(c) is _Pending else c
        return DictColumn if isinstance(c, DictColumn) else np.ndarray

    def dtype(self, i: int) -> np.dtype:
        """The dtype column *i* has (or will have once gathered)."""
        c = self._cols[i]
        if type(c) is _Pending:
            return _padded_dtype(c.source) if c.sel.nullable else c.source.dtype
        return c.dtype

    def dictionary(self, i: int) -> np.ndarray | None:
        """The dictionary of column *i* when it is a :class:`DictColumn`."""
        c = self._cols[i]
        c = c.source if type(c) is _Pending else c
        return c.dictionary if isinstance(c, DictColumn) else None

    @property
    def nrows(self) -> int:
        return len(self._cols[0]) if self._cols else 0

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
        return self.select(keep or [0])

    def select(self, slots: list[int]) -> "Chunk":
        """The columns at *slots*, in that order, as they are."""
        return Chunk([self.columns[i] for i in slots],
                     [self._cols[i] for i in slots])

    def renamed(self, names: list[str]) -> "Chunk":
        return Chunk(names, self._cols)

    def with_columns(self, names: list[str], arrays: list) -> "Chunk":
        """This relation with materialized columns *arrays* appended."""
        return Chunk(self.columns + names, self._cols + list(arrays))

    def watched(self, watch) -> "Chunk":
        """This relation with its dictionary columns reporting to *watch*."""
        cols = []
        for c in self._cols:
            if type(c) is _Pending and isinstance(c.source, DictColumn):
                c = _Pending(c.source.watched(watch), c.sel, c.lineage)
            elif isinstance(c, DictColumn):
                c = c.watched(watch)
            cols.append(c)
        return Chunk(self.columns, cols)

    def decoded(self) -> "Chunk":
        """This relation with every column a plain array: what leaves the
        engine as a final result."""
        if not any(type(c) is _Pending or isinstance(c, DictColumn)
                   for c in self._cols):
            return self
        return Chunk(self.columns, [
            a.decode(counted=False) if isinstance(a, DictColumn) else a
            for a in self.arrays])

    def gathered(self, positions: np.ndarray,
                 missing: np.ndarray | None = None) -> list:
        """Every column as a pending gather of rows *positions*, where
        *missing* (if any row is set) flags rows to pad with NULL: one
        composed position array per input selection, no column gathered."""
        if missing is not None and not missing.any():
            missing = None
        cols = self._cols if self.nrows else self.arrays
        watch = encode_watch.get()
        own = None
        composed: dict[int, Selection] = {}
        out = []
        for c in cols:
            if type(c) is _Pending:
                sel = composed.get(id(c.sel))
                if sel is None:
                    sel = composed[id(c.sel)] = c.sel.take(positions, missing)
                source = c.source
                if c.lineage is not None:
                    c.lineage.passed_on = True
            else:
                if own is None:
                    own = Selection(positions, missing, missing is not None)
                sel, source = own, c
            lineage = None
            if watch is not None:
                lineage = _Lineage()
                watch.late_columns.append(lineage)
            out.append(_Pending(source, sel, lineage))
        return out

    def take(self, positions: np.ndarray) -> "Chunk":
        return Chunk(list(self.columns), self.gathered(positions))

    def mask(self, mask: np.ndarray) -> "Chunk":
        """The rows where *mask* is true (this chunk when that is all of
        them): one position list the columns gather from when read."""
        positions = np.flatnonzero(mask)
        if len(positions) == self.nrows:
            return self
        return self.take(positions)

    def slice(self, start: int, stop: int) -> "Chunk":
        if start == 0 and stop >= self.nrows:
            return self
        sliced: dict[int, Selection] = {}
        cols = []
        for c in self._cols:
            if type(c) is not _Pending:
                cols.append(c[start:stop])
            elif c.value is not None:
                cols.append(c.value[start:stop])
            else:
                sel = sliced.get(id(c.sel))
                if sel is None:
                    sel = sliced[id(c.sel)] = c.sel.slice(start, stop)
                cols.append(_Pending(c.source, sel, c.lineage))
        return Chunk(list(self.columns), cols)

    def head(self, n: int) -> "Chunk":
        return self.slice(0, n)

    @staticmethod
    def concat(chunks: list["Chunk"]) -> "Chunk":
        if not chunks:
            return Chunk([], [])
        first = chunks[0]
        parts = [c.arrays for c in chunks]
        arrays = [concat_columns([p[i] for p in parts])
                  for i in range(first.ncols)]
        return Chunk(list(first.columns), arrays)

    def to_dict(self) -> dict[str, list]:
        return {c: a.tolist() for c, a in zip(self.columns, self.arrays)}

    def __reduce__(self):
        # Pickled materialized: a pending column never ships its source.
        return Chunk, (list(self.columns), self.arrays)

    def __repr__(self) -> str:
        return f"Chunk(cols={self.columns}, n={self.nrows})"
