"""Out-of-core fallbacks: grace-partitioned hash join and aggregation.

When ``EngineConfig.memory_budget`` says an operator's working set will not
fit, the operator grace-partitions its input by a hash of the key columns,
spills each partition to temporary ``.npy`` files, and processes partitions
one at a time — each small enough that the existing in-memory kernels
(:func:`~repro.sqlengine.joins.join_positions`,
:func:`~repro.sqlengine.plan.aggregate`) apply unchanged.  Equal keys always hash to
the same partition, so per-partition results compose exactly:

* **join**: local match positions are mapped back through the partition's
  global row indices, then the concatenated output is re-sorted into the
  same canonical order the in-memory integer join path produces
  (lexicographic by probe-side position, pads last) — inner joins are
  bit-identical to the non-spilling plan, outer joins row-set-identical.
* **aggregate**: partitioning by group-key hash keeps every group wholly
  inside one partition, and row order *within* a partition preserves input
  order, so each group's reduction consumes its rows in the same sequence
  as the in-memory path — float sums agree bitwise (a grouped sum never
  splits its rows, at any thread count).

Key hashing normalizes all numeric dtypes through ``float64`` (int 2 and
float 2.0 compare equal in joins, so they must co-partition); ``-0.0``
folds onto ``0.0`` and NaN bits are canonicalized.  Object (string)
columns hash elementwise with Python's ``hash``.  A join between an object
column and a numeric one has no consistent cross-dtype hash —
:func:`spillable_keys` rejects it and the operator falls back to the
in-memory path rather than risk splitting equal keys across partitions.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from ..errors import SQLBindError
from ..sqlengine.expressions import Evaluator
from ..sqlengine.joins import join_positions
from ..sqlengine.plan import aggregate
from ..sqlengine.sqlast import expr_key
from ..sqlengine.table import Chunk, DictColumn, concat_columns, plain

__all__ = ["chunk_nbytes", "spillable_keys", "grace_join_positions",
           "grace_aggregate", "partition_ids", "SpillStats"]

# Crude per-element estimate for object columns (PyObject header + str
# payload); only feeds the should-we-spill heuristic, never correctness.
_OBJECT_ELEM_BYTES = 56


@dataclass(frozen=True)
class SpillStats:
    """What a grace-partitioned operator actually did."""

    partitions: int
    bytes_spilled: int


def chunk_nbytes(chunk: Chunk) -> int:
    """Estimated resident size of a runtime chunk in bytes."""
    total = 0
    n = chunk.nrows
    for i in range(chunk.ncols):
        # Read off the dtypes: a pending column is not gathered to be sized.
        dtype = chunk.dtype(i)
        total += n * (4 if chunk.kind(i) is DictColumn else dtype.itemsize)
        if dtype == object:
            total += n * _OBJECT_ELEM_BYTES
    return total


# ---------------------------------------------------------------------------
# Key hashing / partitioning
# ---------------------------------------------------------------------------

def _key_class(arr: np.ndarray) -> str | None:
    kind = arr.dtype.kind
    if kind in ("i", "u", "b", "f", "M"):
        return "num"
    if kind == "O":
        return "obj"
    return None


def spillable_keys(lkeys: list[np.ndarray], rkeys: list[np.ndarray]) -> bool:
    """True when every key pair can be consistently co-partitioned."""
    if len(lkeys) != len(rkeys) or not lkeys:
        return False
    for la, ra in zip(lkeys, rkeys):
        lc, rc = _key_class(la), _key_class(ra)
        if lc is None or lc != rc:
            return False
    return True


def _hash_column(arr: np.ndarray) -> np.ndarray:
    """A uint64 hash per element, equal for join-equal values across the
    numeric dtype family (int/float/bool/datetime)."""
    kind = arr.dtype.kind
    if kind == "M":
        arr = arr.astype("datetime64[D]").astype(np.int64).astype(np.float64)
        kind = "f"
    if kind in ("i", "u", "b"):
        arr = arr.astype(np.float64)
        kind = "f"
    if kind == "f":
        vals = arr.astype(np.float64, copy=True)
        vals[vals == 0.0] = 0.0  # fold -0.0 onto +0.0
        bits = vals.view(np.int64).copy()
        bits[np.isnan(vals)] = -1  # one canonical NaN bit pattern
        return bits.view(np.uint64)
    if kind == "O":
        out = np.empty(len(arr), dtype=np.int64)
        for i, v in enumerate(arr):
            if v is None or (isinstance(v, float) and v != v):
                out[i] = 0
            else:
                out[i] = hash(v)
        return out.view(np.uint64)
    raise SQLBindError(f"cannot partition key of dtype {arr.dtype}")


def partition_ids(keys: list[np.ndarray], nparts: int) -> np.ndarray:
    """Partition id in ``[0, nparts)`` per row from the combined key hash."""
    h = np.zeros(len(keys[0]), dtype=np.uint64)
    for col in keys:
        h = h * np.uint64(1000003) + _hash_column(np.asarray(col))
    return (h % np.uint64(nparts)).astype(np.int64)


# ---------------------------------------------------------------------------
# Temporary spill files
# ---------------------------------------------------------------------------

class _SpillSet:
    """A temp directory of named ``.npy`` arrays, tracking bytes written."""

    def __init__(self):
        self._dir = tempfile.mkdtemp(prefix="repro-spill-")
        self.bytes_written = 0

    def save(self, tag: str, arr: np.ndarray) -> None:
        path = os.path.join(self._dir, tag + ".npy")
        np.save(path, arr, allow_pickle=arr.dtype == object)
        self.bytes_written += os.path.getsize(path)

    def load(self, tag: str) -> np.ndarray:
        return np.load(os.path.join(self._dir, tag + ".npy"),
                       allow_pickle=True)

    def close(self) -> None:
        shutil.rmtree(self._dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Grace hash join
# ---------------------------------------------------------------------------

def grace_join_positions(
    lkeys: list[np.ndarray],
    rkeys: list[np.ndarray],
    how: str = "inner",
    threads: int = 1,
    nparts: int = 8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, SpillStats]:
    """Spill-to-disk equi-join with :func:`join_positions` semantics.

    Returns the same ``(left_pos, right_pos, left_missing, right_missing)``
    quadruple plus a :class:`SpillStats`.  Output rows are canonically
    ordered to match the in-memory integer fast path: matched pairs
    lexicographic by (probe, build) position, then left-padded rows, then
    right-padded rows.
    """
    nl = len(lkeys[0]) if lkeys else 0
    nr = len(rkeys[0]) if rkeys else 0
    if nr > 4 * nl and nr >= 4096:
        # Mirror the in-memory side swap so the canonical output order (and
        # hence downstream float reduction order) matches it exactly.
        swapped_how = {"inner": "inner", "left": "right", "right": "left",
                       "full": "full"}[how]
        rp, lp, rmiss, lmiss, stats = grace_join_positions(
            rkeys, lkeys, swapped_how, threads=threads, nparts=nparts)
        return lp, rp, lmiss, rmiss, stats

    lpids = partition_ids(lkeys, nparts)
    rpids = partition_ids(rkeys, nparts)
    ncols = len(lkeys)
    lp_parts: list[np.ndarray] = []
    rp_parts: list[np.ndarray] = []
    lmiss_parts: list[np.ndarray] = []
    rmiss_parts: list[np.ndarray] = []
    spill = _SpillSet()
    try:
        # Partitioning pass: both inputs go to disk, key column by key
        # column, before any partition is joined — the defining property of
        # a grace join (peak residency is one partition, not the input).
        for p in range(nparts):
            lidx = np.nonzero(lpids == p)[0]
            ridx = np.nonzero(rpids == p)[0]
            spill.save(f"l{p}.idx", lidx)
            spill.save(f"r{p}.idx", ridx)
            for ci in range(ncols):
                spill.save(f"l{p}.k{ci}", np.asarray(lkeys[ci])[lidx])
                spill.save(f"r{p}.k{ci}", np.asarray(rkeys[ci])[ridx])
        for p in range(nparts):
            lidx = spill.load(f"l{p}.idx")
            ridx = spill.load(f"r{p}.idx")
            if not len(lidx) and not len(ridx):
                continue
            lk = [spill.load(f"l{p}.k{ci}") for ci in range(ncols)]
            rk = [spill.load(f"r{p}.k{ci}") for ci in range(ncols)]
            lp_, rp_, lmiss_, rmiss_ = join_positions(lk, rk, how,
                                                      threads=threads)
            if not len(lp_):
                continue
            # Map partition-local positions back to global row positions.
            # Padded rows carry position 0 and are masked out downstream, so
            # an empty side just yields zeros.
            glp = lidx[lp_] if len(lidx) else np.zeros(len(lp_), np.int64)
            grp = ridx[rp_] if len(ridx) else np.zeros(len(rp_), np.int64)
            glp = np.where(lmiss_, 0, glp)
            grp = np.where(rmiss_, 0, grp)
            lp_parts.append(glp.astype(np.int64))
            rp_parts.append(grp.astype(np.int64))
            lmiss_parts.append(lmiss_)
            rmiss_parts.append(rmiss_)
    finally:
        spill.close()

    stats = SpillStats(partitions=nparts, bytes_spilled=spill.bytes_written)
    if not lp_parts:
        empty = np.empty(0, dtype=np.int64)
        nomiss = np.empty(0, dtype=bool)
        return empty, empty, nomiss, nomiss, stats
    lp = np.concatenate(lp_parts)
    rp = np.concatenate(rp_parts)
    lmiss = np.concatenate(lmiss_parts)
    rmiss = np.concatenate(rmiss_parts)

    # Canonical reorder: matched pairs lexicographic (lp, rp), then rows
    # whose right side is padded (ascending lp), then rows whose left side
    # is padded (ascending rp) — the in-memory integer path's order.
    matched = ~(lmiss | rmiss)
    m_idx = np.nonzero(matched)[0]
    m_idx = m_idx[np.lexsort((rp[m_idx], lp[m_idx]))]
    lpad_idx = np.nonzero(rmiss)[0]
    lpad_idx = lpad_idx[np.argsort(lp[lpad_idx], kind="stable")]
    rpad_idx = np.nonzero(lmiss)[0]
    rpad_idx = rpad_idx[np.argsort(rp[rpad_idx], kind="stable")]
    order = np.concatenate([m_idx, lpad_idx, rpad_idx])
    return lp[order], rp[order], lmiss[order], rmiss[order], stats


# ---------------------------------------------------------------------------
# Grace hash aggregation
# ---------------------------------------------------------------------------

class _SpilledOrderEval:
    """Stand-in for the post-aggregate Evaluator handed to Sort/TopK.

    A spilled aggregate has no single evaluator covering all output rows,
    so ORDER BY expressions that were evaluable per partition are
    pre-computed and concatenated here, keyed by :func:`expr_key`, with
    each partition's HAVING mask already applied.
    """

    def __init__(self, values: dict[str, np.ndarray]):
        self._values = values

    def eval_array(self, expr) -> np.ndarray:
        key = expr_key(expr)
        if key not in self._values:
            raise SQLBindError(
                f"ORDER BY expression not available after spilled "
                f"aggregation: {expr!r}"
            )
        return self._values[key]


def grace_aggregate(ctx, batch, chunk: Chunk, scope, nparts: int = 8):
    """Spill-to-disk grouped aggregation.

    Partitions *chunk* rows by group-key hash, spills the partitions, and
    runs the in-memory :func:`~repro.sqlengine.plan.aggregate` of *batch*
    (the operator's :class:`~repro.sqlengine.plan.AggregateBatch`) over one
    partition at a time.  Every group lands wholly inside one partition, so the
    concatenated per-partition outputs are exactly the in-memory result
    rows (in partition order; any final ORDER BY re-sorts them).

    Returns ``(out_chunk, order_eval, SpillStats)``, or ``None`` when the
    group keys cannot be hashed consistently (non-string object values) —
    the caller then falls back to the in-memory path.
    """
    select = batch.select
    # Spill files hold plain arrays only.
    chunk = Chunk(chunk.columns, [plain(a) for a in chunk.arrays])
    evaluator = Evaluator(chunk, scope, params=ctx.params)
    keys = [np.asarray(evaluator.eval_array(g)) for g in select.group_by]
    if any(_key_class(k) is None for k in keys):
        return None
    pids = partition_ids(keys, nparts)

    order_items = list(select.order_by or [])
    outs: list[Chunk] = []
    order_vals: dict[str, list[np.ndarray]] = {}
    failed_order: set[str] = set()
    spill = _SpillSet()
    try:
        live = []
        for p in range(nparts):
            # np.nonzero is ascending, so each partition preserves input
            # row order — per-group reduction order matches the in-memory
            # path and float sums stay bit-identical at threads=1.
            idx = np.nonzero(pids == p)[0]
            if not len(idx):
                continue
            part = chunk.take(idx)
            for ci, arr in enumerate(part.arrays):
                spill.save(f"p{p}.c{ci}", arr)
            live.append(p)
        for p in live:
            arrays = [spill.load(f"p{p}.c{ci}")
                      for ci in range(len(chunk.columns))]
            part_chunk = Chunk(list(chunk.columns), arrays)
            out_p, eval_p, hmask = aggregate(ctx, batch, part_chunk, scope)
            outs.append(out_p)
            for item in order_items:
                okey = expr_key(item.expr)
                if okey in failed_order:
                    continue
                try:
                    arr = eval_p.eval_array(item.expr)
                except Exception:
                    failed_order.add(okey)
                    order_vals.pop(okey, None)
                    continue
                if hmask is not None and len(arr) == len(hmask):
                    arr = arr[hmask]
                if len(arr) != out_p.nrows:
                    failed_order.add(okey)
                    order_vals.pop(okey, None)
                    continue
                order_vals.setdefault(okey, []).append(np.asarray(arr))
    finally:
        spill.close()

    out = Chunk.concat(outs)
    order_eval = _SpilledOrderEval(
        {k: concat_columns(v) for k, v in order_vals.items()})
    stats = SpillStats(partitions=nparts, bytes_spilled=spill.bytes_written)
    return out, order_eval, stats
