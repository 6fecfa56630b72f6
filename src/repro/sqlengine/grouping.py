"""Vectorized group-key factorization and morsel-parallel reductions for
the SQL engine's hash aggregate."""

from __future__ import annotations

import math

import numpy as np

from ..dataframe._common import isna_array
from .parallel import run_partitions
from .table import DictColumn, as_dict

__all__ = ["factorize", "factorize_many", "parallel_group_reduce"]

# Composite keys pack into one int64 code only below this many combinations.
_MAX_PACKED = 2**62


def _first_appearance(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for integer *codes* in ``[0, size)``, numbered by first
    appearance among the rows.  Returns ``(gids, codes_in_id_order)``."""
    n = len(codes)
    first = np.full(size, n, dtype=np.int64)
    # Assign row numbers back to front so each code keeps its smallest.
    first[codes[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    present = np.nonzero(first < n)[0]
    order = present[np.argsort(first[present], kind="stable")]
    remap = np.empty(size, dtype=np.int64)
    remap[order] = np.arange(len(order), dtype=np.int64)
    return remap[codes], order


def factorize(arr) -> tuple[np.ndarray, np.ndarray]:
    """Dense group ids for one key column.  Returns ``(gids, uniques)``.

    Group ids follow sorted-unique order for numeric/date keys (cheap and
    deterministic).  String keys are grouped on their dictionary codes, in
    order of first appearance among the rows (NULL is a group of its own);
    a plain object array is encoded first, and ``uniques`` comes back in the
    representation *arr* came in.
    """
    if not isinstance(arr, DictColumn) and arr.dtype.kind in ("i", "u", "b", "f", "M"):
        uniques, gids = np.unique(arr, return_inverse=True)
        return gids.astype(np.int64), uniques
    col = as_dict(arr)
    gids, order = _first_appearance(col.codes, len(col.dictionary))
    if col is arr:
        return gids, DictColumn(order.astype(np.int32), col.dictionary, col.watch)
    return gids, col.dictionary[order]


def _dense_unique(codes: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for codes in ``[0, span)``:
    a counting pass instead of a sort when the code range is small."""
    if span > max(1 << 16, 2 * len(codes)):
        return np.unique(codes, return_inverse=True)
    present = np.bincount(codes, minlength=span) > 0
    return np.nonzero(present)[0], (np.cumsum(present) - 1)[codes]


def factorize_many(arrays: list) -> tuple[np.ndarray, list, int]:
    """Dense group ids for composite keys.

    Factorizes each key column independently, packs the per-column ids into
    a single int64 code, and factorizes the codes.  Returns
    ``(gids, unique_key_columns, ngroups)``.
    """
    if len(arrays) == 1:
        gids, uniques = factorize(arrays[0])
        return gids, [uniques], len(uniques)
    per_col: list[tuple[np.ndarray, np.ndarray]] = [factorize(a) for a in arrays]
    sizes = [max(len(u), 1) for _, u in per_col]
    if math.prod(sizes) >= _MAX_PACKED:
        return _factorize_wide(per_col, sizes)
    codes = np.zeros(len(arrays[0]), dtype=np.int64)
    multiplier = 1
    for gids, uniques in reversed(per_col):
        codes += gids * multiplier
        multiplier *= max(len(uniques), 1)
    combined, combined_uniques = _dense_unique(codes, multiplier)
    ngroups = len(combined)
    # Decode combined codes back into per-column unique values.
    key_cols: list[np.ndarray] = []
    remaining = combined.copy()
    multipliers = []
    m = 1
    sizes = [len(u) for _, u in per_col]
    for size in reversed(sizes):
        multipliers.append(m)
        m *= max(size, 1)
    multipliers = list(reversed(multipliers))
    for (gids, uniques), mult in zip(per_col, multipliers):
        idx = remaining // mult
        remaining = remaining % mult
        key_cols.append(uniques[idx])
    return combined_uniques.astype(np.int64), key_cols, ngroups


def _factorize_wide(per_col: list[tuple[np.ndarray, np.ndarray]],
                    sizes: list[int]) -> tuple[np.ndarray, list[np.ndarray], int]:
    """:func:`factorize_many` for keys whose packed code does not fit int64.

    Folds the columns in left to right; whenever the next column would
    push the code range past ``_MAX_PACKED`` the prefix codes are compacted
    to their dense ranks, which keeps their order — so groups still come
    out in lexicographic per-column-id order.  Packed codes can no longer
    be decoded by division, so each group's key is read at its first row.
    """
    codes, span = per_col[0][0], sizes[0]
    for (gids, _), size in zip(per_col[1:], sizes[1:]):
        if span * size >= _MAX_PACKED:
            ranks, codes = np.unique(codes, return_inverse=True)
            span = max(len(ranks), 1)
        codes = codes * size + gids
        span *= size
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    key_cols = [uniques[gids[first]] for gids, uniques in per_col]
    return inverse.astype(np.int64), key_cols, len(first)


def parallel_group_reduce(
    values: np.ndarray | None,
    gids: np.ndarray,
    ngroups: int,
    func: str,
    threads: int,
    sql_null_empty: bool = False,
) -> np.ndarray | None:
    """Morsel-parallel group reduction with partial-aggregate merging.

    Rows are partitioned across the shared worker pool; each partition
    computes a partial aggregate state (``np.bincount`` and reduceat-based
    kernels release the GIL) and the partials are merged serially.  Result
    semantics match :func:`repro.dataframe.groupby.group_reduce` exactly
    (null-skipping, int downcast rules, NULL for empty min/max groups).

    Returns ``None`` when the dtype/func combination has no partial-merge
    implementation — the caller must fall back to the serial path.
    """
    n = len(gids)
    if func == "size":
        parts = run_partitions(
            n, threads, lambda a, b: np.bincount(gids[a:b], minlength=ngroups)
        )
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out.astype(np.int64)

    if values is None or values.dtype == object or values.dtype.kind == "M":
        return None
    if func not in ("sum", "mean", "min", "max", "count"):
        return None

    valid = ~isna_array(values)
    if func == "count":
        parts = run_partitions(
            n, threads,
            lambda a, b: np.bincount(gids[a:b][valid[a:b]], minlength=ngroups),
        )
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out.astype(np.int64)

    if func in ("sum", "mean"):
        def partial(a: int, b: int):
            ok = valid[a:b]
            g = gids[a:b][ok]
            v = values[a:b][ok].astype(np.float64)
            return (
                np.bincount(g, weights=v, minlength=ngroups),
                np.bincount(g, minlength=ngroups),
            )

        parts = run_partitions(n, threads, partial)
        sums = parts[0][0]
        counts = parts[0][1]
        for s, c in parts[1:]:
            sums = sums + s
            counts = counts + c
        if func == "sum":
            if sql_null_empty and (counts == 0).any():
                # SQL SUM over an empty group is NULL (Pandas would say 0).
                sums = sums.astype(np.float64)
                sums[counts == 0] = np.nan
                return sums
            if values.dtype.kind in ("i", "u", "b") and np.abs(sums).max(initial=0) < 2**52:
                return sums.astype(np.int64)
            return sums
        with np.errstate(invalid="ignore", divide="ignore"):
            return sums / counts

    # min / max
    fill = np.inf if func == "min" else -np.inf
    ufunc = np.minimum if func == "min" else np.maximum

    def partial_minmax(a: int, b: int) -> np.ndarray:
        ok = valid[a:b]
        g = gids[a:b][ok]
        v = values[a:b][ok].astype(np.float64)
        out = np.full(ngroups, fill, dtype=np.float64)
        if len(g):
            order = np.argsort(g, kind="stable")
            sorted_g = g[order]
            boundaries = np.empty(len(sorted_g), dtype=bool)
            boundaries[0] = True
            boundaries[1:] = sorted_g[1:] != sorted_g[:-1]
            starts = np.nonzero(boundaries)[0]
            out[sorted_g[starts]] = ufunc.reduceat(v[order], starts)
        return out

    parts = run_partitions(n, threads, partial_minmax)
    out = parts[0]
    for p in parts[1:]:
        out = ufunc(out, p)
    if values.dtype.kind in ("i", "u") and np.isfinite(out).all():
        return out.astype(values.dtype)
    out = out.copy()
    out[out == fill] = np.nan  # empty groups aggregate to NULL
    return out
