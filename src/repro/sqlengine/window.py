"""Window-function kernel library: partition-parallel SQL window evaluation.

This module backs the :class:`~.plan.Window` physical operator.  It provides

* :func:`sort_positions` — the stable multi-key argsort shared with ORDER BY;
* :class:`WindowLayout` — partitions factorized once per distinct
  ``(PARTITION BY, ORDER BY)`` spec, with the sorted row order, partition
  starts, and peer-group boundaries every kernel needs;
* ranking kernels (:func:`row_number`, :func:`rank`, :func:`dense_rank`,
  :func:`ntile`), offset kernels (:func:`shift` — LAG/LEAD), and framed
  aggregates (:func:`framed_aggregate` — SUM/AVG/MIN/MAX/COUNT over ``ROWS
  BETWEEN``/``RANGE`` frames);
* :func:`evaluate_window_calls` — the orchestration entry point used by the
  operator: groups the window calls of one SELECT by spec so each distinct
  spec is factorized and sorted exactly once, then reduces morsel-parallel
  across the shared worker pool (:mod:`.parallel`).

Parallelization strategy: all kernels are pure functions of a contiguous
run of whole partitions in the sorted domain, so the sorted row space is
split at partition boundaries into ``~threads`` slices and each slice is
reduced on the pool (NumPy kernels release the GIL).  Results concatenate
in slice order: ranking/offset/COUNT/MIN/MAX kernels are bit-identical to
a serial evaluation; SUM/AVG agree up to floating-point summation order
(their prefix sums associate per slice) — unlike the hash aggregate's sums,
which never split their rows (see :mod:`.grouping`).

Kernels never mutate their inputs: sort keys are always derived into fresh
arrays (``_sort_key`` copies before any in-place fill or negation), so the
source chunks survive ORDER BY / window evaluation unmodified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataframe._common import isna_array
from ..errors import SQLExecutionError, UnsupportedFeatureError
from .grouping import factorize_many
from .parallel import parallel_map
from .table import as_dict, plain

__all__ = [
    "sort_positions", "row_number", "rank", "dense_rank", "ntile", "shift",
    "framed_aggregate", "WindowLayout", "build_layout",
    "evaluate_window_calls",
]

# Below this many rows the thread handoff costs more than the reduction.
_PARALLEL_MIN_ROWS = 4096


# ---------------------------------------------------------------------------
# Sort keys (shared with ORDER BY)
# ---------------------------------------------------------------------------

def _sort_key(arr: np.ndarray, ascending: bool) -> np.ndarray:
    """Transform a column into an int/float key usable by lexsort.

    Always returns a fresh array: every path copies (or derives a new
    array) before any in-place fill or negation, so the caller's column is
    never mutated — ORDER BY and window evaluation must leave source
    chunks untouched.
    """
    if arr.dtype.kind in ("i", "u", "b"):
        key = arr.astype(np.int64, copy=True)
        return key if ascending else -key
    if arr.dtype.kind == "f":
        key = arr.copy()
        nan = np.isnan(key)
        if not ascending:
            key = -key  # fresh array; the copy above is never aliased out
        key[nan] = np.inf  # nulls sort last either way
        return key
    if arr.dtype.kind == "M":
        # astype() copies here (dtype changes), so the fills below are safe.
        key = arr.astype("datetime64[D]").astype(np.int64)
        nat = isna_array(arr)
        if not ascending:
            key = -key
        key[nat] = np.iinfo(np.int64).max  # nulls sort last either way
        return key
    # Strings: rank the dictionary's entries once and gather by the codes.
    col = as_dict(arr)
    entries = col.null_code
    rank = np.empty(entries + 1, dtype=np.int64)
    rank[np.argsort(col.dictionary[:-1], kind="stable")] = np.arange(entries)
    rank[entries] = entries  # NULL ranks above every value
    key = rank[col.codes]
    return key if ascending else -key


def sort_positions(arrays: list[np.ndarray], ascendings: list[bool]) -> np.ndarray:
    """Stable multi-key argsort (first array is the primary key)."""
    if not arrays:
        return np.arange(0)
    keys = [_sort_key(arr, asc) for arr, asc in zip(arrays, ascendings)]
    # np.lexsort sorts by the LAST key first -> reverse.
    return np.lexsort(tuple(reversed(keys)))


# ---------------------------------------------------------------------------
# Layout: factorize partitions once per (PARTITION BY, ORDER BY) spec
# ---------------------------------------------------------------------------

@dataclass
class WindowLayout:
    """Shared geometry for every window call with one spec.

    All arrays describe the *sorted* domain: ``order`` maps sorted position
    -> original row, ``starts`` holds the offset of each partition's first
    row, and ``peer_starts`` flags rows that begin a new peer group (a run
    of rows equal on every ORDER BY key within one partition).  Scatter a
    sorted-domain result ``s`` back with ``out[order] = s``.
    """

    n: int
    order: np.ndarray        # sorted position -> original row index
    starts: np.ndarray       # partition start offsets (sorted domain)
    peer_starts: np.ndarray  # bool flags, True where a peer group begins

    def counts(self) -> np.ndarray:
        """Rows per partition, aligned with :attr:`starts`."""
        return np.diff(np.append(self.starts, self.n))

    def slices(self, parts: int) -> list[tuple[int, int]]:
        """Split the sorted domain into at most *parts* contiguous slices
        whose boundaries coincide with partition starts (kernels are pure
        within whole partitions, so slices evaluate independently)."""
        if parts <= 1 or self.n == 0 or len(self.starts) <= 1:
            return [(0, self.n)]
        ideal = np.linspace(0, self.n, parts + 1)[1:-1]
        cut_idx = np.searchsorted(self.starts, ideal)
        cuts = sorted({0, self.n, *(int(self.starts[min(i, len(self.starts) - 1)])
                                    for i in cut_idx)})
        return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)
                if cuts[i + 1] > cuts[i]]


def build_layout(
    n: int,
    partition_arrays: list[np.ndarray],
    order_arrays: list[np.ndarray],
    order_ascendings: list[bool],
) -> WindowLayout:
    """Factorize the partition keys and sort once for one window spec.

    The derived ORDER BY sort keys feed both the lexsort and the peer-group
    comparison, so each key column is transformed exactly once.
    """
    order_keys = [_sort_key(arr, asc)
                  for arr, asc in zip(order_arrays, order_ascendings)]
    if partition_arrays:
        gids, _, _ = factorize_many(partition_arrays)
        # np.lexsort sorts by the LAST key first -> reverse (gids primary).
        order = np.lexsort(tuple(reversed([gids] + order_keys)))
        sorted_gids = gids[order]
        boundary = np.empty(n, dtype=bool)
        if n:
            boundary[0] = True
            boundary[1:] = sorted_gids[1:] != sorted_gids[:-1]
        starts = np.nonzero(boundary)[0]
    else:
        if order_keys:
            order = np.lexsort(tuple(reversed(order_keys)))
        else:
            order = np.arange(n, dtype=np.int64)
        boundary = np.zeros(n, dtype=bool)
        if n:
            boundary[0] = True
        starts = np.zeros(1 if n else 0, dtype=np.int64)
    peer = boundary.copy()
    for key in order_keys:
        sorted_key = key[order]
        if n > 1:
            peer[1:] |= sorted_key[1:] != sorted_key[:-1]
    return WindowLayout(n=n, order=order, starts=starts, peer_starts=peer)


def _map_slices(layout: WindowLayout, threads: int, fn) -> np.ndarray:
    """Run ``fn(lo, hi, local_starts)`` over partition-aligned slices of the
    sorted domain — on the shared pool when it pays off — and concatenate."""
    n = layout.n
    if threads <= 1 or n < _PARALLEL_MIN_ROWS:
        return fn(0, n, layout.starts)
    slices = layout.slices(threads)
    if len(slices) <= 1:
        return fn(0, n, layout.starts)

    def run(bounds: tuple[int, int]) -> np.ndarray:
        lo, hi = bounds
        i = int(np.searchsorted(layout.starts, lo))
        j = int(np.searchsorted(layout.starts, hi))
        return fn(lo, hi, layout.starts[i:j] - lo)

    return np.concatenate(parallel_map(threads, run, slices))


def _within(n: int, starts: np.ndarray) -> np.ndarray:
    """0-based offset of each sorted row inside its partition."""
    counts = np.diff(np.append(starts, n))
    return np.arange(n, dtype=np.int64) - np.repeat(starts, counts)


# ---------------------------------------------------------------------------
# Ranking kernels
# ---------------------------------------------------------------------------

def row_number(
    n: int,
    partition_arrays: list[np.ndarray],
    order_arrays: list[np.ndarray],
    order_ascendings: list[bool],
    threads: int = 1,
) -> np.ndarray:
    """``ROW_NUMBER()``: 1-based position within the partition."""
    layout = build_layout(n, partition_arrays, order_arrays, order_ascendings)
    return _row_number(layout, threads)


def _row_number(layout: WindowLayout, threads: int) -> np.ndarray:
    out = np.empty(layout.n, dtype=np.int64)
    out[layout.order] = _map_slices(
        layout, threads, lambda lo, hi, st: _within(hi - lo, st) + 1
    )
    return out


def rank(
    n: int,
    partition_arrays: list[np.ndarray],
    order_arrays: list[np.ndarray],
    order_ascendings: list[bool],
    threads: int = 1,
) -> np.ndarray:
    """``RANK()`` with gaps: peers share the smallest row number."""
    layout = build_layout(n, partition_arrays, order_arrays, order_ascendings)
    return _rank(layout, threads, dense=False)


def dense_rank(
    n: int,
    partition_arrays: list[np.ndarray],
    order_arrays: list[np.ndarray],
    order_ascendings: list[bool],
    threads: int = 1,
) -> np.ndarray:
    """``DENSE_RANK()``: like RANK but without gaps after ties."""
    layout = build_layout(n, partition_arrays, order_arrays, order_ascendings)
    return _rank(layout, threads, dense=True)


def _rank(layout: WindowLayout, threads: int, dense: bool) -> np.ndarray:
    peer = layout.peer_starts

    def kernel(lo: int, hi: int, starts: np.ndarray) -> np.ndarray:
        m = hi - lo
        flags = peer[lo:hi]
        if dense:
            cum = np.cumsum(flags)
            counts = np.diff(np.append(starts, m))
            base = np.repeat(cum[starts], counts)
            return (cum - base + 1).astype(np.int64)
        rn = _within(m, starts) + 1
        group_starts = np.nonzero(flags)[0]
        group_counts = np.diff(np.append(group_starts, m))
        return np.repeat(rn[group_starts], group_counts)

    out = np.empty(layout.n, dtype=np.int64)
    out[layout.order] = _map_slices(layout, threads, kernel)
    return out


def ntile(layout: WindowLayout, tiles: int, threads: int = 1) -> np.ndarray:
    """``NTILE(tiles)``: the first ``size % tiles`` buckets get one extra row."""
    if tiles <= 0:
        raise SQLExecutionError("NTILE requires a positive tile count")

    def kernel(lo: int, hi: int, starts: np.ndarray) -> np.ndarray:
        m = hi - lo
        counts = np.diff(np.append(starts, m))
        size = np.repeat(counts, counts).astype(np.int64)
        within = _within(m, starts)
        big = size // tiles + 1          # rows in each of the first (size % tiles)
        small = np.maximum(size // tiles, 1)
        extra = size % tiles
        pivot = extra * big              # rows covered by the big buckets
        in_big = within < pivot
        tile = np.where(
            in_big,
            within // np.maximum(big, 1),
            extra + (within - pivot) // small,
        )
        return (tile + 1).astype(np.int64)

    out = np.empty(layout.n, dtype=np.int64)
    out[layout.order] = _map_slices(layout, threads, kernel)
    return out


# ---------------------------------------------------------------------------
# Offset kernel (LAG / LEAD)
# ---------------------------------------------------------------------------

def shift(layout: WindowLayout, values: np.ndarray, offset: int,
          default=None, threads: int = 1) -> np.ndarray:
    """``LAG(x, offset)`` (positive) / ``LEAD`` (negative), with *default*
    filling positions whose source falls outside the partition."""
    promoted, fill = _null_fillable(values, default)
    values_sorted = promoted[layout.order]

    def kernel(lo: int, hi: int, starts: np.ndarray) -> np.ndarray:
        m = hi - lo
        vals = values_sorted[lo:hi]
        counts = np.diff(np.append(starts, m))
        pstart = np.repeat(starts, counts)
        idx = np.arange(m, dtype=np.int64)
        src = idx - offset
        valid = (src >= pstart) & (src < pstart + np.repeat(counts, counts))
        out = np.full(m, fill, dtype=vals.dtype)
        out[valid] = vals[src[valid]]
        return out

    out = np.empty(layout.n, dtype=values_sorted.dtype)
    out[layout.order] = _map_slices(layout, threads, kernel)
    return out


def _null_fillable(values: np.ndarray, default):
    """Promote *values* so *default* (possibly NULL) is representable.

    Returns ``(array, fill)`` with NaN/NaT/None standing in for missing
    when no default is given; an integer default on an integer column keeps
    the integer dtype.  Shared by the LAG/LEAD kernel and `Series.shift`,
    which must agree on these promotion rules.
    """
    if default is None:
        if values.dtype.kind in ("i", "u", "b"):
            return values.astype(np.float64), np.nan  # NULL needs NaN
        if values.dtype.kind == "f":
            return values, np.nan
        if values.dtype.kind == "M":
            return values, np.datetime64("NaT")
        return values.astype(object, copy=False), None
    if values.dtype.kind in ("i", "u") and isinstance(default, (int, np.integer)):
        return values, np.int64(default)
    if values.dtype.kind in ("i", "u", "f", "b"):
        return values.astype(np.float64), float(default)
    return values.astype(object, copy=False), default


# ---------------------------------------------------------------------------
# Framed aggregates (SUM / AVG / MIN / MAX / COUNT)
# ---------------------------------------------------------------------------

# Frame descriptor: (unit, start_kind, start_offset, end_kind, end_offset)
# where kinds are "unbounded_preceding" | "preceding" | "current" |
# "following" | "unbounded_following" and unit is "rows" | "range".
WHOLE_PARTITION = ("rows", "unbounded_preceding", 0, "unbounded_following", 0)
RANGE_TO_CURRENT = ("range", "unbounded_preceding", 0, "current", 0)


def _frame_bounds(unit: str, kind: str, off: int, idx: np.ndarray,
                  pstart: np.ndarray, pend: np.ndarray) -> np.ndarray:
    if kind == "unbounded_preceding":
        return pstart.copy()
    if kind == "unbounded_following":
        return pend.copy()
    if kind == "current":
        return idx.copy()
    if kind == "preceding":
        return idx - off
    if kind == "following":
        return idx + off
    raise SQLExecutionError(f"unknown frame bound {kind!r}")


def framed_aggregate(layout: WindowLayout, values: np.ndarray | None,
                     func: str, frame: tuple, threads: int = 1) -> np.ndarray:
    """Evaluate ``func`` over each row's frame.

    ``values`` is the aggregate argument in *original* row order (``None``
    for ``COUNT(*)``).  SUM/AVG/COUNT use prefix sums (O(n) per slice);
    MIN/MAX use ``ufunc.reduceat`` over per-row ``[lo, hi]`` index pairs,
    with a fast whole-partition path and a running ``accumulate`` path for
    the common unbounded-preceding frames.  SQL null semantics throughout:
    NULL inputs are skipped, an all-NULL or empty frame aggregates to NULL
    (COUNT: 0).
    """
    if values is None and func != "COUNT":
        raise SQLExecutionError(f"{func} window aggregate requires an argument")
    if func in ("SUM", "AVG", "COUNT"):
        out_sorted = _sum_like(layout, values, func, frame, threads)
    elif func in ("MIN", "MAX"):
        out_sorted = _minmax(layout, values, func, frame, threads)
    else:
        raise UnsupportedFeatureError(f"unsupported window aggregate {func!r}")
    out = np.empty(layout.n, dtype=out_sorted.dtype)
    out[layout.order] = out_sorted
    return out


def _lo_hi(unit: str, sk: str, so: int, ek: str, eo: int, m: int,
           starts: np.ndarray, peer: np.ndarray | None):
    """Per-row inclusive frame bounds [lo, hi] in slice-local coordinates."""
    counts = np.diff(np.append(starts, m))
    pstart = np.repeat(starts, counts)
    pend = pstart + np.repeat(counts, counts) - 1
    idx = np.arange(m, dtype=np.int64)
    if unit == "range":
        # Peer-group frames: extend the ROWS bounds to whole peer groups.
        if peer is None:
            raise SQLExecutionError("range frame requires peer flags")
        group_starts = np.nonzero(peer)[0]
        group_counts = np.diff(np.append(group_starts, m))
        gstart = np.repeat(group_starts, group_counts)
        gend = gstart + np.repeat(group_counts, group_counts) - 1
        if (sk, ek) != ("unbounded_preceding", "current"):
            if (sk, ek) == ("unbounded_preceding", "unbounded_following"):
                return pstart, pend
            raise UnsupportedFeatureError(
                "RANGE frames support UNBOUNDED PRECEDING .. CURRENT ROW only"
            )
        return pstart, gend
    lo = np.clip(_frame_bounds(unit, sk, so, idx, pstart, pend), pstart, None)
    hi = np.clip(_frame_bounds(unit, ek, eo, idx, pstart, pend), None, pend)
    return lo, hi


def _sum_like(layout, values, func: str, frame, threads: int) -> np.ndarray:
    unit, sk, so, ek, eo = frame
    peer_all = layout.peer_starts
    vals_sorted = None
    valid_sorted = None
    if values is not None:
        v = values[layout.order]
        valid_sorted = (~isna_array(v)).astype(np.float64)
        if func != "COUNT":  # COUNT only needs validity, not the values
            if v.dtype == object:
                vals_sorted = np.array(
                    [0.0 if x is None else float(x) for x in v], dtype=np.float64
                )
            else:
                w = v.astype(np.float64)
                vals_sorted = np.where(np.isnan(w), 0.0, w)

    def kernel(lo_: int, hi_: int, starts: np.ndarray) -> np.ndarray:
        m = hi_ - lo_
        lo, hi = _lo_hi(unit, sk, so, ek, eo, m, starts,
                        peer_all[lo_:hi_] if m else peer_all[:0])
        empty = lo > hi
        if values is None:  # COUNT(*): frame width, no null skipping
            out = (hi - lo + 1).astype(np.int64)
            out[empty] = 0
            return out
        # A frame may start past the partition end (pure FOLLOWING frames):
        # clamp the prefix-sum lookups; `empty` already marks those rows.
        lo_idx = np.clip(lo, 0, m)
        hi_idx = np.clip(hi + 1, 0, m)
        ok = valid_sorted[lo_:hi_]
        ccnt = np.concatenate(([0.0], np.cumsum(ok)))
        c = ccnt[hi_idx] - ccnt[lo_idx]
        c[empty] = 0.0
        if func == "COUNT":
            return c.astype(np.int64)
        csum = np.concatenate(([0.0], np.cumsum(vals_sorted[lo_:hi_])))
        s = csum[hi_idx] - csum[lo_idx]
        s[empty] = 0.0
        if func == "AVG":
            with np.errstate(invalid="ignore", divide="ignore"):
                return s / c  # 0/0 -> NaN == SQL NULL
        s[c == 0] = np.nan  # SUM over an empty/all-NULL frame is NULL
        return s

    return _map_slices(layout, threads, kernel)


def _minmax(layout, values, func: str, frame, threads: int) -> np.ndarray:
    if values is None:
        raise SQLExecutionError(f"{func} window aggregate requires an argument")
    unit, sk, so, ek, eo = frame
    peer_all = layout.peer_starts
    v = values[layout.order]
    if v.dtype.kind == "M":
        work = v.astype("datetime64[D]").astype(np.float64)
        work[isna_array(v)] = np.nan
        restore = "datetime"
    elif v.dtype == object:
        work = np.array([np.nan if x is None else float(x) for x in v],
                        dtype=np.float64)
        restore = "float"
    else:
        work = v.astype(np.float64)
        restore = "int" if v.dtype.kind in ("i", "u") else "float"
    fill = np.inf if func == "MIN" else -np.inf
    ufunc = np.minimum if func == "MIN" else np.maximum
    work = np.where(np.isnan(work), fill, work)

    whole = (sk, ek) == ("unbounded_preceding", "unbounded_following")
    running_rows = (unit == "rows" and sk == "unbounded_preceding"
                    and ek == "current")

    def kernel(lo_: int, hi_: int, starts: np.ndarray) -> np.ndarray:
        m = hi_ - lo_
        if m == 0:
            return np.empty(0, dtype=np.float64)
        w = work[lo_:hi_]
        counts = np.diff(np.append(starts, m))
        if whole:
            per_part = ufunc.reduceat(w, starts)
            return np.repeat(per_part, counts)
        if running_rows:
            out = np.empty(m, dtype=np.float64)
            for s, c in zip(starts, counts):  # accumulate resets per partition
                out[s:s + c] = ufunc.accumulate(w[s:s + c])
            return out
        lo, hi = _lo_hi(unit, sk, so, ek, eo, m, starts, peer_all[lo_:hi_])
        empty = lo > hi
        padded = np.append(w, fill)  # lets hi+1 == m index the sentinel
        pairs = np.column_stack((np.clip(lo, 0, m), np.clip(hi + 1, 0, m))).ravel()
        out = ufunc.reduceat(padded, pairs)[::2].astype(np.float64)
        out[empty] = fill
        return out

    out = _map_slices(layout, threads, kernel)
    out = np.where(np.isinf(out), np.nan, out)  # empty/all-NULL frame -> NULL
    if restore == "datetime":
        nat = np.isnan(out)
        dates = out.copy()
        dates[nat] = 0
        result = dates.astype(np.int64).astype("datetime64[D]")
        result[nat] = np.datetime64("NaT")
        return result
    if restore == "int" and not np.isnan(out).any():
        return out.astype(np.int64)
    return out


# ---------------------------------------------------------------------------
# Orchestration: one SELECT's window calls -> arrays
# ---------------------------------------------------------------------------

_RANKING_FUNCS = {"ROW_NUMBER", "RANK", "DENSE_RANK", "NTILE"}
_OFFSET_FUNCS = {"LAG", "LEAD"}
_AGG_FUNCS = {"SUM", "AVG", "MIN", "MAX", "COUNT"}


def _const_arg(evaluator, expr, what: str):
    value = evaluator.eval(expr)
    if isinstance(value, np.ndarray):
        raise UnsupportedFeatureError(f"{what} must be a constant")
    return value


def evaluate_window_calls(chunk, scope, calls, config, params=None) -> dict:
    """Evaluate every :class:`~.sqlast.WindowCall` of one SELECT body.

    Calls are grouped by ``(PARTITION BY, ORDER BY)`` spec so each distinct
    spec builds its :class:`WindowLayout` (factorize + sort) exactly once;
    kernels then reduce morsel-parallel across ``config.threads`` workers.
    Returns ``{id(call): array}`` keyed like the plan's AST nodes.
    """
    from .expressions import Evaluator
    from .sqlast import expr_key

    evaluator = Evaluator(chunk, scope, params=params)
    n = chunk.nrows
    threads = config.threads
    layouts: dict[tuple, WindowLayout] = {}
    out: dict[int, np.ndarray] = {}
    for call in calls:
        spec = (
            tuple(expr_key(p) for p in call.partition_by),
            tuple((expr_key(o.expr), o.ascending) for o in call.order_by),
        )
        layout = layouts.get(spec)
        if layout is None:
            parts = [evaluator.eval_array(p) for p in call.partition_by]
            orders = [evaluator.eval_array(o.expr) for o in call.order_by]
            ascendings = [o.ascending for o in call.order_by]
            layout = build_layout(n, parts, orders, ascendings)
            layouts[spec] = layout

        func = call.func
        if func == "ROW_NUMBER":
            result = _row_number(layout, threads)
        elif func in ("RANK", "DENSE_RANK"):
            result = _rank(layout, threads, dense=(func == "DENSE_RANK"))
        elif func == "NTILE":
            tiles = int(_const_arg(evaluator, call.args[0], "NTILE tile count"))
            result = ntile(layout, tiles, threads)
        elif func in _OFFSET_FUNCS:
            values = plain(evaluator.eval_array(call.args[0]))
            offset = 1
            if len(call.args) > 1:
                offset = int(_const_arg(evaluator, call.args[1], f"{func} offset"))
            default = None
            if len(call.args) > 2:
                default = _const_arg(evaluator, call.args[2], f"{func} default")
            signed = offset if func == "LAG" else -offset
            result = shift(layout, values, signed, default, threads)
        elif func in _AGG_FUNCS:
            values = plain(evaluator.eval_array(call.args[0])) if call.args else None
            frame = _resolve_frame(call)
            result = framed_aggregate(layout, values, func, frame, threads)
        else:
            raise UnsupportedFeatureError(f"unsupported window function {func!r}")
        out[id(call)] = result
    return out


def _resolve_frame(call) -> tuple:
    """The effective frame of an aggregate window call.

    Standard SQL (and sqlite3, our differential oracle): no ORDER BY means
    the whole partition; ORDER BY without an explicit frame means ``RANGE
    UNBOUNDED PRECEDING .. CURRENT ROW`` — the running aggregate *including
    peers* of the current row.
    """
    if call.frame is not None:
        f = call.frame
        return (f.unit, f.start_kind, f.start_offset, f.end_kind, f.end_offset)
    if call.order_by:
        return RANGE_TO_CURRENT
    return WHOLE_PARTITION
