"""Group-key factorization and the one grouped reducer behind the SQL hash
aggregate and ``DataFrame.groupby``.

* :func:`factorize` / :func:`factorize_many` — dense group ids for keys;
* :class:`GroupLayout` — where the rows of one aggregation go, built once
  per execution and shared by every aggregate of it (what
  :class:`~.window.WindowLayout` is to the window calls of one spec);
* :class:`GroupedColumn` — one argument column over a layout: its NULL
  mask, per-group counts and per-group sums are computed once and every
  reduction of the column reads them (AVG is SUM / COUNT);
* :func:`sum_of_products` — a batch of ``SUM(x * y)`` over one group as a
  single matrix product.

Summation order, which decides the low bits of a float result: a grouped
SUM / AVG / STDDEV adds each group's rows in row order (``np.bincount``),
at every thread count and in every grace partition of a spilled aggregate;
a global one (one group, no GROUP BY) uses NumPy's pairwise ``sum``; a
:func:`sum_of_products` uses the BLAS dot-product order per block of rows.
Only the exact reductions — counts, MIN / MAX, first rows — run
partition-parallel (:meth:`GroupLayout.partials`), so every reduction here
is bit-identical across thread counts.
"""

from __future__ import annotations

import functools
import math
from functools import cached_property

import numpy as np

from ..dataframe._common import coerce_array
from ..errors import UnsupportedFeatureError
from .parallel import run_partitions
from .table import DictColumn, as_dict, encode, gather, isna, plain

__all__ = ["factorize", "factorize_many", "GroupLayout", "GroupedColumn",
           "sum_result", "sum_of_products"]

# Composite keys pack into one int64 code only below this many combinations.
_MAX_PACKED = 2**62
# An integer SUM stays an integer while its float64 accumulator is exact.
_EXACT_INT = 2**52
# Rows per block of sum_of_products: the stacked factors of 16 columns
# (1 MB) stay in cache; 2.6x faster than stacking whole columns for 8 x 8
# factors of 100 k rows (2-vCPU host, one BLAS thread).
_PRODUCT_BLOCK = 8192


def _first_rows(ids: np.ndarray, size: int, fill: int, start: int = 0) -> np.ndarray:
    """Per id in ``[0, size)``, the first row of *ids* that holds it, the
    rows numbered from *start*; *fill* for an id that no row holds."""
    first = np.full(size, fill, dtype=np.int64)
    # Assign row numbers back to front so each id keeps its smallest.
    first[ids[::-1]] = np.arange(start + len(ids) - 1, start - 1, -1,
                                 dtype=np.int64)
    return first


def _first_appearance(codes: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids for integer *codes* in ``[0, size)``, numbered by first
    appearance among the rows.  Returns ``(gids, codes_in_id_order)``."""
    n = len(codes)
    first = _first_rows(codes, size, n)
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


class GroupLayout:
    """Where the rows of one aggregation go.

    ``gids`` maps each of the ``nrows`` input rows to its group in
    ``[0, ngroups)``; a global aggregate (no GROUP BY) passes none and is
    the one group of every row, so its reductions need no scatter.
    :attr:`counts` and :attr:`first` are built on first use and then shared
    by every aggregate; the exact reductions split their rows over
    ``threads`` partitions (:meth:`partials`).
    """

    def __init__(self, nrows: int, gids: np.ndarray | None = None,
                 ngroups: int = 1, threads: int = 1):
        self.nrows = nrows
        self.gids = gids
        self.ngroups = ngroups
        self.threads = threads

    def partials(self, n: int, kernel, merge) -> np.ndarray:
        """``kernel(lo, hi)`` — one per-group partial result over rows
        ``[lo, hi)`` of *n* — run over ``threads`` row partitions
        (:func:`~.parallel.run_partitions`: on the shared pool once the
        input is large enough) and merged by *merge* in partition order.
        Only for exact merges (``np.add`` on counts, ``np.minimum`` /
        ``np.maximum``), so the partition count never shows."""
        return functools.reduce(merge, run_partitions(n, self.threads, kernel))

    def count(self, gids: np.ndarray | None, n: int) -> np.ndarray:
        """Rows per group of the *n* rows whose group ids are *gids*."""
        if gids is None:
            return np.array([n], dtype=np.int64)
        return self.partials(n, lambda lo, hi: np.bincount(
            gids[lo:hi], minlength=self.ngroups), np.add)

    def first_of(self, gids: np.ndarray | None, n: int) -> np.ndarray:
        """Per group, the first of the *n* rows whose group ids are *gids*
        (*n* for a group without one)."""
        if gids is None:
            return np.zeros(1, dtype=np.int64)
        return self.partials(n, lambda lo, hi: _first_rows(
            gids[lo:hi], self.ngroups, n, lo), np.minimum)

    @cached_property
    def counts(self) -> np.ndarray:
        """Rows per group."""
        return self.count(self.gids, self.nrows)

    @cached_property
    def first(self) -> np.ndarray:
        """Each group's first row: where a column that is not an aggregate
        takes its per-group value."""
        return self.first_of(self.gids, self.nrows)


class GroupedColumn:
    """One aggregate argument over a :class:`GroupLayout` — the reducer.

    The non-NULL rows, their per-group counts and float sums are computed
    on first use and shared by every :meth:`reduce` of the column, so SUM,
    COUNT and AVG of one argument cost one NULL mask, one count and one
    sum.  *values* is a NumPy array or a :class:`~.table.DictColumn`
    (counted, deduplicated and ranked on its codes).
    """

    def __init__(self, layout: GroupLayout, values):
        self.layout = layout
        self.values = values

    @cached_property
    def _rows(self) -> tuple:
        """``(gids, values)`` of the non-NULL rows (gids None: global)."""
        gids, values = self.layout.gids, self.values
        if not isinstance(values, DictColumn) and values.dtype.kind in "iub":
            return gids, values
        valid = ~isna(values)
        if valid.all():
            return gids, values
        return (None if gids is None else gids[valid]), values[valid]

    @cached_property
    def counts(self) -> np.ndarray:
        """Non-NULL rows per group."""
        gids, values = self._rows
        if values is self.values:
            return self.layout.counts
        return self.layout.count(gids, len(values))

    @cached_property
    def _numbers(self) -> np.ndarray:
        """The non-NULL values as a numeric array (SUM, AVG, STDDEV)."""
        values = self._rows[1]
        if isinstance(values, DictColumn) or values.dtype.kind not in "iufb":
            values = coerce_array(plain(values))
            if len(values) and values.dtype.kind not in "iufb":
                raise UnsupportedFeatureError(
                    f"cannot add up values of type {values.dtype}")
        return values.astype(np.float64) if values.dtype == object else values

    def _add(self, weights: np.ndarray) -> np.ndarray:
        """Float64 sums per group of *weights*, one per non-NULL row."""
        gids = self._rows[0]
        if gids is None:
            with np.errstate(invalid="ignore"):  # inf + -inf: NULL
                return np.array([weights.sum(dtype=np.float64)])
        return np.bincount(gids, weights=weights, minlength=self.layout.ngroups)

    @cached_property
    def sums(self) -> np.ndarray:
        """Float64 sum of the non-NULL values per group (0 where none)."""
        return self._add(self._numbers)

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, int]:
        """One int64 code per non-NULL row, equal exactly where both the
        group and the value are (``gid * span + value code``), and the
        span."""
        gids, values = self._rows
        if not len(values):
            return np.zeros(0, dtype=np.int64), 1
        codes = _value_codes(values, self.layout.ngroups)
        span = int(codes.max()) + 1
        return (codes if gids is None else gids * span + codes), span

    def reduce(self, func: str) -> np.ndarray:
        """One value per group of ``count``, ``sum``, ``mean``, ``min``,
        ``max``, ``std`` / ``var`` (sample), ``nunique`` or ``first``.  NULLs
        are skipped; a group without a non-NULL value gets NULL (0 for
        ``count``, ``nunique`` and ``sum``)."""
        if func == "count":
            return self.counts
        if func == "sum":
            return sum_result(self.sums, self._numbers.dtype.kind in "iub")
        if func == "mean":
            with np.errstate(invalid="ignore", divide="ignore"):
                return self.sums / self.counts
        if func in ("min", "max"):
            return self._extreme(np.minimum if func == "min" else np.maximum)
        if func in ("std", "var"):
            return self._spread(func == "std")
        if func == "nunique":
            return self._nunique()
        if func == "first":
            gids, values = self._rows
            first = self.layout.first_of(gids, len(values))
            return gather(values, first, first == len(values))
        raise UnsupportedFeatureError(f"unsupported aggregate {func!r}")

    def distinct(self) -> "GroupedColumn":
        """The column over the first row of each distinct non-NULL value of
        every group, in row order: what SUM / AVG (DISTINCT) reduce."""
        gids, values = self._rows
        keep = np.sort(np.unique(self._pairs[0], return_index=True)[1])
        layout = self.layout
        return GroupedColumn(
            GroupLayout(len(keep), None if gids is None else gids[keep],
                        layout.ngroups, layout.threads), values[keep])

    def _extreme(self, ufunc) -> np.ndarray:
        """MIN / MAX: a scatter of the non-NULL values (``ufunc.at``, exact,
        so partition-parallel); strings compare by their rank in the sorted
        dictionary."""
        gids, values = self._rows
        empty = self.counts == 0
        if isinstance(values, DictColumn) or values.dtype == object:
            col = as_dict(values)
            entries = col.dictionary[:-1]
            order = np.argsort(entries, kind="stable")
            rank = np.empty(len(entries), dtype=np.int64)
            rank[order] = np.arange(len(entries))
            best = self._scatter(ufunc, gids, rank[col.codes])
            out = entries[order[np.where(empty, 0, best)]] if len(entries) \
                else np.empty(self.layout.ngroups, dtype=object)
            out[empty] = None
            return out
        kind = values.dtype.kind
        work = values.view(np.int64) if kind == "M" else \
            values.astype(np.int64) if kind == "b" else values
        out = self._scatter(ufunc, gids, work)
        if kind == "M":
            out = out.view(values.dtype)
            out[empty] = np.datetime64("NaT")
        elif empty.any():
            out = out.astype(np.float64)
            out[empty] = np.nan
        return out

    def _scatter(self, ufunc, gids: np.ndarray | None,
                 work: np.ndarray) -> np.ndarray:
        if gids is None:
            return np.array([ufunc.reduce(work) if len(work) else 0],
                            dtype=work.dtype)
        if work.dtype.kind == "f":
            fill = np.inf if ufunc is np.minimum else -np.inf
        else:
            info = np.iinfo(work.dtype)
            fill = info.max if ufunc is np.minimum else info.min

        def kernel(lo: int, hi: int) -> np.ndarray:
            out = np.full(self.layout.ngroups, fill, dtype=work.dtype)
            ufunc.at(out, gids[lo:hi], work[lo:hi])
            return out

        return self.layout.partials(len(work), kernel, ufunc)

    def _spread(self, std: bool) -> np.ndarray:
        """Sample STDDEV / VAR in two passes — the group means, then the
        squared deviations from them — so values far from zero keep their
        spread (one pass, ``Σx² − (Σx)²/n``, cancels it away)."""
        gids, counts = self._rows[0], self.counts
        with np.errstate(invalid="ignore", divide="ignore"):
            means = self.sums / counts
            dev = self._numbers - (means[0] if gids is None else means[gids])
            var = self._add(dev * dev) / (counts - 1)
        var[counts < 2] = np.nan
        return np.sqrt(var) if std else var

    def _nunique(self) -> np.ndarray:
        """Distinct non-NULL values per group: sort the (group, value) codes
        and count the runs per group."""
        pairs, span = self._pairs
        pairs = np.sort(pairs)
        runs = np.ones(len(pairs), dtype=bool)
        runs[1:] = pairs[1:] != pairs[:-1]
        return np.bincount(pairs[runs] // span,
                           minlength=self.layout.ngroups).astype(np.int64)


def _value_codes(values, ngroups: int) -> np.ndarray:
    """Non-negative int64 codes of non-NULL *values*, equal exactly where
    the values are: the dictionary codes of strings, the offset of a dense
    integer or date from the minimum, else the rank among the values."""
    if isinstance(values, DictColumn):
        return values.codes.astype(np.int64)
    kind = values.dtype.kind
    if kind == "M":
        values = values.view(np.int64)
    if kind in "iubM" and \
            (int(values.max()) - int(values.min()) + 1) * ngroups < _MAX_PACKED:
        return values.astype(np.int64) - int(values.min())
    if kind == "O":
        return encode(values).codes.astype(np.int64)
    return np.unique(values, return_inverse=True)[1].astype(np.int64)


def sum_result(sums: np.ndarray, integral: bool) -> np.ndarray:
    """What SUM returns for the float64 *sums* of integer (*integral*) or
    float values: an integer SUM stays ``int64`` while its float64
    accumulator is exact (below 2^52), any other is float64."""
    if integral and np.abs(sums).max(initial=0) < _EXACT_INT:
        return sums.astype(np.int64)
    return sums


def sum_of_products(left: list[np.ndarray],
                    right: list[np.ndarray]) -> np.ndarray:
    """``out[i, j] = sum(left[i] * right[j])`` as one matrix product.

    The factors are stacked as float64 rows one block of
    ``_PRODUCT_BLOCK`` rows at a time and each block adds its BLAS product
    to the total, in block order: the stacks stay in cache and no
    full-size copy of the factors is made.  ``right`` may be ``left``
    itself (one stack, a symmetric product).
    """
    n = len(left[0])
    out = np.zeros((len(left), len(right)))
    a = np.empty((len(left), min(n, _PRODUCT_BLOCK)))
    b = a if right is left else np.empty((len(right), a.shape[1]))
    stacks = ((a, left),) if b is a else ((a, left), (b, right))
    for lo in range(0, n, _PRODUCT_BLOCK):
        width = min(n - lo, _PRODUCT_BLOCK)
        for stack, factors in stacks:
            for row, factor in zip(stack, factors):
                row[:width] = factor[lo:lo + width]
        out += a[:, :width] @ b[:, :width].T
    return out
