"""GroupBy machinery: factorize group keys, reduce columns per group."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import DataFrameError
from ._common import isna_array
from .index import Index, MultiIndex
from .series import Series

if TYPE_CHECKING:  # pragma: no cover
    from .frame import DataFrame

__all__ = ["GroupBy", "SeriesGroupBy", "factorize_keys",
           "group_transform", "group_cumsum", "group_rank", "group_shift"]


def factorize_keys(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Map rows of *arrays* to dense group ids (first-appearance order).

    Returns ``(group_ids, unique_key_arrays, n_groups)``.
    """
    n = len(arrays[0]) if arrays else 0
    ids = np.empty(n, dtype=np.int64)
    seen: dict[tuple, int] = {}
    uniques: list[tuple] = []
    for i in range(n):
        key = tuple(a[i] for a in arrays)
        gid = seen.get(key)
        if gid is None:
            gid = len(uniques)
            seen[key] = gid
            uniques.append(key)
        ids[i] = gid
    key_arrays = []
    for level in range(len(arrays)):
        vals = [u[level] for u in uniques]
        arr = np.empty(len(vals), dtype=arrays[level].dtype if arrays[level].dtype != object else object)
        for i, v in enumerate(vals):
            arr[i] = v
        key_arrays.append(arr)
    return ids, key_arrays, len(uniques)


def _reduce(values: np.ndarray, gids: np.ndarray, ngroups: int,
            func: str) -> np.ndarray:
    """*func* per group through the engine's grouped reducer (``size``
    counts every row, NULLs included)."""
    from ..sqlengine.grouping import GroupedColumn, GroupLayout

    layout = GroupLayout(len(gids), gids, ngroups)
    if func == "size":
        return layout.counts
    return GroupedColumn(layout, values).reduce(func)


def group_transform(values: np.ndarray, gids: np.ndarray, ngroups: int,
                    func: str) -> np.ndarray:
    """Per-group aggregate broadcast back to member rows (original order)."""
    return _reduce(values, gids, ngroups, func)[gids]


def _group_layout(gids: np.ndarray):
    from ..sqlengine.window import build_layout

    return build_layout(len(gids), [gids], [], [])


def group_cumsum(values: np.ndarray, gids: np.ndarray) -> np.ndarray:
    """Running sum within each group, rows kept in original order."""
    from ..sqlengine.window import framed_aggregate

    frame = ("rows", "unbounded_preceding", 0, "current", 0)
    out = framed_aggregate(_group_layout(gids), values, "SUM", frame)
    if values.dtype.kind in ("i", "u", "b") and not np.isnan(out).any():
        return out.astype(np.int64)
    return out


def group_rank(values: np.ndarray, gids: np.ndarray, method: str = "min",
               ascending: bool = True) -> np.ndarray:
    """Within-group rank (1-based), rows kept in original order.

    NaN/None values receive NaN ranks and do not displace valid rows,
    matching pandas and :meth:`Series.rank`.
    """
    from ..sqlengine.window import _rank, _row_number, build_layout

    if method not in ("first", "min", "dense"):
        raise DataFrameError(f"unsupported rank method {method!r}")
    na = isna_array(values)
    if na.any():
        valid = group_rank(values[~na], gids[~na], method, ascending)
        out = np.full(len(values), np.nan)
        out[~na] = valid
        return out
    layout = build_layout(len(gids), [gids], [values], [ascending])
    if method == "first":
        return _row_number(layout, 1)
    return _rank(layout, 1, dense=(method == "dense"))


def group_shift(values: np.ndarray, gids: np.ndarray, periods: int = 1,
                fill_value=None) -> np.ndarray:
    """Within-group shift (positive = toward later rows), original order."""
    from ..sqlengine.window import shift

    return shift(_group_layout(gids), values, int(periods), fill_value)


_AGG_ALIASES = {"nunique": "nunique", "size": "size", "count": "count", "std": "std", "var": "var",
                "sum": "sum", "mean": "mean", "min": "min", "max": "max", "first": "first", "avg": "mean"}


def _normalize_func(func) -> str:
    if isinstance(func, str):
        if func not in _AGG_ALIASES:
            raise DataFrameError(f"unknown aggregate function {func!r}")
        return _AGG_ALIASES[func]
    if callable(func):
        name = getattr(func, "__name__", "")
        if name in ("sum", "amin", "min", "amax", "max", "mean", "len"):
            return {"amin": "min", "amax": "max", "len": "size"}.get(name, name)
    raise DataFrameError(f"unsupported aggregate function {func!r}")


class GroupBy:
    """Result of ``DataFrame.groupby(keys)``."""

    def __init__(self, frame: "DataFrame", keys: list[str], as_index: bool = True, sort: bool = True):
        for k in keys:
            if k not in frame.columns:
                raise DataFrameError(f"groupby key {k!r} not found")
        self._frame = frame
        self._keys = keys
        self._as_index = as_index
        self._sort = sort
        arrays = [frame[k].values for k in keys]
        self._gids, self._key_arrays, self._ngroups = factorize_keys(arrays)

    # -- selection -----------------------------------------------------------
    def __getitem__(self, item):
        if isinstance(item, str):
            return SeriesGroupBy(self, item)
        return GroupBy._with_columns(self, list(item))

    @staticmethod
    def _with_columns(gb: "GroupBy", cols: list[str]) -> "GroupBy":
        sub = gb._frame[cols + [k for k in gb._keys if k not in cols]]
        out = GroupBy.__new__(GroupBy)
        out._frame = sub
        out._keys = gb._keys
        out._as_index = gb._as_index
        out._sort = gb._sort
        out._gids = gb._gids
        out._key_arrays = gb._key_arrays
        out._ngroups = gb._ngroups
        return out

    # -- core aggregation ------------------------------------------------------
    def _result_order(self) -> np.ndarray:
        if not self._sort:
            return np.arange(self._ngroups)
        arrays = self._key_arrays
        if any(a.dtype == object for a in arrays):
            def sort_key(g):
                return tuple((a[g] is None, a[g]) for a in arrays)

            return np.array(sorted(range(self._ngroups), key=sort_key), dtype=np.int64)
        return np.lexsort(tuple(reversed(arrays)))

    def _build_frame(self, agg_cols: dict[str, np.ndarray]) -> "DataFrame":
        from .frame import DataFrame

        order = self._result_order()
        keys = [a[order] for a in self._key_arrays]
        data = {name: col[order] for name, col in agg_cols.items()}
        if self._as_index:
            index = Index(keys[0], name=self._keys[0]) if len(keys) == 1 else MultiIndex(keys, self._keys)
            return DataFrame(data, index=index)
        out: dict[str, np.ndarray] = {k: arr for k, arr in zip(self._keys, keys)}
        out.update(data)
        return DataFrame(out)

    def _value_columns(self) -> list[str]:
        return [c for c in self._frame.columns if c not in self._keys]

    def _agg_single(self, col: str, func: str) -> np.ndarray:
        return _reduce(self._frame[col].values, self._gids, self._ngroups, func)

    def aggregate(self, spec=None, **named):
        cols: dict[str, np.ndarray] = {}
        if named:
            for out_name, how in named.items():
                if isinstance(how, tuple):
                    src, func = how
                else:
                    raise DataFrameError("named aggregation expects (column, func) tuples")
                cols[out_name] = self._agg_single(src, _normalize_func(func))
            return self._build_frame(cols)
        if isinstance(spec, dict):
            for src, how in spec.items():
                if isinstance(how, (list, tuple)):
                    for f in how:
                        func = _normalize_func(f)
                        cols[f"{src}_{func}" if len(how) > 1 else src] = self._agg_single(src, func)
                else:
                    cols[src] = self._agg_single(src, _normalize_func(how))
            return self._build_frame(cols)
        if isinstance(spec, str) or callable(spec):
            func = _normalize_func(spec)
            for src in self._value_columns():
                cols[src] = self._agg_single(src, func)
            return self._build_frame(cols)
        raise DataFrameError(f"unsupported aggregation spec: {spec!r}")

    agg = aggregate

    # -- shorthand reductions ----------------------------------------------------
    def _all_columns(self, func: str) -> "DataFrame":
        cols = {c: self._agg_single(c, func) for c in self._value_columns()}
        return self._build_frame(cols)

    def sum(self):
        return self._all_columns("sum")

    def mean(self):
        return self._all_columns("mean")

    def min(self):
        return self._all_columns("min")

    def max(self):
        return self._all_columns("max")

    def count(self):
        return self._all_columns("count")

    def nunique(self):
        return self._all_columns("nunique")

    def first(self):
        return self._all_columns("first")

    def size(self) -> Series:
        order = self._result_order()
        counts = np.bincount(self._gids, minlength=self._ngroups)[order]
        keys = [a[order] for a in self._key_arrays]
        index = Index(keys[0], name=self._keys[0]) if len(keys) == 1 else MultiIndex(keys, self._keys)
        return Series(counts.astype(np.int64), index=index, name="size")

    @property
    def ngroups(self) -> int:
        return self._ngroups

    # -- window-style (row-preserving) operations --------------------------------
    def transform(self, func) -> "DataFrame":
        """Broadcast a per-group aggregate back to every member row."""
        from .frame import DataFrame

        name = _normalize_func(func)
        out = {c: group_transform(self._frame[c].values, self._gids,
                                  self._ngroups, name)
               for c in self._value_columns()}
        return DataFrame(out, index=self._frame.index)

    def cumsum(self) -> "DataFrame":
        """Per-group running sum in original row order."""
        from .frame import DataFrame

        out = {c: group_cumsum(self._frame[c].values, self._gids)
               for c in self._value_columns()}
        return DataFrame(out, index=self._frame.index)

    def rank(self, method: str = "min", ascending: bool = True) -> "DataFrame":
        """Per-group rank of each value column, in original row order."""
        from .frame import DataFrame

        out = {c: group_rank(self._frame[c].values, self._gids, method, ascending)
               for c in self._value_columns()}
        return DataFrame(out, index=self._frame.index)

    def shift(self, periods: int = 1, fill_value=None) -> "DataFrame":
        """Per-group shift of each value column, in original row order."""
        from .frame import DataFrame

        out = {c: group_shift(self._frame[c].values, self._gids, periods, fill_value)
               for c in self._value_columns()}
        return DataFrame(out, index=self._frame.index)

    def cumcount(self) -> Series:
        """0-based position of each row within its group (original order)."""
        from ..sqlengine.window import build_layout, _row_number

        layout = build_layout(len(self._gids), [self._gids], [], [])
        return Series(_row_number(layout, 1) - 1, index=self._frame.index)


class SeriesGroupBy:
    """Result of ``df.groupby(keys)[column]``."""

    def __init__(self, parent: GroupBy, column: str):
        if column not in parent._frame.columns:
            raise DataFrameError(f"column {column!r} not found")
        self._parent = parent
        self._column = column

    def _reduce(self, func: str) -> Series:
        parent = self._parent
        vals = _reduce(parent._frame[self._column].values, parent._gids,
                       parent._ngroups, func)
        order = parent._result_order()
        keys = [a[order] for a in parent._key_arrays]
        index = (
            Index(keys[0], name=parent._keys[0])
            if len(keys) == 1
            else MultiIndex(keys, parent._keys)
        )
        result = Series(vals[order], index=index, name=self._column)
        if parent._as_index:
            return result
        return result.reset_index()

    def sum(self):
        return self._reduce("sum")

    def mean(self):
        return self._reduce("mean")

    def min(self):
        return self._reduce("min")

    def max(self):
        return self._reduce("max")

    def count(self):
        return self._reduce("count")

    def nunique(self):
        return self._reduce("nunique")

    def size(self):
        return self._reduce("size")

    def first(self):
        return self._reduce("first")

    def std(self):
        return self._reduce("std")

    def var(self):
        return self._reduce("var")

    def aggregate(self, func):
        if isinstance(func, (list, tuple)):
            from .frame import DataFrame

            parts = {_normalize_func(f): self._reduce(_normalize_func(f)) for f in func}
            first = next(iter(parts.values()))
            data = {name: s.values for name, s in parts.items()}
            return DataFrame(data, index=first.index)
        return self._reduce(_normalize_func(func))

    agg = aggregate

    # -- window-style (row-preserving) operations --------------------------------
    def _column_values(self) -> np.ndarray:
        return self._parent._frame[self._column].values

    def transform(self, func) -> Series:
        """Per-group aggregate broadcast back to every member row."""
        parent = self._parent
        out = group_transform(self._column_values(), parent._gids,
                              parent._ngroups, _normalize_func(func))
        return Series(out, index=parent._frame.index, name=self._column)

    def cumsum(self) -> Series:
        """Per-group running sum in original row order."""
        out = group_cumsum(self._column_values(), self._parent._gids)
        return Series(out, index=self._parent._frame.index, name=self._column)

    def rank(self, method: str = "min", ascending: bool = True) -> Series:
        """Per-group rank (1-based) in original row order."""
        out = group_rank(self._column_values(), self._parent._gids,
                         method, ascending)
        return Series(out, index=self._parent._frame.index, name=self._column)

    def shift(self, periods: int = 1, fill_value=None) -> Series:
        """Per-group shift in original row order."""
        out = group_shift(self._column_values(), self._parent._gids,
                          periods, fill_value)
        return Series(out, index=self._parent._frame.index, name=self._column)

    def cumcount(self) -> Series:
        """0-based position of each row within its group."""
        return self._parent.cumcount()
