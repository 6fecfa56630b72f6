"""The ``Series.str`` accessor: vectorized string operations.

Only operations used by the paper's workloads (TPC-H LIKE predicates, the
Kaggle notebooks, Birth Analysis) are provided, with Pandas-compatible
semantics: missing values propagate through every operation.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .series import Series

__all__ = ["StringAccessor", "like_matcher"]


def like_matcher(pattern: str, escape: str | None = None
                 ) -> Callable[[str], "re.Match[str] | None"]:
    """Compile a SQL LIKE pattern (``%``/``_`` wildcards) into one regex and
    return the function that tests a string against it (a match object,
    or None).

    The whole string must match: the end is anchored with ``\\Z`` (``$``
    would also match before a final newline).  A leading ``%`` becomes a
    ``search`` instead of a ``.*`` prefix, and a trailing ``%`` drops the
    end anchor, so ``'%special%requests%'`` is a search for
    ``special.*requests``.

    *escape*, when given, is the single character of an ``ESCAPE 'c'``
    clause: the character following it matches literally (including ``%``,
    ``_``, and the escape character itself).  A trailing bare escape
    character matches itself, like sqlite.
    """
    out: list[str] = []  # regex pieces; ".*" only for a wildcard %
    i = 0
    while i < len(pattern):
        ch = pattern[i]
        if escape is not None and ch == escape and i + 1 < len(pattern):
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            if not out or out[-1] != ".*":
                out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    search = out[:1] == [".*"]
    if search:
        del out[0]
    if out[-1:] == [".*"]:
        del out[-1]
    else:
        out.append(r"\Z")
    regex = re.compile("".join(out), re.DOTALL)
    return regex.search if search else regex.match


class StringAccessor:
    """Implements ``series.str.<method>`` for object-dtype Series."""

    def __init__(self, series: "Series"):
        self._series = series

    # -- internals ----------------------------------------------------------
    def _map_bool(self, func: Callable[[str], bool]) -> "Series":
        data = self._series.values
        out = np.zeros(len(data), dtype=bool)
        for i, v in enumerate(data):
            if v is not None and not (isinstance(v, float) and np.isnan(v)):
                out[i] = func(v)
        return self._wrap(out)

    def _map_obj(self, func: Callable[[str], object]) -> "Series":
        data = self._series.values
        out = np.empty(len(data), dtype=object)
        for i, v in enumerate(data):
            out[i] = None if v is None or (isinstance(v, float) and np.isnan(v)) else func(v)
        return self._wrap(out)

    def _wrap(self, values: np.ndarray) -> "Series":
        from .series import Series

        return Series(values, index=self._series.index, name=self._series.name)

    # -- predicates ----------------------------------------------------------
    def contains(self, pat: str, regex: bool = False) -> "Series":
        if regex:
            compiled = re.compile(pat)
            return self._map_bool(lambda s: compiled.search(s) is not None)
        return self._map_bool(lambda s: pat in s)

    def startswith(self, prefix: str) -> "Series":
        return self._map_bool(lambda s: s.startswith(prefix))

    def endswith(self, suffix: str) -> "Series":
        return self._map_bool(lambda s: s.endswith(suffix))

    def match(self, pat: str) -> "Series":
        compiled = re.compile(pat)
        return self._map_bool(lambda s: compiled.match(s) is not None)

    def like(self, pattern: str) -> "Series":
        """SQL LIKE semantics; convenience used by tests and workloads."""
        matches = like_matcher(pattern)
        return self._map_bool(lambda s: matches(s) is not None)

    def isin_substrings(self, substrings: list[str]) -> "Series":
        return self._map_bool(lambda s: any(sub in s for sub in substrings))

    # -- transforms ----------------------------------------------------------
    def upper(self) -> "Series":
        return self._map_obj(str.upper)

    def lower(self) -> "Series":
        return self._map_obj(str.lower)

    def strip(self) -> "Series":
        return self._map_obj(str.strip)

    def len(self) -> "Series":
        data = self._series.values
        out = np.full(len(data), -1, dtype=np.int64)
        for i, v in enumerate(data):
            if v is not None:
                out[i] = len(v)
        return self._wrap(out)

    def slice(self, start: int | None = None, stop: int | None = None) -> "Series":
        return self._map_obj(lambda s: s[start:stop])

    def __getitem__(self, key: slice) -> "Series":
        return self.slice(key.start, key.stop)

    def replace(self, pat: str, repl: str, regex: bool = False) -> "Series":
        if regex:
            compiled = re.compile(pat)
            return self._map_obj(lambda s: compiled.sub(repl, s))
        return self._map_obj(lambda s: s.replace(pat, repl))

    def split(self, sep: str) -> "Series":
        return self._map_obj(lambda s: s.split(sep))

    def get(self, i: int) -> "Series":
        return self._map_obj(lambda s: s[i] if isinstance(s, str) else s[i])

    def cat(self, other: "Series", sep: str = "") -> "Series":
        left = self._series.values
        right = other.values if hasattr(other, "values") else np.asarray(other)
        out = np.empty(len(left), dtype=object)
        for i in range(len(left)):
            a, b = left[i], right[i]
            out[i] = None if a is None or b is None else f"{a}{sep}{b}"
        return self._wrap(out)

    def zfill(self, width: int) -> "Series":
        return self._map_obj(lambda s: s.zfill(width))

    def title(self) -> "Series":
        return self._map_obj(str.title)
