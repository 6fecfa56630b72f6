"""Symbolic values tracked by the Pandas/NumPy -> TondIR translator.

The translator is a static abstract interpreter: it never runs the user's
function; instead each Python variable is bound to one of these symbolic
descriptions.  Type/shape information (the paper's "type inference",
Section III-B) lives on :class:`ColumnInfo` / :class:`SymFrame`.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Optional

from ..tondir.ir import ExistsAtom, RelAtom, Term

__all__ = [
    "ColumnInfo", "SymFrame", "SymSeries", "SymScalar", "SymScalarRel",
    "SymGroupBy", "SymSeriesGroupBy", "SymConstArray", "SymStrAccessor",
    "SymDtAccessor", "SymRollingWindow", "sanitize",
]

_IDENT = re.compile(r"[^0-9a-zA-Z_]")


@functools.lru_cache(maxsize=4096)
def sanitize(name: str) -> str:
    """Make a pandas column name usable as a TondIR variable (cached: a
    translation asks for the same few column names thousands of times)."""
    out = _IDENT.sub("_", str(name))
    if not out or out[0].isdigit():
        out = "c_" + out
    return out


@dataclass
class ColumnInfo:
    """One logical column of a symbolic frame."""

    name: str               # pandas-level column name
    var: str                # TondIR variable / SQL column name
    dtype: str = "unknown"  # int | float | str | bool | date | unknown
    unique: bool = False

    def renamed(self, name: str, var: str | None = None) -> "ColumnInfo":
        return ColumnInfo(name=name, var=var or self.var, dtype=self.dtype, unique=self.unique)


@dataclass
class SymFrame:
    """A DataFrame (or dense array) currently stored in TondIR relation *rel*."""

    rel: str
    cols: list[ColumnInfo]
    kind: str = "frame"                 # frame | array | series-frame
    index_cols: list[str] = field(default_factory=list)  # pandas index names
    hidden_id: Optional[ColumnInfo] = None  # dropped-but-retained unique id
    # Row ordering established by an upstream sort_values: (var, ascending)
    # pairs, carried through row-preserving operations so the sink rule can
    # re-establish ORDER BY (Section III-E "Sort and Limit").
    ordering: Optional[list] = None

    def col(self, name: str) -> ColumnInfo:
        for c in self.cols:
            if c.name == name:
                return c
        raise KeyError(name)

    def has_col(self, name: str) -> bool:
        return any(c.name == name for c in self.cols)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.cols]

    @property
    def vars(self) -> list[str]:
        return [c.var for c in self.cols]

    def atom(self) -> RelAtom:
        return RelAtom(self.rel, list(self.vars))

    def value_cols(self) -> list[ColumnInfo]:
        """Array value columns (everything except the ID column)."""
        return [c for c in self.cols if c.var != "ID"]

    @property
    def width(self) -> int:
        """Number of value columns of a dense array."""
        return len(self.value_cols())


@dataclass
class SymSeries:
    """A column expression rooted at a frame (a Pandas Series)."""

    frame: SymFrame
    term: Term
    name: Optional[str] = None
    dtype: str = "unknown"
    # Extra one-row relations (scalar aggregates) the term depends on.
    extra_atoms: list[RelAtom] = field(default_factory=list)
    # Semi/anti-join conditions of an ``isin`` mask (its term is then True);
    # a filter by the mask adds them to its rule body.
    exists_atoms: list[ExistsAtom] = field(default_factory=list)

    def with_term(self, term: Term, dtype: str | None = None) -> "SymSeries":
        return SymSeries(
            frame=self.frame, term=term, name=self.name,
            dtype=dtype or self.dtype, extra_atoms=list(self.extra_atoms),
            exists_atoms=list(self.exists_atoms),
        )


@dataclass
class SymScalar:
    """A compile-time constant scalar."""

    value: object
    dtype: str = "unknown"


@dataclass
class SymScalarRel:
    """A scalar produced by an aggregation: a one-row one-column relation."""

    rel: str
    var: str
    dtype: str = "unknown"

    def atom(self) -> RelAtom:
        return RelAtom(self.rel, [self.var])


@dataclass
class SymGroupBy:
    frame: SymFrame
    keys: list[str]
    as_index: bool = True


@dataclass
class SymSeriesGroupBy:
    groupby: SymGroupBy
    column: str


@dataclass
class SymConstArray:
    """A literal numpy array appearing in the source (constant folding)."""

    values: list  # 1-D or 2-D python list of numbers


@dataclass
class SymStrAccessor:
    series: SymSeries


@dataclass
class SymDtAccessor:
    series: SymSeries


@dataclass
class SymRollingWindow:
    """``series.rolling(window, min_periods)`` awaiting its aggregate method."""

    series: SymSeries
    window: int
    min_periods: int = 0
