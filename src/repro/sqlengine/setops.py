"""Hash-based set-operation kernels: UNION / INTERSECT / EXCEPT semantics.

This module backs the :class:`~.plan.SetOp` physical operator and the
dataframe layer's ``concat``/``drop_duplicates`` (one kernel family for both
surfaces, like :mod:`.window` is for window functions and rolling).

All six SQL forms reduce to three primitives over dense group ids produced
by :func:`~.grouping.factorize_many` on the *combined* rows of both inputs
(so equal rows on either side share one id, and — matching SQL set-operation
semantics — NULLs compare equal to each other):

* ``UNION ALL``      — bag concatenation (no hashing at all);
* ``UNION``          — first-occurrence dedup over the combined rows;
* ``INTERSECT [ALL]`` / ``EXCEPT [ALL]`` — per-group occurrence counting:
  a left row survives based on its occurrence index within its group and
  the number of matching right rows (``min(l, r)`` copies for INTERSECT
  ALL, ``max(l - r, 0)`` for EXCEPT ALL, and the DISTINCT variants keep at
  most the first occurrence).

Side counts are accumulated morsel-parallel on the shared worker pool
(``np.bincount`` releases the GIL) and the surviving-row gather is
column-parallel, mirroring the Filter/HashJoin operators.
"""

from __future__ import annotations

import numpy as np

from ..errors import SQLExecutionError
from .grouping import factorize_many
from .parallel import parallel_map, run_partitions
from .table import Chunk, concat_columns

__all__ = [
    "combine_arrays", "dedup_positions", "occurrence_numbers",
    "set_op_positions", "execute_set_op",
]


def combine_arrays(parts: list) -> np.ndarray:
    """Concatenate column segments under the library's shared promotion
    rule (:func:`~.table.concat_columns`: mixed non-object dtypes promote;
    anything with object falls back to object)."""
    if len(parts) == 1:
        return parts[0]
    return concat_columns(parts)


def occurrence_numbers(gids: np.ndarray, ngroups: int) -> np.ndarray:
    """Occurrence index of each row within its group, in row order
    (the k-th row of a group gets k-1).  Fully vectorized."""
    n = len(gids)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(gids, kind="stable")
    sorted_gids = gids[order]
    boundaries = np.empty(n, dtype=bool)
    boundaries[0] = True
    boundaries[1:] = sorted_gids[1:] != sorted_gids[:-1]
    starts = np.nonzero(boundaries)[0]
    run_lengths = np.diff(np.append(starts, n))
    occ_sorted = np.arange(n, dtype=np.int64) - np.repeat(starts, run_lengths)
    occ = np.empty(n, dtype=np.int64)
    occ[order] = occ_sorted
    return occ


def dedup_positions(arrays: list[np.ndarray]) -> np.ndarray:
    """Positions of the first occurrence of each distinct row, ascending
    (i.e. first-occurrence order).  NULLs compare equal to each other."""
    n = len(arrays[0]) if arrays else 0
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    gids, _, ngroups = factorize_many(arrays)
    positions = np.arange(n - 1, -1, -1, dtype=np.int64)
    first = np.zeros(ngroups, dtype=np.int64)
    first[gids[positions]] = positions
    return np.sort(first)


def _side_counts(gids: np.ndarray, ngroups: int, threads: int) -> np.ndarray:
    """Group sizes, accumulated morsel-parallel (partial bincounts merge
    by addition)."""
    parts = run_partitions(
        len(gids), threads,
        lambda a, b: np.bincount(gids[a:b], minlength=ngroups),
    )
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out.astype(np.int64)


def set_op_positions(op: str, all_: bool, lgids: np.ndarray,
                     rgids: np.ndarray, ngroups: int,
                     threads: int = 1) -> np.ndarray:
    """Surviving LEFT row positions for INTERSECT/EXCEPT (both variants).

    Multiset semantics: with left count ``l`` and right count ``r`` per
    distinct row, INTERSECT ALL keeps ``min(l, r)`` copies, EXCEPT ALL
    keeps ``max(l - r, 0)``; the DISTINCT variants keep at most the first
    occurrence.  Kept copies are always the earliest left occurrences, so
    results are deterministic across thread counts.
    """
    rcounts = _side_counts(rgids, ngroups, threads)
    occ = occurrence_numbers(lgids, ngroups)
    matched = rcounts[lgids]
    if op == "intersect":
        mask = occ < matched if all_ else (occ == 0) & (matched > 0)
    elif op == "except":
        mask = occ >= matched if all_ else (occ == 0) & (matched == 0)
    else:  # pragma: no cover - planner guards the op name
        raise SQLExecutionError(f"unknown set operation {op!r}")
    return np.nonzero(mask)[0].astype(np.int64)


def execute_set_op(op: str, all_: bool, left: Chunk, right: Chunk,
                   columns: list[str], threads: int = 1) -> Chunk:
    """Evaluate one set operation over two chunks, pairing columns by
    position; output column names come from *columns* (the left side)."""
    if left.ncols != right.ncols:
        raise SQLExecutionError(
            f"set operation operands have {left.ncols} and {right.ncols} columns"
        )
    nl = left.nrows
    combined = parallel_map(
        threads if left.ncols > 1 else 1,
        lambda pair: combine_arrays(list(pair)),
        list(zip(left.arrays, right.arrays)),
    )
    if op == "union":
        if all_:
            return Chunk(list(columns), combined)
        positions = dedup_positions(combined)
        source = Chunk(list(columns), combined)
    else:
        gids, _, ngroups = factorize_many(combined)
        positions = set_op_positions(op, all_, gids[:nl], gids[nl:],
                                     ngroups, threads=threads)
        source = Chunk(list(columns), [a[:nl] for a in combined])
    return source.take(positions)
