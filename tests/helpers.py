"""Assertion helpers shared by test modules."""

from __future__ import annotations

import numpy as np

from repro.sqlengine.table import isna


def rows(result) -> list[tuple]:
    """Row tuples of a DataFrame-like result, rounding floats."""
    d = result.to_dict() if hasattr(result, "to_dict") else result
    cols = list(d.values())
    n = len(cols[0]) if cols else 0
    out = []
    for i in range(n):
        out.append(tuple(
            round(c[i], 6) if isinstance(c[i], float) else c[i] for c in cols
        ))
    return out


def assert_frame_matches(python_result, db_result, sort: bool = False):
    """Python-baseline result equals the in-database result."""
    a = rows(python_result.reset_index(drop=True))
    b = rows(db_result)
    if sort:
        a, b = sorted(map(str, a)), sorted(map(str, b))
    assert a == b, f"mismatch:\n python={a[:5]}\n db={b[:5]}"


def semi_join_mask(probe_keys: list, build_keys: list) -> np.ndarray:
    """Reference membership: for each probe row, does any build row equal
    it?  A Python set of row tuples, one probe per row — simple enough to
    audit for SQL NULL semantics (a NULL key on either side never
    matches).  ``joins.semi_join_flags`` must agree with it."""
    def nulls(keys: list) -> np.ndarray:
        out = np.zeros(len(keys[0]) if keys else 0, dtype=bool)
        for a in keys:
            out |= isna(a)
        return out

    build_null = nulls(build_keys)
    keys = {tuple(a[j] for a in build_keys)
            for j in range(len(build_null)) if not build_null[j]}
    probe_null = nulls(probe_keys)
    return np.array([not probe_null[i]
                     and tuple(a[i] for a in probe_keys) in keys
                     for i in range(len(probe_null))], dtype=bool)
