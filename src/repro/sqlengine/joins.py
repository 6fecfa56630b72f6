"""Vectorized hash-join primitives for the SQL engine.

Every key reaches the kernels as one ``int64`` per row (:func:`_int_keys`):
integer-class columns as they are, string columns as dictionary codes, the
rest through a joint ``np.unique``.  The join builds one index over the
build side — a direct-address table when its keys are dense and distinct,
else a counting index — and probes it with pure fancy indexing, which
releases the GIL, so probing is morsel-parallel across the shared worker
pool when the caller passes ``threads > 1``.  Partition results concatenate
in partition order, so the output row order is bit-identical to a serial
probe.
"""

from __future__ import annotations

import numpy as np

from .grouping import factorize_many
from .parallel import parallel_masks, run_partitions
from .table import Chunk, DictColumn, as_dict

__all__ = ["JoinMatch", "join_positions", "combine_chunks", "semi_join_flags"]


def _ranges_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ranges [starts[i], starts[i]+counts[i]) — fully vectorized."""
    nonzero = counts > 0
    starts = starts[nonzero]
    counts = counts[nonzero]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    out[0] = starts[0]
    boundaries = ends[:-1]
    out[boundaries] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(out)


def _is_fast_key(arr) -> bool:
    return arr.dtype.kind in ("i", "u", "b", "M")


def _to_int_key(arr: np.ndarray) -> np.ndarray:
    if arr.dtype.kind == "M":
        return arr.astype("datetime64[D]").astype(np.int64)
    return arr.astype(np.int64)


def _pair_codes(a, b) -> tuple:
    """One key column of each side as ``int64`` codes that are equal
    exactly where the columns' non-NULL values are.  Returns ``(a_codes,
    b_codes, a_null, b_null)``; a mask is None when the codes already keep
    that side's NULLs from matching (or the dtype has no NULL)."""
    if _is_fast_key(a) and _is_fast_key(b):
        return (_to_int_key(a), _to_int_key(b),
                np.isnat(a) if a.dtype.kind == "M" else None,
                np.isnat(b) if b.dtype.kind == "M" else None)
    if a.dtype == object or b.dtype == object:
        # String keys: codes in one side's dictionary — a side that is
        # already encoded, else b (the build side), which is encoded here —
        # and the other side's values looked up in it, where a NULL finds
        # nothing.
        if isinstance(a, DictColumn):
            return a.codes.astype(np.int64), a.codes_of(b), None, None
        db = as_dict(b)
        return db.codes_of(a), db.codes.astype(np.int64), None, None
    # Floats (or a float against an integer): rank in the joint value set.
    both = np.concatenate([a.astype(np.float64), b.astype(np.float64)])
    ranks = np.unique(both, return_inverse=True)[1].astype(np.int64)
    nulls = np.isnan(both)
    return ranks[:len(a)], ranks[len(a):], nulls[:len(a)], nulls[len(a):]


def _pack(pairs: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-column int64 codes into one int64 key per side."""
    if len(pairs) == 1:
        return pairs[0]
    packed_a = np.zeros(len(pairs[0][0]), dtype=np.int64)
    packed_b = np.zeros(len(pairs[0][1]), dtype=np.int64)
    multiplier = 1
    for ai, bi in reversed(pairs):
        lo = min(ai.min() if len(ai) else 0, bi.min() if len(bi) else 0)
        hi = max(ai.max() if len(ai) else 0, bi.max() if len(bi) else 0)
        span = int(hi) - int(lo) + 1
        if multiplier > 2**62 // span:
            # Too wide to pack by value range: rank the rows instead.
            ranks = factorize_many([np.concatenate(pair) for pair in pairs])[0]
            return ranks[:len(packed_a)], ranks[len(packed_a):]
        packed_a += (ai - lo) * multiplier
        packed_b += (bi - lo) * multiplier
        multiplier *= span
    return packed_a, packed_b


def _any_null(masks: list) -> np.ndarray | None:
    masks = [m for m in masks if m is not None and m.any()]
    return np.logical_or.reduce(masks) if masks else None


def _int_keys(left_keys: list, right_keys: list) -> tuple[np.ndarray, np.ndarray]:
    """Both sides' keys as one ``int64`` per row.  A row with a NULL in any
    key column gets a value no row of the other side has (SQL: NULL never
    equi-matches)."""
    cols = [_pair_codes(a, b) for a, b in zip(left_keys, right_keys)]
    lk, rk = _pack([c[:2] for c in cols])
    lnull, rnull = _any_null([c[2] for c in cols]), _any_null([c[3] for c in cols])
    if lnull is not None or rnull is not None:
        valid = np.concatenate([lk if lnull is None else lk[~lnull],
                                rk if rnull is None else rk[~rnull]])
        lo = int(valid.min()) if len(valid) else 0
        if lnull is not None:
            lk = np.where(lnull, lo - 1, lk)
        if rnull is not None:
            rk = np.where(rnull, lo - 2, rk)
    return lk, rk


class JoinMatch(tuple):
    """``(left_pos, right_pos, left_missing, right_missing)`` — it unpacks
    as that 4-tuple — plus ``index``, the index the build side got:
    ``"direct index"``, ``"counting index"``, ``"hashed index"``, or
    ``"no index"`` when a side is empty."""

    index: str

    def __new__(cls, arrays: tuple, index: str) -> "JoinMatch":
        match = super().__new__(cls, arrays)
        match.index = index
        return match


def join_positions(
    left_keys: list,
    right_keys: list,
    how: str = "inner",
    threads: int = 1,
) -> JoinMatch:
    """Compute matching row positions for an equi-join.

    Returns ``(left_pos, right_pos, left_missing, right_missing)`` where the
    missing masks flag rows padded in by outer joins (their positions are 0
    and must be null-filled).  Matched pairs come out ordered by left then
    right position and the unmatched right rows of an outer join come last.
    Its unmatched left rows keep their place among the matches when a key
    is a string or a float and follow the matches when every key is
    integer-class — the order each kind of key has always produced, which
    results without an ORDER BY expose.  When the right side has more than
    four times the left side's rows, and at least 4096, the index is built
    on the left side instead and the two sides trade places in every rule
    above (pairs ordered by right then left position, unmatched left rows
    last).  With ``threads > 1`` the probe side is partitioned across the
    worker pool.  The result's ``index`` names the index that was built.
    """
    nl = len(left_keys[0]) if left_keys else 0
    nr = len(right_keys[0]) if right_keys else 0

    if nr > 4 * nl and nr >= 4096:
        # Strongly asymmetric join: build the index on the small side and
        # probe with the large one (morsel-parallel).  Output rows come out
        # grouped by the probe side, which is a different — equally valid —
        # row order than probing left-over-right.
        swapped_how = {"inner": "inner", "left": "right", "right": "left",
                       "full": "full"}[how]
        swapped = join_positions(right_keys, left_keys, swapped_how, threads)
        rp, lp, rmiss, lmiss = swapped
        return JoinMatch((lp, rp, lmiss, rmiss), swapped.index)

    if not nl or not nr:
        # Nothing can match; an outer join pads every row it preserves.
        keep_l = nl if how in ("left", "full") else 0
        keep_r = nr if how in ("right", "full") else 0
        pad_l, pad_r = np.zeros(keep_l, dtype=bool), np.ones(keep_r, dtype=bool)
        return JoinMatch(
            (np.concatenate([np.arange(keep_l), np.zeros(keep_r, np.int64)]),
             np.concatenate([np.zeros(keep_l, np.int64), np.arange(keep_r)]),
             np.concatenate([pad_l, pad_r]),
             np.concatenate([~pad_l, ~pad_r])),
            "no index")
    lk, rk = _int_keys(left_keys, right_keys)
    in_place = not all(_is_fast_key(a) for a in left_keys + right_keys)
    return _join_positions_int(lk, rk, how, threads, in_place)


# Classic hash-table prime ladder (roughly doubling); a prime modulus
# scatters strided key patterns (TPC-H surrogate keys, packed composites)
# that a power-of-two modulus would alias onto a few residues.
_PRIMES = [
    53, 97, 193, 389, 769, 1543, 3079, 6151, 12289, 24593, 49157, 98317,
    196613, 393241, 786433, 1572869, 3145739, 6291469, 12582917, 25165843,
    50331653, 100663319, 201326611, 402653189, 805306457, 1610612741,
]


def _hash_table_size(n: int) -> int:
    want = 4 * max(n, 1)
    for p in _PRIMES:
        if p >= want:
            return p
    return _PRIMES[-1]


def _join_positions_int(lk: np.ndarray, rk: np.ndarray, how: str,
                        threads: int = 1, in_place: bool = False) -> JoinMatch:
    # Build the index once; the data picks which.  When the key span is
    # modest (typical for surrogate keys) a bucket is a key itself, and if
    # no two build rows share a key the index is a direct-address table —
    # ``row[bucket]`` is the one build row holding that key, or -1 — whose
    # probe is a single gather.  Duplicate keys get a counting index (build
    # rows sorted by bucket, a count and a start per bucket), which a probe
    # expands into every match.  Sparse keys (packed composites) hash into a
    # prime-sized counting index whose candidate pairs are verified
    # vectorized.  Every probe is pure fancy indexing, which releases the
    # GIL — so morsel-parallel probes genuinely overlap.
    kmin = int(rk.min())
    span = int(rk.max()) - kmin + 1
    exact = 0 < span <= max(1 << 20, 2 * (len(rk) + len(lk)))
    if exact:
        # Key k is bucket k - kmin + 1, and every lookup clips: a probe key
        # out of the build's range lands on one of the two empty edge
        # buckets.
        nbuckets = span + 2
        buckets_r = rk - (kmin - 1)
    else:
        nbuckets = _hash_table_size(len(rk))
        buckets_r = (rk - kmin) % nbuckets
    counts_r = np.bincount(buckets_r, minlength=nbuckets)

    def buckets(start: int, stop: int) -> np.ndarray:
        if exact:
            return lk[start:stop] - (kmin - 1)
        return (lk[start:stop] - kmin) % nbuckets

    if exact and counts_r.max() <= 1:
        index = "direct index"
        row = np.full(nbuckets, -1, dtype=np.int64)
        row[buckets_r] = np.arange(len(rk))

        def probe(start: int, stop: int):
            pos = row.take(buckets(start, stop), mode="clip")
            hit = pos >= 0
            at = np.flatnonzero(hit)
            return at + start, pos[at], hit
    else:
        index = "counting index" if exact else "hashed index"
        order = np.argsort(buckets_r, kind="stable")
        starts_r = np.concatenate(([0], np.cumsum(counts_r[:-1])))

        def probe(start: int, stop: int):
            keys = buckets(start, stop)
            counts = counts_r.take(keys, mode="clip")
            left_pos = np.repeat(np.arange(start, stop, dtype=np.int64), counts)
            right_pos = order[_ranges_gather(starts_r.take(keys, mode="clip"),
                                             counts)]
            if not exact:
                # Hash buckets may mix distinct keys: verify candidate pairs.
                ok = np.flatnonzero(rk[right_pos] == lk[left_pos])
                if len(ok) < len(left_pos):
                    left_pos = left_pos[ok]
                    right_pos = right_pos[ok]
                    counts = np.bincount(left_pos - start, minlength=stop - start)
            return left_pos, right_pos, counts > 0

    parts = run_partitions(len(lk), threads, probe)
    if len(parts) == 1:
        left_pos, right_pos, hit = parts[0]
    else:
        left_pos = np.concatenate([p[0] for p in parts])
        right_pos = np.concatenate([p[1] for p in parts])
        hit = np.concatenate([p[2] for p in parts])
    left_missing = np.zeros(len(left_pos), dtype=bool)
    right_missing = np.zeros(len(right_pos), dtype=bool)

    if how in ("left", "full"):
        unmatched = np.flatnonzero(~hit)
        if len(unmatched):
            # left_pos is sorted: *in_place* puts each unmatched row where
            # its matches would have been, otherwise they go to the end.
            at = np.searchsorted(left_pos, unmatched) if in_place \
                else np.full(len(unmatched), len(left_pos))
            left_pos = np.insert(left_pos, at, unmatched)
            right_pos = np.insert(right_pos, at, 0)
            right_missing = np.insert(right_missing, at, True)
            left_missing = np.zeros(len(left_pos), dtype=bool)
    if how in ("right", "full"):
        matched = np.zeros(len(rk), dtype=bool)
        matched[right_pos[~right_missing]] = True
        unmatched_r = np.nonzero(~matched)[0]
        if len(unmatched_r):
            left_pos = np.concatenate([left_pos, np.zeros(len(unmatched_r), dtype=np.int64)])
            right_pos = np.concatenate([right_pos, unmatched_r])
            left_missing = np.concatenate([left_missing, np.ones(len(unmatched_r), dtype=bool)])
            right_missing = np.concatenate([right_missing, np.zeros(len(unmatched_r), dtype=bool)])
    return JoinMatch((left_pos, right_pos, left_missing, right_missing), index)


def combine_chunks(
    left: Chunk, right: Chunk,
    left_pos: np.ndarray, right_pos: np.ndarray,
    left_missing: np.ndarray, right_missing: np.ndarray,
) -> Chunk:
    """The joined chunk of position/missing vectors: every column a pending
    gather of its side's positions (:meth:`Chunk.gathered`), gathered when
    an operator above reads it."""
    return Chunk(list(left.columns) + list(right.columns),
                 left.gathered(left_pos, left_missing)
                 + right.gathered(right_pos, right_missing))


def semi_join_flags(probe_keys: list, build_keys: list,
                    threads: int = 1) -> np.ndarray:
    """Vectorized membership: for each probe row, does any build row equal it?

    SQL NULL semantics: a NULL in any key column on either side never
    matches.  Keys become one ``int64`` per row (:func:`_int_keys`: string
    columns by their dictionary codes) and probe a dense presence bitmap
    (or a prime-sized hash table with vectorized candidate verification
    when the key span is too sparse); the probe is pure fancy indexing,
    which releases the GIL, so with ``threads > 1`` it is morsel-parallel
    on the shared pool.  A single float key uses ``np.isin`` over
    null-stripped values.
    """
    n = len(probe_keys[0]) if probe_keys else 0
    if not n or not len(build_keys[0]):
        return np.zeros(n, dtype=bool)
    if len(probe_keys) == 1 and probe_keys[0].dtype.kind == "f" \
            and build_keys[0].dtype.kind in ("f", "i", "u", "b"):
        # np.isin would match NaN with NaN: strip the build side's.
        build = build_keys[0].astype(np.float64)
        return np.isin(probe_keys[0], build[~np.isnan(build)])
    pk, bk = _int_keys(probe_keys, build_keys)
    return _membership_int(pk, bk, threads)


def _membership_int(pk: np.ndarray, bk: np.ndarray, threads: int) -> np.ndarray:
    """Membership of int64 probe keys in int64 build keys (no NULLs left)."""
    kmin = int(bk.min())
    span = int(bk.max()) - kmin + 1
    if 0 < span <= max(1 << 20, 4 * (len(bk) + len(pk))):
        present = np.zeros(span, dtype=bool)
        present[bk - kmin] = True

        def probe_exact(start: int, stop: int) -> np.ndarray:
            keys = pk[start:stop].astype(np.int64) - kmin
            in_bounds = (keys >= 0) & (keys < span)
            return present[np.where(in_bounds, keys, 0)] & in_bounds

        return parallel_masks(len(pk), threads, probe_exact)

    bk = np.unique(bk)
    table_size = _hash_table_size(len(bk))
    hashed = (bk - kmin) % table_size
    order = np.argsort(hashed, kind="stable")
    sorted_bk = bk[order]
    group_counts = np.bincount(hashed, minlength=table_size)
    group_starts = np.concatenate(
        ([0], np.cumsum(group_counts[:-1], dtype=np.int64))
    )

    def probe_hashed(start: int, stop: int) -> np.ndarray:
        keys = pk[start:stop].astype(np.int64)
        h = (keys - kmin) % table_size
        counts = group_counts[h]
        lo = group_starts[h]
        lp = np.repeat(np.arange(stop - start, dtype=np.int64), counts)
        candidates = sorted_bk[_ranges_gather(lo, counts)]
        ok = candidates == keys[lp]
        return np.bincount(lp[ok], minlength=stop - start) > 0

    return parallel_masks(len(pk), threads, probe_hashed)
