"""Dictionary-encoded string columns: the representation and its kernels.

Two families of properties, over columns holding ``None``, ``''``,
duplicates, one distinct value, only NULLs and zero rows:

* every :class:`DictColumn` operation equals the same operation on the
  decoded object array;
* the string-key kernels (``factorize``, ``factorize_many``,
  ``semi_join_flags``, ``join_positions``, the ORDER BY key) return on codes
  exactly what they return on the object array, which in turn is what the
  per-row implementations they replaced returned (kept here as oracles),
  group order included.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import connect
from repro.dataframe._common import take_with_nulls
from repro.sqlengine import RuntimeStats
from repro.sqlengine import table as table_mod
from repro.sqlengine.grouping import factorize, factorize_many
from repro.sqlengine.joins import join_positions, semi_join_flags
from repro.sqlengine.table import (
    Chunk, DictColumn, Table, as_dict, concat_columns, encode, gather, isna,
    plain,
)
from repro.sqlengine.window import sort_positions
from tests.helpers import semi_join_mask

VALUES = ["", "a", "b", "ab", "B", "zz", None]
values = st.sampled_from(VALUES)
columns = st.lists(values, min_size=0, max_size=30)
CORNERS = [[], [None], [None, None, None], ["a"], ["a", "a", "a"], ["", None, ""],
           ["b", "a", None, "b", "", "a"]]


def obj(xs) -> np.ndarray:
    out = np.empty(len(xs), dtype=object)
    out[:] = xs
    return out


def same(a, b) -> bool:
    a, b = plain(a), plain(b)
    return a.dtype == b.dtype and a.tolist() == b.tolist()


# -- oracles: the per-row implementations the codes replaced ------------------

def factorize_oracle(arr: np.ndarray):
    seen: dict = {}
    gids = np.empty(len(arr), dtype=np.int64)
    for i, v in enumerate(arr):
        gids[i] = seen.setdefault(v, len(seen))
    return gids, obj(list(seen))


def factorize_many_oracle(arrays: list[np.ndarray]):
    """Groups in lexicographic order of the per-column first-appearance ids."""
    per_col = [factorize_oracle(a) if a.dtype == object
               else tuple(reversed(np.unique(a, return_inverse=True)))
               for a in arrays]
    rows = list(zip(*[g.tolist() for g, _ in per_col]))
    order = {key: i for i, key in enumerate(sorted(set(rows)))}
    gids = np.array([order[r] for r in rows], dtype=np.int64)
    keys = [u[[k[c] for k in sorted(order)]] if len(order) else u[:0]
            for c, (_, u) in enumerate(per_col)]
    return gids, keys, len(order)


def join_positions_oracle(left: list, right: list, how: str):
    """The per-row hash join string keys used to take: matches in left then
    right order, an unmatched left row in its own place, unmatched right
    rows last."""
    table: dict = {}
    for j, v in enumerate(right):
        if v is not None:
            table.setdefault(v, []).append(j)
    rows, matched_r = [], set()
    for i, v in enumerate(left):
        matches = table.get(v, []) if v is not None else []
        rows += [(i, j, False, False) for j in matches]
        matched_r.update(matches)
        if not matches and how in ("left", "full"):
            rows.append((i, 0, False, True))
    if how in ("right", "full"):
        rows += [(0, j, True, False) for j in range(len(right))
                 if j not in matched_r]
    return [list(col) for col in zip(*rows)] or [[], [], [], []]


# -- the representation --------------------------------------------------------

class TestRepresentation:
    @pytest.mark.parametrize("xs", CORNERS)
    def test_encode_round_trips(self, xs):
        col = encode(obj(xs))
        assert col.codes.dtype == np.int32
        assert col.dictionary[-1] is None
        assert same(col, obj(xs))
        assert col.dtype == object and len(col) == len(xs)
        entries = col.dictionary[:-1].tolist()
        assert len(set(entries)) == len(entries) and None not in entries

    def test_nan_is_the_null_code(self):
        col = encode(obj(["a", float("nan"), None, "a"]))
        assert col.null_code == 1
        assert col.isna().tolist() == [False, True, True, False]

    def test_encode_gives_up_above_the_limit(self):
        arr = obj([str(i % 50) for i in range(400)])
        assert encode(arr, 49) is None
        assert encode(arr, 50).null_code == 50
        # The prefix probe alone rejects a column of unique strings.
        assert encode(obj([str(i) for i in range(400)]), 10) is None

    @given(columns, st.data())
    def test_gathers_match_the_decoded_array(self, xs, data):
        arr = obj(xs)
        col = encode(arr)
        n = len(xs)
        positions = np.array(data.draw(st.lists(
            st.integers(0, max(n - 1, 0)), max_size=20 if n else 0)), dtype=np.int64)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                        dtype=bool)
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        assert same(col[positions], arr[positions])
        assert same(col[mask], arr[mask])
        assert same(col[lo:hi], arr[lo:hi])
        assert isna(col).tolist() == [v is None for v in xs]
        if n:
            assert col[0] == arr[0] or (col[0] is None and arr[0] is None)

    @given(columns, st.data())
    def test_take_with_nulls_matches(self, xs, data):
        arr = obj(xs)
        m = data.draw(st.integers(0, 12))
        missing = np.array(data.draw(st.lists(
            st.booleans() if xs else st.just(True), min_size=m, max_size=m)),
            dtype=bool)
        positions = np.array(data.draw(st.lists(
            st.integers(0, max(len(xs) - 1, 0)), min_size=m, max_size=m)),
            dtype=np.int64)
        got = gather(encode(arr), positions, missing)
        assert isinstance(got, DictColumn)
        assert same(got, take_with_nulls(arr, positions, missing))

    @given(st.lists(columns, min_size=1, max_size=4))
    def test_concat_same_and_different_dictionaries(self, parts):
        arrays = [obj(p) for p in parts]
        want = np.concatenate(arrays)
        # different dictionaries: each part encoded on its own
        merged = concat_columns([encode(a) for a in arrays])
        assert isinstance(merged, DictColumn) and same(merged, want)
        entries = merged.dictionary[:-1].tolist()
        assert len(set(entries)) == len(entries)
        # same dictionary: slices of one encoded column
        whole = encode(want)
        cuts = np.cumsum([0] + [len(p) for p in parts])
        shared = concat_columns([whole[a:b] for a, b in zip(cuts, cuts[1:])])
        assert shared.dictionary is whole.dictionary and same(shared, want)
        # mixed with a plain array: decoded
        mixed = concat_columns([encode(arrays[0]), np.concatenate(arrays[1:] + [obj([])])])
        assert isinstance(mixed, np.ndarray) and same(mixed, want)

    def test_chunk_operations_keep_codes(self):
        arr = obj(["x", None, "y", "x"])
        chunk = Chunk(["s", "n"], [encode(arr), np.arange(4)])
        for out in (chunk.take(np.array([3, 1])), chunk.mask(np.array([1, 0, 1, 1], bool)),
                    chunk.slice(1, 3), Chunk.concat([chunk, chunk])):
            assert isinstance(out.arrays[0], DictColumn)
        final = Chunk.concat([chunk, chunk]).decoded()
        assert final.arrays[0].tolist() == arr.tolist() * 2
        assert final.decoded() is final


# -- where a DictColumn is born -------------------------------------------------

class TestScan:
    def test_lazy_per_column_and_cached(self):
        t = Table("t", {"k": ["a", "b", "a"], "u": ["p", "q", "r"], "n": [1, 2, 3]})
        assert t._encoded == {}                       # nothing at registration
        first = t.scan(["k"]).arrays[0]
        assert isinstance(first, DictColumn) and list(t._encoded) == [0]
        assert t.scan(["k", "n"]).arrays[0] is first  # built once
        assert t.arrays[0].dtype == object            # the table keeps its arrays

    def test_only_columns_a_select_computes_on_are_encoded(self):
        db = connect()
        db.register("t", {"k": ["a", "b", "a"], "u": ["p", "q", "p"], "n": [1, 2, 3]})
        t = db.catalog.get("t")
        # A lookup that only returns the strings never passes over them.
        assert db.execute("SELECT k, u FROM t WHERE n = 2").to_dict() == \
            {"k": ["b"], "u": ["q"]}
        assert t._encoded == {}
        # A predicate asks for codes; u is only passed through.
        assert db.execute("SELECT u FROM t WHERE k <> 'b'").to_dict() == {"u": ["p", "p"]}
        assert list(t._encoded) == [0]
        # So do keys and expressions (DISTINCT keys on every item).
        for sql in ("SELECT u, COUNT(*) AS c FROM t GROUP BY u",
                    "SELECT DISTINCT u FROM t", "SELECT n FROM t ORDER BY u",
                    "SELECT UPPER(u) AS up FROM t"):
            t._encoded.clear()
            db.execute(sql)
            assert list(t._encoded) == [1], sql
        # Only the statement's final body passes a column through: what a
        # CTE or a subquery hands on, its reader groups, joins or filters.
        for sql in ("WITH v AS (SELECT u, n FROM t WHERE n > 1) "
                    "SELECT u, COUNT(*) AS c FROM v GROUP BY u",
                    "SELECT n FROM t WHERE k = 'a' AND k IN (SELECT u FROM t)"):
            t._encoded.pop(1)
            db.execute(sql)
            assert 1 in t._encoded, sql
        assert "Scan t cols=[u, n] dict=[u(2)]" in db.explain_analyze(
            "WITH v AS (SELECT u, n FROM t WHERE n > 1) "
            "SELECT u, COUNT(*) AS c FROM v GROUP BY u")
        chunk = t.scan(["k", "u"], encode=["u"])
        assert isinstance(chunk.arrays[1], DictColumn) and chunk.arrays[0] is t.arrays[0]

    def test_high_cardinality_column_is_remembered_as_plain(self, monkeypatch):
        monkeypatch.setattr(table_mod, "MAX_DICT_ENTRIES", 2)
        t = Table("t", {"k": ["a", "b", "a"], "u": ["p", "q", "r"]})
        chunk = t.scan()
        assert isinstance(chunk.arrays[0], DictColumn)
        assert chunk.arrays[1] is t.arrays[1] and t._encoded[1] is None

    def test_concurrent_first_scans_build_one_encoding(self):
        t = Table("t", {"k": [str(i % 7) for i in range(20000)]})
        got: list = []
        threads = [threading.Thread(target=lambda: got.append(t.scan().arrays[0]))
                   for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert len(got) == 8 and all(g is got[0] for g in got)

    def test_results_leave_the_engine_decoded(self):
        db = connect()
        db.register("t", {"k": ["a", None, "a", ""], "n": [1, 2, 3, 4]})
        chunk = db.execute_chunk("SELECT k, n FROM t WHERE k IS NOT NULL ORDER BY n")
        assert isinstance(chunk.arrays[0], np.ndarray)
        assert chunk.to_dict() == {"k": ["a", "a", ""], "n": [1, 3, 4]}


# -- kernels on codes -----------------------------------------------------------

class TestKernels:
    @pytest.mark.parametrize("xs", CORNERS)
    def test_factorize_corners(self, xs):
        self._check_factorize(xs)

    @given(columns)
    def test_factorize(self, xs):
        self._check_factorize(xs)

    @staticmethod
    def _check_factorize(xs):
        arr = obj(xs)
        want_gids, want_uniques = factorize_oracle(arr)
        for col in (arr, encode(arr)):
            gids, uniques = factorize(col)
            assert gids.dtype == np.int64 and gids.tolist() == want_gids.tolist()
            assert type(uniques) is type(col) and same(uniques, want_uniques)

    @given(columns, st.data())
    def test_factorize_on_a_filtered_table_column(self, xs, data):
        # A scanned column's dictionary is in whole-table order; groups must
        # still come out in first-appearance order among the rows at hand.
        arr = obj(xs)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(xs),
                                           max_size=len(xs))), dtype=bool)
        gids, uniques = factorize(encode(arr)[mask])
        want_gids, want_uniques = factorize_oracle(arr[mask])
        assert gids.tolist() == want_gids.tolist() and same(uniques, want_uniques)

    @given(st.integers(0, 25).flatmap(lambda n: st.tuples(
        st.lists(values, min_size=n, max_size=n),
        st.lists(values, min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    def test_factorize_many(self, cols):
        a, b, c = obj(cols[0]), obj(cols[1]), np.array(cols[2], dtype=np.int64)
        want_gids, want_keys, want_n = factorize_many_oracle([a, b, c])
        for arrays in ([a, b, c], [encode(a), encode(b), c], [encode(a), b, c]):
            gids, keys, n = factorize_many(arrays)
            assert n == want_n and gids.tolist() == want_gids.tolist()
            for got, want in zip(keys, want_keys):
                assert same(got, want)

    @given(columns, columns)
    def test_semi_join_flags(self, probe, build):
        p, b = obj(probe), obj(build)
        want = semi_join_mask([p], [b]).tolist()
        for pk, bk in ((p, b), (encode(p), encode(b)), (encode(p), b), (p, encode(b))):
            assert semi_join_flags([pk], [bk]).tolist() == want
        whole = encode(np.concatenate([p, b]))   # both sides over one dictionary
        assert semi_join_flags([whole[:len(p)]], [whole[len(p):]]).tolist() == want

    @given(st.integers(0, 20).flatmap(lambda n: st.tuples(
        st.lists(values, min_size=n, max_size=n),
        st.lists(st.integers(0, 2), min_size=n, max_size=n))),
        st.integers(0, 20).flatmap(lambda n: st.tuples(
            st.lists(values, min_size=n, max_size=n),
            st.lists(st.integers(0, 2), min_size=n, max_size=n))))
    def test_semi_join_flags_composite(self, probe, build):
        pk = [obj(probe[0]), np.array(probe[1], dtype=np.int64)]
        bk = [obj(build[0]), np.array(build[1], dtype=np.int64)]
        want = semi_join_mask(pk, bk).tolist()
        assert semi_join_flags(pk, bk).tolist() == want
        assert semi_join_flags([encode(pk[0]), pk[1]], [encode(bk[0]), bk[1]]).tolist() == want

    @given(columns, columns, st.sampled_from(["inner", "left", "right", "full"]))
    def test_join_positions(self, left, right, how):
        # Row order included: a result without an ORDER BY exposes it.
        l, r = obj(left), obj(right)
        want = join_positions_oracle(left, right, how)
        for lk, rk in ((l, r), (encode(l), encode(r)), (encode(l), r)):
            got = join_positions([lk], [rk], how)
            assert [g.tolist() for g in got] == want

    def test_outer_join_on_a_string_key_keeps_left_order(self):
        db = connect()
        db.register("t", {"s": ["a", "q", "b", None, "a"], "x": [0, 1, 2, 3, 4]})
        db.register("u", {"s2": ["a", "b", "z"], "y": [10, 11, 12]})
        got = db.execute("SELECT x, y FROM t LEFT JOIN u ON t.s = u.s2").to_dict()
        assert got["x"] == [0, 1, 2, 3, 4]
        got = db.execute("SELECT x, y FROM t FULL JOIN u ON t.s = u.s2").to_dict()
        assert got["y"][:5] == pytest.approx([10, np.nan, 11, np.nan, 10], nan_ok=True)
        assert got["y"][5] == 12 and np.isnan(got["x"][5])

    @given(columns, st.booleans())
    def test_order_key(self, xs, ascending):
        arr = obj(xs)
        want = sorted(range(len(xs)), key=lambda i: (xs[i] is None, xs[i] or ""))
        if not ascending:
            # NULL ranks above every value, so a descending sort leads with it.
            want = sorted(range(len(xs)), key=lambda i: (xs[i] is not None, [
                -ord(c) for c in (xs[i] or "")] + [1]))
        for col in (arr, encode(arr)):
            assert sort_positions([col], [ascending]).tolist() == want

    def test_as_dict_and_plain_are_inverse(self):
        arr = obj(["q", None, "q"])
        col = as_dict(arr)
        assert as_dict(col) is col and plain(arr) is arr
        assert plain(col).tolist() == arr.tolist()


# -- the counters ---------------------------------------------------------------

class TestWatch:
    def test_decodes_inside_a_plan_are_counted_not_the_final_one(self):
        stats = RuntimeStats()
        col = encode(obj(["a", "b", "a"])).watched(stats)
        col[np.array([0, 2])].decode()
        col.decode(counted=False)
        assert stats.dict_decoded_rows == 2

    def test_counters_survive_concurrent_reports(self):
        stats = RuntimeStats()
        col = encode(obj(["a"] * 10)).watched(stats)
        threads = [threading.Thread(
            target=lambda: [col.decode() for _ in range(200)]) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert stats.dict_decoded_rows == 8 * 200 * 10
