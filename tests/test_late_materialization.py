"""Late materialization (``sqlengine/table.py``): a chunk column is a gather
not yet done, and what gathering it later yields is exactly what gathering
at every selection and join did.

The property test drives random chains of ``take`` / ``mask`` / ``slice`` /
``project`` / ``combine_chunks`` (inner, left, right and full joins, with
and without unmatched rows) over every column type the engine carries, and
compares each column — value and dtype, and the type :meth:`Chunk.dtype` /
:meth:`Chunk.kind` promise before the gather — with the eager chain, which
gathers every column at every step.
"""

from __future__ import annotations

import pickle
import re

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import connect
from repro.sqlengine import EngineConfig
from repro.sqlengine.joins import combine_chunks, join_positions
from repro.dataframe._common import take_with_nulls
from repro.sqlengine.table import (
    Chunk, DictColumn, encode, gather_threads, isna,
)
from repro.workloads import WORKLOADS

NAT = np.datetime64("NaT")
KINDS = ("int", "bool", "float", "date", "object", "dict")


def obj(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def column_of(kind: str, values: list[int]):
    """A column of *kind* whose rows are picked by small ints (0 is NULL
    where the type has one)."""
    v = np.asarray(values, dtype=np.int64)
    if kind == "int":
        return v - 2
    if kind == "bool":
        return v % 2 == 1
    if kind == "float":
        return np.where(v == 0, np.nan, v * 0.5)
    if kind == "date":
        out = np.datetime64("2024-01-01") + v.astype("timedelta64[D]")
        out[v == 0] = NAT
        return out.astype("datetime64[D]")
    strings = obj([None if x == 0 else f"s{x}" for x in values])
    return encode(strings) if kind == "dict" else strings


@st.composite
def relations(draw, prefix: str):
    """``(names, columns, keys)``: one column of every kind plus an int
    join key drawn from a small domain, so joins both match and miss."""
    n = draw(st.integers(0, 7))
    columns = [column_of(kind, draw(st.lists(st.integers(0, 3), min_size=n,
                                             max_size=n)))
               for kind in KINDS]
    keys = np.asarray(draw(st.lists(st.integers(0, 3), min_size=n,
                                    max_size=n)), dtype=np.int64)
    return [f"{prefix}{k}" for k in KINDS], columns, keys


def gather(col, positions, missing):
    """The eager join gather: the column's rows now, padded with NULL."""
    if isinstance(col, DictColumn):
        return col.take_with_nulls(positions, missing)
    return take_with_nulls(col, positions, missing)


def cells(col) -> list[str]:
    if isinstance(col, DictColumn):
        col = col.dictionary[col.codes]
    return [repr(x) for x in col.tolist()]


def assert_same_column(lazy: Chunk, i: int, eager) -> None:
    # What the chunk promises before gathering ...
    assert lazy.kind(i) is type(eager)
    assert lazy.dtype(i) == eager.dtype
    got = lazy.column(i)
    # ... and what the gather gives.
    assert type(got) is type(eager)
    assert got.dtype == eager.dtype
    if isinstance(eager, DictColumn):
        assert got.dictionary is eager.dictionary
        assert np.array_equal(got.codes, eager.codes)
    assert cells(got) == cells(eager)


class TestLazyMatchesEager:
    @settings(max_examples=250, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_random_chains(self, data):
        names, columns, keys = data.draw(relations("a"))
        lazy = Chunk(list(names), list(columns))
        eager = list(columns)
        for step in range(data.draw(st.integers(1, 6), label="steps")):
            n = lazy.nrows
            op = data.draw(st.sampled_from(
                ["take", "mask", "not null", "slice", "project", "join"]),
                label="op")
            if op == "take":
                pos = np.asarray(data.draw(st.lists(
                    st.integers(0, max(n - 1, 0)), max_size=9 if n else 0)),
                    dtype=np.int64)
                lazy, eager = lazy.take(pos), [c[pos] for c in eager]
                keys = keys[pos]
            elif op == "mask":
                m = np.asarray(data.draw(st.lists(st.booleans(), min_size=n,
                                                  max_size=n)), dtype=bool)
                lazy = lazy.mask(m)
                eager = [c[np.flatnonzero(m)] for c in eager]
                keys = keys[m]
            elif op == "not null":
                # WHERE c IS NOT NULL: after an outer join, on a column of
                # the padded side, it drops every padded row.
                i = data.draw(st.integers(0, lazy.ncols - 1))
                m = ~isna(eager[i])
                lazy = lazy.mask(m)
                eager = [c[np.flatnonzero(m)] for c in eager]
                keys = keys[m]
            elif op == "slice":
                start = data.draw(st.integers(0, n))
                stop = data.draw(st.integers(start, n))
                lazy = lazy.slice(start, stop)
                eager = [c[start:stop] for c in eager]
                keys = keys[start:stop]
            elif op == "project":
                keep = data.draw(st.lists(st.sampled_from(lazy.columns),
                                          min_size=1, unique=True))
                slots = [i for i, c in enumerate(lazy.columns) if c in keep]
                lazy = lazy.project(keep)
                eager = [eager[i] for i in slots]
            else:
                o_names, o_cols, o_keys = data.draw(relations(f"j{step}_"))
                other = Chunk(o_names, o_cols)
                how = data.draw(st.sampled_from(["inner", "left", "right",
                                                 "full"]))
                flip = data.draw(st.booleans(), label="current on the right")
                lk, rk = (o_keys, keys) if flip else (keys, o_keys)
                lp, rp, lmiss, rmiss = join_positions([lk], [rk], how)
                left, right = (other, lazy) if flip else (lazy, other)
                l_eager, r_eager = (o_cols, eager) if flip else (eager, o_cols)
                lazy = combine_chunks(left, right, lp, rp, lmiss, rmiss)
                # The eager join: every column gathered at once.
                eager = [gather(c, lp, lmiss) for c in l_eager] + \
                    [gather(c, rp, rmiss) for c in r_eager]
                keys = np.asarray(data.draw(st.lists(
                    st.integers(0, 3), min_size=len(lp), max_size=len(lp))),
                    dtype=np.int64)
            assert lazy.ncols == len(eager) and lazy.nrows == len(eager[0])
        order = data.draw(st.permutations(range(lazy.ncols)), label="reads")
        for i in order:
            assert_same_column(lazy, i, eager[i])
        materialized = lazy.arrays
        assert [cells(c) for c in materialized] == [cells(c) for c in eager]


class TestNullablePadding:
    """An outer join's promotion survives a selection that drops every
    padded row: the type was decided at the join."""

    def test_left_join_then_filter_dropping_unmatched_rows(self):
        left = Chunk(["k"], [np.array([1, 2, 3], dtype=np.int64)])
        right = Chunk(["k2", "v", "flag", "d", "s"], [
            np.array([1, 2], dtype=np.int64),
            np.array([10, 20], dtype=np.int64),
            np.array([True, False]),
            np.array(["2024-01-01", "2024-01-02"], dtype="datetime64[D]"),
            obj(["x", "y"])])
        lp, rp, lmiss, rmiss = join_positions([left.column(0)],
                                              [right.column(0)], "left")
        joined = combine_chunks(left, right, lp, rp, lmiss, rmiss)
        assert rmiss.any()
        matched = joined.mask(~rmiss)
        assert matched.nrows == 2
        assert [matched.dtype(i) for i in range(1, 6)] == [
            np.float64, np.float64, np.float64,
            np.dtype("datetime64[D]"), np.dtype(object)]
        assert matched.column(2).dtype == np.float64
        assert matched.column(2).tolist() == [10.0, 20.0]
        assert matched.column(3).tolist() == [1.0, 0.0]

    def test_through_sql(self):
        db = connect()
        db.register("t", {"a": [1, 2, 3, 4]})
        db.register("u", {"a": [1, 2], "v": [10, 20]})
        sql = ("SELECT t.a, u.v FROM t LEFT JOIN u ON t.a = u.a "
               "WHERE u.v IS NOT NULL OR t.a + 1 < 0")
        out = db.execute_chunk(sql)
        assert out.column(1).dtype == np.float64
        assert out.column(1).tolist() == [10.0, 20.0]

    def test_empty_side_pads_with_its_null_type(self):
        left = Chunk(["k"], [np.array([1, 2], dtype=np.int64)])
        right = Chunk(["k2", "v", "d", "s"], [
            np.zeros(0, np.int64), np.zeros(0, np.float32),
            np.zeros(0, "datetime64[D]"), obj([])])
        lp, rp, lmiss, rmiss = join_positions([left.column(0)],
                                              [right.column(0)], "left")
        joined = combine_chunks(left, right, lp, rp, lmiss, rmiss)
        eager = [gather(c, rp, rmiss) for c in right.arrays]
        for i, want in enumerate(eager, start=1):
            assert_same_column(joined.take(np.array([1])), i, want[[1]])
            assert_same_column(joined.mask(np.zeros(2, bool)), i, want[:0])


class TestGathers:
    def test_one_composed_selection_per_input(self):
        base = Chunk(["a", "b"], [np.arange(10), np.arange(10) * 2.0])
        out = base.take(np.array([5, 6, 7])).mask(np.array([1, 0, 1], bool))
        a, b = out._cols
        assert a.sel is b.sel and a.sel.positions.tolist() == [5, 7]
        assert a.source is base.column(0)   # no intermediate was gathered
        assert out.column(1).tolist() == [10.0, 14.0]
        assert out.column(1) is out.column(1)  # kept once gathered

    def test_all_rows_kept_returns_the_input(self):
        chunk = Chunk(["a"], [np.arange(4)])
        assert chunk.mask(np.ones(4, bool)) is chunk
        assert chunk.slice(0, 4) is chunk

    def test_parallel_gather_equals_serial(self):
        rng = np.random.default_rng(7)
        n = 200_000
        base = Chunk(["i", "f", "d", "s"], [
            rng.integers(0, 1 << 40, n), rng.random(n),
            encode(obj(rng.choice(["x", "y", None], n).tolist())),
            obj(rng.choice(["p", "q"], n).tolist())])
        pos = rng.integers(0, n, 150_000)
        serial = base.take(pos).arrays
        token = gather_threads.set(2)
        try:
            parallel = base.take(pos).arrays
        finally:
            gather_threads.reset(token)
        for s, p in zip(serial, parallel):
            assert cells(s[:2000]) == cells(p[:2000])
            assert s.dtype == p.dtype
        assert np.array_equal(serial[0], parallel[0])
        assert np.array_equal(serial[2].codes, parallel[2].codes)

    def test_pickle_ships_no_source(self):
        big = Chunk(["a", "b"], [np.arange(1_000_000),
                                 np.arange(1_000_000) * 1.5])
        small = big.take(np.array([3, 1, 2]))
        payload = pickle.dumps(small)
        assert len(payload) < 10_000
        back = pickle.loads(payload)
        assert back.column(0).tolist() == [3, 1, 2]
        assert back.column(1).tolist() == [4.5, 1.5, 3.0]

    def test_unanalyzed_execution_keeps_no_books(self):
        chunk = Chunk(["a"], [np.arange(4)]).take(np.array([1, 2]))
        assert chunk._cols[0].lineage is None


LATE = re.compile(r"Late columns: gathered=(\d+) never_gathered=(\d+)")


class TestExplainAnalyze:
    def test_n3_leaves_the_flags_ungathered(self):
        w = WORKLOADS["n3"]
        db = connect()
        w.register(db, w.make_data(scale=0.002))
        sql = w.fn.sql("native", db=db)
        text = db.explain_analyze(sql)
        gathered, never = map(int, LATE.search(text).groups())
        # cancelled and diverted are only read by the Filter: the rows it
        # keeps of them are never gathered.
        assert never >= 2 and gathered >= 5
        # The unanalyzed execution gives the same rows.
        assert db.execute(sql, config=EngineConfig(threads=2)).to_dict() == \
            db.execute(sql).to_dict()

    def test_footer_only_when_something_was_selected(self):
        db = connect()
        db.register("t", {"a": [1, 2, 3]})
        assert "Late columns" not in db.explain_analyze("SELECT a FROM t")
        text = db.explain_analyze("SELECT a FROM t WHERE a > 1")
        assert LATE.search(text).groups() == ("1", "0")
