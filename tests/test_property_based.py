"""Property-based tests (hypothesis) for core data structures and invariants.

Four families:
* DataFrame-library algebraic invariants (filter/sort/groupby/merge);
* the join kernel, position for position, against a pure-Python reference;
* SQL engine vs. the DataFrame library on equivalent operations;
* optimizer semantics preservation on generated TondIR programs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.dataframe as rpd
from repro import connect
from repro.core.codegen import generate_sql
from repro.core.tondir.ir import (
    Agg, AssignAtom, BinOp, Const, FilterAtom, Head, Program, RelAtom, Rule, Var,
)
from repro.core.tondir.optimize import optimize
from repro.sqlengine import EngineConfig
from repro.sqlengine.grouping import factorize_many
from repro.sqlengine.joins import join_positions, semi_join_flags
from repro.sqlengine.window import row_number, sort_positions
from tests.helpers import semi_join_mask

ints = st.integers(min_value=-100, max_value=100)
int_lists = st.lists(ints, min_size=0, max_size=40)
key_lists = st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=40)
float_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32),
    min_size=0, max_size=40,
)


class TestSeriesProperties:
    @given(int_lists)
    def test_filter_then_count(self, xs):
        s = rpd.Series(xs)
        mask = s > 0
        assert len(s[mask]) == sum(1 for x in xs if x > 0)

    @given(int_lists)
    def test_sort_is_permutation_and_ordered(self, xs):
        s = rpd.Series(xs).sort_values()
        out = s.tolist()
        assert sorted(xs) == out

    @given(int_lists)
    def test_unique_preserves_set(self, xs):
        s = rpd.Series(xs)
        assert set(s.unique().tolist()) == set(xs)

    @given(int_lists, ints)
    def test_isin_matches_python(self, xs, probe):
        s = rpd.Series(xs)
        assert s.isin([probe]).tolist() == [x == probe for x in xs]

    @given(float_lists)
    def test_sum_matches_numpy(self, xs):
        if not xs:
            return
        s = rpd.Series(xs)
        assert float(s.sum()) == pytest.approx(float(np.sum(np.array(xs, dtype=np.float64))), rel=1e-6)


class TestGroupByProperties:
    @given(key_lists)
    def test_group_sizes_sum_to_total(self, ks):
        if not ks:
            return
        df = rpd.DataFrame({"k": ks, "v": list(range(len(ks)))})
        sizes = df.groupby("k").size()
        assert int(np.sum(sizes.values)) == len(ks)

    @given(key_lists)
    def test_group_sums_partition_total(self, ks):
        if not ks:
            return
        vs = list(range(len(ks)))
        df = rpd.DataFrame({"k": ks, "v": vs})
        out = df.groupby("k").agg({"v": "sum"}).reset_index()
        assert int(np.sum(out["v"].values)) == sum(vs)

    @given(key_lists)
    def test_factorize_many_roundtrip(self, ks):
        if not ks:
            return
        arr = np.array(ks, dtype=np.int64)
        gids, uniques, ngroups = factorize_many([arr])
        assert ngroups == len(np.unique(arr))
        assert np.array_equal(uniques[0][gids], arr)


class TestJoinProperties:
    @given(key_lists, key_lists)
    def test_inner_join_count_matches_bruteforce(self, ls, rs):
        l = np.array(ls, dtype=np.int64)
        r = np.array(rs, dtype=np.int64)
        lp, rp, lm, rm = join_positions([l], [r], "inner")
        brute = sum(1 for a in ls for b in rs if a == b)
        assert len(lp) == brute
        assert np.array_equal(l[lp], r[rp])

    @given(key_lists, key_lists)
    def test_left_join_covers_all_left_rows(self, ls, rs):
        l = np.array(ls, dtype=np.int64)
        r = np.array(rs, dtype=np.int64)
        lp, rp, lm, rm = join_positions([l], [r], "left")
        assert set(lp.tolist()) == set(range(len(ls)))

    @given(key_lists, key_lists)
    def test_semi_join_matches_membership(self, ls, rs):
        l = np.array(ls, dtype=np.int64)
        r = np.array(rs, dtype=np.int64)
        mask = semi_join_flags([l], [r])
        rset = set(rs)
        assert mask.tolist() == [x in rset for x in ls]
        assert mask.tolist() == semi_join_mask([l], [r]).tolist()

    @given(key_lists, key_lists)
    def test_full_join_row_count(self, ls, rs):
        l = np.array(ls, dtype=np.int64)
        r = np.array(rs, dtype=np.int64)
        lp, rp, lm, rm = join_positions([l], [r], "full")
        inner = sum(1 for a in ls for b in rs if a == b)
        unmatched_l = sum(1 for a in ls if a not in set(rs))
        unmatched_r = sum(1 for b in rs if b not in set(ls))
        assert len(lp) == inner + unmatched_l + unmatched_r


# -- the join kernel against a pure-Python reference ---------------------------

def reference_join(left: list, right: list, how: str, in_place: bool) -> list:
    """``join_positions`` written out row by row, in the order its docstring
    states.  *left* / *right* hold one hashable key per row, None for a row
    with a NULL key (which matches nothing)."""
    if len(right) > 4 * len(left) and len(right) >= 4096:
        swapped = {"inner": "inner", "left": "right", "right": "left",
                   "full": "full"}[how]
        rp, lp, rmiss, lmiss = reference_join(right, left, swapped, in_place)
        return [lp, rp, lmiss, rmiss]
    table: dict = {}
    for j, key in enumerate(right):
        if key is not None:
            table.setdefault(key, []).append(j)
    rows, unmatched_left, matched_right = [], [], set()
    for i, key in enumerate(left):
        matches = table.get(key, []) if key is not None else []
        rows += [(i, j, False, False) for j in matches]
        matched_right.update(matches)
        if not matches and how in ("left", "full"):
            (rows if in_place else unmatched_left).append((i, 0, False, True))
    rows += unmatched_left
    if how in ("right", "full"):
        rows += [(0, j, True, False) for j in range(len(right))
                 if j not in matched_right]
    return [list(col) for col in zip(*rows)] or [[], [], [], []]


def _rows(arrays: list) -> list:
    """One hashable key per row (None: a NULL — None, NaN or NaT — in
    some column)."""
    cols = [[None if v is None or v != v else v for v in a.tolist()]
            for a in arrays]
    return [None if None in row else row for row in zip(*cols)]


def _draw_keys(kind: str, rng, n_build: int, n_probe: int):
    """Build and probe key columns of one kind, and the index the build
    side must get (None where the data leaves it open)."""
    if kind == "unique":
        build = rng.permutation(2 * n_build)[:n_build]
        return [build], [rng.integers(-3, 2 * n_build + 3, n_probe)], "direct index"
    if kind == "negative":
        build = -1 - rng.permutation(n_build)
        return [build], [rng.integers(-n_build - 3, 3, n_probe)], "direct index"
    if kind == "duplicated":
        # One key held by two rows (the least that rules out a direct
        # index), or many keys held by many.
        if rng.random() < 0.5:
            build = rng.permutation(2 * n_build)[:n_build]
            build[1:2] = build[:1]
        else:
            build = rng.integers(0, max(1, n_build // 2), n_build)
        expect = "counting index" if len(np.unique(build)) < n_build else None
        return [build], [rng.integers(-2, 2 * n_build + 2, n_probe)], expect
    if kind == "sparse":
        # Two columns of 2**20 values pack into keys far sparser than the
        # row count; half the probe rows copy a build row.
        build = [rng.integers(0, 1 << 20, n_build) for _ in range(2)]
        probe = [rng.integers(0, 1 << 20, n_probe) for _ in range(2)]
        if n_build:
            copy = rng.random(n_probe) < 0.5
            source = rng.integers(0, n_build, n_probe)
            probe = [np.where(copy, b[source], p) for b, p in zip(build, probe)]
        return build, probe, "hashed index"
    if kind == "dates_with_nat":
        base = np.datetime64("2000-01-01")
        build = base + rng.permutation(2 * n_build)[:n_build].astype("timedelta64[D]")
        probe = base + rng.integers(0, 2 * n_build + 2, n_probe).astype("timedelta64[D]")
        build[rng.random(n_build) < 0.1] = np.datetime64("NaT")
        probe[rng.random(n_probe) < 0.1] = np.datetime64("NaT")
        return [build], [probe], None
    if kind == "floats_with_nan":
        build = rng.integers(0, max(1, n_build), n_build) * 0.5
        probe = rng.integers(0, max(1, n_build), n_probe) * 0.5
        build[rng.random(n_build) < 0.1] = np.nan
        probe[rng.random(n_probe) < 0.1] = np.nan
        return [build], [probe], None
    assert kind == "strings"
    words = np.array([f"w{i}" for i in range(2 * n_build + 2)] + [None], dtype=object)
    build = words[rng.permutation(len(words) - 1)[:n_build]]
    return [build], [words[rng.integers(0, len(words), n_probe)]], "direct index"


# (build rows, probe rows, build on the right?): a serial-size join, a probe
# large enough to partition across threads, and one whose right side is
# large enough that the kernel swaps sides and builds on the left.
JOIN_SHAPES = {"small": (30, 40, True), "partitioned": (3000, 5000, True),
               "swapped": (600, 5000, False)}
JOIN_KINDS = ["unique", "negative", "duplicated", "sparse", "dates_with_nat",
              "floats_with_nan", "strings"]


class TestJoinKernelReference:
    """Exact ``(left_pos, right_pos, left_missing, right_missing)`` against
    :func:`reference_join` for build sides with unique, duplicated, sparse
    (hashed), negative and NULL keys, every ``how``, threads 1/2/4, and
    both sides of the build-side swap."""

    @pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
    @pytest.mark.parametrize("kind", JOIN_KINDS)
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           empty=st.sampled_from([None, "build", "probe"]))
    def test_matches_reference(self, kind, shape, seed, empty):
        rng = np.random.default_rng(seed)
        n_build, n_probe, build_right = JOIN_SHAPES[shape]
        if empty == "build":
            n_build = 0
        elif empty == "probe":
            n_probe = 0
        build, probe, index = _draw_keys(kind, rng, n_build, n_probe)
        left, right = (probe, build) if build_right else (build, probe)
        in_place = kind in ("floats_with_nan", "strings")
        for how in ("inner", "left", "right", "full"):
            want = reference_join(_rows(left), _rows(right), how, in_place)
            for threads in (1, 2, 4):
                got = join_positions(left, right, how, threads=threads)
                assert [a.tolist() for a in got] == want, (how, threads)
                if n_build and n_probe and index is not None:
                    assert got.index == index


class TestSortWindowProperties:
    @given(int_lists)
    def test_sort_positions_agree_with_argsort(self, xs):
        arr = np.array(xs, dtype=np.int64)
        pos = sort_positions([arr], [True])
        assert np.array_equal(arr[pos], np.sort(arr))

    @given(int_lists)
    def test_sort_descending_reverses(self, xs):
        arr = np.array(xs, dtype=np.int64)
        pos = sort_positions([arr], [False])
        assert np.array_equal(arr[pos], np.sort(arr)[::-1])

    @given(int_lists)
    def test_row_number_is_permutation(self, xs):
        arr = np.array(xs, dtype=np.int64)
        rn = row_number(len(arr), [], [arr], [True])
        assert sorted(rn.tolist()) == list(range(1, len(arr) + 1))

    @given(key_lists)
    def test_row_number_partitioned(self, ks):
        arr = np.array(ks, dtype=np.int64)
        rn = row_number(len(arr), [arr], [], [])
        for key in set(ks):
            group = rn[arr == key]
            assert sorted(group.tolist()) == list(range(1, len(group) + 1))


class TestEngineVsFrames:
    @settings(max_examples=25, deadline=None)
    @given(key_lists, st.integers(min_value=-5, max_value=5))
    def test_filter_aggregate_pipeline(self, ks, threshold):
        if not ks:
            return
        vs = [float(i) for i in range(len(ks))]
        df = rpd.DataFrame({"k": ks, "v": vs})
        db = connect()
        db.register("t", {"k": np.array(ks, dtype=np.int64), "v": np.array(vs)})
        py = df[df.k > threshold].groupby("k").agg({"v": "sum"}).reset_index()
        out = db.execute(f"SELECT k, SUM(v) AS v FROM t WHERE k > {threshold} "
                         "GROUP BY k ORDER BY k")
        assert py["k"].tolist() == out["k"].tolist()
        assert py["v"].tolist() == pytest.approx(out["v"].tolist())

    @settings(max_examples=25, deadline=None)
    @given(key_lists, key_lists)
    def test_join_pipeline(self, ls, rs):
        db = connect()
        db.register("l", {"k": np.array(ls, dtype=np.int64)})
        db.register("r", {"k": np.array(rs, dtype=np.int64)})
        out = db.execute("SELECT COUNT(*) AS n FROM l, r WHERE l.k = r.k")
        brute = sum(1 for a in ls for b in rs if a == b)
        assert out["n"].tolist() == [brute]

    @settings(max_examples=15, deadline=None)
    @given(key_lists)
    def test_threads_agree(self, ks):
        if not ks:
            return
        db = connect()
        db.register("t", {"k": np.array(ks, dtype=np.int64)})
        sql = "SELECT k, COUNT(*) AS n FROM t GROUP BY k ORDER BY k"
        ref = db.execute(sql, config=EngineConfig(threads=1)).to_dict()
        for threads in (2, 3):
            got = db.execute(sql, config=EngineConfig(threads=threads)).to_dict()
            assert got == ref


class TestCompoundSelectProperties:
    """Randomized set operations (op × ALL × ORDER BY × LIMIT) must match
    sqlite3 on the same data.  sqlite has no INTERSECT/EXCEPT ALL and no
    standard precedence, so those oracle queries are spelled via the
    ROW_NUMBER-tagging rewrite."""

    @settings(max_examples=25, deadline=None)
    @given(
        key_lists, key_lists,
        st.sampled_from(["UNION", "UNION ALL", "INTERSECT", "INTERSECT ALL",
                         "EXCEPT", "EXCEPT ALL"]),
        st.booleans(),  # ORDER BY?
        st.booleans(),  # DESC?
        st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
    )
    def test_random_compound_matches_sqlite(self, ls, rs, op, ordered,
                                            desc, limit):
        from repro.bench.differential import load_sqlite, run_differential, rows_equal

        db = connect()
        db.register("t", {"a": np.array(ls, dtype=np.int64)})
        db.register("u", {"a": np.array(rs, dtype=np.int64)})
        conn = load_sqlite(db)
        try:
            tail = ""
            if ordered:
                tail += f" ORDER BY a{' DESC' if desc else ''}"
                if limit is not None:
                    tail += f" LIMIT {limit}"
            sql = f"SELECT a FROM t {op} SELECT a FROM u{tail}"
            if op in ("INTERSECT ALL", "EXCEPT ALL"):
                word = op.split()[0]
                tag = "ROW_NUMBER() OVER (PARTITION BY a) AS rn"
                oracle = (f"SELECT a FROM ("
                          f"SELECT a, {tag} FROM t {word} "
                          f"SELECT a, {tag} FROM u){tail}")
            else:
                oracle = None
            ours, theirs = run_differential(db, conn, sql, oracle_sql=oracle)
            ok, detail = rows_equal(ours, theirs)
            assert ok, f"{sql}: {detail}"
        finally:
            conn.close()


class TestRollingDtypeProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2000), min_size=1,
                    max_size=30),
           st.integers(min_value=1, max_value=5))
    def test_rolling_min_max_on_dates_matches_bruteforce(self, days, w):
        base = np.datetime64("2020-01-01")
        dates = base + np.array(days, dtype="timedelta64[D]")
        s = rpd.Series(dates)
        lo = s.rolling(w).min()
        hi = s.rolling(w).max()
        for i in range(len(days)):
            window = days[max(0, i - w + 1): i + 1]
            if len(window) < w:
                assert np.isnat(lo.values[i]) and np.isnat(hi.values[i])
            else:
                assert lo.values[i] == base + np.timedelta64(min(window), "D")
                assert hi.values[i] == base + np.timedelta64(max(window), "D")

    def test_rolling_sum_on_dates_raises_clearly(self):
        s = rpd.Series(np.array(["2020-01-01", "2020-01-02"],
                                dtype="datetime64[D]"))
        with pytest.raises(Exception, match="only min/max"):
            s.rolling(2).sum()

    def test_rolling_on_strings_raises_clearly(self):
        s = rpd.Series(["a", "b", "c"])
        with pytest.raises(Exception, match="not supported"):
            s.rolling(2).mean()


class TestOptimizerSemantics:
    """Optimizing a random filter/project chain never changes its result."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                           st.sampled_from([">", "<", "<>"]),
                           st.integers(min_value=-5, max_value=5)),
                 min_size=1, max_size=4),
        st.integers(min_value=0, max_value=9999),
    )
    def test_chain_of_filters(self, predicates, seed):
        rng = np.random.default_rng(seed)
        n = 30
        data = {
            "id": np.arange(n, dtype=np.int64),
            "a": rng.integers(-5, 6, size=n),
            "b": rng.integers(-5, 6, size=n),
            "c": rng.integers(-5, 6, size=n),
        }
        db = connect()
        db.register("base", data, primary_key="id")

        rules = []
        prev = "base"
        cols = ["id", "a", "b", "c"]
        for i, (col, op, k) in enumerate(predicates):
            rel = f"f{i}"
            rules.append(Rule(
                Head(rel, list(cols)),
                [RelAtom(prev, list(cols)), FilterAtom(BinOp(op, Var(col), Const(int(k))))],
            ))
            prev = rel
        rules.append(Rule(
            Head("sink", ["s", "n"]),
            [RelAtom(prev, list(cols)),
             AssignAtom("s", Agg("sum", Var("a"))),
             AssignAtom("n", Agg("count", None))],
        ))
        program = Program(rules=rules, sink="sink")
        schemas = {"base": cols}

        raw_sql = generate_sql(program, dict(schemas))
        opt_sql = generate_sql(optimize(program, "O4", base_unique={"base": {"id"}}),
                               dict(schemas))
        raw = db.execute(raw_sql).to_dict()
        opt = db.execute(opt_sql).to_dict()
        assert raw == opt
