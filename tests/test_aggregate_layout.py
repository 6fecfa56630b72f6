"""One aggregation test matrix: the hash aggregate's shared ``GroupLayout``,
its batch of distinct aggregates and the global ``SUM(x * y)`` matrix
product, checked against sqlite3 and against ``threads=1``.

Shapes (global / 1 key / 3 keys) x inputs (the full table with NULLs in
either factor, ±inf, a group whose values are all NULL and a NULL string
key; an empty input) x threads {1, 2, 4}.  Every float compares to sqlite
within ``RTOL`` / ``ATOL`` — the one tolerance of this file, which covers
the three summation orders (row order per group, NumPy's pairwise sum for a
global aggregate, BLAS for the matrix product) against sqlite's
compensated sum.

Across thread counts every cell is **bit-identical**, not merely close:
the matrix product runs once whatever ``threads`` is, a grouped SUM / AVG
is one ``np.bincount`` over all rows in row order, and only the exact
reductions (counts, MIN, MAX) are split over partitions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import connect
from repro.bench.differential import load_sqlite, run_differential, rows_equal
from repro.sqlengine import EngineConfig
from repro.sqlengine.grouping import GroupedColumn, GroupLayout, sum_of_products

RTOL = ATOL = 1e-9
THREADS = [1, 2, 4]
N = 6000  # above the 4096-row threshold of the partition-parallel partials

SHAPES = {"global": [], "1key": ["k1"], "3keys": ["k1", "k2", "k3"]}
INPUTS = {"full": "", "empty": "WHERE a > 1000"}
AGGREGATES = [
    "SUM(a) AS s_a", "AVG(b) AS avg_b", "MIN(c) AS min_c", "MAX(d) AS max_d",
    "MIN(d) AS min_d", "SUM(d) AS s_d", "COUNT(b) AS n_b", "COUNT(*) AS n",
    "COUNT(DISTINCT a) AS nd_a", "SUM(DISTINCT a) AS sd_a",
    "AVG(DISTINCT b) AS ad_b", "SUM(a * b) AS s_ab",
    "COALESCE(SUM(a * b), 0) AS cs_ab", "SUM(a) AS s_a_again",
    "SUM(a * e) AS s_ae", "SUM(b * c) AS s_bc", "SUM(d * a) AS s_da",
    "MAX(k2) AS max_k2",
]
# Distinct aggregates of that list (the repeats fold into one), and how
# many a global aggregate over the full table runs through the matrix
# product: SUM(a * e) only — b and c hold NULLs, d holds ±inf.
DISTINCT_AGGREGATES = len(AGGREGATES) - 2
GLOBAL_MATMUL = 1


def _table() -> dict:
    rng = np.random.default_rng(21)
    k1 = rng.integers(0, 5, N)
    k1[:40] = 5                     # group 5: every b and c is NULL
    b = rng.normal(size=N)
    b[rng.random(N) < 0.1] = np.nan
    b[:40] = np.nan
    c = rng.normal(size=N) * 10
    c[rng.random(N) < 0.1] = np.nan
    c[:40] = np.nan
    d = rng.normal(size=N)
    d[rng.choice(N, 6, replace=False)] = np.inf
    d[rng.choice(N, 3, replace=False)] = -np.inf
    k2 = rng.choice(np.array(["x", "y", "z", None], dtype=object), N)
    return {"k1": k1, "k2": k2, "k3": rng.integers(0, 3, N),
            "a": rng.integers(-50, 51, N), "b": b, "c": c, "d": d,
            "e": rng.integers(0, 1000, N)}


@pytest.fixture(scope="module")
def db():
    db = connect()
    db.register("t", _table())
    return db


@pytest.fixture(scope="module")
def oracle(db):
    conn = load_sqlite(db)
    yield conn
    conn.close()


def _sql(shape: str, where: str, order_by: str = "") -> str:
    keys = SHAPES[shape]
    items = ", ".join(keys + AGGREGATES)
    group = f" GROUP BY {', '.join(keys)}" if keys else ""
    return f"SELECT {items} FROM t {where}{group}{order_by}"


def _assert_bit_identical(chunk, base, context: str) -> None:
    assert chunk.columns == base.columns
    for name, got, want in zip(chunk.columns, chunk.arrays, base.arrays):
        assert got.dtype == want.dtype, f"{context} {name}: dtype"
        if got.dtype.kind == "f":
            assert np.array_equal(got, want, equal_nan=True), f"{context} {name}"
        else:
            assert got.tolist() == want.tolist(), f"{context} {name}"


@pytest.mark.parametrize("where", INPUTS.values(), ids=INPUTS.keys())
@pytest.mark.parametrize("shape", SHAPES)
def test_matrix(db, oracle, shape, where):
    sql = _sql(shape, where)
    base = db.execute_chunk(sql, EngineConfig(threads=1))
    for threads in THREADS:
        ours, theirs = run_differential(db, oracle, sql, EngineConfig(threads=threads))
        ok, detail = rows_equal(ours, theirs, rel_tol=RTOL, abs_tol=ATOL)
        assert ok, f"{shape}/{where or 'full'} threads={threads}: {detail}"
        _assert_bit_identical(db.execute_chunk(sql, EngineConfig(threads=threads)),
                              base, f"{shape}/{where or 'full'} threads={threads}")


@pytest.mark.parametrize("shape", ["1key", "3keys"])
def test_order_by_an_aggregate_that_is_not_projected(db, oracle, shape):
    """ORDER BY MAX(e) is no select item: the grouped evaluator reduces it
    on a miss, over the same layout, and the order matches sqlite's."""
    # sqlite sorts NULL first, this engine last: the NULL k2 is tie-broken
    # through COALESCE.
    keys = ", ".join(k if k != "k2" else "COALESCE(k2, '')" for k in SHAPES[shape])
    sql = _sql(shape, "", f" ORDER BY MAX(e) DESC, {keys}")
    nkeys = len(SHAPES[shape])
    want = [row[:nkeys] for row in oracle.execute(sql).fetchall()]
    for threads in THREADS:
        chunk = db.execute_chunk(sql, EngineConfig(threads=threads))
        got = list(zip(*[arr.tolist() for arr in chunk.arrays[:nkeys]]))
        assert got == want


@pytest.mark.parametrize("where, matmul", [("", GLOBAL_MATMUL), ("WHERE a > 1000", 0)],
                         ids=["full", "empty"])
def test_note_counts_the_batch_and_the_matrix_product(db, where, matmul):
    trace = db.explain(_sql("global", where))
    assert f"{DISTINCT_AGGREGATES} aggregates, {matmul} via matmul" in trace


def test_clean_factors_all_go_through_one_matrix_product(db, oracle):
    """The covariance shape: every SUM of a product of NULL-free finite
    columns (ints included) is one cell of one matrix product."""
    cols = ["a", "e", "k1", "k3"]
    items = [f"SUM({x} * {y}) AS s_{x}_{y}" for x in cols for y in cols]
    sql = f"SELECT {', '.join(items)} FROM t"
    assert f"{len(items)} aggregates, {len(items)} via matmul" in db.explain(sql)
    ours, theirs = run_differential(db, oracle, sql)
    assert ours == theirs                        # integers: exact
    chunk = db.execute_chunk(sql)
    assert all(arr.dtype == np.int64 for arr in chunk.arrays)


def test_unrelated_products_read_their_cells_of_the_product(db, oracle):
    """Five SUMs over ten distinct factors: a 5 x 5 product of which each
    SUM reads its own cell."""
    pairs = [("a", "e"), ("k1", "k3"), ("a + 1", "e + 2"),
             ("k1 + 1", "k3 + 2"), ("a - 1", "e - 2")]
    sql = "SELECT " + ", ".join(f"SUM(({x}) * ({y})) AS s{i}"
                                for i, (x, y) in enumerate(pairs)) + " FROM t"
    assert "5 aggregates, 5 via matmul" in db.explain(sql)
    ours, theirs = run_differential(db, oracle, sql)
    assert ours == theirs


def test_grouped_products_take_the_ordinary_reducer(db):
    trace = db.explain("SELECT k1, SUM(a * e) AS s FROM t GROUP BY k1")
    assert "1 aggregates, 0 via matmul" in trace


class TestKernels:
    """The reducer and the matrix product on their own."""

    def test_sum_of_products_matches_the_pairwise_sums(self):
        rng = np.random.default_rng(3)
        left = [rng.normal(size=20_000) for _ in range(3)]
        right = [rng.normal(size=20_000) for _ in range(4)]
        got = sum_of_products(left, right)
        want = np.array([[np.sum(x * y) for y in right] for x in left])
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)
        sym = sum_of_products(left, left)
        np.testing.assert_array_equal(sym, sym.T)

    def test_avg_reads_the_shared_sum_and_count(self):
        layout = GroupLayout(5, np.array([0, 1, 0, 1, 1]), 2)
        col = GroupedColumn(layout, np.array([1.0, np.nan, 3.0, 4.0, 5.0]))
        sums, counts = col.sums, col.counts
        assert col.reduce("mean").tolist() == [2.0, 4.5]
        assert col.sums is sums and col.counts is counts

    def test_min_max_of_infinities_is_not_null(self):
        layout = GroupLayout(4, np.array([0, 0, 1, 2]), 3)
        col = GroupedColumn(layout, np.array([-np.inf, -np.inf, np.inf, np.nan]))
        assert col.reduce("max")[:2].tolist() == [-np.inf, np.inf]
        assert np.isnan(col.reduce("max")[2])


class TestStddevCancellation:
    """Sample STDDEV / VAR in two passes: values near 1e9 with unit spread
    keep their spread (the one-pass Σx² − (Σx)²/n formula returned 0.0 or
    33.08 here instead of ≈ 1)."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(7)
        g = np.repeat([0, 1, 2], 1000)
        x = 1e9 + rng.normal(size=len(g))
        want = [np.std(x[g == k], ddof=1) for k in range(3)]
        return g, x, want

    def test_sql(self):
        g, x, want = self._data()
        db = connect()
        db.register("t", {"g": g, "x": x})
        out = db.execute("SELECT g, STDDEV(x) AS s, VAR(x) AS v FROM t "
                         "GROUP BY g ORDER BY g").to_dict()
        np.testing.assert_allclose(out["s"], want, rtol=1e-6)
        np.testing.assert_allclose(out["v"], np.square(want), rtol=1e-6)
        total = db.execute("SELECT STDDEV(x) AS s FROM t").to_dict()["s"]
        np.testing.assert_allclose(total, [np.std(x, ddof=1)], rtol=1e-6)

    def test_dataframe(self):
        from repro import DataFrame

        g, x, want = self._data()
        got = DataFrame({"g": g, "x": x}).groupby("g")["x"].std().tolist()
        np.testing.assert_allclose(got, want, rtol=1e-6)
