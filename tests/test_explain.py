"""Tests for EXPLAIN ANALYZE plan traces."""

import pytest

from repro import connect
from repro.sqlengine import EngineConfig


@pytest.fixture()
def db():
    db = connect()
    db.register("t", {"a": [1, 2, 3, 4], "b": ["x", "y", "x", "z"],
                      "c": [1.0, 2.0, 3.0, 4.0]}, primary_key="a")
    db.register("u", {"b": ["x", "y"], "w": [5, 6]})
    return db


class TestExplain:
    def test_pushdown_visible(self, db):
        plan = db.explain("SELECT a FROM t WHERE a > 2 AND b = 'x'")
        assert "2 predicate(s) pushed down" in plan
        assert "4 -> 1 rows" in plan

    def test_join_cardinalities(self, db):
        plan = db.explain("SELECT t.a FROM t, u WHERE t.b = u.b")
        assert "hash join" in plan
        assert "-> 3 rows" in plan

    def test_join_reorder_starts_from_smaller(self, db):
        plan = db.explain("SELECT t.a FROM t, u WHERE t.b = u.b",
                          config=EngineConfig(join_reorder=True))
        # reordering starts from u (2 rows) and joins t into it
        assert "hash join + t" in plan

    def test_syntactic_order_without_reorder(self, db):
        plan = db.explain("SELECT t.a FROM t, u WHERE t.b = u.b",
                          config=EngineConfig(join_reorder=False))
        assert "hash join + u" in plan

    def test_join_names_the_index_the_data_picked(self, db):
        # The build side is the right one: distinct dense keys get a
        # direct-address table, a duplicate a counting index, keys sparser
        # than the rows a hashed index.
        db.register("dim", {"k": [1, 2, 3], "big": [10**12, 2 * 10**12, 7]})
        db.register("fact", {"k": [1, 1, 2, 5], "big": [7, 10**12, 7, 9]})
        config = EngineConfig(join_reorder=False)
        for sql, index in (
                ("SELECT fact.k FROM fact, dim WHERE fact.k = dim.k", "direct"),
                ("SELECT dim.k FROM dim, fact WHERE dim.k = fact.k", "counting"),
                ("SELECT fact.k FROM fact, dim WHERE fact.big = dim.big",
                 "hashed")):
            plan = db.explain(sql, config=config)
            assert f"-> 3 rows, {index} index" in plan, sql

    def test_aggregate_and_sort(self, db):
        # ORDER BY + LIMIT fuses into the TopK operator by default.
        plan = db.explain("SELECT b, SUM(c) AS s FROM t GROUP BY b ORDER BY s LIMIT 2")
        assert "hash aggregate: 1 key(s)" in plan
        assert "top-k: 1 key(s)" in plan

    def test_aggregate_note_counts_the_batch_and_the_matrix_product(self, db):
        # SUM(a * c) written twice is one aggregate; both SUMs of products
        # of NULL-free finite columns are cells of one matrix product.
        plan = db.explain("SELECT SUM(a * c) AS s, SUM(c * c) AS q, "
                          "SUM(a * c) + COUNT(*) AS r FROM t")
        assert ("hash aggregate: 0 key(s), 4 rows -> 1 groups, "
                "3 aggregates, 2 via matmul") in plan

    def test_aggregate_and_sort_without_topk_rewrite(self, db):
        plan = db.explain("SELECT b, SUM(c) AS s FROM t GROUP BY b ORDER BY s LIMIT 2",
                          config=EngineConfig(topk_rewrite=False))
        assert "sort: 1 key(s)" in plan
        assert "limit: 2" in plan

    def test_set_op_trace(self, db):
        # INTERSECT is symmetric: the planner probes with the smaller side
        # (u, 2 rows), so the trace reports the swapped operand order.
        plan = db.explain("SELECT b FROM t INTERSECT SELECT b FROM u")
        assert "set op intersect: 2 vs 4 -> 2 rows" in plan

    def test_cte_materialization(self, db):
        plan = db.explain("WITH big(a) AS (SELECT a FROM t WHERE a > 1) "
                          "SELECT * FROM big")
        assert "materialize CTE big -> 3 rows" in plan

    def test_cartesian_product(self, db):
        plan = db.explain("SELECT t.a FROM t, u")
        assert "cartesian product" in plan
        assert "-> 8 rows" in plan

    def test_residual_filter(self, db):
        plan = db.explain("SELECT t.a FROM t, u WHERE t.b = u.b AND t.a + u.w > 6")
        assert "residual filter" in plan

    def test_execution_unaffected(self, db):
        sql = "SELECT b, COUNT(*) AS n FROM t GROUP BY b ORDER BY b"
        before = db.execute(sql).to_dict()
        db.explain(sql)
        assert db.execute(sql).to_dict() == before


class TestExplainDistributed:
    """EXPLAIN surfaces of a plan that contains an ``Exchange``."""

    SQL = "SELECT k, SUM(v) AS s, COUNT(*) AS n FROM facts GROUP BY k ORDER BY k"

    @pytest.fixture()
    def store_root(self, tmp_path):
        from repro.storage import ColumnStore

        store = ColumnStore(tmp_path / "store")
        store.write_table(
            "facts", {"id": list(range(600)), "k": [i % 7 for i in range(600)],
                      "v": [float(i % 13) for i in range(600)]},
            primary_key="id", chunk_rows=100)
        return store.root

    def test_explain_plan_renders_partitions(self, store_root):
        from repro.storage import open_store

        db = connect(EngineConfig(shard_workers=4))
        open_store(store_root).attach(db)
        plan = db.explain_plan(self.SQL)
        assert ("Exchange facts 3 partition(s) chunks=[0,2) [2,4) [4,6)"
                in plan)
        assert "Exchange" not in db.explain_plan(
            self.SQL, EngineConfig(shard_workers=0))

    def test_plain_database_runs_the_exchange_in_process(self, store_root):
        # No pool behind a plain Database: the Exchange runs its child once,
        # unpartitioned, and the answer is the serial one.
        from repro.storage import open_store

        db = connect()
        open_store(store_root).attach(db)
        sharded_cfg = EngineConfig(shard_workers=2)
        assert "Exchange" in db.explain_plan(self.SQL, sharded_cfg)
        assert db.execute(self.SQL, sharded_cfg).to_dict() == \
            db.execute(self.SQL).to_dict()
        report = db.explain_analyze(self.SQL, sharded_cfg)
        exchange_line, partial_line = [
            ln for ln in report.splitlines()
            if "Exchange" in ln or "keys=[k]" in ln]
        assert "actual=7 rows" in exchange_line
        assert "actual=7 rows" in partial_line  # ran here, not in a worker
        assert "shard: scattered" not in report

    def test_explain_analyze_on_a_sharded_database(self, store_root):
        from repro.server import ShardedDatabase

        db = ShardedDatabase(store_root, workers=2)
        try:
            report = db.explain_analyze(self.SQL)
        finally:
            db.close_pools()
        exchange_line = next(ln for ln in report.splitlines()
                             if "Exchange" in ln)
        # 7 groups gathered from each of the 2 partitions, with wall time.
        assert "Exchange facts 2 partition(s) chunks=[0,3) [3,6)" in exchange_line
        assert "actual=14 rows" in exchange_line and " ms]" in exchange_line
        assert "shard: scattered facts over 2 worker partition(s)" in report


class TestExplainDictionaryColumns:
    """EXPLAIN ANALYZE shows where string columns are dictionary-encoded and
    whether a query stayed on the encoded path."""

    @staticmethod
    def _analyze(db, sql, config=None):
        from repro.sqlengine import RuntimeStats

        stats = RuntimeStats()
        db.execute_chunk(sql, config, stats=stats)
        return stats, stats.render()

    def test_q1_group_keys_are_encoded_and_never_decoded(self, tpch_db):
        from repro.workloads.tpch import QUERIES

        stats, report = self._analyze(tpch_db, QUERIES[1].sql("native", db=tpch_db))
        scan = next(ln for ln in report.splitlines() if "Scan lineitem" in ln)
        assert "dict=[l_returnflag(3), l_linestatus(2)]" in scan
        assert stats.dict_decoded_rows == 0
        assert "dict_decoded_rows=0" in report

    @pytest.mark.parametrize("q", [7, 12, 19])
    def test_predicates_run_on_the_dictionary(self, tpch_db, q):
        from repro.workloads.tpch import QUERIES

        stats, _ = self._analyze(tpch_db, QUERIES[q].sql("native", db=tpch_db))
        assert stats.dict_lifted > 0 and stats.dict_decoded_rows == 0

    def test_counters_name_a_query_that_leaves_the_encoded_path(self, db):
        # b = b2 compares two columns: nothing to lift, both are decoded.
        db.register("v", {"b": ["x", "y", "x"], "b2": ["x", "x", None]})
        stats, report = self._analyze(db, "SELECT b FROM v WHERE b = b2")
        assert stats.dict_decoded_rows == 6 and stats.dict_lifted == 0
        assert "dict=[b(2), b2(1)]" in report
        stats, _ = self._analyze(db, "SELECT b FROM v WHERE b = 'x' AND b2 IS NULL")
        assert stats.dict_decoded_rows == 0 and stats.dict_lifted == 2

    @pytest.mark.parametrize("threads", [1, 4])
    def test_in_kernel_encode_is_counted(self, db, monkeypatch, threads):
        """A string key that left its Scan plain (over the limit) or was
        computed is encoded by the kernel, per query: visible, also when
        the kernel runs on pool helpers."""
        import repro.sqlengine.table as engine_table
        from repro.sqlengine import EngineConfig

        n = 10_000
        db.register("w", {"k": [f"k{i % 7}" for i in range(n)],
                          "x": list(range(n))})
        config = EngineConfig(threads=threads)
        sql = "SELECT k, SUM(x) AS s FROM w GROUP BY k ORDER BY k"
        stats, report = self._analyze(db, sql, config)
        assert stats.dict_encoded_rows == 0 and "dict=[k(7)]" in report
        assert "dict_encoded_rows=0" in report
        monkeypatch.setattr(engine_table, "MAX_DICT_ENTRIES", 3)
        db.register("w2", db.catalog.get("w").chunk().to_dict())
        stats, report = self._analyze(db, sql.replace("w ", "w2 "), config)
        assert stats.dict_encoded_rows >= n
        assert f"dict_encoded_rows={stats.dict_encoded_rows}" in report

    def test_numeric_tables_report_nothing(self, db):
        _, report = self._analyze(db, "SELECT a, c FROM t WHERE a > 1")
        assert "dict" not in report

    def test_a_recorded_operator_outlives_the_plan_that_built_it(self, db):
        """Stats are keyed by operator identity: an operator created
        mid-query (an adaptive re-plan's chain) must stay alive with its
        entry, or a later node allocated at its address inherits the
        counts (seen as a flaky est-vs-actual ratio)."""
        from repro.sqlengine import RuntimeStats
        from repro.sqlengine.plan import DualScan

        stats = RuntimeStats()
        op = DualScan()
        stats.record(op, 1, 0.0)
        assert stats.ops[id(op)].op is op
