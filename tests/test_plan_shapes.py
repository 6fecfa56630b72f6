"""Golden tests for EXPLAIN plan shapes: pushdown placement, projection
pruning, cardinality-driven join order, and plan-cache behaviour."""

from __future__ import annotations

import pytest

from repro import connect
from repro.errors import UnsupportedFeatureError
from repro.sqlengine import EngineConfig


@pytest.fixture()
def db():
    db = connect()
    db.register("t", {"a": [1, 2, 3, 4], "b": ["x", "y", "x", "z"],
                      "c": [1.0, 2.0, 3.0, 4.0]}, primary_key="a")
    db.register("u", {"b": ["x", "y"], "w": [5, 6]})
    db.register("big", {"k": list(range(100)), "v": [float(i) for i in range(100)]},
                primary_key="k")
    return db


class TestPlanShape:
    def test_pushdown_lands_above_scan(self, db):
        plan = db.explain_plan("SELECT a FROM t WHERE a > 2 AND b = 'x'")
        lines = plan.splitlines()
        # Filter is the immediate parent of the scan, predicates conjoined.
        assert any("Filter" in ln and "a > 2" in ln and "b = 'x'" in ln
                   for ln in lines)
        assert lines.index([ln for ln in lines if "Scan t" in ln][0]) == \
            lines.index([ln for ln in lines if "Filter" in ln][0]) + 1

    def test_projection_pruning(self, db):
        plan = db.explain_plan("SELECT a FROM t WHERE a > 2")
        # b and c are never referenced -> pruned from the scan.
        assert "cols=[a]" in plan
        plan_star = db.explain_plan("SELECT * FROM t")
        assert "cols=*" in plan_star

    def test_join_order_chosen_by_cardinality(self, db):
        plan = db.explain_plan("SELECT t.a FROM t, u WHERE t.b = u.b",
                               config=EngineConfig(join_reorder=True))
        # u (2 rows) is the cheaper start; t is joined into it.
        assert "HashJoin + t" in plan

    def test_syntactic_join_order_without_reorder(self, db):
        plan = db.explain_plan("SELECT t.a FROM t, u WHERE t.b = u.b",
                               config=EngineConfig(join_reorder=False))
        assert "HashJoin + u" in plan

    def test_filtered_cardinality_drives_order(self, db):
        # Unfiltered, big (100 rows) would never start the join; an equality
        # on its primary key estimates ~1 row, so it becomes the build start.
        plan = db.explain_plan(
            "SELECT t.a FROM t, big WHERE t.a = big.k AND big.k = 7",
            config=EngineConfig(join_reorder=True))
        assert "HashJoin + t" in plan
        assert "est=1 rows" in plan

    def test_estimates_rendered(self, db):
        plan = db.explain_plan("SELECT a FROM t WHERE a > 2")
        assert "[est=4 rows]" in plan  # base scan cardinality from catalog

    def test_aggregate_sort_limit_pipeline(self, db):
        # ORDER BY + LIMIT fuses into one TopK node by default.
        plan = db.explain_plan(
            "SELECT b, SUM(c) AS s FROM t GROUP BY b ORDER BY s LIMIT 2")
        lines = plan.splitlines()
        order = [ln.strip().split()[0] for ln in lines]
        assert order == ["TopK", "HashAggregate", "Scan"]

    def test_sort_limit_without_topk_rewrite(self, db):
        plan = db.explain_plan(
            "SELECT b, SUM(c) AS s FROM t GROUP BY b ORDER BY s LIMIT 2",
            config=EngineConfig(topk_rewrite=False))
        lines = plan.splitlines()
        order = [ln.strip().split()[0] for ln in lines]
        assert order == ["Limit", "Sort", "HashAggregate", "Scan"]

    def test_distinct_operator(self, db):
        plan = db.explain_plan("SELECT DISTINCT b FROM t")
        assert "Distinct" in plan

    def test_cte_plans_rendered(self, db):
        plan = db.explain_plan(
            "WITH f(a) AS (SELECT a FROM t WHERE a > 1) SELECT a FROM f")
        assert plan.startswith("CTE f:")
        assert "Scan f" in plan

    def test_explain_plan_does_not_execute(self, db):
        # A query that would fail at run time (cartesian blow-up guard) still
        # plans statically.
        db.register("m", {"k": list(range(10_000))})
        plan = db.explain_plan("SELECT t.a FROM t, m, u")
        assert "CrossJoin" in plan

    def test_window_operator_planned_below_project(self, db):
        plan = db.explain_plan(
            "SELECT a, ROW_NUMBER() OVER (PARTITION BY b ORDER BY c DESC) AS rn "
            "FROM t")
        lines = plan.splitlines()
        order = [ln.strip().split()[0] for ln in lines]
        assert order == ["Project", "Window", "Scan"]
        window_line = [ln for ln in lines if "Window" in ln][0]
        assert "ROW_NUMBER() OVER (PARTITION BY b ORDER BY c DESC)" in window_line

    def test_window_frame_rendered_in_plan(self, db):
        plan = db.explain_plan(
            "SELECT SUM(c) OVER (ORDER BY a ROWS BETWEEN 2 PRECEDING AND "
            "CURRENT ROW) AS s FROM t")
        assert "Window SUM(c) OVER (ORDER BY a ROWS BETWEEN 2 PRECEDING " \
               "AND CURRENT ROW)" in plan

    def test_window_below_sort_and_filter_above_scan(self, db):
        plan = db.explain_plan(
            "SELECT a, LAG(c) OVER (ORDER BY a) AS p FROM t WHERE a > 1 "
            "ORDER BY a")
        lines = [ln.strip().split()[0] for ln in plan.splitlines()]
        assert lines == ["Sort", "Project", "Window", "Filter", "Scan"]

    def test_no_window_node_without_window_calls(self, db):
        plan = db.explain_plan("SELECT a FROM t")
        assert "Window" not in plan

    def test_set_op_node_shape(self, db):
        plan = db.explain_plan("SELECT a FROM t UNION ALL SELECT w FROM u")
        lines = [ln.strip().split()[0] for ln in plan.splitlines()]
        assert lines == ["SetOp", "Project", "Scan", "Project", "Scan"]
        assert "SetOp UNION ALL" in plan

    def test_compound_order_limit_fuses_to_topk(self, db):
        plan = db.explain_plan(
            "SELECT a FROM t EXCEPT SELECT w FROM u ORDER BY a LIMIT 2")
        lines = [ln.strip().split()[0] for ln in plan.splitlines()]
        assert lines[0] == "TopK"
        assert lines[1] == "SetOp"
        assert "SetOp EXCEPT" in plan

    def test_intersect_probes_smaller_side(self, db):
        # big (100 rows) INTERSECT u (2 rows): the planner swaps operands so
        # the 2-row side is probed; the first SetOp child is u's subtree.
        plan = db.explain_plan("SELECT k FROM big INTERSECT SELECT w FROM u")
        lines = plan.splitlines()
        first_scan = next(ln for ln in lines if "Scan" in ln)
        assert "Scan u" in first_scan

    def test_intersect_probes_limit_zero_side(self, db):
        # A LIMIT 0 operand estimates exactly 0 rows.  Regression: the
        # falsy `or` fallback replaced that 0 with the 1000-row default,
        # so the provably-empty side looked *bigger* than the 100-row scan
        # and the probe-side choice inverted.
        plan = db.explain_plan(
            "SELECT k FROM big INTERSECT SELECT w FROM u LIMIT 0")
        lines = plan.splitlines()
        first_scan = next(ln for ln in lines if "Scan" in ln)
        assert "Scan u" in first_scan

    def test_adaptive_join_node_shape(self, db):
        # Adaptive execution plans the reorderable join block as one
        # AdaptiveJoin whose sources are the per-relation subtrees, in the
        # same deterministic order the static chain would use.
        cfg = EngineConfig(join_reorder=True, adaptive_execution=True)
        plan = db.explain_plan("SELECT t.a FROM t, u WHERE t.b = u.b",
                               config=cfg)
        lines = [ln.strip().split()[0] for ln in plan.splitlines()]
        assert "AdaptiveJoin" in plan
        assert lines.count("Scan") == 2
        # The same query without the knob keeps the static HashJoin shape.
        static = db.explain_plan(
            "SELECT t.a FROM t, u WHERE t.b = u.b",
            config=EngineConfig(join_reorder=True))
        assert "AdaptiveJoin" not in static
        assert "HashJoin" in static

    def test_compound_inside_cte_renders(self, db):
        plan = db.explain_plan(
            "WITH s(a) AS (SELECT a FROM t UNION SELECT w FROM u) "
            "SELECT a FROM s")
        assert plan.startswith("CTE s:")
        assert "SetOp UNION" in plan


class TestCtePruning:
    """A CTE keeps only the output columns a later CTE or the main query
    reads (``planner.prune_cte_columns``), so its scans prune to those."""

    WIDE = "WITH w(a, b, c) AS (SELECT a, b, c FROM t WHERE c > 1.0) "

    def test_unread_columns_leave_the_cte_and_its_scan(self, db):
        plan = db.explain_plan(self.WIDE + "SELECT a FROM w")
        assert "Project a  [" in plan and "Scan t cols=[a, c]" in plan
        assert "Scan w cols=[a]" in plan
        assert db.execute(self.WIDE + "SELECT a FROM w").to_dict() == {"a": [2, 3, 4]}

    def test_tpch_q4_scans_three_lineitem_columns(self, tpch_db):
        from repro.workloads.tpch import QUERIES

        sql = QUERIES[4].sql("native", db=tpch_db)
        assert "l_comment" in sql                # the translator emits all 16
        plan = tpch_db.explain_plan(sql)
        assert ("Scan lineitem AS r1 cols=[l_orderkey, l_commitdate, "
                "l_receiptdate]") in plan
        assert "Project r1.l_orderkey  [" in plan

    def test_reads_through_any_binding_and_subquery_count(self, db):
        plan = db.explain_plan(
            self.WIDE + "SELECT x.a FROM w AS x WHERE EXISTS "
            "(SELECT 1 FROM w AS y WHERE y.b = 'x' AND y.a = x.a)")
        assert "Scan t cols=[a, b, c]" in plan and "Project a, b  [" in plan

    def test_a_later_cte_keeps_what_it_reads_and_pruning_cascades(self, db):
        sql = (self.WIDE + ", v(a, b) AS (SELECT a, b FROM w) "
               "SELECT a FROM v")
        plan = db.explain_plan(sql)
        # v drops b first; then nothing reads w.b any more.
        assert "Scan t cols=[a, c]" in plan and "Scan w cols=[a]" in plan
        assert db.execute(sql).to_dict() == {"a": [2, 3, 4]}

    def test_star_keeps_everything(self, db):
        plan = db.explain_plan(self.WIDE + "SELECT * FROM w")
        assert "Scan t cols=[a, b, c]" in plan

    @pytest.mark.parametrize("body", [
        "SELECT DISTINCT a, b FROM t",
        "SELECT a, b FROM t UNION SELECT w, b FROM u",
        "SELECT a, b FROM t ORDER BY 2 LIMIT 3",
        "SELECT COUNT(*) AS a, MAX(b) AS b FROM t",
    ], ids=["distinct", "set-op", "positional-order-by", "global-aggregate"])
    def test_bodies_whose_rows_depend_on_every_item_are_left_alone(self, db, body):
        sql = f"WITH w(a, b) AS ({body}) SELECT a FROM w"
        pruned = db.execute(sql).to_dict()
        unpruned = db.execute(f"WITH w(a, b) AS ({body}) SELECT a, b FROM w").to_dict()
        assert pruned["a"] == unpruned["a"]
        assert "b" in db.explain_plan(sql).split("Scan w")[0]

    def test_grouped_body_drops_an_aggregate_but_stays_grouped(self, db):
        sql = ("WITH g(b, n, s) AS (SELECT b, COUNT(*), SUM(c) FROM t GROUP BY b) "
               "SELECT b, n FROM g ORDER BY b")
        plan = db.explain_plan(sql)
        assert "HashAggregate keys=[b] items=2" in plan and "Scan t cols=[b]" in plan
        assert db.execute(sql).to_dict() == {"b": ["x", "y", "z"], "n": [2, 1, 1]}

    def test_items_named_by_the_bodys_own_clauses_stay(self, db):
        sql = ("WITH o AS (SELECT a, c * 2 AS dbl FROM t ORDER BY dbl DESC LIMIT 2) "
               "SELECT a FROM o")
        assert db.execute(sql).to_dict() == {"a": [4, 3]}

    def test_positional_output_names_survive(self, db):
        sql = "WITH p AS (SELECT a, c + 1, a * 2 FROM t) SELECT col2 FROM p"
        assert db.execute(sql).to_dict() == {"col2": [2, 4, 6, 8]}
        assert "Project (a * 2)  [" in db.explain_plan(sql)

    def test_nothing_read_keeps_one_item(self, db):
        sql = self.WIDE + "SELECT COUNT(*) AS n FROM w"
        assert db.execute(sql).to_dict() == {"n": [3]}

    def test_placeholders_in_a_dropped_item_still_bind(self, db):
        sql = "WITH q AS (SELECT a, ? AS tag FROM t WHERE a > ?) SELECT a FROM q"
        assert db.execute(sql, params=["unused", 2]).to_dict() == {"a": [3, 4]}


class TestZoneMapPlanShape:
    """Goldens for zone-map partition pruning: the Scan node renders the
    surviving/total chunk count, and EXPLAIN ANALYZE reports the rows a
    pruned scan actually read."""

    @pytest.fixture()
    def stored_db(self, tmp_path):
        from repro.storage import ColumnStore

        store = ColumnStore(tmp_path / "store")
        n = 1024
        store.write_table(
            "events",
            {"ts": list(range(n)), "v": [float(i % 97) for i in range(n)]},
            primary_key="ts", chunk_rows=128, sort_by="ts")
        db = connect()
        store.attach(db)
        return db

    def test_scan_renders_pruned_chunk_count(self, stored_db):
        plan = stored_db.explain_plan(
            "SELECT COUNT(*) AS n FROM events WHERE ts BETWEEN 256 AND 300")
        assert "Scan events" in plan
        assert "zonemap=1/8 chunks" in plan

    def test_range_spanning_chunks_keeps_them(self, stored_db):
        plan = stored_db.explain_plan(
            "SELECT COUNT(*) AS n FROM events WHERE ts >= 512")
        assert "zonemap=4/8 chunks" in plan

    def test_impossible_predicate_prunes_all_chunks(self, stored_db):
        plan = stored_db.explain_plan(
            "SELECT COUNT(*) AS n FROM events WHERE ts > 5000")
        assert "zonemap=0/8 chunks" in plan
        assert "est=0 rows" in plan

    def test_pruning_disabled_renders_no_zonemap(self, stored_db):
        plan = stored_db.explain_plan(
            "SELECT COUNT(*) AS n FROM events WHERE ts BETWEEN 256 AND 300",
            config=EngineConfig(zone_map_pruning=False))
        assert "zonemap" not in plan

    def test_in_memory_table_renders_no_zonemap(self, db):
        plan = db.explain_plan("SELECT a FROM t WHERE a > 2")
        assert "zonemap" not in plan

    def test_unprunable_predicate_keeps_all_chunks(self, stored_db):
        # v oscillates inside every chunk: zone intervals all contain the
        # literal, so nothing is pruned but the scan still reports counts.
        plan = stored_db.explain_plan(
            "SELECT COUNT(*) AS n FROM events WHERE v = 11.0")
        assert "zonemap=8/8 chunks" in plan

    def test_explain_analyze_reports_pruned_rows(self, stored_db):
        trace = stored_db.explain(
            "SELECT COUNT(*) AS n FROM events WHERE ts BETWEEN 256 AND 300")
        assert "zone maps pruned 7/8 chunk(s), read 128 rows" in trace

    def test_pruned_plan_results_match_unpruned(self, stored_db):
        sql = ("SELECT SUM(v) AS s, COUNT(*) AS n FROM events "
               "WHERE ts BETWEEN 100 AND 900")
        assert stored_db.execute(sql).to_dict() == stored_db.execute(
            sql, config=EngineConfig(zone_map_pruning=False)).to_dict()


class TestDistributedPlanShape:
    """Goldens under ``shard_workers=2``: which statements of the serving
    mix and of TPC-H get an ``Exchange``, and between which stages.  The
    set of distributed statements may only grow — a template that loses
    its Exchange silently falls back to one process."""

    @pytest.fixture(scope="class")
    def tpch_stored(self, tpch_dataset, tmp_path_factory):
        from repro.bench.storage import store_tpch
        from repro.storage import ColumnStore

        store = ColumnStore(tmp_path_factory.mktemp("plan-shape-store"))
        store_tpch(store, tpch_dataset, chunk_rows=2048)
        db = connect(EngineConfig(shard_workers=2))
        store.attach(db)
        return db

    @staticmethod
    def _ops(plan: str) -> list[str]:
        return [ln.split()[0] for ln in plan.splitlines()]

    @staticmethod
    def _mix_sql(name: str) -> str:
        from repro.server import tpch_mix

        return next(t.sql for t in tpch_mix() if t.name == name)

    def test_lineitem_agg_splits_around_exchange(self, tpch_stored):
        plan = tpch_stored.explain_plan(self._mix_sql("lineitem_agg"))
        assert self._ops(plan) == ["Sort", "HashAggregate", "Exchange",
                                   "HashAggregate", "Filter", "Scan"]
        assert "HashAggregate keys=[__k0] items=3" in plan
        assert "Exchange lineitem 2 partition(s) chunks=[0,3) [3,6)" in plan
        assert "HashAggregate keys=[l_returnflag] items=3" in plan

    def test_customer_join_splits_topk_over_the_larger_table(self, tpch_stored):
        plan = tpch_stored.explain_plan(self._mix_sql("customer_join"))
        assert self._ops(plan) == ["TopK", "Exchange", "TopK", "Project",
                                   "HashJoin", "Scan", "Filter", "Scan"]
        # ORDER BY o.o_totalprice names an output column in both stages.
        assert plan.count("TopK 10 by o_totalprice DESC") == 2
        assert "Exchange orders 2 partition(s) chunks=[0,1) [1,2)" in plan

    @pytest.mark.parametrize("name", ["order_lookup", "customer_orders"])
    def test_point_lookups_stay_in_one_process(self, tpch_stored, name):
        assert "Exchange" not in tpch_stored.explain_plan(self._mix_sql(name))

    def test_q1_distributes_inside_its_cte(self, tpch_stored):
        from repro.workloads.tpch import QUERIES

        sql = QUERIES[1].sql("duckdb", level="O4", db=tpch_stored)
        plan = tpch_stored.explain_plan(sql)
        assert self._ops(plan) == [
            "CTE", "HashAggregate", "Exchange", "HashAggregate", "Filter",
            "Scan", "Sort", "Project", "Scan"]
        assert "HashAggregate keys=[__k0, __k1] items=10" in plan
        assert "Exchange lineitem 2 partition(s) chunks=[0,3) [3,6)" in plan
        # 2 keys + one partial per distinct call (three AVGs share the SUMs
        # and the COUNT the select list already has).
        assert ("HashAggregate keys=[r1.l_returnflag, r1.l_linestatus] "
                "items=10") in plan

    def test_q6_global_aggregate_keeps_zone_map_pruning(self, tpch_stored):
        from repro.workloads.tpch import QUERIES

        sql = QUERIES[6].sql("duckdb", level="O4", db=tpch_stored)
        plan = tpch_stored.explain_plan(sql)
        assert self._ops(plan) == ["HashAggregate", "Exchange",
                                   "HashAggregate", "Filter", "Scan"]
        assert "Exchange lineitem 2 partition(s)" in plan
        assert "zonemap=2/6 chunks" in plan

    def test_no_exchange_without_shard_workers(self, tpch_stored):
        plan = tpch_stored.explain_plan(self._mix_sql("lineitem_agg"),
                                        EngineConfig(shard_workers=0))
        assert self._ops(plan) == ["Sort", "HashAggregate", "Filter", "Scan"]


class TestSpillPlanShape:
    """EXPLAIN ANALYZE goldens for the memory-budget spill paths."""

    @pytest.fixture()
    def wide_db(self):
        db = connect()
        n = 4000
        db.register("f", {"k": [i % 200 for i in range(n)],
                          "v": [float(i) for i in range(n)]})
        db.register("d", {"k": list(range(200)),
                          "w": [float(i) for i in range(200)]})
        return db

    def test_join_and_aggregate_spill_events_in_trace(self, wide_db):
        cfg = EngineConfig(memory_budget=1024, spill_partitions=4)
        trace = wide_db.explain(
            "SELECT f.k AS k, SUM(f.v + d.w) AS s FROM f JOIN d "
            "ON f.k = d.k GROUP BY f.k", config=cfg)
        assert "spill: hash join" in trace
        assert "grace-partitioned over 4 partition(s)" in trace
        assert "spill: hash aggregate" in trace
        assert "bytes to disk" in trace

    def test_no_spill_events_without_budget(self, wide_db):
        trace = wide_db.explain(
            "SELECT f.k AS k, SUM(f.v) AS s FROM f GROUP BY f.k")
        assert "spill" not in trace

    def test_memory_budget_keyed_in_plan_cache(self, wide_db):
        sql = "SELECT k, SUM(v) AS s FROM f GROUP BY k"
        wide_db.execute(sql)
        wide_db.execute(sql, config=EngineConfig(memory_budget=1024))
        assert wide_db.plan_cache_stats["hits"] == 0
        assert wide_db.plan_cache_stats["entries"] == 2


class TestSubqueryPlanShape:
    """Goldens for the two subquery operators: an uncorrelated form is a
    value ``$N`` the InitPlan binds, placed like any other predicate; a
    correlated one is a MarkJoin (EXPLAIN ``SemiJoin`` / ``AntiJoin`` when
    it filters a whole conjunct)."""

    def test_in_subquery_plans_init_plan_value(self, db):
        plan = db.explain_plan(
            "SELECT a FROM t WHERE b IN (SELECT b FROM u WHERE w > 5)")
        lines = [ln.strip().split()[0] for ln in plan.splitlines()]
        assert lines == ["InitPlan", "Project", "Filter", "Scan", "Project",
                         "Filter", "Scan"]
        assert "InitPlan $0 = IN" in plan
        # Pushed down to the scan like any single-table predicate.
        assert "Filter b IN ($0)" in plan
        assert "Filter(residual)" not in plan

    def test_not_in_plans_init_plan_value(self, db):
        plan = db.explain_plan(
            "SELECT a FROM t WHERE b NOT IN (SELECT b FROM u)")
        assert "Filter b NOT IN ($0)" in plan
        assert "Join" not in plan

    def test_correlated_exists_plans_semi_join(self, db):
        plan = db.explain_plan(
            "SELECT a FROM t WHERE EXISTS "
            "(SELECT 1 FROM u WHERE u.b = t.b AND u.w > 5)")
        assert "SemiJoin EXISTS on [t.b]" in plan
        # The correlation key is projected out of the inner plan.
        assert "Project u.b" in plan

    def test_not_exists_plans_anti_join(self, db):
        plan = db.explain_plan(
            "SELECT a FROM t WHERE NOT EXISTS "
            "(SELECT 1 FROM u WHERE u.b = t.b)")
        assert "AntiJoin NOT EXISTS on [t.b]" in plan

    def test_correlated_in_plans_semi_join_with_both_keys(self, db):
        plan = db.explain_plan(
            "SELECT a FROM t WHERE c IN (SELECT w FROM u WHERE u.b = t.b)")
        assert "SemiJoin IN on [c, t.b]" in plan

    def test_subquery_under_or_plans_init_plan_value(self, db):
        plan = db.explain_plan(
            "SELECT a FROM t WHERE b IN (SELECT b FROM u) OR a > 3")
        assert "Filter (b IN ($0) OR (a > 3))" in plan
        assert "MarkJoin" not in plan

    def test_correlated_subquery_under_or_plans_mark_join(self, db):
        plan = db.explain_plan(
            "SELECT a FROM t WHERE b IN (SELECT b FROM u WHERE u.w = t.c) "
            "OR a > 3")
        assert "MarkJoin __mark_0 = IN on [b, t.c]" in plan
        assert "Filter(residual) (__mark_0 OR (a > 3))" in plan

    def test_scalar_subquery_plans_init_plan_value(self, db):
        plan = db.explain_plan(
            "SELECT a FROM t WHERE c > (SELECT SUM(w) FROM u)")
        assert "InitPlan $0 = SCALAR" in plan
        assert "Filter (c > $0)" in plan

    def test_correlated_window_subquery_refused(self, db):
        # Hoisting the correlation equality out of the WHERE would change a
        # window function's input (it must run per correlation group), so
        # this shape is not unnested, and nothing else can run it.
        with pytest.raises(UnsupportedFeatureError, match="window"):
            db.explain_plan(
                "SELECT a FROM t WHERE a IN "
                "(SELECT ROW_NUMBER() OVER (ORDER BY w) FROM u "
                "WHERE u.b = t.b)")

    def test_non_equality_correlation_refused(self, db):
        with pytest.raises(UnsupportedFeatureError, match="equalities"):
            db.explain_plan(
                "SELECT a FROM t WHERE EXISTS "
                "(SELECT 1 FROM big WHERE big.k > t.a)")

    def test_select_list_subqueries_plan_init_plan_and_mark_join(self, db):
        plan = db.explain_plan(
            "SELECT a, (SELECT SUM(w) FROM u) AS s, EXISTS "
            "(SELECT 1 FROM u WHERE u.b = t.b) AS e FROM t")
        lines = [ln.strip().split()[0] for ln in plan.splitlines()]
        assert lines[:3] == ["InitPlan", "Project", "MarkJoin"]
        assert "InitPlan $0 = SCALAR" in plan
        assert "Project a, $0, __mark_1" in plan

    def test_semi_join_inner_plan_rendered_as_child(self, db):
        plan = db.explain_plan(
            "SELECT a FROM t WHERE EXISTS "
            "(SELECT 1 FROM big WHERE big.k = t.a AND v > 50.0)")
        lines = plan.splitlines()
        semi_depth = next(ln for ln in lines if "SemiJoin" in ln)
        inner_scan = next(ln for ln in lines if "Scan big" in ln)
        # inner plan is indented strictly deeper than the SemiJoin node
        assert (len(inner_scan) - len(inner_scan.lstrip())) > \
            (len(semi_depth) - len(semi_depth.lstrip()))


class TestPlanCache:
    def test_second_execution_hits_cache(self, db):
        sql = "SELECT b, SUM(c) AS s FROM t GROUP BY b"
        db.execute(sql)
        assert db.plan_cache_stats["hits"] == 0
        db.execute(sql)
        assert db.plan_cache_stats["hits"] == 1
        db.execute(sql)
        assert db.plan_cache_stats["hits"] == 2

    def test_cache_hit_visible_in_trace(self, db):
        sql = "SELECT a FROM t WHERE a > 2"
        db.execute(sql)
        trace = db.explain(sql)
        assert "plan cache hit" in trace

    def test_ddl_invalidates_cache(self, db):
        sql = "SELECT a FROM t"
        db.execute(sql)
        db.register("t2", {"x": [1]})  # bump catalog version
        db.execute(sql)
        # the stale entry was rebuilt, not reused
        assert db.plan_cache_stats["hits"] == 0

    def test_cached_plan_produces_same_rows(self, db):
        sql = "SELECT t.a, u.w FROM t, u WHERE t.b = u.b ORDER BY t.a"
        first = db.execute(sql).to_dict()
        second = db.execute(sql).to_dict()
        assert first == second
        assert db.plan_cache_stats["hits"] >= 1

    def test_distinct_configs_get_distinct_entries(self, db):
        sql = "SELECT t.a FROM t, u WHERE t.b = u.b"
        db.execute(sql, config=EngineConfig(join_reorder=True))
        db.execute(sql, config=EngineConfig(join_reorder=False))
        assert db.plan_cache_stats["hits"] == 0
        assert db.plan_cache_stats["entries"] == 2

    def test_cached_subquery_plan_reused(self, db):
        sql = "SELECT a FROM t WHERE b IN (SELECT b FROM u WHERE w > 5)"
        first = db.execute(sql).to_dict()
        second = db.execute(sql).to_dict()
        assert first == second
        assert db.plan_cache_stats["hits"] >= 1

    def test_results_unchanged_after_data_replacement(self, db):
        sql = "SELECT SUM(a) AS s FROM t"
        assert db.execute(sql).to_dict() == {"s": [10]}
        db.register("t", {"a": [5, 5], "b": ["p", "q"], "c": [0.0, 0.0]})
        assert db.execute(sql).to_dict() == {"s": [10]}


class TestVerifierGoldens:
    """The static plan verifier rides along with every golden: it must
    neither change the rendered plan shape nor reject any planner output."""

    GOLDEN_QUERIES = [
        "SELECT a FROM t WHERE a > 2 AND b = 'x'",
        "SELECT t.a FROM t, u WHERE t.b = u.b",
        "SELECT b, COUNT(*) AS n FROM t GROUP BY b HAVING COUNT(*) > 1",
        "SELECT a FROM t WHERE b IN (SELECT b FROM u WHERE w > 5)",
        "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.b = t.b)",
        "SELECT a, (SELECT MAX(w) FROM u) AS m FROM t",
        "SELECT a FROM t ORDER BY c DESC LIMIT 2",
        "SELECT a FROM t UNION SELECT w FROM u",
        "WITH f AS (SELECT a, b FROM t WHERE a > 1) "
        "SELECT b, SUM(a) AS s FROM f GROUP BY b",
    ]

    @pytest.mark.parametrize("sql", GOLDEN_QUERIES)
    def test_goldens_verify_and_shape_is_unchanged(self, db, sql):
        on = db.explain_plan(sql, config=EngineConfig(verify_plans=True))
        off = db.explain_plan(sql, config=EngineConfig(verify_plans=False))
        assert on == off

    def test_verifier_rejection_names_invariant_and_path(self, db):
        # The error payload is part of the golden contract: rule id plus a
        # root-to-node path, so a failing fuzz artifact is actionable.
        from repro.errors import PlanInvariantError
        from repro.sqlengine import plan as p

        plan = p.PhysicalPlan(
            p.Limit(p.Scan("t", "t", ["a"]), n=-1), ["a"])
        from repro.analysis import verify_plan
        with pytest.raises(PlanInvariantError) as exc_info:
            verify_plan(plan, db.catalog, EngineConfig())
        err = exc_info.value
        assert err.invariant == "limit.n"
        assert err.path == "Limit"
        assert "[limit.n]" in str(err) and "at Limit" in str(err)
