"""Static plan verifier tests: one hand-built malformed plan per
invariant, plus positive sweeps proving the verifier accepts every
planner-built plan (all 22 TPC-H queries, the physical-knob matrix).

The negative plans are constructed directly from :mod:`repro.sqlengine.
plan` operator dataclasses — exactly what a buggy planner rewrite would
hand the executor — and must be rejected with a
:class:`~repro.errors.PlanInvariantError` carrying the documented
invariant id.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import connect
from repro.analysis import verify_plan
from repro.errors import PlanInvariantError
from repro.sqlengine import EngineConfig
from repro.sqlengine import plan as p
from repro.sqlengine.planner import RelSchema
from repro.sqlengine.sqlast import (
    AggCall,
    BinaryOp,
    ColumnRef,
    InSubquery,
    Literal,
    OrderItem,
    Parameter,
    ScalarSubquery,
    Select,
    SelectItem,
    ValuesClause,
    WindowCall,
    WindowFrame,
)
from repro.storage import ColumnStore
from repro.workloads.tpch import QUERIES as TPCH_QUERIES


@pytest.fixture()
def db():
    db = connect()
    db.register("t", {"a": [1, 2, 3, 4], "b": ["x", "y", "x", "z"],
                      "c": [1.0, 2.0, 3.0, 4.0]}, primary_key="a")
    db.register("u", {"b": ["x", "y"], "w": [5, 6]})
    db.register("dated", {
        "k": [1, 2],
        "d": np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"),
    })
    return db


@pytest.fixture()
def stored_db(tmp_path):
    """A database whose table ``s`` is a persisted, zone-mapped store."""
    store = ColumnStore(tmp_path / "store")
    store.write_table(
        "s",
        {"id": np.arange(1000, dtype=np.int64),
         "val": np.linspace(0.0, 99.9, 1000)},
        primary_key="id", chunk_rows=128)
    db = connect()
    store.attach(db)
    return db


def scan(table="t", cols=("a", "b", "c"), binding=None, **kw):
    return p.Scan(binding or table, table, list(cols), **kw)


def subplan(cols=("w",), table="u"):
    return p.PhysicalPlan(scan(table, cols), list(cols))


def exists_mark(child=None, inner=None, **kw):
    """A correlated ``EXISTS (SELECT .. FROM u WHERE u.b = t.b)`` join."""
    return p.MarkJoin(child or scan(), subplan=inner or subplan(("b",)),
                      probe_exprs=[ColumnRef("b", "t")], source="EXISTS",
                      **kw)


def expect(invariant, root, out_cols, db=None, config=None, env=None):
    plan = p.PhysicalPlan(root, list(out_cols))
    with pytest.raises(PlanInvariantError) as exc_info:
        verify_plan(plan, db.catalog if db is not None else None,
                    config or EngineConfig(), env)
    assert exc_info.value.invariant == invariant, str(exc_info.value)
    return exc_info.value


def accept(root, out_cols, db=None, config=None, env=None):
    plan = p.PhysicalPlan(root, list(out_cols))
    verify_plan(plan, db.catalog if db is not None else None,
                config or EngineConfig(), env)


def sel(*items, **kw):
    return Select(items=[SelectItem(e, a) for e, a in items], **kw)


class TestRootAndLeaves:
    def test_output_columns_mismatch(self, db):
        expect("plan.output-columns", scan(cols=("a",)), ["a", "b"], db)

    def test_unknown_operator(self, db):
        class Bogus(p.Operator):
            pass

        expect("plan.operator", Bogus(), [], db)

    def test_unknown_table(self, db):
        expect("scan.unknown-table", scan("nope", ("a",)), ["a"], db)

    def test_keep_columns_not_in_table(self, db):
        expect("scan.keep-columns", scan(cols=("a", "zz")), ["a", "zz"], db)

    def test_negative_estimate(self, db):
        expect("est.nonnegative", scan(cols=("a",), est_rows=-5.0),
               ["a"], db)

    def test_no_catalog_is_lenient(self):
        # Without a catalog, table schemas are unknowable: declared
        # keep_columns are trusted and nothing fails.
        accept(scan("anything", ("x", "y")), ["x", "y"])

    def test_valid_scan_passes(self, db):
        accept(scan(), ["a", "b", "c"], db)


class TestZoneMaps:
    def test_pruning_with_config_off(self, db):
        expect("zonemap.config",
               scan(cols=("a",), chunk_ids=[0], n_chunks=1), ["a"], db,
               config=EngineConfig(zone_map_pruning=False))

    def test_pruning_on_memory_table(self, db):
        expect("zonemap.target",
               scan(cols=("a",), chunk_ids=[0], n_chunks=1), ["a"], db)

    def test_pruning_on_cte(self, db):
        expect("zonemap.target",
               p.Scan("cte", "cte", None, chunk_ids=[0], n_chunks=1),
               ["x"], db, env={"cte": RelSchema(["x"], 5.0)})

    def test_chunk_count_mismatch(self, stored_db):
        expect("zonemap.chunks",
               p.Scan("s", "s", ["id"], chunk_ids=[0], n_chunks=4),
               ["id"], stored_db)

    def test_chunk_id_out_of_range(self, stored_db):
        expect("zonemap.chunks",
               p.Scan("s", "s", ["id"], chunk_ids=[99], n_chunks=8),
               ["id"], stored_db)

    def test_unsound_pruning(self, stored_db):
        # id > -1 admits every chunk, so dropping chunks 1..7 is unsound.
        target = p.Scan("s", "s", ["id"], chunk_ids=[0], n_chunks=8)
        pred = BinaryOp(">", ColumnRef("id", "s"), Literal(-1))
        expect("zonemap.sound", p.Filter(target, "s", [pred]),
               ["id"], stored_db)

    def test_sound_pruning_passes(self, stored_db):
        # Keeping every chunk is always sound.
        target = p.Scan("s", "s", ["id"], chunk_ids=list(range(8)),
                        n_chunks=8)
        pred = BinaryOp(">", ColumnRef("id", "s"), Literal(-1))
        accept(p.Filter(target, "s", [pred]), ["id"], stored_db)


class TestFilters:
    def test_subquery_left_in_filter(self, db):
        pred = InSubquery(ColumnRef("a"), sel((Literal(1), None)))
        expect("expr.subquery", p.Filter(scan(), "t", [pred]),
               ["a", "b", "c"], db)

    def test_subquery_left_in_projection(self, db):
        item = ScalarSubquery(sel((ColumnRef("w"), None),
                                  relations=[]))
        expect("expr.subquery",
               p.Project(scan(), sel((ColumnRef("a"), None), (item, "v"))),
               ["a", "v"], db)

    def test_mark_out_of_scope_in_residual(self, db):
        expect("mark.scope",
               p.ResidualFilter(scan(), [ColumnRef("__mark_7")]),
               ["a", "b", "c"], db)


class TestJoins:
    def test_wrong_right_binding(self, db):
        expect("join.binding",
               p.HashJoin(scan(), scan("u", ("b", "w")), "x",
                          [(ColumnRef("b", "t"), ColumnRef("b", "u"))]),
               ["a", "b", "c", "b", "w"], db)

    def test_no_key_pairs(self, db):
        expect("join.pairs",
               p.HashJoin(scan(), scan("u", ("b", "w")), "u", []),
               ["a", "b", "c", "b", "w"], db)

    def test_unknown_join_type(self, db):
        expect("join.how",
               p.HashJoin(scan(), scan("u", ("b", "w")), "u",
                          [(ColumnRef("b", "t"), ColumnRef("b", "u"))],
                          how="sideways"),
               ["a", "b", "c", "b", "w"], db)

    def test_residual_on_outer_join(self, db):
        expect("join.residual-outer",
               p.HashJoin(scan(), scan("u", ("b", "w")), "u",
                          [(ColumnRef("b", "t"), ColumnRef("b", "u"))],
                          how="left",
                          residual=[BinaryOp(">", ColumnRef("a", "t"),
                                             ColumnRef("w", "u"))]),
               ["a", "b", "c", "b", "w"], db)

    def test_mis_sided_key(self, db):
        # The left key expression resolves only on the right side.
        expect("join.sides",
               p.HashJoin(scan(), scan("u", ("b", "w")), "u",
                          [(ColumnRef("w"), ColumnRef("a"))]),
               ["a", "b", "c", "b", "w"], db)

    def test_internal_key_dtype_mismatch(self, db):
        # A planner-generated mark column (numeric) paired against a string
        # key can only be a rewrite bug; user cross-kind equalities stay
        # legal (runtime promotes), so only internal columns are strict.
        marked = exists_mark(mark_name="__mark_0")
        expect("join.keys",
               p.HashJoin(marked, scan("u", ("b", "w")), "u",
                          [(ColumnRef("__mark_0"), ColumnRef("b", "u"))]),
               ["a", "b", "c", "__mark_0", "b", "w"], db)

    def test_user_cross_kind_key_is_legal(self, db):
        # a (numeric) = b (string) is a user equality — promoted at
        # runtime, never a plan bug.
        accept(p.HashJoin(scan(), scan("u", ("b", "w")), "u",
                          [(ColumnRef("a", "t"), ColumnRef("b", "u"))]),
               ["a", "b", "c", "b", "w"], db)

    def test_cross_join_passes(self, db):
        accept(p.CrossJoin(scan(), scan("u", ("w",)), "u"),
               ["a", "b", "c", "w"], db)


class TestSubqueryOperators:
    def test_values_row_arity(self, db):
        body = ValuesClause(rows=[[Literal(1), Literal(2)], [Literal(3)]])
        expect("subquery.values-arity",
               p.SubqueryScan("v", body, None, None), ["col0", "col1"], db)

    def test_derived_table_rename_arity(self, db):
        expect("subquery.rename-arity",
               p.SubqueryScan("v", None, ["x", "y"], None,
                              subplan=subplan(("w",))),
               ["x", "y"], db)

    def test_probe_arity_exceeds_subplan(self, db):
        expect("subquery.probe-arity",
               p.MarkJoin(scan(), subplan=subplan(("w",)),
                          probe_exprs=[ColumnRef("a"), ColumnRef("c")]),
               ["a", "b", "c"], db)

    @pytest.mark.parametrize("source,probes", [
        ("IN", [ColumnRef("c")]),  # the IN operand alone
        ("EXISTS", []),
        ("ANY", [ColumnRef("c"), ColumnRef("b")]),
    ], ids=["in-without-key", "exists-without-key", "unknown-source"])
    def test_subquery_join_must_be_correlated(self, db, source, probes):
        # An uncorrelated form is an InitPlan value: a subquery join over
        # one is a planner that skipped the rewrite.
        expect("subquery.correlated",
               p.MarkJoin(scan(), subplan=subplan(("w", "b")),
                          probe_exprs=probes, source=source, negated=True),
               ["a", "b", "c"], db)

    def test_init_plan_value_not_single_column(self, db):
        expect("subquery.scalar-arity",
               p.InitPlan(p.Project(scan(), sel((Parameter(name="$0"), "v"))),
                          [("$0", "in", subplan(("b", "w")))]),
               ["v"], db)

    def test_init_plan_value_name(self, db):
        expect("value.name",
               p.InitPlan(scan(), [("__scalar_0", "scalar", subplan())]),
               ["a", "b", "c"], db)

    def test_init_plan_passes(self, db):
        accept(p.InitPlan(p.Project(scan(), sel((Parameter(name="$0"), "v"))),
                          [("$0", "scalar", subplan())]),
               ["v"], db)

    def test_semi_join_passes(self, db):
        accept(p.MarkJoin(scan(), subplan=subplan(("w", "b")),
                          probe_exprs=[ColumnRef("a"), ColumnRef("b", "t")]),
               ["a", "b", "c"], db)


class TestMarkColumns:
    def test_bad_mark_prefix(self, db):
        # A mark column outside the __mark_ namespace would leak into
        # SELECT * output (star expansion skips only that prefix).
        expect("mark.name", exists_mark(mark_name="mymark"),
               ["a", "b", "c", "mymark"], db)

    def test_duplicate_mark_name(self, db):
        inner = exists_mark(mark_name="__mark_0")
        expect("mark.unique", exists_mark(inner, mark_name="__mark_0"),
               ["a", "b", "c", "__mark_0", "__mark_0"], db)

    def test_mark_reference_out_of_scope(self, db):
        expect("mark.scope",
               p.Project(scan(), sel((ColumnRef("__mark_3"), None))),
               ["__mark_3"], db)

    def test_subplan_mark_counter_is_scoped(self, db):
        # __mark_0 inside a subplan does not collide with the outer tree's
        # __mark_0: nested plans restart the mark namespace.
        inner_mark = p.MarkJoin(scan("u", ("b", "w")), subplan=subplan(("w",)),
                                probe_exprs=[ColumnRef("w", "u")],
                                source="EXISTS", mark_name="__mark_0")
        inner = p.PhysicalPlan(
            p.Project(inner_mark, sel((ColumnRef("b"), None))), ["b"])
        accept(exists_mark(inner=inner, mark_name="__mark_0"),
               ["a", "b", "c", "__mark_0"], db)


class TestWindows:
    def _window_plan(self, call):
        w = p.Window(scan(), [call])
        return p.Project(w, sel((ColumnRef("a"), None)))

    def test_ntile_missing_argument(self, db):
        expect("window.args", self._window_plan(WindowCall("NTILE")),
               ["a"], db)

    def test_ntile_nonpositive_buckets(self, db):
        expect("window.ntile",
               self._window_plan(WindowCall("NTILE", args=[Literal(0)])),
               ["a"], db)

    def test_lag_missing_argument(self, db):
        expect("window.args", self._window_plan(WindowCall("LAG")),
               ["a"], db)

    def test_windowed_sum_arity(self, db):
        expect("window.args", self._window_plan(WindowCall("SUM")),
               ["a"], db)

    def test_unknown_frame_unit(self, db):
        frame = WindowFrame(unit="pages")
        expect("window.frame",
               self._window_plan(WindowCall("SUM", args=[ColumnRef("a")],
                                            frame=frame)),
               ["a"], db)

    def test_negative_frame_offset(self, db):
        frame = WindowFrame(start_kind="preceding", start_offset=-2)
        expect("window.frame",
               self._window_plan(WindowCall("SUM", args=[ColumnRef("a")],
                                            frame=frame)),
               ["a"], db)

    def test_frame_start_after_end(self, db):
        frame = WindowFrame(start_kind="current", end_kind="preceding",
                            end_offset=1)
        expect("window.frame",
               self._window_plan(WindowCall("SUM", args=[ColumnRef("a")],
                                            frame=frame)),
               ["a"], db)

    def test_unsupported_range_frame(self, db):
        frame = WindowFrame(unit="range", start_kind="preceding",
                            start_offset=1)
        expect("window.frame",
               self._window_plan(WindowCall("SUM", args=[ColumnRef("a")],
                                            frame=frame)),
               ["a"], db)

    def test_window_without_computing_child(self, db):
        # The projection uses a window function no Window child computed.
        expect("window.placement",
               p.Project(scan(), sel((WindowCall("ROW_NUMBER"), "rn"))),
               ["rn"], db)

    def test_window_inside_aggregate(self, db):
        expect("window.in-aggregate",
               p.HashAggregate(scan(),
                               sel((WindowCall("ROW_NUMBER"), "rn"))),
               ["rn"], db)

    def test_computed_window_passes(self, db):
        call = WindowCall("ROW_NUMBER")
        w = p.Window(scan(), [call])
        accept(p.Project(w, sel((call, "rn"))), ["rn"], db)


class TestAggregates:
    def test_sum_over_date_column(self, db):
        expect("agg.input",
               p.HashAggregate(scan("dated", ("d",)),
                               sel((AggCall("SUM", ColumnRef("d")), "s"))),
               ["s"], db)

    def test_sum_over_string_literal(self, db):
        expect("agg.input",
               p.HashAggregate(scan(cols=("a",)),
                               sel((AggCall("AVG", Literal("oops")), "s"))),
               ["s"], db)

    def test_sum_over_string_column_is_not_static(self, db):
        # Object dtype ("string" kind) legally holds all-NULL or promoted
        # numeric data — only the planner's bind-time data probe can
        # confirm string-ness, so the static verifier must not reject it.
        accept(p.HashAggregate(scan(cols=("b",)),
                               sel((AggCall("SUM", ColumnRef("b")), "s"))),
               ["s"], db)

    def test_numeric_aggregate_passes(self, db):
        accept(p.HashAggregate(scan(cols=("a",)),
                               sel((AggCall("SUM", ColumnRef("a")), "s"))),
               ["s"], db)


class TestShapingOperators:
    def test_sort_without_keys(self, db):
        expect("sort.keys", p.Sort(scan(), []), ["a", "b", "c"], db)

    def test_topk_without_keys(self, db):
        expect("topk.preconditions", p.TopK(scan(), [], n=5),
               ["a", "b", "c"], db)

    def test_topk_negative_count(self, db):
        expect("topk.preconditions",
               p.TopK(scan(), [OrderItem(ColumnRef("a"))], n=-1),
               ["a", "b", "c"], db)

    def test_topk_with_rewrite_disabled(self, db):
        expect("topk.preconditions",
               p.TopK(scan(), [OrderItem(ColumnRef("a"))], n=5),
               ["a", "b", "c"], db,
               config=EngineConfig(topk_rewrite=False))

    def test_negative_limit(self, db):
        expect("limit.n", p.Limit(scan(), n=-1), ["a", "b", "c"], db)

    def test_valid_sort_topk_limit(self, db):
        order = [OrderItem(ColumnRef("a"))]
        accept(p.Limit(p.TopK(p.Sort(scan(), order), order, n=5), n=3),
               ["a", "b", "c"], db)


class TestSetOps:
    def test_unknown_operation(self, db):
        expect("setop.op",
               p.SetOp(scan(cols=("a",)), scan(cols=("a",)), "xor",
                       columns=["a"]),
               ["a"], db)

    def test_operand_arity_mismatch(self, db):
        expect("setop.arity",
               p.SetOp(scan(cols=("a",)), scan(cols=("a",)), "union",
                       columns=["a", "b"]),
               ["a", "b"], db)

    def test_incomparable_column_types(self, db):
        expect("setop.types",
               p.SetOp(scan(cols=("a",)), scan("u", ("b",)), "union",
                       columns=["a"]),
               ["a"], db)

    def test_declared_columns_match_neither_side(self, db):
        expect("setop.columns",
               p.SetOp(scan(cols=("a",)), scan(cols=("a",)), "union",
                       columns=["zz"]),
               ["zz"], db)

    def test_valid_union_passes(self, db):
        accept(p.SetOp(scan(cols=("a",)), scan(cols=("a",)), "union",
                       columns=["a"]),
               ["a"], db)


class TestExchange:
    """The ``shard.*`` rules, each violated by mutating a tree the planner
    really built (table ``s``: 1000 rows in 8 chunks, 2 partitions)."""

    CONFIG = EngineConfig(shard_workers=2)
    AGG = "SELECT COUNT(*) AS n, SUM(val) AS v FROM s WHERE id > 10"
    TOPK = "SELECT id, val FROM s ORDER BY val DESC, id LIMIT 5"

    def planned(self, db, sql):
        from repro.sqlengine.parser import parse
        from repro.sqlengine.planner import Planner

        plan = Planner(db.catalog, self.CONFIG).plan_body(parse(sql).body, {})
        node = plan.root
        while not isinstance(node, p.Exchange):
            node = node.children()[0]
        return plan, node

    def reject(self, invariant, plan, db, env=None):
        with pytest.raises(PlanInvariantError) as exc_info:
            verify_plan(plan, db.catalog, self.CONFIG, env)
        assert exc_info.value.invariant == invariant, str(exc_info.value)
        assert exc_info.value.path.endswith("Exchange")

    def test_planned_trees_verify(self, stored_db):
        for sql in (self.AGG, self.TOPK):
            plan, exchange = self.planned(stored_db, sql)
            assert exchange.ranges == [(0, 4), (4, 8)]
            verify_plan(plan, stored_db.catalog, self.CONFIG)

    @pytest.mark.parametrize("ranges", [
        [(0, 4), (5, 8)],   # gap: chunk 4 is dropped
        [(0, 5), (4, 8)],   # overlap: chunk 4 is counted twice
        [(0, 4), (4, 7)],   # short: chunk 7 is dropped
        [],
    ])
    def test_partition_cover(self, stored_db, ranges):
        plan, exchange = self.planned(stored_db, self.AGG)
        exchange.ranges = ranges
        self.reject("shard.partition.cover", plan, stored_db)

    def test_partition_nonempty(self, stored_db):
        plan, exchange = self.planned(stored_db, self.AGG)
        exchange.ranges = [(0, 0), (0, 8)]
        self.reject("shard.partition.nonempty", plan, stored_db)

    def test_subtree_operator_not_allowed_in_a_worker(self, stored_db):
        plan, exchange = self.planned(stored_db, self.AGG)
        partial = exchange.child
        partial.child = p.Distinct(partial.child)
        self.reject("shard.subtree", plan, stored_db)

    def test_subtree_partial_stage_missing(self, stored_db):
        plan, exchange = self.planned(stored_db, self.AGG)
        exchange.child = exchange.child.child  # Exchange straight over Filter
        self.reject("shard.subtree", plan, stored_db)

    def test_subtree_partition_table_scanned_twice(self, stored_db):
        plan, exchange = self.planned(stored_db, self.AGG)
        partial = exchange.child
        partial.child = p.CrossJoin(partial.child,
                                    p.Scan("s2", "s", ["id"]), "s2")
        self.reject("shard.subtree", plan, stored_db)

    def test_subtree_scan_of_a_cte_binding(self, stored_db):
        # The same tree, verified where "s" is a materialized CTE: workers
        # have the store's tables, not the coordinator's env.
        plan, _ = self.planned(stored_db, "SELECT SUM(val) AS v FROM s")
        self.reject("shard.subtree", plan, stored_db,
                    env={"s": RelSchema(["id", "val"], 10.0)})

    def test_subtree_scan_of_an_unstored_table(self, stored_db):
        stored_db.register("mem", {"id": [1, 2], "val": [1.0, 2.0]})
        plan, exchange = self.planned(stored_db, self.TOPK)
        scan_op = exchange.child.child.child
        assert isinstance(scan_op, p.Scan)
        scan_op.table = scan_op.binding = "mem"
        self.reject("shard.subtree", plan, stored_db)

    @pytest.mark.parametrize("mutation", [
        {"func": "STDDEV"}, {"distinct": True}])
    def test_agg_mergeable(self, stored_db, mutation):
        plan, exchange = self.planned(stored_db, self.AGG)
        call = exchange.child.select.items[-1].expr
        assert isinstance(call, AggCall)
        for field_name, value in mutation.items():
            setattr(call, field_name, value)
        self.reject("shard.agg.mergeable", plan, stored_db)

    def test_topk_bounded_row_count(self, stored_db):
        plan, exchange = self.planned(stored_db, self.TOPK)
        exchange.child.n = 2_000_000
        self.reject("shard.topk.bounded", plan, stored_db)

    def test_topk_bounded_keys_are_output_columns(self, stored_db):
        plan, exchange = self.planned(stored_db, self.TOPK)
        exchange.child.order_by = [OrderItem(ColumnRef("val", table="s"))]
        self.reject("shard.topk.bounded", plan, stored_db)


# ---------------------------------------------------------------------------
# Positive sweeps: every planner-built plan must verify clean.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q", sorted(TPCH_QUERIES))
def test_tpch_plan_verifies(q, tpch_db):
    # explain_plan runs the verifier on every compiled body (CTEs included)
    # when verify_plans is on; a PlanInvariantError here is a planner bug.
    sql = TPCH_QUERIES[q].sql("duckdb", level="O4", db=tpch_db)
    tpch_db.explain_plan(sql, config=EngineConfig(verify_plans=True))


@pytest.mark.parametrize("knobs", [
    {},
    {"topk_rewrite": False},
    {"zone_map_pruning": False},
    {"memory_budget": 64, "spill_partitions": 2},
    {"join_reorder": False},
])
def test_knob_matrix_verifies(tpch_db, knobs):
    # Physical knobs over the queries that exercise semi/anti/mark/scalar
    # rewrites, TopK, and spill planning.
    config = EngineConfig(verify_plans=True, **knobs)
    for q in (2, 4, 15, 17, 18, 21, 22):
        sql = TPCH_QUERIES[q].sql("duckdb", level="O4", db=tpch_db)
        tpch_db.explain_plan(sql, config=config)


def test_execution_path_verifies(db):
    # verify_plans also gates the execution-time planner (materialized CTE
    # env): results must be unchanged with the verifier on.
    sql = ("WITH big AS (SELECT a, b FROM t WHERE a > 1) "
           "SELECT b, COUNT(*) AS n FROM big GROUP BY b ORDER BY b")
    on = db.execute(sql, config=EngineConfig(verify_plans=True))
    off = db.execute(sql, config=EngineConfig(verify_plans=False))
    assert list(on["b"]) == list(off["b"])
    assert list(on["n"]) == list(off["n"])
