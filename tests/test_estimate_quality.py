"""Cardinality-estimate quality: regression tests for the estimator bug
sweep, and a TPC-H runtime suite holding the adaptive contract — a source
estimate may only be badly wrong if the estimate-feedback loop noticed.

The closed-form ``_selectivity`` combinators are unit-tested directly
(base-table predicates are otherwise sampled, which would mask the
heuristics); join and propagation fixes are asserted through EXPLAIN
goldens; and every TPC-H query runs with :class:`RuntimeStats` attached so
observed cardinalities can be compared against what the planner predicted.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import connect
from repro.sqlengine import EngineConfig, RuntimeStats, parse_expression
from repro.sqlengine.planner import (
    RelSchema, _est_or_default, _selectivity, greedy_join_order,
)
from repro.sqlengine.sqlast import ColumnRef
from repro.workloads.tpch import QUERIES, register_tpch

SCHEMA = RelSchema(["id", "a", "b"], 1000.0, unique={"id"})


def sel(expr_sql: str) -> float:
    return _selectivity(parse_expression(expr_sql), SCHEMA)


class TestSelectivityCombinators:
    """Unit regressions for the estimator bug sweep (closed-form path)."""

    def test_unique_equality_is_one_row(self):
        assert sel("id = 5") == pytest.approx(1.0 / 1000.0)

    def test_in_list_on_unique_key_counts_items(self):
        # Regression: the generic 5%-per-item guess put `id IN (1,2,3)` at
        # 0.15 — 50x too many rows on a 1000-row unique column.
        assert sel("id IN (1, 2, 3)") == pytest.approx(3.0 / 1000.0)

    def test_not_in_on_unique_key_complements(self):
        assert sel("id NOT IN (1, 2, 3)") == pytest.approx(1.0 - 3.0 / 1000.0)

    def test_in_list_on_non_unique_column_unchanged(self):
        assert sel("a IN (1, 2, 3)") == pytest.approx(0.15)

    def test_not_complements_instead_of_half(self):
        # Regression: NOT fell through to the unrelated-predicate default
        # of 0.5; the complement of a 30% range predicate keeps 70%.
        assert sel("NOT (a < 5)") == pytest.approx(0.7)

    def test_not_over_nested_and(self):
        assert sel("NOT (a < 5 AND b < 5)") == pytest.approx(1.0 - 0.09)

    def test_or_uses_inclusion_exclusion(self):
        # Regression: the plain sum double-counted the overlap (0.6 for two
        # 30% predicates instead of 0.51).
        assert sel("a < 5 OR b < 5") == pytest.approx(0.51)

    def test_or_of_unique_equalities_stays_tiny(self):
        assert sel("id = 1 OR id = 2") == pytest.approx(
            0.002 - 1e-6, abs=1e-9)

    def test_inequality_on_unique_key_excludes_one_row(self):
        assert sel("id <> 5") == pytest.approx(1.0 - 1.0 / 1000.0)


class TestEstimatePropagation:
    """``est_rows=None`` / zero-estimate propagation and join estimates."""

    @pytest.fixture()
    def db(self):
        n = 1000
        db = connect()
        db.register("t", {"id": np.arange(n, dtype=np.int64),
                          "a": np.arange(n, dtype=np.int64) % 97},
                    primary_key="id")
        db.register("dim", {"id": np.arange(10_000, dtype=np.int64),
                            "w": np.arange(10_000) * 1.0},
                    primary_key="id")
        return db

    def test_est_or_default_keeps_exact_zero(self):
        # Regression: a falsy `or` fallback replaced an exact 0.0 estimate
        # (LIMIT 0 bodies, fully pruned scans) with the 1000-row default.
        assert _est_or_default(0.0) == 0.0
        assert _est_or_default(None) == 1000.0
        assert _est_or_default(42.0) == 42.0

    def test_limit_zero_cte_propagates_zero_estimate(self, db):
        plan = db.explain_plan(
            "WITH s AS (SELECT id FROM t LIMIT 0) SELECT id FROM s")
        assert "Scan s cols=[id]  [est=0 rows]" in plan

    def test_pk_lookup_join_not_inflated_to_dim_size(self, db):
        # Regression: joining a 1000-row fact against a 10k-row dimension
        # on the dimension's primary key estimated max(1000, 10000) rows;
        # each fact row matches at most one dimension row.
        plan = db.explain_plan(
            "SELECT t.id FROM t, dim WHERE t.id = dim.id",
            config=EngineConfig(join_reorder=True))
        join_lines = [ln for ln in plan.splitlines() if "HashJoin" in ln]
        assert join_lines and "est=1000 rows" in join_lines[0]

    def test_greedy_order_breaks_ties_on_lowest_index(self):
        edges = [(0, 1, ColumnRef("x", "a"), ColumnRef("x", "b")),
                 (1, 2, ColumnRef("y", "b"), ColumnRef("y", "c"))]
        order = greedy_join_order([5.0, 5.0, 5.0], edges, True)
        assert [i for i, _ in order] == [0, 1, 2]

    def test_greedy_order_is_pure_in_its_inputs(self):
        edges = [(0, 1, ColumnRef("x", "a"), ColumnRef("x", "b"))]
        first = greedy_join_order([9.0, 2.0], edges, True)
        assert [i for i, _ in first] == [1, 0]
        assert first == greedy_join_order([9.0, 2.0], edges, True)

    def test_cartesian_step_has_no_pairs(self):
        order = greedy_join_order([3.0, 4.0], [], True)
        assert order == [(0, []), (1, [])]


def _adaptive_joins(root):
    out = []
    stack = [root]
    while stack:
        op = stack.pop()
        if type(op).__name__ == "AdaptiveJoin":
            out.append(op)
        stack.extend(op.children())
    return out


class TestTpchEstimateQuality:
    """The adaptive contract on TPC-H: a join-source estimate may exceed
    the divergence bound only if the feedback loop recorded the divergence
    (a re-plan, or an explicit order-unchanged event)."""

    RATIO = 8.0

    @pytest.fixture(scope="class")
    def db(self, tpch_dataset):
        # Its own Database, not the session-wide one: whether a body is
        # planned during this execution or comes from the plan cache must
        # not depend on which tests ran before.
        db = connect()
        register_tpch(db, tpch_dataset)
        return db

    @pytest.mark.parametrize("q", sorted(QUERIES))
    def test_source_divergence_implies_adaptive_event(self, db, q):
        sql = QUERIES[q].sql("duckdb", level="O4", db=db)
        cfg = EngineConfig(threads=1, adaptive_execution=True,
                           adaptive_ratio=self.RATIO)
        stats = RuntimeStats()
        db.execute_chunk(sql, cfg, stats=stats)
        worst = 1.0
        for plan in stats.plans:
            for aj in _adaptive_joins(plan.root):
                for s in aj.sources:
                    rec = stats.ops.get(id(s.op))
                    if rec is None or rec.invocations == 0:
                        continue
                    est = max(float(s.est), 1.0)
                    act = max(float(rec.actual_rows), 1.0)
                    worst = max(worst, est / act, act / est)
        if worst > self.RATIO:
            assert any("re-plan" in e or "divergence" in e
                       for e in stats.events), (
                f"Q{q}: source estimate off by {worst:.1f}x but the "
                f"feedback loop recorded no adaptive event")
