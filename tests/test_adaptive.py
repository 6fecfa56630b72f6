"""Adaptive runtime re-optimization: estimate feedback, re-planning, and
EXPLAIN ANALYZE.

The contract under test: with ``EngineConfig.adaptive_execution`` on, the
engine may re-order not-yet-started joins, swap hash-join build sides,
and short-circuit subqueries on empty outer inputs — but the *results* must be bit-identical to static execution, every re-plan
must be recorded in :class:`~repro.sqlengine.RuntimeStats`, and re-planned
subtrees must still satisfy the static plan verifier's invariants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import connect
from repro.errors import PlanInvariantError
from repro.analysis import verify_plan
from repro.sqlengine import EngineConfig, RuntimeStats
from repro.sqlengine import plan as p
from repro.workloads.tpch import QUERIES

STATIC = EngineConfig(threads=1)
ADAPTIVE = EngineConfig(threads=1, adaptive_execution=True, adaptive_ratio=2.0)


def normalized(chunk):
    """Order-insensitive row multiset (stringified for NaN/None stability)."""
    if not chunk.ncols:
        return []
    rows = zip(*[a.tolist() for a in chunk.arrays])
    return sorted(tuple(str(v) for v in r) for r in rows)


@pytest.fixture()
def skew_db():
    """A 3-way join whose parameterized filters defeat the sampling probe:
    ``a``'s filter keeps ~95% of rows against a 10% estimate and ``b``'s
    keeps ~0.1% against the same heuristic, so the static join order is
    wrong and adaptive execution must re-plan."""
    rng = np.random.default_rng(17)
    nf, na, nb = 20_000, 500, 5_000
    db = connect()
    db.register("f", {
        "a_k": rng.integers(0, na, nf),
        "b_k": rng.integers(0, nb, nf),
        "v": np.round(rng.uniform(0.0, 10.0, nf), 2),
    })
    a_val = np.ones(na, dtype=np.int64)
    a_val[rng.random(na) < 0.05] = 0
    db.register("a", {"a_k": np.arange(na, dtype=np.int64), "a_val": a_val},
                primary_key="a_k")
    db.register("b", {"b_k": np.arange(nb, dtype=np.int64),
                      "b_val": rng.integers(0, 500, nb)},
                primary_key="b_k")
    return db


SKEW_SQL = ("SELECT f.a_k, f.b_k, f.v FROM f, a, b "
            "WHERE f.a_k = a.a_k AND f.b_k = b.b_k "
            "AND a.a_val = ? AND b.b_val = ?")
SKEW_PARAMS = (1, 7)


class TestTpchIdentity:
    """Adaptive execution must be invisible in the output of every TPC-H
    query, at the aggressive ratio where re-plans actually fire."""

    @pytest.mark.parametrize("q", sorted(QUERIES))
    def test_adaptive_matches_static(self, tpch_db, q):
        sql = QUERIES[q].sql("duckdb", level="O4", db=tpch_db)
        for threads in (1, 4):
            static_cfg = EngineConfig(threads=threads)
            adaptive_cfg = EngineConfig(threads=threads,
                                        adaptive_execution=True,
                                        adaptive_ratio=2.0)
            static = tpch_db.execute_chunk(sql, static_cfg)
            adaptive = tpch_db.execute_chunk(sql, adaptive_cfg)
            assert normalized(static) == normalized(adaptive), \
                f"Q{q} diverged at threads={threads}"

    def test_replans_fire_somewhere_on_tpch(self, tpch_db):
        # The identity above must not pass vacuously: at ratio 2.0 the
        # estimate feedback re-plans at least one of the 22 queries.
        total = 0
        for q in sorted(QUERIES):
            sql = QUERIES[q].sql("duckdb", level="O4", db=tpch_db)
            stats = RuntimeStats()
            tpch_db.execute_chunk(sql, ADAPTIVE, stats=stats)
            total += stats.replans
        assert total >= 1


class TestReplanning:
    def test_replan_fires_and_is_recorded(self, skew_db):
        stats = RuntimeStats()
        skew_db.execute_chunk(SKEW_SQL, ADAPTIVE, SKEW_PARAMS, stats=stats)
        assert stats.replans >= 1
        assert any("re-plan" in e and "join order" in e for e in stats.events)

    def test_replanned_results_match_static(self, skew_db):
        static = skew_db.execute_chunk(SKEW_SQL, STATIC, SKEW_PARAMS)
        adaptive = skew_db.execute_chunk(SKEW_SQL, ADAPTIVE, SKEW_PARAMS)
        assert static.columns == adaptive.columns
        assert normalized(static) == normalized(adaptive)

    def test_high_ratio_never_replans(self, skew_db):
        tolerant = EngineConfig(threads=1, adaptive_execution=True,
                                adaptive_ratio=1e9)
        stats = RuntimeStats()
        chunk = skew_db.execute_chunk(SKEW_SQL, tolerant, SKEW_PARAMS,
                                      stats=stats)
        assert stats.replans == 0
        assert normalized(chunk) == normalized(
            skew_db.execute_chunk(SKEW_SQL, STATIC, SKEW_PARAMS))

    def test_adaptive_off_plans_no_adaptive_join(self, skew_db):
        assert "AdaptiveJoin" not in skew_db.explain_plan(
            SKEW_SQL, config=STATIC)
        assert "AdaptiveJoin" in skew_db.explain_plan(
            SKEW_SQL, config=ADAPTIVE)

    def test_replanned_subtree_passes_verifier(self, skew_db):
        # verify_plans on: AdaptiveJoin re-verifies the rebuilt subtree
        # before executing it, so a successful run is the assertion.
        cfg = EngineConfig(threads=1, adaptive_execution=True,
                           adaptive_ratio=2.0, verify_plans=True)
        stats = RuntimeStats()
        chunk = skew_db.execute_chunk(SKEW_SQL, cfg, SKEW_PARAMS, stats=stats)
        assert stats.replans >= 1
        assert normalized(chunk) == normalized(
            skew_db.execute_chunk(SKEW_SQL, STATIC, SKEW_PARAMS))


class TestExplainAnalyze:
    def test_reports_est_and_actual_rows(self, skew_db):
        out = skew_db.explain_analyze(SKEW_SQL, ADAPTIVE, SKEW_PARAMS)
        assert "est=" in out
        assert "actual=" in out
        assert "ms" in out
        assert "AdaptiveJoin" in out

    def test_reports_adaptive_events(self, skew_db):
        out = skew_db.explain_analyze(SKEW_SQL, ADAPTIVE, SKEW_PARAMS)
        assert "Adaptive events:" in out
        assert "re-plan" in out

    def test_static_config_reports_timings_without_events(self, simple_db):
        out = simple_db.explain_analyze(
            "SELECT dept, SUM(sal) AS s FROM emp GROUP BY dept")
        assert "actual=" in out
        assert "Adaptive events:" not in out


class TestVerifierRules:
    def _adaptive_join(self):
        left = p.Scan("a", "a", ["a_k", "a_val"])
        right = p.Scan("b", "b", ["b_k", "b_val"])
        from repro.sqlengine.sqlast import ColumnRef
        edges = [(0, 1, ColumnRef("a_k", "a"), ColumnRef("b_k", "b"))]
        return p.AdaptiveJoin(
            sources=[p.AdaptiveSource("a", left, 4.0),
                     p.AdaptiveSource("b", right, 4.0)],
            edges=edges,
            static_order=[(0, []), (1, edges[0][2:])],
        )

    @pytest.fixture()
    def db(self):
        db = connect()
        db.register("a", {"a_k": [1, 2], "a_val": [0, 1]}, primary_key="a_k")
        db.register("b", {"b_k": [1, 2], "b_val": [5, 6]}, primary_key="b_k")
        return db

    def _expect(self, invariant, root, cols, db, config):
        with pytest.raises(PlanInvariantError) as exc_info:
            verify_plan(p.PhysicalPlan(root, cols), db.catalog, config)
        assert exc_info.value.invariant == invariant, str(exc_info.value)

    def test_accepts_well_formed_adaptive_join(self, db):
        verify_plan(
            p.PhysicalPlan(self._adaptive_join(),
                           ["a_k", "a_val", "b_k", "b_val"]),
            db.catalog, ADAPTIVE)

    def test_rejects_adaptive_join_when_config_off(self, db):
        self._expect("adaptive.preconditions", self._adaptive_join(),
                     ["a_k", "a_val", "b_k", "b_val"], db, STATIC)

    def test_rejects_single_source(self, db):
        op = self._adaptive_join()
        op.sources = op.sources[:1]
        op.edges = []
        op.static_order = [(0, [])]
        self._expect("adaptive.sources", op, ["a_k", "a_val"], db, ADAPTIVE)

    def test_rejects_non_permutation_order(self, db):
        op = self._adaptive_join()
        op.static_order = [(0, []), (0, [])]
        self._expect("adaptive.order", op,
                     ["a_k", "a_val", "a_k", "a_val"], db, ADAPTIVE)

    def test_rejects_out_of_range_edge(self, db):
        op = self._adaptive_join()
        op.edges = [(0, 5) + op.edges[0][2:]]
        self._expect("adaptive.edges", op,
                     ["a_k", "a_val", "b_k", "b_val"], db, ADAPTIVE)


class TestAdaptiveShortCircuits:
    def test_empty_outer_skips_subquery(self):
        db = connect()
        db.register("o", {"id": [1, 2, 3], "v": [1.0, 2.0, 3.0]},
                    primary_key="id")
        db.register("p", {"id": [2, 3, 4]})
        # Correlated: an uncorrelated IN is an InitPlan value, run before
        # the outer input exists.
        sql = ("SELECT id FROM o WHERE v > 100.0 AND EXISTS "
               "(SELECT 1 FROM p WHERE p.id = o.id)")
        stats = RuntimeStats()
        chunk = db.execute_chunk(sql, ADAPTIVE, stats=stats)
        assert chunk.nrows == 0
        assert any("subquery skipped" in e for e in stats.events)
        assert normalized(chunk) == normalized(db.execute_chunk(sql, STATIC))

    def test_empty_outer_anti_and_mark_match_static(self):
        db = connect()
        db.register("o", {"id": [1, 2, 3], "v": [1.0, 2.0, 3.0]},
                    primary_key="id")
        db.register("p", {"id": [2, 3, 4]})
        for sql in (
            "SELECT id FROM o WHERE v > 100.0 "
            "AND id NOT IN (SELECT id FROM p)",
            "SELECT id FROM o WHERE v > 100.0 "
            "AND (id IN (SELECT id FROM p) OR id = 1)",
            "SELECT id FROM o WHERE v > 100.0 "
            "AND NOT EXISTS (SELECT 1 FROM p WHERE p.id = o.id)",
            "SELECT id FROM o WHERE v > 100.0 "
            "AND (EXISTS (SELECT 1 FROM p WHERE p.id = o.id) OR id = 1)",
        ):
            assert normalized(db.execute_chunk(sql, ADAPTIVE)) == \
                normalized(db.execute_chunk(sql, STATIC)), sql


class TestServerIntegration:
    def test_session_surfaces_replan_counter(self, skew_db):
        from repro.server.scheduler import QueryScheduler
        from repro.server.session import Session

        with QueryScheduler(skew_db, max_concurrent=2) as sched:
            adaptive_sess = Session(sched, name="adaptive")
            static_sess = Session(sched, name="static")
            adaptive_sess.execute(SKEW_SQL, SKEW_PARAMS, config=ADAPTIVE)
            static_sess.execute(SKEW_SQL, SKEW_PARAMS, config=STATIC)
            assert adaptive_sess.stats()["replans"] >= 1
            assert static_sess.stats()["replans"] == 0


class TestFuzzIdentity:
    def test_fuzz_corpus_adaptive_matches_static(self):
        from repro.bench.sqlfuzz import build_fuzz_db, run_seeds_adaptive

        db = build_fuzz_db()
        failures = run_seeds_adaptive(db, range(80), threads=(1,),
                                      shrink_failures=False)
        assert failures == [], "\n\n".join(f.report() for f in failures)
