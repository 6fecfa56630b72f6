"""Prepared statements: placeholder parsing, binding, plan reuse, LRU cache.

Layers covered:

* lexer/parser — ``?`` and ``:name`` placeholders anywhere an expression
  may appear (WHERE, SELECT list, IN lists, subqueries, HAVING);
* binding — missing/extra/mis-typed parameter errors raised *before*
  execution, never mid-plan;
* plan reuse — ``db.prepare(...).execute(params)`` plans once, survives
  LRU eviction, and re-plans after DDL;
* the bounded LRU plan cache — ``EngineConfig.plan_cache_size``,
  ``Database.cache_stats()`` hits/misses/evictions.
"""

import dataclasses

import numpy as np
import pytest

from repro import connect
from repro.errors import SQLBindError, SQLSyntaxError
from repro.sqlengine import EngineConfig, parse, signature_of
from repro.sqlengine.params import bind_parameters
from repro.sqlengine.sqlast import Parameter


@pytest.fixture
def db():
    d = connect()
    d.register(
        "t",
        {
            "a": np.arange(12, dtype=np.int64),
            "b": np.arange(12, dtype=np.int64) % 4,
            "x": np.arange(12, dtype=np.float64) * 1.5,
            "s": np.array([c for c in "aabbccddeeff"], dtype=object),
        },
        primary_key="a",
    )
    d.register("u", {"b": np.array([0, 1, 2]), "w": np.array([10.0, 20.0, 30.0])})
    return d


class TestPlaceholderParsing:
    def test_positional_indices_in_source_order(self):
        sig = signature_of(parse("SELECT a FROM t WHERE a > ? AND b < ?"))
        assert sig.positional == 2 and sig.names == ()

    def test_named_parameters_deduplicate(self):
        q = parse("SELECT a FROM t WHERE a > :lo AND a < :hi AND b <> :lo")
        sig = signature_of(q)
        assert sig.positional == 0 and sig.names == ("lo", "hi")

    def test_parameters_found_in_subqueries_and_ctes(self):
        q = parse(
            "WITH big AS (SELECT a FROM t WHERE x > ?) "
            "SELECT a FROM big WHERE a IN (SELECT b FROM u WHERE w > ?)"
        )
        assert signature_of(q).positional == 2

    def test_parameter_in_select_list_and_in_list(self):
        q = parse("SELECT a + ? FROM t WHERE b IN (?, ?, 3)")
        assert signature_of(q).positional == 3

    def test_mixed_styles_rejected(self, db):
        with pytest.raises(SQLBindError, match="mix"):
            db.prepare("SELECT a FROM t WHERE a = ? AND b = :x")

    def test_bare_colon_is_a_syntax_error(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT a FROM t WHERE a = :")

    def test_parameter_repr_stable(self):
        assert repr(Parameter(index=0)) == "Param(?0)"
        assert repr(Parameter(name="lo")) == "Param(:lo)"


class TestBindingErrors:
    def test_missing_positional(self, db):
        stmt = db.prepare("SELECT a FROM t WHERE a > ? AND b = ?")
        with pytest.raises(SQLBindError, match="takes 2 parameter"):
            stmt.execute([1])

    def test_extra_positional(self, db):
        stmt = db.prepare("SELECT a FROM t WHERE a > ?")
        with pytest.raises(SQLBindError, match="takes 1 parameter"):
            stmt.execute([1, 2])

    def test_none_for_parameterized(self, db):
        stmt = db.prepare("SELECT a FROM t WHERE a > ?")
        with pytest.raises(SQLBindError, match="sequence"):
            stmt.execute()

    def test_mapping_for_positional_rejected(self, db):
        stmt = db.prepare("SELECT a FROM t WHERE a > ?")
        with pytest.raises(SQLBindError, match="sequence"):
            stmt.execute({"a": 1})

    def test_sequence_for_named_rejected(self, db):
        stmt = db.prepare("SELECT a FROM t WHERE a > :lo")
        with pytest.raises(SQLBindError, match="mapping"):
            stmt.execute([1])

    def test_missing_and_unknown_names(self, db):
        stmt = db.prepare("SELECT a FROM t WHERE a > :lo AND a < :hi")
        with pytest.raises(SQLBindError, match="missing"):
            stmt.execute({"lo": 1})
        with pytest.raises(SQLBindError, match="unknown"):
            stmt.execute({"lo": 1, "hi": 5, "typo": 2})

    def test_non_scalar_values_rejected(self, db):
        stmt = db.prepare("SELECT a FROM t WHERE a > ?")
        for bad in ([1, 2], {"k": 1}, object(), np.arange(3)):
            with pytest.raises(SQLBindError, match="unsupported value type"):
                stmt.execute([bad])

    def test_params_on_parameterless_statement(self, db):
        with pytest.raises(SQLBindError, match="takes no parameters"):
            db.execute("SELECT a FROM t", params=[1])

    def test_unbound_adhoc_execution_fails_cleanly(self, db):
        with pytest.raises(SQLBindError):
            db.execute("SELECT a FROM t WHERE a > ?")


class TestExecution:
    def test_prepared_equals_literal(self, db):
        stmt = db.prepare(
            "SELECT b, SUM(x) AS s FROM t WHERE a > ? GROUP BY b ORDER BY b"
        )
        for cut in (0, 3, 7, 11):
            want = db.execute(
                f"SELECT b, SUM(x) AS s FROM t WHERE a > {cut} "
                "GROUP BY b ORDER BY b"
            ).to_dict()
            assert stmt.execute([cut]).to_dict() == want

    def test_named_parameters(self, db):
        stmt = db.prepare(
            "SELECT a FROM t WHERE a >= :lo AND a < :hi ORDER BY a"
        )
        assert stmt.execute({"lo": 2, "hi": 5}).to_dict() == {"a": [2, 3, 4]}
        assert stmt.execute({"lo": 10, "hi": 99}).to_dict() == {"a": [10, 11]}

    def test_string_and_null_values(self, db):
        stmt = db.prepare("SELECT COUNT(*) AS n FROM t WHERE s = ?")
        assert stmt.execute(["a"]).to_dict() == {"n": [2]}
        # NULL never equals anything: zero rows survive.
        assert stmt.execute([None]).to_dict() == {"n": [0]}

    def test_date_parameter(self, db):
        import datetime

        db.register("d", {"k": np.array([0, 1, 2]),
                          "day": np.array(["2024-01-01", "2024-06-01",
                                           "2024-12-31"], dtype="datetime64[D]")})
        stmt = db.prepare("SELECT k FROM d WHERE day > ? ORDER BY k")
        assert stmt.execute([datetime.date(2024, 3, 1)]).to_dict() == {"k": [1, 2]}
        assert stmt.execute([np.datetime64("2024-11-30")]).to_dict() == {"k": [2]}

    def test_parameter_in_subquery(self, db):
        stmt = db.prepare(
            "SELECT a FROM t WHERE b IN (SELECT b FROM u WHERE w >= ?) ORDER BY a"
        )
        assert stmt.execute([30.0]).to_dict()["a"] == \
            db.execute("SELECT a FROM t WHERE b IN "
                       "(SELECT b FROM u WHERE w >= 30.0) ORDER BY a").to_dict()["a"]

    def test_parameter_in_select_list_and_limit_shape(self, db):
        stmt = db.prepare("SELECT a, a * ? AS scaled FROM t ORDER BY a LIMIT 3")
        assert stmt.execute([10]).to_dict() == {"a": [0, 1, 2],
                                                "scaled": [0, 10, 20]}

    def test_plans_are_reused_across_executions(self, db):
        stmt = db.prepare("SELECT a FROM t WHERE a > ?")
        stmt.execute([5])
        plans_before = dict(stmt._entry.plans)
        assert plans_before, "first execution should compile plans"
        stmt.execute([1])
        assert {k: id(v) for k, v in stmt._entry.plans.items()} == \
            {k: id(v) for k, v in plans_before.items()}

    def test_ddl_forces_replan(self, db):
        stmt = db.prepare("SELECT a FROM t WHERE a > ?")
        assert stmt.execute([9]).to_dict() == {"a": [10, 11]}
        db.register("t", {"a": np.array([100, 200])})  # replace the table
        assert stmt.execute([99]).to_dict() == {"a": [100, 200]}

    def test_like_pattern_parameter(self, db):
        stmt = db.prepare("SELECT COUNT(*) AS n FROM t WHERE s LIKE ?")
        assert stmt.execute(["a%"]).to_dict() == {"n": [2]}
        assert stmt.execute(["%"]).to_dict() == {"n": [12]}
        # A NULL pattern makes the predicate NULL: no row qualifies.
        assert stmt.execute([None]).to_dict() == {"n": [0]}
        with pytest.raises(SQLBindError, match="LIKE pattern"):
            stmt.execute([7])

    def test_like_named_pattern_counts_in_signature(self, db):
        stmt = db.prepare("SELECT COUNT(*) AS n FROM t WHERE s LIKE :pat AND a > :lo")
        assert stmt.signature.names == ("pat", "lo")
        assert stmt.execute({"pat": "b%", "lo": 0}).to_dict() == {"n": [2]}

    def test_explain_with_params(self, db):
        trace = db.explain("SELECT a FROM t WHERE a > ?", params=[5])
        assert "pushed down" in trace

    def test_explain_plan_renders_placeholders(self, db):
        plan = db.explain_plan("SELECT a FROM t WHERE a > ? AND b = :k")
        assert "(a > ?)" in plan and "(b = :k)" in plan


class TestPlanCacheLRU:
    def test_capacity_bound_and_eviction_counter(self):
        db = connect(EngineConfig(plan_cache_size=4))
        db.register("t", {"a": np.arange(5)})
        for i in range(10):
            db.execute(f"SELECT a FROM t WHERE a > {i}")
        stats = db.cache_stats()
        assert stats["entries"] == 4
        assert stats["capacity"] == 4
        assert stats["evictions"] == 6
        assert stats["misses"] == 10

    def test_lru_keeps_hot_entry(self):
        db = connect(EngineConfig(plan_cache_size=2))
        db.register("t", {"a": np.arange(5)})
        hot = "SELECT a FROM t WHERE a > 0"
        db.execute(hot)
        for i in range(5):
            db.execute(f"SELECT a FROM t WHERE a > {i + 10}")
            db.execute(hot)  # touch: must never be the LRU victim
        assert db.cache_stats()["hits"] >= 5

    def test_hits_and_misses_counted(self, db):
        sql = "SELECT a FROM t"
        db.execute(sql)
        db.execute(sql)
        db.execute(sql)
        stats = db.cache_stats()
        assert stats["misses"] >= 1
        assert stats["hits"] == 2

    def test_clear_resets_counters(self, db):
        db.execute("SELECT a FROM t")
        db.execute("SELECT a FROM t")
        db.clear_plan_cache()
        stats = db.cache_stats()
        assert stats == {"entries": 0, "capacity": stats["capacity"],
                         "hits": 0, "misses": 0, "evictions": 0}

    def test_prepared_statement_survives_eviction(self):
        db = connect(EngineConfig(plan_cache_size=2))
        db.register("t", {"a": np.arange(5)})
        stmt = db.prepare("SELECT a FROM t WHERE a > ?")
        assert stmt.execute([2]).to_dict() == {"a": [3, 4]}
        for i in range(6):  # push the statement's entry out of the LRU
            db.execute(f"SELECT a FROM t WHERE a > {i + 10}")
        plans = stmt._entry.plans
        assert stmt.execute([3]).to_dict() == {"a": [4]}
        assert stmt._entry.plans is plans  # no re-plan happened


class TestBindParametersUnit:
    def test_empty_signature_roundtrip(self):
        sig = signature_of(parse("SELECT 1"))
        assert sig.empty
        assert bind_parameters(sig, None) is None
        assert bind_parameters(sig, []) is None

    def test_positional_normalization(self):
        sig = signature_of(parse("SELECT ? + ?"))
        assert bind_parameters(sig, (1, 2.5)) == {0: 1, 1: 2.5}

    def test_date_normalized_to_datetime64(self):
        import datetime

        sig = signature_of(parse("SELECT ?"))
        bound = bind_parameters(sig, [datetime.date(2024, 2, 29)])
        assert bound[0] == np.datetime64("2024-02-29")

    def test_datetime_rejected_with_guidance(self):
        import datetime

        sig = signature_of(parse("SELECT ?"))
        with pytest.raises(SQLBindError, match="datetime"):
            bind_parameters(sig, [datetime.datetime(2024, 1, 1, 12, 0)])


class TestCrossBackendCacheIsolation:
    """Regression: the plan cache must key on the FULL backend-profile
    fingerprint.  It used to key on a subset of planning flags
    (join_reorder/topk/decorrelate), so two backend configs agreeing on
    that subset — e.g. profiles differing only in ``supports_window`` —
    shared one cache entry, and the second backend silently executed a plan
    admitted/compiled under the first's profile.  The fingerprint is now
    derived from ``dataclasses.fields``, so no field can be left out.
    """

    SQL = "SELECT b, SUM(x) AS sx FROM t GROUP BY b"

    def test_zero_cross_backend_cache_hits(self, db):
        from repro.backends import get_backend

        db.clear_plan_cache()
        db.execute(self.SQL, config=get_backend("duckdb").config())
        db.execute(self.SQL, config=get_backend("hyper").config())
        stats = db.cache_stats()
        # Two distinct backend profiles: two compilations, no sharing.
        assert stats["misses"] == 2
        assert stats["hits"] == 0
        assert stats["entries"] == 2

    def test_same_profile_still_hits(self, db):
        from repro.backends import get_backend

        db.clear_plan_cache()
        config = get_backend("hyper").config()
        db.execute(self.SQL, config=config)
        db.execute(self.SQL, config=config)
        # threads is NOT part of the fingerprint: plans are thread-agnostic.
        db.execute(self.SQL, config=get_backend("hyper").config(threads=4))
        stats = db.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(EngineConfig)])
    def test_every_field_but_two_changes_the_fingerprint(self, name):
        base = EngineConfig()
        value = getattr(base, name)
        if isinstance(value, bool):
            changed = not value
        elif isinstance(value, (int, float)):
            changed = value + 1
        elif isinstance(value, str):
            changed = value + "-other"
        else:  # memory_budget: None = unbounded
            assert value is None
            changed = 1 << 20
        other = dataclasses.replace(base, **{name: changed})
        # threads: plans are thread-agnostic; plan_cache_size: cache policy.
        same = name in ("threads", "plan_cache_size")
        assert (other.plan_fingerprint() == base.plan_fingerprint()) == same
