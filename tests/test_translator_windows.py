"""Translation of Pandas window-style operations (shift / rank / cumsum /
transform / rolling) into TondIR ``Win`` terms, SQL window syntax, and
end-to-end execution against the eager dataframe layer."""

from __future__ import annotations

import numpy as np
import pytest

import repro.dataframe as rpd
from repro import connect
from repro.core.decorator import pytond
from repro.core.tondir.analysis import contains_term, is_flow_breaker
from repro.core.tondir.ir import (
    AssignAtom, Head, Program, RelAtom, Rule, Var, Win,
)
from repro.core.tondir.optimize import optimize


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(21)
    n = 60
    data = {
        "k": rng.choice(np.array(["a", "b", "c"], dtype=object), n),
        "x": rng.integers(0, 50, n).astype(np.int64),
        "ts": np.arange(n, dtype=np.int64),
    }
    db = connect()
    db.register("ev", data, primary_key="ts")
    return db


def _frame(db):
    t = db.catalog.get("ev")
    return rpd.DataFrame({c: t.column(c) for c in t.columns})


class TestTranslation:
    def test_groupby_cumsum_generates_running_window(self, db):
        @pytond(db=db, tables={"ev": "ev"})
        def fn(ev):
            ev = ev.sort_values(by=['ts'])
            ev['run'] = ev.groupby('k')['x'].cumsum()
            return ev

        sql = fn.sql("duckdb", level="O4")
        assert "SUM(" in sql and "OVER (PARTITION BY" in sql
        assert "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW" in sql
        out = fn.run(db, backend="duckdb")
        expected = _frame(db).sort_values(by=["ts"]).groupby("k")["x"].cumsum()
        assert [int(v) for v in out["run"].tolist()] == \
            [int(v) for v in expected.tolist()]

    def test_groupby_rank_and_transform(self, db):
        @pytond(db=db, tables={"ev": "ev"})
        def fn(ev):
            ev['r'] = ev.groupby('k')['x'].rank()
            ev['share'] = ev.x / ev.groupby('k')['x'].transform('sum')
            return ev

        sql = fn.sql("duckdb", level="O4")
        assert "RANK() OVER (PARTITION BY" in sql
        out = fn.run(db, backend="duckdb")
        frame = _frame(db)
        expected = frame.groupby("k")["x"].rank()
        assert [int(v) for v in out["r"].tolist()] == \
            [int(v) for v in expected.tolist()]
        shares = frame["x"].values / frame.groupby("k")["x"].transform("sum").values
        assert out["share"].values == pytest.approx(shares)

    def test_series_shift_with_fill(self, db):
        @pytond(db=db, tables={"ev": "ev"})
        def fn(ev):
            ev = ev.sort_values(by=['ts'])
            ev['prev'] = ev.x.shift(1, fill_value=0)
            ev['next'] = ev.x.shift(-1, fill_value=0)
            return ev

        sql = fn.sql("duckdb", level="O4")
        assert "LAG(" in sql and "LEAD(" in sql
        out = fn.run(db, backend="duckdb")
        frame = _frame(db).sort_values(by=["ts"])
        assert [int(v) for v in out["prev"].tolist()] == \
            [int(v) for v in frame["x"].shift(1, fill_value=0).tolist()]
        assert [int(v) for v in out["next"].tolist()] == \
            [int(v) for v in frame["x"].shift(-1, fill_value=0).tolist()]

    def test_rolling_mean_matches_pandas_min_periods(self, db):
        @pytond(db=db, tables={"ev": "ev"})
        def fn(ev):
            ev = ev.sort_values(by=['ts'])
            ev['m3'] = ev.x.rolling(3).mean()
            return ev

        sql = fn.sql("duckdb", level="O4")
        assert "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW" in sql
        # Pandas yields NaN below min_periods; translated SQL guards with CASE.
        assert "CASE WHEN" in sql
        out = fn.run(db, backend="duckdb")
        expected = _frame(db).sort_values(by=["ts"])["x"].rolling(3).mean()
        for got, want in zip(out["m3"].tolist(), expected.tolist()):
            if want != want:
                assert got != got
            else:
                assert got == pytest.approx(want)

    def test_rolling_min_periods_translated(self, db):
        @pytond(db=db, tables={"ev": "ev"})
        def fn(ev):
            ev = ev.sort_values(by=['ts'])
            ev['s'] = ev.x.rolling(3, min_periods=1).sum()
            return ev

        out = fn.run(db, backend="duckdb")
        expected = _frame(db).sort_values(by=["ts"])["x"] \
            .rolling(3, min_periods=1).sum()
        assert [float(v) for v in out["s"].tolist()] == \
            [float(v) for v in expected.tolist()]

    def test_unsupported_rank_method_raises_translation_error(self, db):
        from repro.errors import TranslationError

        @pytond(db=db, tables={"ev": "ev"})
        def fn(ev):
            ev['r'] = ev.groupby('k')['x'].rank(method='average')
            return ev

        with pytest.raises(TranslationError):
            fn.sql("duckdb")

    def test_series_rank_dense(self, db):
        @pytond(db=db, tables={"ev": "ev"})
        def fn(ev):
            ev['dr'] = ev.x.rank(method='dense')
            return ev

        sql = fn.sql("duckdb", level="O4")
        assert "DENSE_RANK() OVER (ORDER BY" in sql
        out = fn.run(db, backend="duckdb")
        expected = _frame(db)["x"].rank(method="dense")
        assert [int(v) for v in out["dr"].tolist()] == \
            [int(v) for v in expected.tolist()]

    def test_groupby_shift_partitions(self, db):
        @pytond(db=db, tables={"ev": "ev"})
        def fn(ev):
            ev = ev.sort_values(by=['ts'])
            ev['pg'] = ev.groupby('k')['x'].shift(1, fill_value=-1)
            return ev

        sql = fn.sql("duckdb", level="O4")
        assert "LAG(" in sql and "PARTITION BY" in sql
        out = fn.run(db, backend="duckdb")
        frame = _frame(db).sort_values(by=["ts"])
        expected = frame.groupby("k")["x"].shift(1, fill_value=-1)
        assert [int(v) for v in out["pg"].tolist()] == \
            [int(v) for v in expected.tolist()]


class TestOptimizerWindows:
    def _program(self) -> Program:
        # r1(k, x); v1 computes a window over it; sink reads v1.
        body = [
            RelAtom("src", ["k", "x"]),
            AssignAtom("run", Win("sum", (Var("x"),), (Var("k"),),
                                  ((Var("x"), True),))),
            AssignAtom("dead", Win("count", (Var("x"),), (Var("k"),), ())),
        ]
        rule = Rule(Head("v1", ["k", "run"]), body)
        sink = Rule(Head("v2", ["k", "run"]), [RelAtom("v1", ["k", "run"])])
        return Program(rules=[rule, sink], sink="v2")

    def test_dce_sees_through_window_terms(self):
        program = optimize(self._program(), "O1", base_unique={})
        v1 = program.rule_for("v1")
        assert v1 is not None
        # The unused window assignment is dead code; the live one survives
        # with its partition/order variables intact.
        assigns = [a for a in v1.body if isinstance(a, AssignAtom)]
        assert [a.var for a in assigns] == ["run"]
        assert contains_term(v1, lambda t: isinstance(t, Win))

    def test_window_rules_are_flow_breakers(self):
        program = self._program()
        assert is_flow_breaker(program.rules[0], program)
        # O4 inlining must keep the window rule as its own CTE.
        optimized = optimize(program, "O4", base_unique={})
        assert optimized.rule_for("v1") is not None

    def test_column_pruning_keeps_window_inputs(self):
        program = optimize(self._program(), "O4", base_unique={})
        v1 = program.rule_for("v1")
        src = next(a for a in v1.body if isinstance(a, RelAtom) and a.rel == "src")
        # x feeds the window argument and order; k feeds the partition.
        assert set(src.vars) >= {"k", "x"}
