"""Tests for the @pytond decorator surface and the benchmark harness."""

import numpy as np
import pytest

import repro.dataframe as rpd
from repro import TableInfo, connect, pytond
from repro.bench import (
    Measurement, TpchBench, WorkloadBench, capability_matrix, format_series,
    geomean, scalability_table, speedup_summary, time_callable,
)
from repro.errors import TranslationError


@pytond()
def _module_level_query(items):
    big = items[items.v > 1]
    return big.groupby('k').agg(total=('v', 'sum')).reset_index().sort_values('k')


@pytest.fixture()
def db():
    db = connect()
    db.register("items", {"k": ["a", "b", "a"], "v": [1, 2, 3]})
    return db


class TestDecorator:
    def test_callable_runs_python(self, db):
        frame = rpd.DataFrame({"k": ["a", "b", "a"], "v": [1, 2, 3]})
        out = _module_level_query(frame)
        assert out["total"].tolist() == [3, 2]

    def test_python_attribute(self):
        assert callable(_module_level_query.python)

    def test_name_preserved(self):
        assert _module_level_query.__name__ == "_module_level_query"

    def test_sql_and_run(self, db):
        sql = _module_level_query.sql("hyper", db=db)
        assert "GROUP BY" in sql
        out = _module_level_query.run(db, "hyper")
        assert out["total"].tolist() == [3, 2]

    def test_tondir_caching(self, db):
        p1 = _module_level_query.tondir("O4", db=db)
        p2 = _module_level_query.tondir("O4", db=db)
        assert p1 is p2

    def test_run_without_db_raises(self):
        @pytond()
        def f(items):
            return items
        with pytest.raises(TranslationError):
            f.run(None)

    def test_explicit_table_info(self):
        info = TableInfo("items", ["k", "v"], {"k": "str", "v": "int"}, set())

        @pytond(table_info={"items": info})
        def f(items):
            return items[items.v > 1]
        sql = f.sql("hyper")
        assert "WHERE" in sql

    def test_tables_mapping(self, db):
        @pytond(tables={"stuff": "items"})
        def f(stuff):
            return stuff[stuff.v > 2]
        out = f.run(db, "hyper")
        assert out["v"].tolist() == [3]

    def test_bad_level(self, db):
        with pytest.raises(TranslationError):
            _module_level_query.tondir("O7", db=db)

    def test_translation_does_not_pin_the_database(self):
        """The Translator is cyclic garbage after it returns; its pivot
        probe must not keep the Database (tables, cached column encodings)
        alive until the next full collection."""
        import gc
        import weakref

        @pytond()
        def f(items):
            return items[items.v > 1]

        db = connect()
        db.register("items", {"k": ["a", "b", "a"], "v": [1, 2, 3]})
        gc.collect()
        gc.disable()
        try:
            assert f.run(db, "hyper")["v"].tolist() == [2, 3]
            ref = weakref.ref(db)
            del db
            assert ref() is None
        finally:
            gc.enable()


class TestHarness:
    def test_time_callable_positive(self):
        assert time_callable(lambda: sum(range(100)), warmups=1, repeats=2) >= 0.0

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) != geomean([])  # NaN

    def test_tpch_bench_runs(self):
        bench = TpchBench(scale_factor=0.002)
        ms = bench.run(queries=[6], systems=["python", "pytond"],
                       backends=["hyper"], repeats=1)
        labels = {m.label for m in ms}
        assert labels == {"Python", "Pytond/hyper"}
        assert all(m.ms > 0 for m in ms if not m.excluded)

    def test_grizzly_lingodb_excluded(self):
        bench = TpchBench(scale_factor=0.002)
        ms = bench.run(queries=[6], systems=["grizzly"], backends=["lingodb"], repeats=1)
        assert ms[0].excluded

    def test_lingodb_rejects_q12(self):
        bench = TpchBench(scale_factor=0.002)
        ms = bench.run(queries=[12], systems=["pytond"], backends=["lingodb"], repeats=1)
        assert ms[0].excluded

    def test_scalability_python_flat(self):
        bench = TpchBench(scale_factor=0.002)
        ms = bench.scalability([6], [("python", None)], thread_counts=(1, 2), repeats=1)
        assert ms[0].ms == ms[1].ms  # no parallelism in the Python baseline

    def test_optimization_breakdown_levels(self):
        bench = TpchBench(scale_factor=0.002)
        out = bench.optimization_breakdown(6, backends=("hyper",), repeats=1)
        assert list(out["hyper"].keys()) == ["O0", "O1", "O2", "O3", "O4"]

    def test_workload_bench(self):
        bench = WorkloadBench(scale=0.002)
        ms = bench.run(["crime_index"], systems=["python", "pytond"],
                       backends=["hyper"], repeats=1)
        assert len(ms) == 2


class TestReport:
    def _measurements(self):
        return [
            Measurement("w1", "python", None, 1, 10.0),
            Measurement("w1", "pytond", "hyper", 1, 2.0),
            Measurement("w2", "python", None, 1, 8.0),
            Measurement("w2", "pytond", "hyper", 1, 4.0),
            Measurement("w2", "grizzly", "lingodb", 1, float("nan"), excluded=True),
        ]

    def test_format_series(self):
        text = format_series("Figure X", self._measurements())
        assert "Figure X" in text
        assert "excluded" in text
        assert "10.00ms" in text

    def test_speedup_summary_geomean(self):
        text = speedup_summary(self._measurements())
        # speedups 5x and 2x -> geomean sqrt(10)
        assert f"{np.sqrt(10):.2f}x" in text

    def test_scalability_table(self):
        ms = [
            Measurement("w", "pytond", "hyper", 1, 10.0),
            Measurement("w", "pytond", "hyper", 2, 5.0),
        ]
        text = scalability_table(ms)
        assert "2, 2.00" in text

    def test_capability_matrix_mentions_all_approaches(self):
        text = capability_matrix()
        for name in ("ByePy", "Grizzly", "PyFroid", "PyTond"):
            assert name in text
