"""Data-science workload correctness + backend profile behaviour."""

import numpy as np
import pytest

import repro.dataframe as rpd
from repro import connect
from repro.backends import DuckDBSim, HyperSim, LingoDBSim, available_backends, get_backend
from repro.errors import BackendError, UnsupportedFeatureError
from repro.workloads import WORKLOADS
from repro.workloads.covariance import (
    covariance_dense, covariance_sparse, dense_table, make_matrix,
    numpy_covariance, sparse_table,
)

from tests.helpers import rows


def run_workload(name, scale=0.01, backend="hyper", level="O4", threads=1):
    w = WORKLOADS[name]
    data = w.make_data(scale=scale)
    db = connect()
    w.register(db, data)
    frames = [rpd.DataFrame(data[t]) for t in w.tables]
    py = w.fn(*frames)
    res = w.fn.run(db, backend, level=level, threads=threads)
    return py, res


def assert_equal(py, res):
    if isinstance(py, np.ndarray):
        d = res.to_dict()
        if "ID" in d:
            order = np.argsort(d["ID"])
            got = np.column_stack([np.asarray(d[k])[order] for k in d if k != "ID"])
        else:
            got = np.column_stack([np.asarray(v) for v in d.values()])
        ref = py.reshape(-1, 1) if py.ndim == 1 else py
        assert got == pytest.approx(ref)
    elif hasattr(py, "columns"):
        assert rows(py.reset_index(drop=True)) == rows(res)
    else:
        got = list(res.to_dict().values())[0][0]
        assert float(got) == pytest.approx(float(py), rel=1e-9)


ALL_DS = ["crime_index", "birth_analysis", "hybrid_covar_nf", "hybrid_covar_f",
          "hybrid_mv_nf", "hybrid_mv_f", "n3", "n9"]


@pytest.mark.parametrize("name", ALL_DS)
def test_workload_matches_python_hyper(name):
    py, res = run_workload(name)
    assert_equal(py, res)


@pytest.mark.parametrize("name", ["crime_index", "hybrid_covar_f", "n3"])
def test_workload_matches_python_duckdb(name):
    py, res = run_workload(name, backend="duckdb")
    assert_equal(py, res)


@pytest.mark.parametrize("name", ["birth_analysis", "hybrid_mv_f"])
@pytest.mark.parametrize("level", ["O0", "O2", "O4"])
def test_workload_levels(name, level):
    py, res = run_workload(name, level=level)
    assert_equal(py, res)


@pytest.mark.parametrize("name", ["n9", "hybrid_covar_nf"])
def test_workload_threads(name):
    py, res = run_workload(name, threads=4)
    assert_equal(py, res)


class TestCovarianceMicrobench:
    def test_dense_path(self):
        m = make_matrix(100, 5, 1.0)
        db = connect()
        db.register("matrix", dense_table(m), primary_key="ID")
        res = covariance_dense.run(db, "hyper")
        d = res.to_dict()
        order = np.argsort(d["ID"])
        got = np.column_stack([np.asarray(d[k])[order] for k in d if k != "ID"])
        assert got == pytest.approx(numpy_covariance(m))

    def test_sparse_path(self):
        m = make_matrix(80, 4, 0.2)
        db = connect()
        db.register("matrix_coo", sparse_table(m))
        res = covariance_sparse.run(db, "duckdb")
        ref = numpy_covariance(m)
        d = res.to_dict()
        got = np.zeros_like(ref)
        for r, c, v in zip(d["d_j"], d["d_k"], d["val"]):
            got[int(r), int(c)] = v
        nz = got != 0
        assert got[nz] == pytest.approx(ref[nz])

    def test_sparse_table_roundtrip(self):
        m = make_matrix(10, 3, 0.5)
        coo = sparse_table(m)
        rebuilt = np.zeros_like(m)
        rebuilt[coo["row"], coo["col"]] = coo["val"]
        assert rebuilt == pytest.approx(m)

    def test_density_controls_nnz(self):
        dense = sparse_table(make_matrix(100, 10, 1.0))
        sparse = sparse_table(make_matrix(100, 10, 0.01))
        assert len(dense["val"]) > 10 * len(sparse["val"])


class TestBackendProfiles:
    def test_registry(self):
        assert set(available_backends()) >= {"duckdb", "hyper", "lingodb"}
        # The real backends are registered unconditionally alongside the
        # simulated profiles.
        assert set(available_backends()) >= {"native", "sqlite"}
        assert get_backend("duckdb") is DuckDBSim

    def test_unknown_backend(self):
        with pytest.raises(BackendError, match="available:"):
            get_backend("oracle")

    def test_duckdb_keeps_syntactic_join_order(self):
        assert not DuckDBSim.engine_config.join_reorder
        assert HyperSim.engine_config.join_reorder

    def test_lingodb_lacks_window_functions(self):
        assert not LingoDBSim.engine_config.supports_window
        db = connect()
        db.register("t", {"a": [1, 2]})
        with pytest.raises(UnsupportedFeatureError):
            db.execute("SELECT ROW_NUMBER() OVER () AS r FROM t",
                       config=LingoDBSim.config())

    def test_lingodb_rejects_q12(self):
        assert "tpch_q12" in LingoDBSim.rejects

    def test_config_threads(self):
        cfg = HyperSim.config(threads=3)
        assert cfg.threads == 3
        assert HyperSim.engine_config.threads == 1  # frozen original

    def test_dialects_differ(self):
        assert DuckDBSim.dialect.strftime_function != HyperSim.dialect.strftime_function
