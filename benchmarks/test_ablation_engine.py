"""Ablation bench for the one engine knob that separates the simulated
backends: **join re-ordering** (the HyperSim-vs-DuckDBSim planner gap) on a
join-order-sensitive TPC-H query.
"""

from dataclasses import replace

from repro.backends import HyperSim
from repro.bench import time_callable

from conftest import REPEATS, save_series


def _time_sql(tpch_bench, sql, config):
    return time_callable(lambda: tpch_bench.db.execute(sql, config=config), 1, REPEATS)


def test_ablation_join_reorder(benchmark, tpch_bench):
    # Q5-shaped plan: six relations, very join-order sensitive.
    sql = tpch_bench.sql_for(5, "pytond", "hyper")

    def run():
        base = HyperSim.config()
        with_reorder = _time_sql(tpch_bench, sql, base)
        without = _time_sql(tpch_bench, sql, replace(base, join_reorder=False))
        return with_reorder, without

    with_reorder, without = benchmark.pedantic(run, rounds=1, iterations=1)
    text = ("Ablation: cardinality-based join re-ordering (TPC-H Q5)\n"
            f"  with re-ordering:    {with_reorder:8.2f}ms\n"
            f"  syntactic order:     {without:8.2f}ms")
    save_series("ablation_join_reorder", text)
    assert with_reorder > 0 and without > 0
