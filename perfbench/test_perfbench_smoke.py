"""Tier-1 smoke test of the benchmark itself: all four workloads at smoke
sizes (SF 0.005, one pass per phase, 42 ``serve`` ops, P=2), untraced and
traced.  It checks shape, not speed: every named metric is there, finite and
carries its unit; the trace parses and every span's parent exists; nothing is
written outside ``tmp_path``."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _git_status() -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout if proc.returncode == 0 else None


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    before = _git_status()
    out = tmp / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--seed", "7",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return {"tmp": tmp, "result": json.loads(out.read_text()), "stdout": proc.stdout,
            "git_before": before, "git_after": _git_status()}


def _check_metrics(metrics: dict, expected) -> None:
    assert set(metrics) == {name for name, *_ in expected}
    for name, unit, *_ in expected:
        entry = metrics[name]
        assert entry["unit"] == unit, name
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), name
        assert entry["n"] >= 1, name


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_every_metric_is_reported(smoke, workload):
    runs = smoke["result"]["workloads"][workload]
    _check_metrics(runs["untraced"]["metrics"], spec.END_TO_END)
    _check_metrics(runs["traced"]["metrics"], spec.PER_LAYER)
    for run in runs.values():
        assert run["attempted"] >= 1 and run["failed"] == 0, run["failures"]
        assert run["P"] == 2 and run["smoke"] and run["sizes"]
    for name, *_ in spec.END_TO_END:
        assert runs["untraced"]["metrics"][name]["value"] > 0, name
    assert f"== {workload} " in smoke["stdout"]


def test_layers_show_where_the_design_says(smoke):
    traced = {w: smoke["result"]["workloads"][w]["traced"]["metrics"]
              for w in spec.WORKLOADS}
    assert traced["compile"]["trace.frontend_share"]["value"] > \
        traced["tpch"]["trace.frontend_share"]["value"]
    for name in ("server.wire.self_ms", "server.scheduler.ticket_ms"):
        assert traced["serve"][name]["value"] > 0
        assert all(traced[w][name]["value"] == 0 for w in ("tpch", "hybrid", "compile"))


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_trace_parses_and_parents_exist(smoke, workload):
    trace = json.loads((smoke["tmp"] / f"trace-{workload}.json").read_text())
    spans = trace["spans"]
    assert spans and trace["meta"]["workload"] == workload
    ids = {s["id"] for s in spans}
    assert len(ids) == len(spans)
    for s in spans:
        assert s["parent"] is None or s["parent"] in ids
        assert s["end"] >= s["start"] and s["name"] and s["layer"]


def test_nothing_written_outside_tmp_path(smoke):
    if smoke["git_before"] is None:
        pytest.skip("not a git checkout")
    assert smoke["git_after"] == smoke["git_before"]


def test_benchmark_json_agrees_with_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [(n, u, b) for n, u, b, _ in spec.PER_LAYER]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + \
        [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in bench["end_to_end"] + bench["per_layer"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"])
    assert max(m["bound"] for m in bench["end_to_end"]) <= 0.25
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
