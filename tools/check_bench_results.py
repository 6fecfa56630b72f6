#!/usr/bin/env python
"""Validate generated benchmark result JSONs against their CI gates.

Every ``benchmarks/results/*.json`` (written by the ``benchmarks/`` suite,
not tracked) is a machine-readable claim ("adaptive
re-optimization gives ≥1.5x", "the network serving tier sustains ≥N QPS
with zero errors"); this checker re-asserts each claim so a regenerated
result that quietly regressed — or a new results file nobody wrote a gate
for — fails CI instead of rotting in the tree.

Run from anywhere::

    python tools/check_bench_results.py          # check benchmarks/results/
    python tools/check_bench_results.py FILE...  # check specific files

Exit status is non-zero when any gate fails; each failure prints a
``file: problem`` line.  Plain-text results (``*.txt``) are display
artifacts and are not gated here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO / "benchmarks" / "results"

# Serving-tier floors/ceilings, calibrated for a single-core CI runner at
# the committed scale factor (local runs see ~5x the floor).
SERVING_MIN_QPS = 25.0
SERVING_MAX_P99_MS = 1500.0


def _require(data: dict, keys, problems: list[str], name: str) -> bool:
    missing = [k for k in keys if k not in data]
    if missing:
        problems.append(f"{name}: missing required keys {missing}")
        return False
    return True


def check_adaptive_execution(data: dict, problems: list[str], name: str) -> None:
    if not _require(data, ("workload", "static_ms", "adaptive_ms",
                           "speedup", "replans"), problems, name):
        return
    if data["speedup"] < 1.5:
        problems.append(
            f"{name}: adaptive speedup {data['speedup']:.3f} below the 1.5x gate"
        )
    if data["replans"] < 1:
        problems.append(
            f"{name}: {data['replans']} replans — the adaptive path never fired"
        )


def check_serving_net(data: dict, problems: list[str], name: str) -> None:
    if not _require(data, ("workload", "runs", "identical_results"),
                    problems, name):
        return
    runs = data["runs"]
    if not isinstance(runs, list) or not runs:
        problems.append(f"{name}: 'runs' must be a non-empty list")
        return
    if data["identical_results"] is not True:
        problems.append(
            f"{name}: identical_results is {data['identical_results']!r} — "
            "sharded and serial serving answers were not verified equal"
        )
    for run in runs:
        label = f"{name} (shard_workers={run.get('shard_workers', '?')})"
        if not _require(run, ("qps", "p99_ms", "queries", "errors",
                              "timeouts"), problems, label):
            continue
        if run["errors"] != 0:
            problems.append(f"{label}: {run['errors']} query errors under load")
        if run["timeouts"] != 0:
            problems.append(f"{label}: {run['timeouts']} query timeouts under load")
        if run["queries"] <= 0:
            problems.append(f"{label}: no queries completed")
        if run["qps"] < SERVING_MIN_QPS:
            problems.append(
                f"{label}: {run['qps']:.1f} QPS below the {SERVING_MIN_QPS} floor"
            )
        if run["p99_ms"] > SERVING_MAX_P99_MS:
            problems.append(
                f"{label}: p99 {run['p99_ms']:.1f} ms above the "
                f"{SERVING_MAX_P99_MS} ms ceiling"
            )


# file name -> gate function.  A result JSON without a gate is itself a
# failure: results must make checkable claims.
GATES = {
    "adaptive_execution.json": check_adaptive_execution,
    "serving_net.json": check_serving_net,
}


def check_file(path: Path, problems: list[str]) -> None:
    name = path.name
    gate = GATES.get(name)
    if gate is None:
        problems.append(
            f"{name}: no gate registered in tools/check_bench_results.py — "
            "add one (a result file must be a checkable claim)"
        )
        return
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"{name}: unreadable JSON ({exc})")
        return
    if not isinstance(data, dict):
        problems.append(f"{name}: top level must be an object")
        return
    gate(data, problems, name)


def main(argv: list[str]) -> int:
    if argv:
        paths = [Path(a) for a in argv]
    else:
        paths = sorted(RESULTS_DIR.glob("*.json"))
    problems: list[str] = []
    for path in paths:
        if not path.exists():
            problems.append(f"{path}: does not exist")
            continue
        check_file(path, problems)
    if problems:
        for p in problems:
            print(p)
        print(f"\n{len(problems)} benchmark-result problem(s)")
        return 1
    print(f"checked {len(paths)} result file(s): all gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
