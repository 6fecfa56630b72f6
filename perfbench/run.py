#!/usr/bin/env python3
"""perfbench driver.

One workload, one run (what the CI driver calls; the result is the last line
of standard output)::

    python3 perfbench/run.py --workload tpch --seed 1 --seconds 16 --trace 0

Everything, for a person (each workload in its own fresh subprocess, every
metric printed by name with its unit, spread and sample count)::

    python3 perfbench/run.py [--seed N] [--only WORKLOAD] [--smoke] [--trace] [--out FILE]

See perfbench/README.md for what the workloads and metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

# Before NumPy is imported anywhere in this process: one BLAS/OpenMP thread,
# so the only parallelism measured is the engine's own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.spec import WORKLOADS  # noqa: E402  (needs ROOT on the path)

DEFAULT_SECONDS = 16
CHILD_TIMEOUT_S = 900


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run this one workload in this process")
    ap.add_argument("--only", choices=WORKLOADS,
                    help="all-workloads mode: restrict to this workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="time the measured phases of one run take")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, one pass per phase (the tier-1 smoke test)")
    ap.add_argument("--out", help="all-workloads mode: write the result file here; "
                                  "scratch files go beside it")
    ap.add_argument("--detail", help=argparse.SUPPRESS)  # child -> parent result file
    return ap.parse_args(argv)


# -- one workload in this process ---------------------------------------------

def make_workload(name: str, seed: int, smoke: bool, workers: int, scratch: Path):
    from perfbench import serve, workloads

    classes = {"tpch": workloads.Tpch, "hybrid": workloads.Hybrid,
               "compile": workloads.Compile, "serve": serve.Serve}
    return classes[name](seed, smoke, workers, scratch)


def host_info() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def run_workload(args) -> int:
    from repro.sqlengine.parallel import shutdown_pools

    from perfbench import measure

    scratch = Path(args.detail).resolve().parent if args.detail else HERE / "out"
    scratch.mkdir(parents=True, exist_ok=True)
    workers = 2 if args.smoke else min(4, os.cpu_count() or 1)
    seconds = 0.0 if args.smoke else args.seconds
    meta = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
            "trace": args.trace, "smoke": args.smoke, "P": workers,
            "host": host_info()}
    w = make_workload(args.workload, args.seed, args.smoke, workers, scratch)
    try:
        if args.trace:
            out = measure.traced(w, seconds, args.smoke,
                                 scratch / f"trace-{args.workload}.json", meta)
        else:
            out = measure.untraced(w, seconds, args.smoke)
        meta["sizes"] = w.sizes()
    finally:
        # Every exit path: no server, shard worker or pool thread is left.
        w.close()
        shutdown_pools()

    failures, verdict = out.pop("failures"), out.pop("verdict")
    detail = {**meta, **out, "attempted": failures.attempted,
              "failed": failures.failed, "failures": failures.report(),
              "unverified": verdict.unverified, "known_failures": verdict.known}
    if args.detail:
        Path(args.detail).write_text(json.dumps(detail, indent=1))
    print_metrics(detail)
    print(json.dumps({
        "correct": failures.failed == 0 and not verdict.unverified,
        "attempted": failures.attempted, "failed": failures.failed,
        "metrics": {name: {"value": e["value"], "unit": e["unit"]}
                    for name, e in out["metrics"].items()}}))
    return 0


def print_metrics(detail: dict) -> None:
    print(f"== {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"sizes={detail['sizes']} passes={detail['passes']}")
    for name, e in detail["metrics"].items():
        spread = f"  iqr {e['iqr']:.4g}  n={e['n']}" if e["n"] > 1 else ""
        print(f"  {name:<48} {e['value']:>14.4f} {e['unit']}{spread}")
    speed = detail["host_speed"]
    print(f"  {'host_speed':<48} {speed['value']:>14.4f} ratio  iqr {speed['iqr']:.4g}  "
          f"n={speed['n']}  (1.0 = quiet reference host)")
    share = detail["failed"] / max(detail["attempted"], 1)
    print(f"  {'failed_share':<48} {share:>14.4f} ratio  "
          f"({detail['failed']} of {detail['attempted']} ops)")
    for f in detail["failures"]:
        print(f"  failed: {f['op']} {f['error']} x{f['count']}")
    for name, why in detail["unverified"].items():
        print(f"  unverified: {name}: {why}")
    for name, outcome in detail["known_failures"].items():
        if outcome:
            print(f"  known failure: {name} {outcome} (kept out of the timed mix)")
        else:
            print(f"  known failure fixed: {name} is correct now; put it back into "
                  f"the mix in a benchmark-only change")


# -- all workloads, one subprocess each ---------------------------------------

def git_sha() -> str:
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_all(args) -> int:
    scratch = Path(args.out).resolve().parent if args.out else HERE / "out"
    scratch.mkdir(parents=True, exist_ok=True)
    names = [args.only] if args.only else list(WORKLOADS)
    results, status = {}, 0
    for name in names:
        for trace in ((0, 1) if args.trace else (0,)):
            detail_path = scratch / f"detail-{name}-{trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--detail", str(detail_path)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"perfbench: {name} (trace={trace}) exited {proc.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            detail = json.loads(detail_path.read_text())
            detail_path.unlink()
            results.setdefault(name, {})["traced" if trace else "untraced"] = detail
        runs = results.get(name, {})
        if "untraced" in runs:
            e = runs["untraced"]["metrics"]
            base, par = e["ops_per_s"]["value"], e["ops_per_s_par"]["value"]
            print(f"  ops_per_s_par / ops_per_s = {par:.2f} / {base:.2f} = {par / base:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
             "smoke": args.smoke, "workloads": results}, indent=1))
        print(f"wrote {args.out}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: src/repro not found next to perfbench/; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
