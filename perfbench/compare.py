#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 perfbench/compare.py A.json B.json

For every (workload, end-to-end metric) pair prints B against A with one of

* ``improved``   B is better than A by more than the metric's bound,
* ``regressed``  B is worse than A by more than the bound,
* ``unchanged``  neither,
* ``unresolved`` the spread between A's own passes (IQR / median) is wider
                 than the bound, so this pair of runs cannot tell.

Every ratio is printed with its base.  Per-layer deltas of the traced runs
follow as explanation only; they never decide a verdict.  Exits 1 when any
pair regressed or any workload's ``failed_share`` went up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spec  # noqa: E402


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    base = a["value"]
    if not base:
        return "unresolved"
    if a.get("n", 1) > 1 and a.get("iqr", 0.0) / abs(base) > bound:
        return "unresolved"
    change = (b["value"] - base) / abs(base)
    gain = -change if better == "lower" else change
    if gain < -bound:
        return "regressed"
    if gain > bound:
        return "improved"
    return "unchanged"


def failed_share(detail: dict) -> float:
    return detail["failed"] / max(detail["attempted"], 1)


def compare(a: dict, b: dict) -> int:
    status = 0
    for name in spec.WORKLOADS:
        run_a, run_b = a["workloads"].get(name, {}), b["workloads"].get(name, {})
        if "untraced" not in run_a or "untraced" not in run_b:
            continue
        ua, ub = run_a["untraced"], run_b["untraced"]
        print(f"== {name}   host_speed A {ua['host_speed']['value']:.2f}, "
              f"B {ub['host_speed']['value']:.2f}  (1.0 = quiet reference host; "
              f"a verdict between unlike hosts says little)")
        for metric, unit, better, bound in spec.END_TO_END:
            ea, eb = ua["metrics"][metric], ub["metrics"][metric]
            word = verdict(ea, eb, better, bound)
            status |= word == "regressed"
            ratio = eb["value"] / ea["value"] if ea["value"] else float("nan")
            spread = ea.get("iqr", 0.0) / abs(ea["value"]) if ea["value"] else 0.0
            print(f"  {metric:<18} {word:<10} B/A = {eb['value']:.4f} / {ea['value']:.4f} "
                  f"{unit} = {ratio:.3f}  (bound {bound:.0%}, better {better}, "
                  f"A's spread {spread:.1%} over n={ea.get('n', 1)})")
        fa, fb = failed_share(ua), failed_share(ub)
        word = "regressed" if fb > fa else "unchanged" if fb == fa else "improved"
        status |= fb > fa
        print(f"  {'failed_share':<18} {word:<10} B: {ub['failed']} of {ub['attempted']} ops, "
              f"A: {ua['failed']} of {ua['attempted']} ops")
        if "traced" in run_a and "traced" in run_b:
            print("  per-layer (explanation only):")
            ta, tb = run_a["traced"]["metrics"], run_b["traced"]["metrics"]
            for metric, unit, *_ in spec.PER_LAYER:
                va, vb = ta[metric]["value"], tb[metric]["value"]
                if va == 0.0 and vb == 0.0:
                    continue
                ratio = f"{vb / va:.3f}" if va else "n/a"
                print(f"    {metric:<46} B/A = {vb:.4g} / {va:.4g} {unit} = {ratio}")
    return int(status)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
