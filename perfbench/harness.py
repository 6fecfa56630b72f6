"""Measurement loop shared by the four workloads.

Vocabulary (perfbench/README.md): an *op* is one query answered through the
user's entry point; a *pass* is one fixed, seeded sequence of ops.  Timed
phases take turns, pass by pass, until each has spent its share of
``--seconds`` and made its fewest passes, and every timing metric is the median over passes of the
per-pass value (its IQR and sample count are kept beside it).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

# A single op slower than this counts as failed (``Timeout``); in-process
# calls cannot be interrupted, so the limit is applied when the op returns.
# Network ops also hand it to the server as their per-query timeout.
OP_TIMEOUT_S = 30.0

# Set-up is repeated between SETUP_MIN and SETUP_MAX times, until it has
# taken SETUP_BUDGET_S in all.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 1.5

# Turns each timed phase is split into (see interleave).
ROUNDS = 3

# Share of --seconds given to each timed phase.
PHASE_SHARE = {"serial": 0.5, "parallel": 0.25, "cold": 0.25}
# Same for the traced run, whose remaining time goes to the layer probes.
TRACE_SHARE = {"serial": 0.45, "parallel": 0.15, "cold": 0.15}


# -- host speed -----------------------------------------------------------------

# The host this runs on goes through spells of minutes in which everything is
# 1.3x to 2.3x slower (README, "Noise").  A fixed reference workload, timed
# right before and after every pass, says how fast the host was at that
# moment.  It is reported beside the metrics and corrects none of them: a run
# whose host_speed is 0.8 explains itself.
HOST_REFERENCE_MS = 3.50   # calibrate() on the reference host, quiet

_rng = np.random.default_rng(12345)
_FLOATS = _rng.random(60_000)
_KEYS = (_FLOATS * 3000).astype(np.int64)
_STRINGS = [f"key{i % 499}" for i in range(12_000)]


def _reference_work() -> None:
    """A few ms of what the engine's time goes into: a per-row Python dict
    loop over string keys, and NumPy sort / unique / bincount / mask / take."""
    seen: dict[str, int] = {}
    for s in _STRINGS:
        seen[s] = seen.get(s, 0) + 1
    [len(s) + 1 for s in _STRINGS[:4000]]
    np.sort(_FLOATS)
    _, inverse = np.unique(_KEYS, return_inverse=True)
    np.bincount(inverse, weights=_FLOATS)
    _FLOATS[_FLOATS > 0.5].sum()
    _FLOATS.take(inverse[:30_000])


def calibrate() -> float:
    """Milliseconds the reference work takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - start)
    return best * 1000.0


class HostSpeed:
    """Host speed around each measured piece of work: 1.0 on the quiet
    reference host, 0.5 when the host is half as fast."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def around(self, work: Callable[[], object]):
        before = calibrate()
        result = work()
        self.samples.append(HOST_REFERENCE_MS / ((before + calibrate()) / 2.0))
        return result


# -- statistics ---------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def iqr(values) -> float:
    """Distance between the first and third quartile (0 below 2 samples)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return float(q[2] - q[0])


def geomean(values) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return float("nan")
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def percentile(values, q: float) -> float:
    if not len(values):
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def stat(values, unit: str, value: float | None = None) -> dict:
    """A metric entry: the median of *values* (or *value*, when the metric is
    not a median of its samples) with the spread and count behind it."""
    values = [float(v) for v in values]
    return {"value": median(values) if value is None else float(value),
            "unit": unit, "iqr": iqr(values), "n": len(values)}


# -- ops and passes -----------------------------------------------------------

@dataclass
class Op:
    """One query: ``run`` goes through the user's entry point untraced;
    ``traced(tracer)`` does the same work split into spans."""

    name: str
    run: Callable[[], object]
    traced: Callable | None = None


@dataclass
class PassResult:
    wall_s: float
    samples: list[tuple[str, float]] = field(default_factory=list)  # (op name, ms)
    failures: list[tuple[str, str]] = field(default_factory=list)   # (op name, error type)
    counts: list[dict] = field(default_factory=list)                # traced ops only
    cache: tuple[int, int] = (0, 0)           # traced: plan-cache (hits, misses)

    @property
    def attempted(self) -> int:
        return len(self.samples) + len(self.failures)


def run_ops(ops: list[Op], tracer=None) -> PassResult:
    """Run *ops* back to back on this thread, timing each.

    An op that raises is caught, recorded under its typed error name and the
    pass goes on: a failing query must neither stop the benchmark nor drop
    out of the mix.
    """
    out = PassResult(0.0)
    begin = perf_counter()
    for op in ops:
        start = perf_counter()
        try:
            if tracer is None:
                op.run()
            else:
                with tracer.span(op.name, "op", op=op.name):
                    counts = op.traced(tracer)
                if counts:
                    out.counts.append(counts)
        except Exception as exc:  # boundary: account for it and keep running
            out.failures.append((op.name, type(exc).__name__))
            continue
        ms = (perf_counter() - start) * 1000.0
        if ms > OP_TIMEOUT_S * 1000.0:
            out.failures.append((op.name, "Timeout"))
        else:
            out.samples.append((op.name, ms))
    out.wall_s = perf_counter() - begin
    return out


def interleave(phases: dict[str, tuple[Callable[[], object], float, int]]) -> None:
    """Run timed phases in ROUNDS turns each, always the phase furthest behind.

    *phases*: name -> (run one pass, seconds to spend, fewest passes).  A phase
    is done when it has spent its seconds and made its fewest passes; a turn
    runs consecutive passes of one phase until a further 1/ROUNDS of that is
    met.  Taking turns spreads each phase's passes over the whole run, so a
    disturbance of the machine that lasts a few seconds cannot cover every
    pass of one phase and shift its median.  Whole turns rather than single
    passes, so that most passes follow one of their own kind, the way a user
    with one configuration runs them.
    """
    made = dict.fromkeys(phases, 0)
    spent = dict.fromkeys(phases, 0.0)

    def progress(name: str) -> float:
        _, budget_s, fewest = phases[name]
        return min(made[name] / fewest, spent[name] / budget_s if budget_s > 0 else 1.0)

    while True:
        name = min(phases, key=progress)
        if progress(name) >= 1.0:
            return
        goal = min(1.0, progress(name) + 1.0 / ROUNDS)
        while progress(name) < goal:
            start = perf_counter()
            phases[name][0]()
            spent[name] += perf_counter() - start
            made[name] += 1


def quiesce() -> None:
    """Before timed passes: collect once, then move every surviving object
    (the dataset, the catalog, the imported modules) out of the collector's
    reach so later collections stay short and alike from pass to pass."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- metric assembly ----------------------------------------------------------

class Failures:
    """Ops attempted and failed over the whole run, by op and error type."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_op: dict[tuple[str, str], int] = {}

    def add_passes(self, passes: list[PassResult], wrong: dict[str, str]) -> None:
        """Count *passes*; ops whose result failed verification (*wrong*:
        op name -> reason) fail even though they returned."""
        for p in passes:
            self.attempted += p.attempted
            for name, err in p.failures:
                self._fail(name, err)
            for name, _ in p.samples:
                if name in wrong:
                    self._fail(name, wrong[name])

    def _fail(self, name: str, err: str) -> None:
        self.failed += 1
        self.by_op[(name, err)] = self.by_op.get((name, err), 0) + 1

    def report(self) -> list[dict]:
        return [{"op": name, "error": err, "count": n}
                for (name, err), n in sorted(self.by_op.items())]


def throughput(passes: list[PassResult]) -> list[float]:
    """Per pass: ops answered / wall time."""
    return [len(p.samples) / p.wall_s for p in passes if p.wall_s > 0]


def per_op_medians(passes: list[PassResult]) -> dict[str, float]:
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for name, ms in p.samples:
            by_op.setdefault(name, []).append(ms)
    return {name: median(v) for name, v in by_op.items()}


def serial_metrics(passes: list[PassResult]) -> dict:
    tput = throughput(passes)
    medians = per_op_medians(passes)
    per_pass_p95 = [percentile([ms for _, ms in p.samples], 95) for p in passes
                    if p.samples]
    return {
        "ops_per_s": stat(tput, "op/s"),
        # Geometric mean over distinct queries of each one's median latency.
        # Its spread is taken over passes of the per-pass geometric mean.
        "op_ms_geomean": stat(
            [geomean([ms for _, ms in p.samples]) for p in passes if p.samples],
            "ms", value=geomean(medians.values())),
        # Median over passes of the pass's 95th percentile.  The percentile of
        # the pooled samples sits on the boundary between the two slowest
        # queries of a fixed mix and jumps between them from run to run.
        "op_ms_p95": stat(per_pass_p95, "ms"),
    }


def cold_metric(passes: list[PassResult]) -> dict:
    return stat([geomean([ms for _, ms in p.samples]) for p in passes if p.samples],
                "ms")


def timed_setup(workload, smoke: bool, host: HostSpeed) -> list[float]:
    """Set the workload up several times, tearing down in between, and leave
    the last one standing.  Returns each set-up's seconds: at least three,
    and more while they are cheap, because a 60 ms set-up needs more
    samples than a 1.5 s one for its median to hold still."""
    times: list[float] = []

    def one() -> None:
        start = perf_counter()
        workload.setup()
        times.append(perf_counter() - start)

    while True:
        host.around(one)
        if smoke or len(times) >= SETUP_MAX or (
                len(times) >= SETUP_MIN and sum(times) >= SETUP_BUDGET_S):
            return times
        workload.close()
        gc.collect()
