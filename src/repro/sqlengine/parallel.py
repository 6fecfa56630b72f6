"""Intra-query parallelism: row-partitioned operator evaluation.

Every backend profile parallelizes scans/filters/projections across
a thread pool (NumPy kernels release the GIL on large arrays, so the
speedups are real, mirroring the scalability analysis of Section V-C).
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from typing import Callable

import numpy as np

from .table import concat_columns

__all__ = ["partition_bounds", "parallel_masks", "parallel_arrays",
           "run_partitions", "parallel_map", "shutdown_pools"]

_POOL_LOCK = threading.Lock()
_POOLS: dict[int, ThreadPoolExecutor] = {}


def _pool(threads: int) -> ThreadPoolExecutor:
    """Shared, lazily-created worker pools (pool startup is ~1ms; creating
    one per operator would dominate small queries)."""
    with _POOL_LOCK:
        pool = _POOLS.get(threads)
        if pool is None:
            pool = ThreadPoolExecutor(max_workers=threads)
            _POOLS[threads] = pool
        return pool


def _run_all(threads: int, fn: Callable, argsets: list[tuple]) -> list:
    """``[fn(*args) for args in argsets]`` with the calling thread and up to
    ``threads - 1`` pool helpers each claiming the next unclaimed call.

    The caller works instead of sleeping on futures, so a dispatch costs one
    thread wake-up less, and a helper that is slow to be scheduled (a busy
    core, a pool shared with other queries) costs nothing: the caller claims
    its calls and the helper, still unstarted, is cancelled — the worst case
    is the serial time, and nobody waits on work queued behind themselves.
    The error of the lowest-numbered failing call is raised, as a serial
    loop would.
    """
    n = len(argsets)
    results: list = [None] * n
    errors: dict[int, BaseException] = {}
    claim = itertools.count()

    def runner() -> None:
        while not errors:
            i = next(claim)
            if i >= n:
                return
            try:
                results[i] = fn(*argsets[i])
            except Exception as exc:
                errors[i] = exc
            except BaseException as exc:  # interrupt: stop the others too
                errors[i] = exc
                raise

    pool = _pool(threads)
    # Helpers run in the caller's context (table.encode_watch).
    helpers = [pool.submit(copy_context().run, runner)
               for _ in range(min(threads, n) - 1)]
    try:
        runner()
    finally:
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    if errors:
        raise errors[min(errors)]
    return results


def parallel_map(threads: int, fn: Callable, items) -> list:
    """Map *fn* over *items* on the shared pool (serial when ``threads<=1``
    or fewer than two items)."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    return _run_all(threads, fn, [(it,) for it in items])


def shutdown_pools(wait: bool = True) -> None:
    """Shut down and forget every shared worker pool.

    Safe to call at any point — the next parallel operator lazily recreates
    its pool.  Registered via ``atexit`` so interpreter shutdown never races
    in-flight workers, and called by the test suite between sessions.
    """
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


atexit.register(shutdown_pools)


def _reset_after_fork() -> None:
    """Forget inherited pools in a forked child.

    A fork()ed process (a multiprocessing shard worker) inherits the pool
    dict but none of its threads — submitting to such an executor would
    queue work forever.  Dropping the dict (and the lock, which another
    thread may have held at fork time) lets the child lazily create live
    pools of its own.
    """
    global _POOL_LOCK, _POOLS
    _POOL_LOCK = threading.Lock()
    _POOLS = {}


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_after_fork)


def partition_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most *parts* contiguous slices."""
    parts = max(1, min(parts, n if n else 1))
    step = (n + parts - 1) // parts if n else 0
    out = []
    start = 0
    while start < n:
        stop = min(start + step, n)
        out.append((start, stop))
        start = stop
    return out or [(0, 0)]


def run_partitions(n: int, threads: int, worker: Callable[[int, int], object]) -> list:
    """Run ``worker(start, stop)`` over partitions, in a pool if threads>1."""
    bounds = partition_bounds(n, threads)
    if threads <= 1 or len(bounds) <= 1 or n < 4096:
        # Tiny inputs: thread handoff costs more than the work itself.
        return [worker(start, stop) for start, stop in bounds]
    return _run_all(threads, worker, bounds)


def parallel_masks(n: int, threads: int, make_mask: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """Evaluate a boolean mask over row partitions and concatenate."""
    parts = run_partitions(n, threads, make_mask)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def parallel_arrays(n: int, threads: int, make_arrays: Callable[[int, int], list[np.ndarray]]) -> list[np.ndarray]:
    """Evaluate a list of columns over row partitions and concatenate each."""
    parts = run_partitions(n, threads, make_arrays)
    if len(parts) == 1:
        return parts[0]
    return [concat_columns([p[i] for p in parts])
            for i in range(len(parts[0]))]
