"""The thread pool behind wave replay of step plans (paper Fig. 2, Section V-C).

Neon issues the mutually independent kernels of one dependency wave on
separate CUDA streams and synchronises between waves.  On the host that
is :meth:`StepPlan.execute <repro.backend.plan.StepPlan.execute>` with a
``pool``: each multi-kernel wave of the plan's schedule is submitted
here and joined before the next wave starts.  NumPy releases the GIL
inside its vectorised kernels, so independent bodies overlap on
multi-core hosts.

:class:`WavePool` is only the worker threads: created lazily, replaced
after a ``fork`` (the child inherits the pool object but none of its
threads) and stopped by :meth:`WavePool.shutdown` or, for a leaked pool,
by the garbage collector.

One process-wide pool also runs the cell-range parts of a kernel body
(:func:`run_split`).
"""

from __future__ import annotations

import os
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Sequence

__all__ = ["WavePool", "default_workers", "run_split", "usable_cpus"]


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (taskset, cpusets),
    the host's CPU count where the platform has no such mask."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:
        return os.cpu_count() or 1


def default_workers() -> int:
    """Per-process pool width: the usable CPUs, clamped to ``[2, 8]``.

    At least 2 so the concurrent path is exercised even on single-core
    hosts (where the pool degrades gracefully to interleaving).
    """
    return max(2, min(8, usable_cpus()))


def _shutdown_pool(pool: ThreadPoolExecutor) -> None:
    pool.shutdown(wait=False)


class WavePool:
    """Lazy, fork-safe worker threads for one plan-replaying backend.

    ``max_workers`` defaults to :func:`default_workers`.  The pool stays
    usable after :meth:`shutdown`: the next :meth:`submit` re-creates the
    threads, which is what lets a closed simulation step again.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = (default_workers() if max_workers is None
                            else int(max_workers))
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._pool: ThreadPoolExecutor | None = None
        self._pool_pid: int | None = None
        self._finalizer: weakref.finalize | None = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is not None and self._pool_pid != os.getpid():
            # Forked child: only the forking thread survives fork, so the
            # inherited pool's worker threads do not exist here — a submit
            # would queue a future nothing ever completes.  Abandon the
            # inherited object (the parent's copy is untouched) and build
            # a fresh pool lazily in this process.
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            self._pool = None
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-wave")
            self._pool_pid = os.getpid()
            # Leaked pools (no explicit close) must not pin worker
            # threads for the life of the process.
            self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool)
        return self._pool

    def submit(self, fn: Callable[..., object], *args: object) -> Future:
        """Run ``fn(*args)`` on a worker thread; returns its future."""
        return self._ensure_pool().submit(fn, *args)

    def shutdown(self) -> None:
        """Stop the worker threads (idempotent; the pool stays reusable)."""
        if self._pool is not None:
            pool, self._pool = self._pool, None
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            if self._pool_pid != os.getpid():
                # Pool inherited across fork: its threads exist only in
                # the parent, and joining them here would block forever.
                return
            pool.shutdown(wait=True)


#: Runs all but the first part of every split body in this process.
_SPLIT_POOL = WavePool(max(1, usable_cpus() - 1))


def run_split(parts: Sequence[Callable[[], None]]) -> None:
    """Run ``parts`` concurrently, the first on the calling thread; every
    part is joined before the first error (in part order) propagates."""
    futures = [_SPLIT_POOL.submit(part) for part in parts[1:]]
    try:
        parts[0]()
    finally:
        wait(futures)
    for fut in futures:
        fut.result()
