"""Shared-memory worker pool for per-step leaf batches.

One :class:`ShmPool` serves one published arena
(:class:`~repro.core.shm.segments.ArenaSegments`) for a whole run.  It
reuses :class:`~repro.models.executors.OracleRuntime` wholesale — the
chunking, bounded-backoff crash retries, hung-chunk timeouts, pool
rebuilds and the rebuild circuit breaker all apply unchanged — and
adds only the shared-memory transport:

* the default executor is a *worker set*: a
  :class:`~repro.models.executors.PipePool` whose workers outlive the
  pool.  A pool attaches the set by sending every worker one
  :func:`_worker_init` task with the segment spec and the leaf oracle
  (so the oracle must pickle); a rebuilt pool
  (``OracleRuntime.restart_pool`` calls the factory again) attaches a
  fresh set the same way;
* a step's payloads are just the positions ``0..m-1`` of the batch
  column — one small int each, instead of pickling leaf values out
  and back;
* each worker reads ``batch[pos]`` → ``values[idx]``, runs the leaf
  oracle, and writes ``out[idx]`` in place.  The runtime's ordered
  result list doubles as the step barrier: when ``evaluate`` returns,
  every leaf of the step is in shared memory.

Worker sets are kept across pools, one idle set per process.  The
default factory takes the idle set when it has the requested size
(``workers or os.cpu_count()``) and was started by this process, and
otherwise starts a new set.  Closing a *clean* pool — no exception
through it or its session, no chunk timeout, no pool rebuild —
detaches every worker (unmap the segments, drop the oracle) and
hands the set back as the idle set, shutting down the one it
replaces; every other close shuts the workers down, so a set that
failed is never reused.  A new set's workers start by closing the
resource tracker pipe and the parent's segment mappings they
inherited (an idle worker must not keep either open), and each is
pinned to its own CPU, round-robin over ``os.sched_getaffinity(0)``
in start order, where the platform has the call.  A forked child
forgets its parent's idle set.  An injected ``executor_factory`` is
called as before and its executor is shut down at close.

The oracle's return value is also sent back through the future (the
runtime needs per-chunk results for its retry bookkeeping anyway);
:meth:`ShmPool.evaluate_batch` reads the authoritative values from the
``out`` column after the barrier.  Retried chunks simply overwrite
``out`` entries with the same values — the oracle is pure, so a
half-written chunk from a crashed worker is harmless.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import BrokenExecutor, Executor
from multiprocessing import resource_tracker
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from ...models.executors import OracleRuntime, PipePool, RuntimeStats
from ...telemetry import Recorder
from .oracle import identity_oracle
from .segments import ArenaSegments, SegmentSpec, close_inherited

__all__ = ["ShmPool"]

#: A leaf oracle: ``(stored_value, preorder_index) -> value``.
LeafOracle = Callable[[float, int], float]

#: Builds the executor for a pool; receives the segment spec and the
#: leaf oracle so injected executors (tests use thread pools) can run
#: the same initializer the default worker set runs.
ExecutorFactory = Callable[[SegmentSpec, LeafOracle], Executor]

# Worker-process state, set by _worker_init and cleared by
# _worker_detach.  An injected in-process executor sets these in the
# coordinator, and a child forked from it inherits them; _worker_init
# closes any previous mapping before attaching its own.
_WORKER_SEGMENTS: Optional[ArenaSegments] = None
_WORKER_ORACLE: Optional[LeafOracle] = None


def _worker_start(cpu: Optional[int]) -> None:
    """First task of every worker in a new set.

    Close the resource tracker pipe fork handed down: an idle worker
    holding its write end would keep the tracker, and whoever waits
    for it, from ever seeing end-of-file.  Unmap the parent's
    published segments and pin the worker to ``cpu``.  (Like every
    :class:`~repro.models.executors.PipePool` worker, it has already
    closed the coordinator's pipe ends, so it exits with its
    coordinator.)
    """
    tracker = resource_tracker._resource_tracker
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        tracker._fd = tracker._pid = None
        os.close(fd)
    close_inherited()
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def _worker_init(spec: SegmentSpec, oracle: LeafOracle) -> None:
    """Attach the segments and keep the oracle.

    A worker set runs it as one task per worker for every pool that
    takes the set.  When tests inject a *thread* pool it runs as that
    pool's initializer in the coordinator process; attaching there is
    equally valid (same segments, second mapping) and exercises the
    identical code path without process-spawn cost.
    """
    global _WORKER_SEGMENTS, _WORKER_ORACLE
    _worker_detach()
    _WORKER_SEGMENTS = ArenaSegments.attach(spec)
    _WORKER_ORACLE = oracle


def _worker_detach() -> None:
    """Unmap the segments and drop the oracle, before going idle."""
    global _WORKER_SEGMENTS, _WORKER_ORACLE
    if _WORKER_SEGMENTS is not None:
        _WORKER_SEGMENTS.close()
    _WORKER_SEGMENTS = _WORKER_ORACLE = None


def _worker_eval(pos: int) -> float:
    """Evaluate the leaf at batch position ``pos`` in place."""
    segments, oracle = _WORKER_SEGMENTS, _WORKER_ORACLE
    if segments is None or oracle is None:
        raise RuntimeError("shm worker used while no pool attached it")
    assert segments.batch is not None
    assert segments.values is not None
    assert segments.out is not None
    idx = int(segments.batch[pos])
    value = float(oracle(float(segments.values[idx]), idx))
    segments.out[idx] = value
    return value


def _on_each(
    workers: PipePool, tasks: Sequence[Tuple[Callable[..., Any], tuple]]
) -> None:
    """Run one task per worker of an idle set and wait for all.

    A worker holds one task at a time, so with every worker idle (or
    not yet started) task ``i`` lands on worker ``i``.
    """
    futures = [workers.submit(fn, *args) for fn, args in tasks]
    for future in futures:
        future.result()


class _WorkerSet(PipePool):
    """A :class:`PipePool` of pinned workers that can outlive its pool.

    Its ``shutdown`` hands the set back as the process's idle set
    instead when ``reusable`` was set and every worker detaches.
    """

    def __init__(self, size: int) -> None:
        super().__init__(max_workers=size)
        self.size = size
        self.pid = os.getpid()
        #: set by a clean ShmPool.close just before shutting down
        self.reusable = False
        affinity = getattr(os, "sched_getaffinity", None)
        cpus: List[Optional[int]] = (
            sorted(affinity(0)) if affinity is not None else [None]
        )
        starts = [(_worker_start, (cpus[i % len(cpus)],)) for i in range(size)]
        try:
            _on_each(self, starts)
        except BaseException:
            super().shutdown(wait=False)
            raise

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        reuse, self.reusable = self.reusable, False
        if (
            reuse and wait and not cancel_futures
            and self.pid == os.getpid() and self._detached()
        ):
            _give_back(self)
            return
        super().shutdown(wait, cancel_futures=cancel_futures)

    def _detached(self) -> bool:
        try:
            _on_each(self, [(_worker_detach, ())] * self.size)
        except Exception:
            return False
        return True

    def attach(self, spec: SegmentSpec, oracle: LeafOracle) -> None:
        """Attach every worker to ``spec``; a failed set is shut down."""
        try:
            _on_each(self, [(_worker_init, (spec, oracle))] * self.size)
        except BaseException:
            super().shutdown(wait=False)
            raise


#: The process's idle worker set, guarded by _IDLE_LOCK.
_IDLE: Optional[_WorkerSet] = None
_IDLE_LOCK = threading.Lock()


def _forget_idle() -> None:
    """In a forked child: the parent's idle set is not ours to use or
    stop, and a lock held across the fork would never be released."""
    global _IDLE, _IDLE_LOCK
    _IDLE = None
    _IDLE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_idle)


def _take(size: int, spec: SegmentSpec, oracle: LeafOracle) -> _WorkerSet:
    """The idle set attached to ``spec`` if it fits, else a new set."""
    global _IDLE
    with _IDLE_LOCK:
        idle = _IDLE
        if idle is not None and idle.size == size and idle.pid == os.getpid():
            _IDLE = None
        else:
            idle = None
    if idle is not None:
        try:
            idle.attach(spec, oracle)
            return idle
        except BrokenExecutor:
            idle = None  # a worker died while the set was idle
    workers = _WorkerSet(size)
    workers.attach(spec, oracle)
    return workers


def _give_back(workers: _WorkerSet) -> None:
    """Make ``workers`` the idle set; shut down the one it replaces."""
    global _IDLE
    with _IDLE_LOCK:
        replaced, _IDLE = _IDLE, workers
    if replaced is not None:
        replaced.shutdown()


class ShmPool:
    """Step-barrier evaluation of leaf batches over shared memory.

    Parameters mirror :class:`~repro.models.executors.OracleRuntime`
    (``chunk_size``, ``max_retries``, backoff, ``chunk_timeout``,
    ``max_consecutive_rebuilds``, injectable ``executor_factory`` and
    ``sleep``); ``workers`` sizes the default worker set and
    ``oracle`` is the per-leaf function (default
    :func:`~repro.core.shm.oracle.identity_oracle`), which the default
    worker set receives by pickle: an oracle that does not pickle
    raises :class:`TypeError` here.

    The pool does not own the segments — close order is pool first,
    then segments (sessions in :mod:`repro.core.shm.engine` handle
    both).  :meth:`close` hands a clean run's workers back for the
    next pool and shuts any other run's down (see the module
    docstring).
    """

    def __init__(
        self,
        segments: ArenaSegments,
        oracle: Optional[LeafOracle] = None,
        *,
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        max_backoff_seconds: float = 1.0,
        chunk_timeout: Optional[float] = None,
        max_consecutive_rebuilds: Optional[int] = None,
        executor_factory: Optional[ExecutorFactory] = None,
        sleep: Optional[Callable[[float], None]] = None,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if segments.closed:
            raise ValueError("cannot build a pool over closed segments")
        self.segments = segments
        self.oracle: LeafOracle = (
            oracle if oracle is not None else identity_oracle
        )
        self.workers = workers
        #: the worker set the default factory last handed the runtime
        self._leased: Optional[_WorkerSet] = None
        #: an exception went through the pool or its session
        self._spoiled = False
        spec = segments.spec
        leaf_oracle = self.oracle
        if executor_factory is None:
            try:
                pickle.dumps(leaf_oracle)
            except Exception as exc:
                raise TypeError(
                    f"executor='shm' sends the leaf oracle to its worker "
                    f"processes by pickle, and {leaf_oracle!r} does not "
                    f"pickle ({exc}); use a module-level function or "
                    f"class instance"
                ) from exc
            size = workers if workers is not None else os.cpu_count() or 1

            def factory() -> Executor:
                self._leased = _take(size, spec, leaf_oracle)
                return self._leased
        else:
            bound = executor_factory

            def factory() -> Executor:
                return bound(spec, leaf_oracle)

        self.runtime = OracleRuntime(
            _worker_eval,
            max_workers=workers,
            chunk_size=chunk_size,
            max_retries=max_retries,
            backoff_seconds=backoff_seconds,
            max_backoff_seconds=max_backoff_seconds,
            chunk_timeout=chunk_timeout,
            max_consecutive_rebuilds=max_consecutive_rebuilds,
            executor_factory=factory,
            sleep=sleep,
            recorder=recorder,
        )

    @property
    def stats(self) -> RuntimeStats:
        return self.runtime.stats

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "ShmPool":
        self.runtime.__enter__()
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self._spoiled = True
        self.close()

    def close(self) -> None:
        """Release the workers (idempotent; segments untouched).

        After a clean run they detach and become the idle set for the
        next pool; after an exception, a chunk timeout or a pool
        rebuild they are shut down.
        """
        stats = self.runtime.stats
        leased, self._leased = self._leased, None
        if (
            leased is not None and not self._spoiled
            and stats.timeouts == 0 and stats.pool_restarts == 0
        ):
            leased.reusable = True
        self.runtime.close()

    # -- evaluation --------------------------------------------------------
    def evaluate_batch(self, batch_idx: np.ndarray) -> np.ndarray:
        """Evaluate one step's leaf batch; returns values in batch order.

        Writes the batch's preorder indices into the shared ``batch``
        column, dispatches positions ``0..m-1`` through the runtime
        (chunked across the workers), and blocks until every chunk
        succeeded — the step barrier.  Crash/timeout retries and the
        circuit breaker behave exactly as documented on
        :meth:`OracleRuntime.evaluate`; a tripped breaker propagates
        :class:`~repro.errors.DegradedRunError` to the engine loop.
        """
        segments = self.segments
        assert segments.batch is not None
        assert segments.out is not None
        m = int(batch_idx.shape[0])
        segments.batch[:m] = batch_idx
        try:
            self.runtime.evaluate(range(m))
        except BaseException:
            self._spoiled = True
            raise
        return np.asarray(segments.out[batch_idx], dtype=np.float64)
