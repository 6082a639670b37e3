"""Persistent shared-memory worker pool for per-step leaf batches.

One :class:`ShmPool` serves one published arena
(:class:`~repro.core.shm.segments.ArenaSegments`) for a whole run.  It
reuses :class:`~repro.models.executors.OracleRuntime` wholesale — the
chunking, bounded-backoff crash retries, hung-chunk timeouts, pool
rebuilds and the rebuild circuit breaker all apply unchanged — and
adds only the shared-memory transport:

* the worker processes of the default
  :class:`~repro.models.executors.PipePool` attach the segments once,
  in the executor *initializer* (so a rebuilt pool re-attaches by
  itself — ``OracleRuntime.restart_pool`` calls the factory again,
  which re-runs the initializer in the fresh workers);
* a step's payloads are just the positions ``0..m-1`` of the batch
  column — one small int each, instead of pickling leaf values out
  and back;
* each worker reads ``batch[pos]`` → ``values[idx]``, runs the leaf
  oracle, and writes ``out[idx]`` in place.  The runtime's ordered
  result list doubles as the step barrier: when ``evaluate`` returns,
  every leaf of the step is in shared memory.

The oracle's return value is also sent back through the future (the
runtime needs per-chunk results for its retry bookkeeping anyway);
:meth:`ShmPool.evaluate_batch` reads the authoritative values from the
``out`` column after the barrier.  Retried chunks simply overwrite
``out`` entries with the same values — the oracle is pure, so a
half-written chunk from a crashed worker is harmless.
"""

from __future__ import annotations

from concurrent.futures import Executor
from typing import Callable, List, Optional

import numpy as np

from ...models.executors import OracleRuntime, PipePool, RuntimeStats
from ...telemetry import Recorder
from .oracle import identity_oracle
from .segments import ArenaSegments, SegmentSpec

__all__ = ["ShmPool"]

#: A leaf oracle: ``(stored_value, preorder_index) -> value``.
LeafOracle = Callable[[float, int], float]

#: Builds the executor for a pool; receives the segment spec and the
#: leaf oracle so injected executors (tests use thread pools) can run
#: the same initializer the default process pool does.
ExecutorFactory = Callable[[SegmentSpec, LeafOracle], Executor]

# Worker-process state, populated by _worker_init.  With the default
# fork start method a child inherits whatever the coordinator held in
# these globals (an injected in-process executor may have set them);
# the initializer closes any inherited mapping before attaching its
# own, so every worker ends up with a fresh attachment either way.
_WORKER_SEGMENTS: Optional[ArenaSegments] = None
_WORKER_ORACLE: Optional[LeafOracle] = None


def _worker_init(spec: SegmentSpec, oracle: LeafOracle) -> None:
    """Executor initializer: attach the segments, keep the oracle.

    Runs once per worker process (and again in every process of a
    rebuilt pool).  When tests inject a *thread* pool the initializer
    runs in the coordinator process; attaching there is equally valid
    (same segments, second mapping) and exercises the identical code
    path without process-spawn cost.
    """
    global _WORKER_SEGMENTS, _WORKER_ORACLE
    if _WORKER_SEGMENTS is not None:
        _WORKER_SEGMENTS.close()
    _WORKER_SEGMENTS = ArenaSegments.attach(spec)
    _WORKER_ORACLE = oracle


def _worker_eval(pos: int) -> float:
    """Evaluate the leaf at batch position ``pos`` in place."""
    segments, oracle = _WORKER_SEGMENTS, _WORKER_ORACLE
    if segments is None or oracle is None:
        raise RuntimeError("shm worker used before its initializer ran")
    assert segments.batch is not None
    assert segments.values is not None
    assert segments.out is not None
    idx = int(segments.batch[pos])
    value = float(oracle(float(segments.values[idx]), idx))
    segments.out[idx] = value
    return value


class ShmPool:
    """Step-barrier evaluation of leaf batches over shared memory.

    Parameters mirror :class:`~repro.models.executors.OracleRuntime`
    (``chunk_size``, ``max_retries``, backoff, ``chunk_timeout``,
    ``max_consecutive_rebuilds``, injectable ``executor_factory`` and
    ``sleep``); ``workers`` sizes the default process pool and
    ``oracle`` is the per-leaf function (default
    :func:`~repro.core.shm.oracle.identity_oracle`).

    The pool does not own the segments — close order is pool first,
    then segments (sessions in :mod:`repro.core.shm.engine` handle
    both).
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
        spec = segments.spec
        leaf_oracle = self.oracle
        if executor_factory is None:
            def factory() -> Executor:
                return PipePool(
                    max_workers=workers,
                    initializer=_worker_init,
                    initargs=(spec, leaf_oracle),
                )
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

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent; segments untouched)."""
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
        self.runtime.evaluate(range(m))
        return np.asarray(segments.out[batch_idx], dtype=np.float64)
