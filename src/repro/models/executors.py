"""OS-level parallel leaf evaluation: process pool and oracle runtime.

The paper's models charge one unit per leaf evaluation and assume the
batch is evaluated simultaneously.  All measurements in this repository
are model-step counts (CPython's GIL makes wall-clock speed-up of pure
Python unobservable), but when the *leaf oracle itself* is expensive —
a game-position evaluator, a SAT call — evaluating a step's batch
across OS processes is real parallelism.

Two pieces are provided:

* :class:`PipePool` — the process transport every process-backed
  runtime here uses: a minimal :class:`~concurrent.futures.Executor`
  over forked workers, each with its own duplex pipe and at most one
  task in flight.  The caller reads replies itself inside
  ``Future.result``, so a step costs one pickle, one pipe write and
  one pipe read per chunk, with no manager or feeder thread between
  the coordinator and its workers.
* :class:`OracleRuntime` — a persistent process-pool runtime for whole
  runs: batches are split into chunks (one pickled task per chunk, not
  per leaf), failed chunks are retried with bounded exponential
  backoff, a broken pool is rebuilt between retry rounds, a hung chunk
  is cut off by ``chunk_timeout`` (the pool is rebuilt, which
  terminates the stuck worker), and :class:`RuntimeStats` counts
  batches/chunks/retries/timeouts/restarts and wall-clock spent.
  Exhausting the retry budget raises
  :class:`~repro.errors.WorkerCrashError`; breaking
  ``max_consecutive_rebuilds`` pools in a row without a clean round in
  between trips the circuit breaker, which raises
  :class:`~repro.errors.DegradedRunError` carrying the partial
  results instead of hammering a sick environment forever.
  :meth:`OracleRuntime.start` dispatches a batch's first round
  without waiting, so a caller can keep several runtimes busy at
  once and collect each with ``evaluate`` in turn.

This module intentionally measures wall-clock time (it exists to
produce wall-clock numbers, such as the shard and worker speedups of
``repro bench --spec e25|e28 --wallclock --out FILE``); it is
therefore exempt from the R2 determinism lint alongside
``models/oracle_runner.py``.
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import time
import traceback
import weakref
from collections import deque
from concurrent.futures import BrokenExecutor, Executor, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

from ..errors import DegradedRunError, WorkerCrashError
from ..telemetry import Recorder, live

# Reply tags a PipePool worker sends back: the task's return value or
# the exception it raised.
_OK, _RAISED = 0, 1


class _RemoteTraceback(Exception):
    """A worker-side traceback, chained as ``__cause__`` of the
    exception it belongs to (pickling drops the original)."""

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.text = text

    def __str__(self) -> str:
        return self.text


def _reply(conn: Connection, tag: int, value: Any, tb: str = "") -> None:
    try:
        data = pickle.dumps((tag, value, tb), pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # an unpicklable result or exception
        data = pickle.dumps(
            (_RAISED, exc, traceback.format_exc()), pickle.HIGHEST_PROTOCOL
        )
    conn.send_bytes(data)


def _pipe_worker(
    conn: Connection,
    initializer: Optional[Callable[..., Any]],
    initargs: Tuple[Any, ...],
) -> None:
    """Worker process loop: one pickled task in, one reply out.

    An empty message (or the pool's end of the pipe closing) asks the
    worker to exit.  An initializer that raises, or a task that raises
    ``SystemExit`` or ``KeyboardInterrupt``, ends the process (the
    traceback goes to stderr), which breaks the pool.
    """
    _close_coordinator_ends()
    if initializer is not None:
        initializer(*initargs)
    while True:
        try:
            task = conn.recv_bytes()
        except (EOFError, OSError):
            return
        if not task:
            return
        try:
            fn, args, kwargs = pickle.loads(task)
            value = fn(*args, **kwargs)
        except Exception as exc:
            _reply(conn, _RAISED, exc, traceback.format_exc())
        else:
            _reply(conn, _OK, value)


#: Every PipePool of this process.  A worker forked while they live
#: inherits the coordinator's end of each of their pipes.
_POOLS: "weakref.WeakSet[PipePool]" = weakref.WeakSet()


def _close_coordinator_ends() -> None:
    """In a new worker: close the coordinator's end of every pipe of
    every pool inherited from the fork, its own pipe's included.

    Only the coordinator then holds them, so when it dies without a
    ``shutdown`` (``os._exit``, a signal) every worker reads
    end-of-file and exits.
    """
    for pool in list(_POOLS):
        for worker in pool._workers:
            worker.conn.close()


class _PipeFuture(Future):
    """A future whose ``result``/``exception`` read the pool's pipes.

    There is no background thread: whoever waits on a future collects
    every reply that arrives meanwhile and hands the freed workers
    their next queued task.
    """

    def __init__(self, pool: "PipePool") -> None:
        super().__init__()
        self._pool = pool

    def result(self, timeout: Optional[float] = None) -> Any:
        self._pool._drive(self, timeout)
        return super().result(0)

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        self._pool._drive(self, timeout)
        return super().exception(0)


class _Worker:
    __slots__ = ("process", "conn", "future")

    def __init__(self, process: BaseProcess, conn: Connection) -> None:
        self.process = process
        self.conn = conn
        #: the task in flight, or None while idle
        self.future: Optional[_PipeFuture] = None


class PipePool(Executor):
    """Process pool over one duplex pipe per worker.

    Workers are started on demand, up to ``max_workers`` (default: the
    CPU count), and each runs ``initializer(*initargs)`` once.  They
    use the platform's default start method: ``fork`` on Linux, which
    keeps a pool per shm session cheap where a fresh interpreter per
    worker would re-import the library.  A task is pickled at
    :meth:`submit` — mutating an argument afterwards cannot change
    what the worker sees — and sent straight to an idle worker, or
    queued until one frees.  Replies are read by the caller inside
    ``Future.result(timeout)`` with
    :func:`multiprocessing.connection.wait` over every busy worker,
    so queued tasks keep flowing while any future is awaited.

    Failure semantics follow the standard library's process pool: a
    task's exception is re-raised with its original type (the worker
    traceback chained as ``__cause__``); a worker that dies, or whose
    initializer raises, breaks the pool — every pending future and
    every later ``submit`` raise
    :class:`~concurrent.futures.process.BrokenProcessPool` — and a
    missed ``result`` deadline raises
    :class:`concurrent.futures.TimeoutError` with the task still
    running.  ``shutdown(wait=False)`` terminates busy workers, so a
    hung task does not outlive its pool.

    Futures resolve only while someone waits on one of the pool's
    futures (or on :meth:`shutdown`); ``concurrent.futures.wait`` and
    ``as_completed`` do not drive the pipes.  Submit and wait from one
    thread.  Workers are daemonic: they are terminated at interpreter
    exit and cannot start processes of their own.  A new worker first
    closes the coordinator's end of every pool pipe it inherited, so
    the workers also exit when the coordinator dies without shutting
    the pool down.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        initializer: Optional[Callable[..., Any]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        elif max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self._max_workers = max_workers
        self._initializer = initializer
        self._initargs = initargs
        self._workers: List[_Worker] = []
        self._queue: Deque[Tuple[_PipeFuture, bytes]] = deque()
        #: why the pool broke, once it has
        self._broken: Optional[str] = None
        self._shutdown = False
        _POOLS.add(self)

    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> Future:
        if self._broken is not None:
            raise BrokenProcessPool(self._broken)
        if self._shutdown:
            raise RuntimeError("cannot schedule new futures after shutdown")
        future = _PipeFuture(self)
        try:
            task = pickle.dumps((fn, args, kwargs), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            future.set_exception(exc)
            return future
        worker = self._idle_worker()
        if worker is None:
            self._queue.append((future, task))
        else:
            self._send(worker, future, task)
        return future

    def shutdown(self, wait: bool = True, *,
                 cancel_futures: bool = False) -> None:
        if cancel_futures:
            for future, _ in self._queue:
                future.cancel()
            self._queue.clear()
        if wait:
            while any(w.future is not None for w in self._workers):
                self._collect_ready(None)
        self._shutdown = True
        self._stop_workers("the pool was shut down before the task finished")

    # -- internals ---------------------------------------------------------
    def _idle_worker(self) -> Optional[_Worker]:
        """An idle worker, starting one if the pool has room; None when
        every worker is busy."""
        for worker in self._workers:
            if worker.future is None:
                return worker
        if len(self._workers) >= self._max_workers:
            return None
        ours, theirs = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_pipe_worker,
            args=(theirs, self._initializer, self._initargs),
            daemon=True,
        )
        worker = _Worker(process, ours)
        # Listed before the fork, so the new worker closes ``ours``.
        self._workers.append(worker)
        try:
            process.start()
        except BaseException:
            self._workers.remove(worker)
            ours.close()
            raise
        finally:
            theirs.close()
        return worker

    def _send(self, worker: _Worker, future: _PipeFuture,
              task: bytes) -> None:
        if not future.set_running_or_notify_cancel():
            return
        worker.future = future
        try:
            worker.conn.send_bytes(task)
        except OSError as exc:
            self._break(f"a worker process is gone ({exc})")

    def _drive(self, future: _PipeFuture, timeout: Optional[float]) -> None:
        """Collect replies until ``future`` is done or ``timeout`` ends."""
        deadline = (
            None if timeout is None
            else time.monotonic() + timeout  # lint: disable=R7
        )
        while not future.done():
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())  # lint: disable=R7
            )
            if not self._collect_ready(remaining):
                raise FuturesTimeoutError()

    def _collect_ready(self, timeout: Optional[float]) -> bool:
        """Read every reply that arrives within ``timeout``; False if
        none did."""
        busy = {w.conn: w for w in self._workers if w.future is not None}
        if not busy:
            raise RuntimeError("no PipePool task is in flight")
        ready = multiprocessing.connection.wait(list(busy), timeout)
        for conn in ready:
            if self._broken is not None:
                break
            self._collect(busy[conn])
        return bool(ready)

    def _collect(self, worker: _Worker) -> None:
        future = worker.future
        assert future is not None
        try:
            data = worker.conn.recv_bytes()
        except (EOFError, OSError):
            worker.process.join()
            self._break(
                f"a worker process terminated abruptly "
                f"(exit code {worker.process.exitcode})"
            )
            return
        worker.future = None
        # Unpickling can fail, e.g. for an exception type whose
        # constructor takes other arguments than it stores.
        try:
            tag, value, tb = pickle.loads(data)
        except Exception as exc:
            tag, value, tb = _RAISED, exc, ""
        if tb:
            value.__cause__ = _RemoteTraceback(tb)
        if tag == _OK:
            future.set_result(value)
        else:
            future.set_exception(value)
        while self._queue and worker.future is None:
            self._send(worker, *self._queue.popleft())

    def _break(self, reason: str) -> None:
        """Mark the pool broken: fail every pending future, stop all
        workers."""
        self._broken = reason
        self._stop_workers(reason)

    def _stop_workers(self, reason: str) -> None:
        """Fail every unfinished future with ``BrokenProcessPool(reason)``,
        ask idle workers to exit, terminate busy ones, and reap them
        all."""
        pending = [w.future for w in self._workers if w.future is not None]
        pending += [future for future, _ in self._queue]
        self._queue.clear()
        for future in pending:
            if not future.done():
                future.set_exception(BrokenProcessPool(reason))
        for worker in self._workers:
            if worker.future is None:
                try:
                    worker.conn.send_bytes(b"")
                except OSError:  # already gone
                    worker.process.terminate()
            else:
                worker.process.terminate()
            worker.conn.close()
        for worker in self._workers:
            worker.process.join()
            worker.process.close()
        self._workers = []


def _eval_chunk(oracle: Callable[[Any], Any], chunk: List[Any]) -> List[Any]:
    """Worker-side task: evaluate one chunk serially (module-level so it
    pickles by reference)."""
    return [oracle(item) for item in chunk]


@dataclass
class RuntimeStats:
    """Counters accumulated by :class:`OracleRuntime` across batches."""

    #: batches completed through :meth:`OracleRuntime.evaluate`.
    batches: int = 0
    #: chunk tasks dispatched (including re-dispatches).
    chunks: int = 0
    #: payloads evaluated (each counted once even if its chunk retried).
    units: int = 0
    #: retry rounds actually run after a round with failed chunks
    #: (the final, exhausted round raises instead of counting).
    retries: int = 0
    #: chunk tasks abandoned because they exceeded ``chunk_timeout``.
    timeouts: int = 0
    #: process pools torn down and rebuilt after a worker crash.
    pool_restarts: int = 0
    #: wall-clock seconds spent inside ``evaluate`` calls.
    oracle_seconds: float = 0.0
    #: wall-clock seconds of the most recent batch.
    last_batch_seconds: float = 0.0
    #: size of the most recent batch.
    last_batch_size: int = 0


class _Round:
    """One dispatch round of a batch: each ``(offset, chunk, future)``,
    the future None where the pool was found broken at submit."""

    __slots__ = ("payloads", "chunks", "broken", "error")

    def __init__(self, payloads: List[Any]) -> None:
        self.payloads = payloads
        self.chunks: List[Tuple[int, List[Any], Optional[Future]]] = []
        self.broken = False
        self.error: Optional[BaseException] = None


class OracleRuntime:
    """Persistent worker-pool runtime for per-step oracle batches.

    Parameters
    ----------
    oracle:
        Maps one payload to its value.  With the default process pool
        it must be picklable (module-level function).
    max_workers:
        Pool size (``None``: let the executor pick).
    chunk_size:
        Payloads per worker task; ``None`` splits each batch evenly
        across the workers (one task per worker when possible).
    max_retries:
        Retry *rounds* allowed per batch after a round with failures.
    backoff_seconds / max_backoff_seconds:
        Exponential backoff between retry rounds: the n-th retry waits
        ``min(backoff_seconds * 2**(n-1), max_backoff_seconds)``.
    chunk_timeout:
        Wall-clock seconds a dispatched chunk may take before it is
        abandoned (``None``: wait forever), counted from when the
        collecting call starts waiting on it, so a chunk
        :meth:`start` dispatched earlier gets at least that long.  A
        timed-out chunk is retried like a crashed one, and the pool
        is rebuilt because the hung worker still occupies it.  The
        rebuild shuts the old pool down with ``wait=False``, which
        :class:`PipePool` answers by terminating the hung worker; an
        injected executor that cannot kill its workers leaves them to
        finish on their own.
    max_consecutive_rebuilds:
        Circuit breaker: after this many pool rebuilds in a row with
        no clean (unbroken) dispatch round in between, ``evaluate``
        raises :class:`~repro.errors.DegradedRunError` carrying the
        partial results instead of rebuilding again.  ``None``
        disables the breaker (retry budget still applies).
    executor_factory:
        Builds the pool; defaults to :class:`PipePool`.  Tests
        inject thread pools here to exercise the retry machinery
        without process spawn cost.
    sleep:
        Injectable sleep (tests pass a recorder to assert on backoff).

    Use as a context manager, or call :meth:`close` when done; the pool
    persists across batches either way.
    """

    def __init__(
        self,
        oracle: Callable[[Any], Any],
        *,
        max_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        max_backoff_seconds: float = 1.0,
        chunk_timeout: Optional[float] = None,
        max_consecutive_rebuilds: Optional[int] = None,
        executor_factory: Optional[Callable[[], Executor]] = None,
        sleep: Optional[Callable[[float], None]] = None,
        recorder: Optional[Recorder] = None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive")
        if max_consecutive_rebuilds is not None and (
            max_consecutive_rebuilds < 1
        ):
            raise ValueError("max_consecutive_rebuilds must be >= 1")
        self.oracle = oracle
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.max_backoff_seconds = max_backoff_seconds
        self.chunk_timeout = chunk_timeout
        self.max_consecutive_rebuilds = max_consecutive_rebuilds
        self._consecutive_rebuilds = 0
        self._factory: Callable[[], Executor] = executor_factory or (
            lambda: PipePool(max_workers=self.max_workers)
        )
        self._sleep = sleep if sleep is not None else time.sleep
        self._pool: Optional[Executor] = None
        #: the round :meth:`start` dispatched, until evaluate takes it
        self._started: Optional[_Round] = None
        self.stats = RuntimeStats()
        self._rec = live(recorder)

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "OracleRuntime":
        self._ensure_pool()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down (idempotent).

        A round :meth:`start` dispatched and no :meth:`evaluate`
        collected is dropped without waiting for it: its tasks are
        cancelled, and :class:`PipePool` terminates the workers
        running them.
        """
        abandoned = self._started is not None
        self._started = None
        if self._pool is not None:
            self._pool.shutdown(wait=not abandoned, cancel_futures=abandoned)
            self._pool = None

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._pool = self._factory()
        return self._pool

    def restart_pool(self) -> None:
        """Tear down the (broken) pool and build a fresh one, dropping
        any uncollected :meth:`start` round."""
        self._started = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.stats.pool_restarts += 1
        if self._rec is not None:
            self._rec.event("oracle.pool_restart", track="oracle")
        self._ensure_pool()

    # -- evaluation --------------------------------------------------------
    def start(self, payloads: Sequence[Any]) -> None:
        """Dispatch a batch's first round without waiting for it.

        The next :meth:`evaluate` of the same payloads (the same
        objects in the same order) collects this round as its first,
        so several runtimes can work on their batches at once while
        one caller collects them in turn.  An :meth:`evaluate` of other
        payloads runs as usual and leaves the round in place; a later
        ``start`` replaces it, and :meth:`close` and
        :meth:`restart_pool` drop it.  An executor that runs tasks
        inline at ``submit`` finishes the round here.
        """
        items = list(payloads)
        self._started = self._submit(items, self._split(items))

    def evaluate(self, payloads: Sequence[Any]) -> List[Any]:
        """Evaluate one batch; order of results matches ``payloads``.

        Chunks that fail (worker exception, worker death, or
        ``chunk_timeout`` exceeded) are retried in bounded-backoff
        rounds; already-successful chunks are not recomputed.  Raises
        :class:`~repro.errors.WorkerCrashError` once ``max_retries``
        rounds have been exhausted, or
        :class:`~repro.errors.DegradedRunError` (with partial results)
        once ``max_consecutive_rebuilds`` pools broke back-to-back.
        The first round is the one :meth:`start` dispatched for these
        payloads, if any.
        """
        items = list(payloads)
        start = time.perf_counter()  # lint: disable=R7
        results: List[Any] = [None] * len(items)
        round_ = self._take_started(items)
        if round_ is None:
            round_ = self._submit(items, self._split(items))
        attempt = 0
        self._consecutive_rebuilds = 0
        while round_.chunks:
            pending, error, broken = self._collect(round_, results)
            if broken:
                self._consecutive_rebuilds += 1
                if (
                    self.max_consecutive_rebuilds is not None
                    and self._consecutive_rebuilds
                    >= self.max_consecutive_rebuilds
                ):
                    outstanding = sum(len(c) for _, c in pending)
                    err = DegradedRunError(
                        f"circuit breaker tripped: "
                        f"{self._consecutive_rebuilds} consecutive pool "
                        f"rebuilds ({outstanding} payload(s) outstanding)",
                        partial=list(results),
                        completed=len(items) - outstanding,
                        pending=outstanding,
                    )
                    raise err from error
            else:
                self._consecutive_rebuilds = 0
            if pending:
                attempt += 1
                if attempt > self.max_retries:
                    raise WorkerCrashError(
                        f"oracle batch failed after {self.max_retries} "
                        f"retries ({len(pending)} chunk(s) outstanding)"
                    ) from error
                self.stats.retries += 1
                if self._rec is not None:
                    self._rec.event(
                        "oracle.retry", track="oracle",
                        attempt=attempt, outstanding=len(pending),
                    )
                self._sleep(
                    min(
                        self.backoff_seconds * 2 ** (attempt - 1),
                        self.max_backoff_seconds,
                    )
                )
            round_ = self._submit(items, pending)
        elapsed = time.perf_counter() - start  # lint: disable=R7
        stats = self.stats
        stats.batches += 1
        stats.units += len(items)
        stats.oracle_seconds += elapsed
        stats.last_batch_seconds = elapsed
        stats.last_batch_size = len(items)
        rec = self._rec
        if rec is not None:
            rec.count("oracle.batches")
            rec.count("oracle.units", len(items))
            if rec.wallclock:
                rec.observe("oracle.batch_seconds", elapsed)
        return results

    def _take_started(self, items: List[Any]) -> Optional[_Round]:
        """The started round for exactly these payloads, taken off the
        runtime; None when :meth:`start` dispatched other payloads."""
        started = self._started
        if started is None or len(started.payloads) != len(items):
            return None
        if any(a is not b for a, b in zip(started.payloads, items)):
            return None
        self._started = None
        return started

    def _split(self, items: List[Any]) -> List[Tuple[int, List[Any]]]:
        """Cut a batch into ``(start_offset, chunk)`` tasks."""
        if not items:
            return []
        size = self.chunk_size
        if size is None:
            workers = self.max_workers or os.cpu_count() or 1
            size = max(1, math.ceil(len(items) / workers))
        return [
            (i, items[i : i + size]) for i in range(0, len(items), size)
        ]

    def _submit(
        self, items: List[Any], chunks: List[Tuple[int, List[Any]]],
    ) -> _Round:
        """Submit one round's chunks without waiting for any."""
        round_ = _Round(items)
        if not chunks:
            return round_
        pool = self._ensure_pool()
        for start, chunk in chunks:
            self.stats.chunks += 1
            fut: Optional[Future] = None
            if not round_.broken:
                try:
                    fut = pool.submit(_eval_chunk, self.oracle, chunk)
                except (BrokenExecutor, RuntimeError) as exc:
                    # Pool already broken/shut down: fail the rest of
                    # the round fast and let the retry machinery
                    # rebuild it.
                    round_.broken = True
                    round_.error = exc
            round_.chunks.append((start, chunk, fut))
        return round_

    def _collect(
        self, round_: _Round, results: List[Any],
    ) -> Tuple[
        List[Tuple[int, List[Any]]], Optional[BaseException], bool
    ]:
        """Wait for one round; return (failed chunks, last error, broken).

        Each chunk's ``chunk_timeout`` counts from the moment its
        collection starts waiting on it, not from its dispatch.
        """
        broken = round_.broken
        error = round_.error
        failed: List[Tuple[int, List[Any]]] = []
        rec = self._rec
        time_chunks = rec is not None and rec.wallclock
        for start, chunk, fut in round_.chunks:
            if rec is not None:
                rec.observe("oracle.chunk_size", len(chunk))
            if fut is None:
                failed.append((start, chunk))
                continue
            wait_from = (
                time.perf_counter() if time_chunks else 0.0  # lint: disable=R7
            )
            try:
                values = fut.result(timeout=self.chunk_timeout)
            except FuturesTimeoutError as exc:
                # The worker is stuck; stop waiting and replace the
                # pool (the chunk is retried like a crashed one).
                broken = True
                error = exc
                self.stats.timeouts += 1
                fut.cancel()
                failed.append((start, chunk))
            except BrokenExecutor as exc:
                broken = True
                error = exc
                failed.append((start, chunk))
            except Exception as exc:
                error = exc
                failed.append((start, chunk))
            else:
                if time_chunks:
                    assert rec is not None
                    rec.observe(
                        "oracle.chunk_seconds",
                        time.perf_counter() - wait_from,  # lint: disable=R7
                    )
                results[start : start + len(values)] = values
        if broken:
            self.restart_pool()
        return failed, error, broken

