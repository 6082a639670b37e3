"""Shared-memory arena engines: the paper's rounds on real processors.

A shm run is an arena step loop of :mod:`repro.core.arena` —
:func:`~repro.core.arena.boolean.run_solve` or
:func:`~repro.core.arena.alphabeta.run_alpha_beta` — with a different
leaf evaluator: instead of gathering leaf values out of the lowered
column in-process, each step's batch is evaluated *in place* across OS
worker processes by :meth:`ShmPool.evaluate_batch
<repro.core.shm.pool.ShmPool.evaluate_batch>`, whose ordered-result
return is the step barrier.  Selection, settle cascades, pruning
sweeps, trace accounting and telemetry are the arena's own code, so
for any pure leaf oracle the value, per-step batches, step count and
work of a shm run are bit-identical to ``backend="arena"`` — the
determinism contract the differential and golden suites pin.
Wall-clock numbers (:class:`ShmRunResult.oracle_seconds` /
``total_seconds`` and the runtime stats) are where real hardware shows
up.

The executor is only where leaves are evaluated: a session has one
method per arena loop, :meth:`ShmSession.solve` and
:meth:`ShmSession.alpha_beta`, each taking the engine's selection
policy, the object rescan and the inline arena run too.  A
:class:`ShmSession` owns the published segments and the pool for one
tree and can run any number of policies over them (e28 runs the whole
speed-up curve in one session); the solver entry points open one
session per call for ``executor="shm"``.  The worker processes
outlive a clean session: the next session with the same worker count
re-attaches them instead of forking (:mod:`repro.core.shm.pool`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from ...errors import DegradedRunError
from ...models.accounting import EvalResult
from ...models.executors import RuntimeStats
from ...telemetry import Recorder, live, record_runtime_stats
from ...trees.base import GameTree
from ...trees.canonical import canonical_arrays
from ..arena.alphabeta import run_alpha_beta
from ..arena.boolean import ArenaPolicy, run_solve

# Never called here: selection runs in the arena modules, so patching
# these names changes nothing.  They stay only because perfbench's patch
# table names them and tests/test_perfbench_patch_table.py requires them.
from ..arena.selection import most_urgent, select_frontier, select_width  # noqa: F401
from .pool import ExecutorFactory, LeafOracle, ShmPool
from .segments import ArenaSegments

__all__ = [
    "ShmOptions",
    "ShmRunResult",
    "ShmSession",
]


@dataclass(frozen=True)
class ShmOptions:
    """Tuning knobs for a shared-memory session.

    ``oracle`` is the per-leaf function (default: the free identity
    oracle); ``workers`` sizes the pool (``None``: executor default);
    the remaining fields pass straight through to
    :class:`~repro.models.executors.OracleRuntime` — see its docstring
    for retry/backoff/timeout/circuit-breaker semantics.
    ``executor_factory`` and ``sleep`` are test-injection points.
    """

    oracle: Optional[LeafOracle] = None
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    max_retries: int = 2
    backoff_seconds: float = 0.05
    max_backoff_seconds: float = 1.0
    chunk_timeout: Optional[float] = None
    max_consecutive_rebuilds: Optional[int] = None
    executor_factory: Optional[ExecutorFactory] = None
    sleep: Optional[Callable[[float], None]] = None


@dataclass
class ShmRunResult(EvalResult):
    """An :class:`~repro.models.accounting.EvalResult` plus the run's
    wall-clock and pool accounting.

    ``value``/``trace``/``evaluated`` obey the serial determinism
    contract; ``stats`` is a snapshot of the pool's
    :class:`~repro.models.executors.RuntimeStats` after the run and
    ``oracle_seconds``/``total_seconds`` are wall-clock (meaningful
    only to wall-clock consumers, per lint R7)."""

    stats: RuntimeStats = field(default_factory=RuntimeStats)
    oracle_seconds: float = 0.0
    total_seconds: float = 0.0


class ShmSession:
    """Segments + worker pool for one tree, reusable across runs.

    Publishing the columns is a per-*tree* cost; a session amortises
    it across every engine call made inside the ``with`` block.  The
    workers are per-*process*: the pool takes the idle worker set when
    one of the requested size exists and attaches it to this
    session's segments by message, and forks a new set otherwise.

    Closing releases the pool first, then unmaps and unlinks the
    segments (idempotent, exception-safe).  The lifecycle contract:

    * no ``/dev/shm`` entry survives the session, on any path —
      including the degraded one, where the
      :class:`~repro.errors.DegradedRunError` from the pool's circuit
      breaker propagates through the engine loop (with
      ``steps_completed`` filled in) and out of the ``with``;
    * no worker maps a closed session's segments: after a clean close
      every worker has detached and the set waits idle for the next
      session; after an exception, a chunk timeout or a pool rebuild
      the workers are shut down, so a failed set is never reused;
    * a process keeps at most one idle set.
    """

    def __init__(
        self,
        tree: GameTree,
        options: Optional[ShmOptions] = None,
        *,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.tree = tree
        self.options = options if options is not None else ShmOptions()
        self.arrays = canonical_arrays(tree)
        self._rec = live(recorder)
        # The pool's runtime emits oracle.* counters and retry/rebuild
        # events; in logical-clock mode those would break byte-identity
        # with the serial arena telemetry, so the runtime only gets the
        # recorder when wall-clock observation was opted into.
        pool_recorder = (
            recorder
            if self._rec is not None and self._rec.wallclock
            else None
        )
        opts = self.options
        self.segments = ArenaSegments.publish(self.arrays)
        try:
            self.pool = ShmPool(
                self.segments,
                opts.oracle,
                workers=opts.workers,
                chunk_size=opts.chunk_size,
                max_retries=opts.max_retries,
                backoff_seconds=opts.backoff_seconds,
                max_backoff_seconds=opts.max_backoff_seconds,
                chunk_timeout=opts.chunk_timeout,
                max_consecutive_rebuilds=opts.max_consecutive_rebuilds,
                executor_factory=opts.executor_factory,
                sleep=opts.sleep,
                recorder=pool_recorder,
            )
        except BaseException:
            self.segments.close()
            raise

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "ShmSession":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.pool._spoiled = True
        self.close()

    def close(self) -> None:
        """Release the pool's workers, then unmap and unlink the
        segments."""
        try:
            self.pool.close()
        finally:
            self.segments.close()

    # -- engines -----------------------------------------------------------
    def _run(
        self,
        loop: Callable[..., EvalResult],
        policy: ArenaPolicy,
        *,
        keep_batches: bool,
        max_steps: Optional[int],
    ) -> ShmRunResult:
        """Run an arena step loop with the pool as its leaf evaluator."""
        rec = self._rec
        # The loop calls the evaluator once per step, so the calls that
        # returned are the steps a tripped circuit breaker reports.
        steps_done = 0

        def evaluate(batch_idx: np.ndarray) -> np.ndarray:
            nonlocal steps_done
            try:
                values = self.pool.evaluate_batch(batch_idx)
            except DegradedRunError as exc:
                exc.steps_completed = steps_done
                raise
            steps_done += 1
            return values

        start = time.perf_counter()  # lint: disable=R7
        result = loop(
            self.arrays, policy, evaluate,
            keep_batches=keep_batches, recorder=rec, max_steps=max_steps,
        )
        if rec is not None and rec.wallclock:
            record_runtime_stats(rec, self.pool.stats)
        stats = replace(self.pool.stats)
        return ShmRunResult(
            result.value,
            result.trace,
            result.evaluated,
            stats=stats,
            oracle_seconds=stats.oracle_seconds,
            total_seconds=time.perf_counter() - start,  # lint: disable=R7
        )

    def solve(
        self,
        policy: ArenaPolicy,
        *,
        keep_batches: bool = False,
        max_steps: Optional[int] = None,
    ) -> ShmRunResult:
        """Run a Boolean selection ``policy`` over the session's pool
        (see :func:`~repro.core.arena.boolean.arena_solve`)."""
        return self._run(
            run_solve, policy, keep_batches=keep_batches, max_steps=max_steps
        )

    def alpha_beta(
        self,
        policy: ArenaPolicy,
        *,
        keep_batches: bool = False,
        max_steps: Optional[int] = None,
    ) -> ShmRunResult:
        """The pruning process under ``policy`` over the session's pool
        (``WidthPolicy(0)``: sequential alpha-beta)."""
        return self._run(
            run_alpha_beta, policy,
            keep_batches=keep_batches, max_steps=max_steps,
        )
