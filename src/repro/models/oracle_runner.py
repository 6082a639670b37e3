"""Real OS-level parallel evaluation of per-step leaf batches.

The model-step measurements elsewhere in this library are exactly what
the paper analyses; this module is the bridge to *wall-clock* parallel
speed-up, which in CPython requires the expensive part — the leaf
oracle — to run outside the GIL (in worker processes) or inside
C code.

:func:`run_with_oracle` is :func:`~repro.core.solve_engine.run_boolean`
with a leaf evaluator that sends each basic step's batch through the
oracle — serially, through an executor, or through an
:class:`~repro.models.executors.OracleRuntime` — before the (cheap,
serial) determination bookkeeping runs.  The schedule, trace and
logical-clock telemetry are therefore the model run's own; only the
wall time changes: per-step wall time ~ max over the batch instead of
the sum.

Usage::

    from repro.models.executors import PipePool

    def oracle(payload):          # expensive; must be picklable
        ...

    with PipePool() as pool:
        result = run_with_oracle(tree, oracle, WidthPolicy(1), pool)
"""

from __future__ import annotations

import time
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from ..core.solve_engine import Policy, run_boolean
from ..errors import DegradedRunError, ModelViolationError
from ..models.accounting import EvalResult
from ..models.executors import OracleRuntime
from ..telemetry import Recorder, live, record_runtime_stats
from ..trees.base import GameTree, NodeId


@dataclass
class OracleRunResult(EvalResult):
    """An :class:`~repro.models.accounting.EvalResult` plus the run's
    wall-clock accounting."""

    #: wall-clock seconds spent inside oracle batches.
    oracle_seconds: float = 0.0
    #: wall-clock seconds for the whole run.
    total_seconds: float = 0.0


def run_with_oracle(
    tree: GameTree,
    oracle: Callable[[Any], int],
    policy: Policy,
    executor: Optional[Executor] = None,
    *,
    payload: Callable[[GameTree, NodeId], Any] = None,
    max_steps: Optional[int] = None,
    runtime: Optional[OracleRuntime] = None,
    recorder: Optional[Recorder] = None,
) -> OracleRunResult:
    """Evaluate ``tree`` with leaf values produced by ``oracle``.

    Parameters
    ----------
    oracle:
        Maps a leaf payload to 0/1 (``True``, ``1.0`` and numpy
        integers are accepted; any other output raises
        :class:`~repro.errors.ModelViolationError` naming the leaf).
        With an executor it must be picklable (module-level function).
    executor:
        Where batches run; ``None`` evaluates serially (the baseline
        for measuring real speed-up).
    payload:
        Maps (tree, leaf) to the oracle's input; defaults to the
        tree's own leaf value (useful when the oracle post-processes
        stored payloads, as game trees do).
    runtime:
        An :class:`~repro.models.executors.OracleRuntime` to dispatch
        batches through instead of ``executor`` — adds chunking,
        crash retries, per-chunk timeouts and runtime counters.  The
        runtime's own oracle is used, so ``oracle`` is ignored when
        this is given.  If the runtime's circuit breaker trips, the
        :class:`~repro.errors.DegradedRunError` is re-raised with
        ``steps_completed`` set to the number of basic steps that
        finished before the failing batch.

    Per-step oracle wall-clock times are recorded in the trace's
    ``step_seconds``.  ``recorder`` receives ``run_boolean``'s
    ``solve`` telemetry, plus an ``oracle_run.step_seconds`` histogram
    when built with ``wallclock=True`` and the runtime's
    ``RuntimeStats`` at run end when ``runtime`` is given.
    """
    if payload is None:
        payload = lambda t, leaf: t.leaf_value(leaf)  # noqa: E731
    if runtime is not None and executor is not None:
        raise ValueError("pass either executor or runtime, not both")
    if runtime is not None:
        call = runtime.evaluate
    elif executor is None:
        call = lambda inputs: [oracle(x) for x in inputs]  # noqa: E731
    else:
        call = lambda inputs: list(executor.map(oracle, inputs))  # noqa: E731

    rec = live(recorder)
    # One entry per evaluator call that returned, so its length is also
    # the step count a tripped circuit breaker reports.
    step_seconds: List[float] = []

    def evaluate(batch: List[NodeId]) -> List[Any]:
        inputs = [payload(tree, leaf) for leaf in batch]
        t0 = time.perf_counter()  # lint: disable=R7
        try:
            outputs = call(inputs)
        except DegradedRunError as exc:
            exc.steps_completed = len(step_seconds)
            raise
        seconds = time.perf_counter() - t0  # lint: disable=R7
        step_seconds.append(seconds)
        if rec is not None and rec.wallclock:
            rec.observe("oracle_run.step_seconds", seconds)
        for leaf, out in zip(batch, outputs):
            if out not in (0, 1):
                raise ModelViolationError(
                    f"oracle returned {out!r} for leaf {leaf!r}; a "
                    f"Boolean leaf takes 0 or 1"
                )
        return outputs

    start = time.perf_counter()  # lint: disable=R7
    result = run_boolean(
        tree, policy, evaluate=evaluate, max_steps=max_steps,
        recorder=recorder,
    )
    result.trace.step_seconds = step_seconds
    if rec is not None and runtime is not None:
        record_runtime_stats(rec, runtime.stats)
    return OracleRunResult(
        value=result.value,
        trace=result.trace,
        oracle_seconds=sum(step_seconds),
        total_seconds=time.perf_counter() - start,  # lint: disable=R7
        evaluated=result.evaluated,
    )
