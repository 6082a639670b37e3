"""Real OS-level parallel evaluation of per-step leaf batches.

The model-step measurements elsewhere in this library are exactly what
the paper analyses; this module is the bridge to *wall-clock* parallel
speed-up, which in CPython requires the expensive part — the leaf
oracle — to run outside the GIL (in worker processes) or inside
C code.  Each basic step's batch is evaluated through an executor
before the (cheap, serial) determination bookkeeping runs, so the
parallel structure is exactly the width-w schedule: per-step wall time
~ max over the batch instead of the sum.

Usage::

    from repro.models.executors import PipePool

    def oracle(payload):          # expensive; must be picklable
        ...

    with PipePool() as pool:
        result = run_with_oracle(tree, oracle, WidthPolicy(1), pool)

``tree`` supplies structure and per-leaf payloads; oracle values are
cached so a leaf is never paid for twice.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.solve_engine import Policy
from ..core.status import BooleanState
from ..errors import DegradedRunError, ModelViolationError
from ..models.accounting import ExecutionTrace
from ..models.executors import OracleRuntime
from ..telemetry import Recorder, live, record_runtime_stats
from ..trees.base import GameTree, NodeId


@dataclass
class OracleRunResult:
    """Outcome of an oracle-backed run, with wall-clock accounting."""

    value: int
    trace: ExecutionTrace
    #: wall-clock seconds spent inside oracle batches.
    oracle_seconds: float
    #: wall-clock seconds for the whole run.
    total_seconds: float
    evaluated: List[NodeId] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        return self.trace.num_steps

    @property
    def total_work(self) -> int:
        return self.trace.total_work


class _OracleLeafView:
    """Tree wrapper substituting oracle outputs for leaf values."""

    def __init__(self, tree: GameTree, cache: Dict[NodeId, int]):
        self._tree = tree
        self._cache = cache

    def __getattr__(self, name):
        return getattr(self._tree, name)

    def leaf_value(self, node: NodeId) -> int:
        try:
            return self._cache[node]
        except KeyError:
            raise ModelViolationError(
                f"leaf {node!r} evaluated before its oracle batch ran"
            )


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
        Maps a leaf payload to 0/1.  With an executor it must be
        picklable (module-level function).
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

    Per-step wall-clock times are recorded in the trace's
    ``step_seconds``.  ``recorder`` attaches a telemetry sink (step
    spans keyed on the basic-step count, with wall-clock step
    durations as an opt-in histogram when the recorder was built with
    ``wallclock=True``).
    """
    if payload is None:
        payload = lambda t, leaf: t.leaf_value(leaf)  # noqa: E731
    if runtime is not None and executor is not None:
        raise ValueError("pass either executor or runtime, not both")

    rec = live(recorder)
    cache: Dict[NodeId, int] = {}
    view = _OracleLeafView(tree, cache)
    state = BooleanState(view)
    trace = ExecutionTrace()
    evaluated: List[NodeId] = []
    start = time.perf_counter()  # lint: disable=R7
    oracle_time = 0.0
    root = tree.root

    def eval_batch(batch: List[NodeId]) -> float:
        nonlocal oracle_time
        inputs = [payload(tree, leaf) for leaf in batch]
        t0 = time.perf_counter()  # lint: disable=R7
        if runtime is not None:
            try:
                outputs = runtime.evaluate(inputs)
            except DegradedRunError as exc:
                exc.steps_completed = trace.num_steps
                raise
        elif executor is None:
            outputs = [oracle(x) for x in inputs]
        else:
            outputs = list(executor.map(oracle, inputs))
        elapsed = time.perf_counter() - t0  # lint: disable=R7
        oracle_time += elapsed
        for leaf, out in zip(batch, outputs):
            cache[leaf] = int(out)
        return elapsed

    # Height-0 trees take the normal loop: every policy selects the
    # root leaf itself.
    step = 0
    while root not in state.value:
        batch = policy(view, state)
        if not batch:
            raise ModelViolationError("policy selected no leaves")
        seconds = eval_batch(batch)
        for leaf in batch:
            state.evaluate_leaf(leaf)
        trace.record(batch, seconds=seconds)
        evaluated.extend(batch)
        if rec is not None:
            rec.advance(step + 1)
            rec.add_span(
                "step", step, step + 1, track="oracle-run",
                degree=len(batch),
            )
            rec.count("oracle_run.leaves_evaluated", len(batch))
            if rec.wallclock:
                rec.observe("oracle_run.step_seconds", seconds)
        step += 1
        if max_steps is not None and step > max_steps:
            raise ModelViolationError(f"exceeded {max_steps} steps")

    if rec is not None and runtime is not None:
        record_runtime_stats(rec, runtime.stats)
    return OracleRunResult(
        value=state.value[root],
        trace=trace,
        oracle_seconds=oracle_time,
        total_seconds=time.perf_counter() - start,  # lint: disable=R7
        evaluated=evaluated,
    )
