"""Wall-clock benchmark path (``repro bench --wallclock``).

Two measurements, both outside the paper's cost model on purpose:

* frontier backend comparison — the incremental engine
  (:mod:`repro.core.frontier`) against the per-step rescan reference,
  same trees, same widths, identical runs (:func:`run_signature`,
  asserted before timing), for Parallel SOLVE and for parallel
  alpha-beta;
* oracle runtime — a CPU-bound leaf oracle dispatched through
  :class:`~repro.models.executors.OracleRuntime`'s process pool vs the
  serial baseline, demonstrating real multi-worker speed-up of the
  width-w schedule.

Everything else in this repository reports model-step counts; this
module is where real elapsed time is allowed (R2 exempts ``bench/``).
"""

from __future__ import annotations

import time
from statistics import median
from typing import Any, Callable, Optional, Sequence, Tuple

from ..core import parallel_solve
from ..core.alphabeta import parallel_alpha_beta
from ..core.policies import WidthPolicy
from ..models.executors import OracleRuntime
from ..models.oracle_runner import run_with_oracle
from ..trees.generators import iid_boolean, iid_minmax
from ..trees.generators.iid import level_invariant_bias
from .harness import ExperimentTable


def best_of(fn: Callable[[], object], repeats: int = 3) -> float:
    """Fastest elapsed seconds for ``fn`` across ``repeats`` runs.

    The shared timing primitive for every wall-clock benchmark in the
    repository (benchmarks import it from here so raw clock reads stay
    inside this R7-exempt module).
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def median_seconds(
    fn: Callable[[], Any], repeats: int = 3
) -> Tuple[float, Any]:
    """Median elapsed seconds across ``repeats`` runs + last result."""
    samples = []
    result: Any = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
    return median(samples), result


def run_signature(result) -> Tuple[Any, ...]:
    """What two runs of one schedule must agree on, step for step.

    Value, per-step degrees and batches, and the evaluation order;
    ``result`` must come from a ``keep_batches=True`` run.
    """
    return (
        result.value, result.trace.degrees, result.trace.batches,
        result.evaluated,
    )


def backend_wallclock_table(
    *,
    branching: int = 4,
    height: int = 8,
    widths: Sequence[int] = (1, 2, 4),
    seed: int = 2026,
    repeats: int = 3,
    backend: Optional[str] = None,
    alpha_beta: bool = False,
) -> ExperimentTable:
    """Frontier backends' wall-clock seconds on one tree.

    By default the incremental engine is timed against the per-step
    rescan reference; with ``backend`` set (``rescan``,
    ``incremental`` or ``arena``) only that backend is timed.  Before
    the clock starts, each timed backend's :func:`run_signature` is
    checked against the incremental backend's.  The arena's one-time
    lowering (memoized per tree, see docs/arena.md) is paid before
    timing, mirroring the e27 benchmark.

    The engine is Parallel SOLVE on an i.i.d. Boolean tree, plus one
    bounded-machine row; with ``alpha_beta`` it is parallel alpha-beta
    on an i.i.d. MIN/MAX tree, at the given widths only.
    """
    configs = [(width, None) for width in widths]
    if alpha_beta:
        tree = iid_minmax(branching, height, seed)
        name_suffix, title_suffix = "_alpha_beta", " (alpha-beta)"
    else:
        tree = iid_boolean(
            branching, height, level_invariant_bias(branching), seed=seed
        )
        name_suffix, title_suffix = "", ""
        # The bounded machine is where the incremental engine shines:
        # the rescan re-walks the whole width-w region every step while
        # only ``p`` of its leaves run.
        configs.append((max(widths), 2))
    timed = ("rescan", "incremental") if backend is None else (backend,)
    columns = ("d", "n", "width", "procs", "steps") + tuple(
        f"{name}_s" for name in timed
    )
    if backend is None:
        table = ExperimentTable(
            f"wallclock_backend{name_suffix}",
            f"frontier backend wall-clock{title_suffix}: incremental vs "
            f"per-step rescan",
            columns=columns + ("speedup",),
        )
    else:
        table = ExperimentTable(
            f"wallclock_backend_{backend}{name_suffix}",
            f"frontier backend wall-clock{title_suffix}: {backend}",
            columns=columns,
        )
    if "arena" in timed:
        from ..trees.canonical import canonical_arrays

        canonical_arrays(tree)

    def run(name: str, width: int, procs: Optional[int], keep=False):
        if alpha_beta:
            return parallel_alpha_beta(
                tree, width, backend=name, keep_batches=keep
            )
        return parallel_solve(
            tree, width, max_processors=procs, backend=name,
            keep_batches=keep,
        )

    for width, procs in configs:
        reference = run("incremental", width, procs, keep=True)
        for name in timed:
            chosen = run(name, width, procs, keep=True)
            if run_signature(chosen) != run_signature(reference):
                raise AssertionError(
                    f"{name} diverged from incremental at width {width}, "
                    f"procs {procs}"
                )
        seconds = [
            best_of(lambda: run(name, width, procs), repeats)
            for name in timed
        ]
        if backend is None:
            seconds.append(seconds[0] / seconds[1])
        table.add_row(
            branching, height, width,
            procs if procs is not None else "-", reference.num_steps,
            *seconds,
        )
    table.add_note(
        "value, per-step batches and evaluation order asserted identical "
        "to the incremental backend before timing; see "
        "docs/frontier_engine.md"
    )
    return table


def _cpu_oracle(payload) -> int:
    """CPU-bound leaf oracle: value survives, the spin is pure burn."""
    value, iters = payload
    acc = 0
    for _ in range(iters):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
    return int(value) ^ (acc & 0)


def oracle_wallclock_table(
    *,
    branching: int = 2,
    height: int = 6,
    width: int = 2,
    workers: int = 4,
    oracle_iters: int = 20000,
    seed: int = 2026,
) -> ExperimentTable:
    """Serial vs process-pool oracle evaluation of the same schedule."""
    table = ExperimentTable(
        "wallclock_oracle",
        "oracle runtime wall-clock: serial vs process pool",
        columns=(
            "mode", "steps", "work", "oracle_s", "batches",
            "chunks", "retries",
        ),
    )
    tree = iid_boolean(
        branching, height, level_invariant_bias(branching), seed=seed
    )

    def payload(t, leaf):
        return (t.leaf_value(leaf), oracle_iters)

    serial = run_with_oracle(
        tree, _cpu_oracle, WidthPolicy(width), payload=payload
    )
    table.add_row(
        "serial", serial.num_steps, serial.total_work,
        serial.oracle_seconds, serial.num_steps, 0, 0,
    )
    with OracleRuntime(_cpu_oracle, max_workers=workers) as runtime:
        pooled = run_with_oracle(
            tree, _cpu_oracle, WidthPolicy(width),
            payload=payload, runtime=runtime,
        )
        stats = runtime.stats
        table.add_row(
            f"pool(x{workers})", pooled.num_steps, pooled.total_work,
            pooled.oracle_seconds, stats.batches, stats.chunks,
            stats.retries,
        )
    if serial.value != pooled.value:
        raise AssertionError("oracle runtime changed the computed value")
    if serial.evaluated != pooled.evaluated:
        raise AssertionError("oracle runtime changed the evaluated leaves")
    table.add_note(
        f"per-leaf oracle spins {oracle_iters} iterations; values and "
        f"evaluated leaves identical across modes"
    )
    return table


def run_wallclock(
    *,
    branching: int = 4,
    height: int = 8,
    widths: Sequence[int] = (1, 2, 4),
    seed: int = 2026,
    workers: Optional[int] = None,
    oracle_iters: int = 20000,
    trace_out: Optional[str] = None,
    backend: Optional[str] = None,
) -> int:
    """CLI driver for ``repro bench --wallclock``.

    ``backend`` narrows the frontier tables to a single backend
    (``--backend {rescan,incremental,arena}``); by default the
    two-way incremental-vs-rescan comparison is printed.  One table
    times Parallel SOLVE, a second parallel alpha-beta.

    ``trace_out`` additionally records one instrumented run of the
    bench workload (the incremental backend at the first width, under
    a wall-clock-enabled recorder) and writes it as a JSONL trace —
    the same format ``repro trace`` and ``repro chaos --trace-out``
    emit.
    """
    for alpha_beta in (False, True):
        table = backend_wallclock_table(
            branching=branching, height=height, widths=widths, seed=seed,
            backend=backend, alpha_beta=alpha_beta,
        )
        if alpha_beta:
            print()
        print(table.render())
    if workers:
        print()
        oracle_table = oracle_wallclock_table(
            workers=workers, oracle_iters=oracle_iters, seed=seed
        )
        print(oracle_table.render())
    if trace_out is not None:
        from ..telemetry import InMemoryRecorder
        from ..telemetry.cli import emit_jsonl_trace

        recorder = InMemoryRecorder(wallclock=True)
        tree = iid_boolean(
            branching, height, level_invariant_bias(branching), seed=seed
        )
        parallel_solve(tree, widths[0], recorder=recorder)
        emit_jsonl_trace(recorder, trace_out)
        print(f"wrote {trace_out} ({len(recorder.events)} events, "
              f"width={widths[0]} seed={seed})")
    return 0
