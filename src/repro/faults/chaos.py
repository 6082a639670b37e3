"""The ``repro chaos`` sweep: convergence and overhead under faults.

For every (fault kind, rate) cell the sweep runs the Section 7 machine
on seeded trees with a seeded :class:`FaultPlan`, checks that the run
converges to the fault-free ``val(root)``, replays the first seed to
confirm bit-identical event logs, and reports tick/message overhead
relative to the fault-free baseline.  With ``--runtime`` it also
drives the process-pool oracle runtime through a
:class:`FaultyExecutor` and reports retry/rebuild counts.

Everything here is model-step accounting on seeded instances — no
wall-clock, no unseeded randomness — so a failing cell is reproducible
from the printed seed alone.
"""

from __future__ import annotations

from statistics import median
from typing import List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .plan import ALL_FAULT_KINDS, FaultPlan

#: Default sweep grid (mirrors the acceptance matrix).
DEFAULT_RATES = (0.01, 0.05, 0.2)
DEFAULT_KINDS = ALL_FAULT_KINDS


def _chaos_cell(
    kind: str,
    rate: float,
    *,
    height: int,
    seeds: Sequence[int],
    max_faults: Optional[int],
) -> Tuple[List[str], bool]:
    """Run one (kind, rate) cell; returns (table rows, all converged)."""
    from ..simulator import simulate
    from ..trees.generators import iid_boolean

    tick_ratios: List[float] = []
    msg_ratios: List[float] = []
    converged = 0
    injected = 0
    replay_ok = True
    for i, seed in enumerate(seeds):
        tree = iid_boolean(2, height, 0.45, seed=seed)
        baseline = simulate(tree)
        plan = FaultPlan.with_rate(seed, kind, rate, max_faults=max_faults)
        try:
            faulty = simulate(tree, fault_plan=plan)
        except SimulationError:
            replay_ok = replay_ok and True
            continue
        if faulty.value == baseline.value:
            converged += 1
        assert faulty.fault_stats is not None
        injected += faulty.fault_stats.injected
        tick_ratios.append(faulty.ticks / baseline.ticks)
        msg_ratios.append(faulty.messages / baseline.messages)
        if i == 0:
            # Replay determinism: same seed, same event log, twice.
            first = simulate(tree, fault_plan=plan, trace_events=True)
            second = simulate(tree, fault_plan=plan, trace_events=True)
            replay_ok = replay_ok and first.events == second.events
    row = (
        f"{kind:>9} {rate:>6.2f} {converged:>5}/{len(seeds):<3} "
        f"{injected:>8} "
        f"{median(tick_ratios) if tick_ratios else float('nan'):>8.2f} "
        f"{median(msg_ratios) if msg_ratios else float('nan'):>8.2f} "
        f"{'yes' if replay_ok else 'NO':>7}"
    )
    return [row], converged == len(seeds) and replay_ok


def _runtime_section(seeds: Sequence[int]) -> Tuple[List[str], bool]:
    """Chaos-test the oracle runtime through injected executor faults."""
    from concurrent.futures import ThreadPoolExecutor

    from ..errors import DegradedRunError, WorkerCrashError
    from ..models.executors import OracleRuntime
    from .runtime import FaultyExecutor

    lines = ["", "oracle runtime (FaultyExecutor, thread pool):",
             f"{'seed':>6} {'outcome':>10} {'retries':>8} "
             f"{'rebuilds':>9} {'faults':>7}"]
    ok = True
    for seed in seeds:
        # Each rebuilt pool gets a seed derived from the build count:
        # replaying one fixed stream after every rebuild could repeat
        # the same breakage forever, which is not the drill's point.
        builds: List[int] = []

        def factory(s: int = seed) -> FaultyExecutor:
            builds.append(1)
            return FaultyExecutor(
                ThreadPoolExecutor(max_workers=2),
                seed=1000 * s + len(builds),
                broken_rate=0.1, task_error_rate=0.2, max_faults=8,
            )
        rt = OracleRuntime(
            _square, chunk_size=2, max_retries=8,
            backoff_seconds=0.0, executor_factory=factory,
            sleep=lambda _s: None,
        )
        outcome = "ok"
        with rt:
            try:
                out = rt.evaluate(list(range(16)))
                if out != [x * x for x in range(16)]:
                    outcome, ok = "WRONG", False
            except (WorkerCrashError, DegradedRunError) as exc:
                outcome = type(exc).__name__
        faults = rt.stats.retries + rt.stats.pool_restarts
        lines.append(
            f"{seed:>6} {outcome:>10} {rt.stats.retries:>8} "
            f"{rt.stats.pool_restarts:>9} {faults:>7}"
        )
    return lines, ok


def _square(x: int) -> int:
    return x * x


def _emit_trace(
    path: str,
    *,
    height: int,
    seed: int,
    kind: str,
    rate: float,
    max_faults: Optional[int],
) -> None:
    """Record one representative faulty run and write its JSONL trace."""
    from ..simulator import simulate
    from ..telemetry import InMemoryRecorder
    from ..telemetry.cli import emit_jsonl_trace
    from ..trees.generators import iid_boolean

    recorder = InMemoryRecorder()
    tree = iid_boolean(2, height, 0.45, seed=seed)
    plan = FaultPlan.with_rate(seed, kind, rate, max_faults=max_faults)
    try:
        simulate(tree, fault_plan=plan, recorder=recorder)
    except SimulationError as exc:
        print(f"trace run aborted ({exc}); writing the partial trace")
    emit_jsonl_trace(recorder, path)
    print(f"wrote {path} ({len(recorder.events)} events, "
          f"kind={kind} rate={rate} seed={seed})")


def run_chaos(
    *,
    height: int = 6,
    num_seeds: int = 5,
    rates: Sequence[float] = DEFAULT_RATES,
    kinds: Sequence[str] = DEFAULT_KINDS,
    max_faults: Optional[int] = 64,
    quick: bool = False,
    runtime: bool = False,
    trace_out: Optional[str] = None,
) -> int:
    """Run the chaos sweep; returns the process exit status.

    ``trace_out`` additionally records one representative faulty run
    (first kind, first rate, first seed) under a telemetry recorder
    and writes it as a JSONL trace — the same format ``repro trace``
    and the serve and gateway ``--trace-out`` emit.
    """
    if quick:
        height, num_seeds = 4, 2
        rates, kinds = (0.05,), ("drop", "crash")
        runtime = True
    for kind in kinds:
        if kind not in ALL_FAULT_KINDS:
            print(f"chaos: unknown fault kind {kind!r} "
                  f"(known: {', '.join(ALL_FAULT_KINDS)})")
            return 2
    seeds = list(range(num_seeds))
    print(f"chaos sweep: binary NOR trees, height {height}, "
          f"seeds {seeds[0]}..{seeds[-1]}, max_faults={max_faults}")
    print(f"{'kind':>9} {'rate':>6} {'conv':>9} {'faults':>8} "
          f"{'ticks_x':>8} {'msgs_x':>8} {'replay':>7}")
    all_ok = True
    for kind in kinds:
        for rate in rates:
            rows, ok = _chaos_cell(
                kind, rate, height=height, seeds=seeds,
                max_faults=max_faults,
            )
            all_ok = all_ok and ok
            for row in rows:
                print(row)
    if runtime:
        lines, ok = _runtime_section(seeds)
        all_ok = all_ok and ok
        for line in lines:
            print(line)
    if trace_out is not None:
        _emit_trace(trace_out, height=height, seed=seeds[0],
                    kind=kinds[0], rate=rates[0], max_faults=max_faults)
    print()
    print("all runs converged and replayed deterministically"
          if all_ok else "CHAOS FAILURES — see table above")
    return 0 if all_ok else 1
