#!/usr/bin/env python3
"""The repository's wall-clock benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up at least three times and for at
least two seconds (``setup_s`` is the median), then runs one
closed-loop client for ``--seconds`` of timed calls and reports the
end-to-end metrics, scaled to a reference CPU speed (see cpu_speed).  ``--trace 1`` spends half
of ``--seconds`` untraced and half with timing wrappers around each
layer's public functions (see tracing.py), and reports the per-layer
split, the tracing overhead and how much of the op time the named
layers account for.

Every metric is printed with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file carrying the machine fingerprint, and for
traced runs a JSONL and a Chrome trace, are written to ``--out``.  The
exit code is 1 when an answer was wrong, a shared-memory segment was
left behind, or the traced run never reached a layer it is built to
reach; it is 2 when the ``repro`` package is not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Attribution is complete when the named inner layers' self times
#: cover op time to within this share; what the op entry points keep for
#: themselves counts against it.
ATTRIBUTION_TOLERANCE = 0.05
#: An untraced run sets the workload up at least MIN_SETUPS times, and
#: again until SETUP_BUDGET_S is spent; setup_s is the median.
MIN_SETUPS = 3
SETUP_BUDGET_S = 2.0
#: Best-of-three time of reference_loop at the reference CPU speed: the
#: faster of the two speeds the vCPUs of a shared 2-core VM (2.0 GHz)
#: switched between, 1.4 ms against about 2.4 ms.
REFERENCE_S = 1.4e-3
#: Busy seconds between two measurements of the CPU speed.
SPEED_EVERY_S = 0.25

#: The 14 wire algorithms of repro.serve, one engine metric each.
SERVE_ALGORITHMS = (
    "sequential", "team", "parallel", "nsequential", "nparallel",
    "machine", "alphabeta", "sequential_ab", "parallel_ab",
    "nsequential_ab", "nparallel_ab", "scout", "sss", "minimax",
)
#: The solve cells reported as core.op_ms.<engine>.w<width>.
SOLVE_CELLS = tuple(
    f"{engine}.w{width}"
    for engine in ("parallel_solve", "parallel_alpha_beta")
    for width in (1, 2, 4, 8)
)
#: Ops averaged by core.steps_per_op / core.leaves_per_op: the first
#: ops of a run, so the figure does not depend on machine speed.
SCHEDULE_OPS = 16

Metrics = Dict[str, Tuple[float, str]]


@dataclass
class Phase:
    """What one closed-loop run measured."""

    durations: List[float] = field(default_factory=list)  # per call
    labels: List[str] = field(default_factory=list)
    ops_per_call: int = 1
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0  # wall-clock
    scaled_s: float = 0.0  # sum of durations

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.scaled_s


@dataclass
class Report:
    metrics: Metrics
    attempted: int
    failed: int
    ok: bool
    notes: List[str] = field(default_factory=list)


def reference_loop() -> int:
    """A fixed pure-Python loop that never calls the library."""
    counts: Dict[int, int] = {}
    total = 0
    for i in range(6000):
        counts[i & 255] = counts.get(i & 255, 0) + i * i
        total += len(str(i))
    return total


def cpu_speed() -> float:
    """The client's CPU speed now, relative to the reference speed.

    On a shared machine a vCPU's speed switches, within seconds,
    between states up to 1.7x apart, and whole runs can sit in either.
    A duration multiplied by this factor is the duration at the
    reference speed, so long as the library slows as the loop does.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_S / best


def closed_loop(workload: Any, seconds: float, scale: bool) -> Phase:
    """One client: the next call goes out when the previous returned.

    With ``scale`` each duration is multiplied by the CPU speed measured
    between calls, at most SPEED_EVERY_S busy seconds before it, except
    for the part the workload says ran to a clock rather than at CPU
    speed.
    """
    phase = Phase()
    speed, since = 1.0, math.inf
    while phase.busy_s < seconds:
        if scale and since >= SPEED_EVERY_S:
            speed, since = cpu_speed(), 0.0
        op = next(workload.ops)
        start = time.perf_counter()
        try:
            result = workload.call(op)
        except Exception:
            # A raising op counts as failed; the run goes on.
            elapsed = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            wrong, clock_s = op.size, 0.0
        else:
            elapsed = time.perf_counter() - start
            wrong = workload.check(op, result)
            clock_s = min(workload.clock_bound_s(result), elapsed)
        duration = clock_s + (elapsed - clock_s) * speed
        phase.durations.append(duration)
        phase.labels.append(op.label)
        phase.ops_per_call = op.size
        phase.attempted += op.size
        phase.failed += wrong
        phase.busy_s += elapsed
        phase.scaled_s += duration
        since += elapsed
    return phase


def peak_rss_mb(worker_processes: int) -> float:
    """Peak RSS of this process plus its worker processes.

    Workers are counted at the largest peak of any reaped child, so
    call this after the workload's pools have been shut down.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + worker_processes * child) / 1024.0


def _per(total: float, count: float, scale: float) -> float:
    return total / count * scale if count else 0.0


# -- end-to-end ---------------------------------------------------------------
def end_to_end(
    workload: Any, phase: Phase, setup_times: List[float]
) -> Tuple[Metrics, str]:
    durations = np.asarray(phase.durations)
    q = workload.tail_percentile
    tail = float(np.percentile(durations, q))
    beyond = int((durations > tail).sum()) * phase.ops_per_call
    metrics: Metrics = {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "latency_p50_ms": (float(np.percentile(durations, 50)) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(workload.worker_processes), "MB"),
    }
    note = (
        f"latency_tail_ms is p{q} over {phase.attempted} ops "
        f"({len(durations)} calls); {beyond} ops beyond it"
    )
    note += (
        f"; times scaled to the reference CPU speed (wall-clock "
        f"ops_per_s {phase.attempted / phase.busy_s:.6g}, mean speed "
        f"{phase.scaled_s / phase.busy_s:.3f})"
    )
    return metrics, note


def set_up(workload: Any, traced: bool) -> float:
    """Set the workload up; returns the seconds it took, inputs aside."""
    warmup = workload.warmup_inputs()
    start = time.perf_counter()
    workload.setup(warmup, traced)
    return time.perf_counter() - start


def run_untraced(workload: Any, seconds: float) -> Report:
    setup_times: List[float] = []
    spent = 0.0
    try:
        while len(setup_times) < MIN_SETUPS or spent < SETUP_BUDGET_S:
            if setup_times:
                workload.teardown()
            speed = cpu_speed()
            elapsed = set_up(workload, traced=False)
            setup_times.append(elapsed * speed)
            spent += elapsed
        phase = closed_loop(workload, seconds, scale=True)
    finally:
        workload.teardown()
    metrics, note = end_to_end(workload, phase, setup_times)
    return Report(
        metrics, phase.attempted, phase.failed, phase.failed == 0, [note]
    )


# -- per layer ----------------------------------------------------------------
def per_layer(
    workload: Any,
    untraced: Phase,
    traced: Phase,
    tracer: Any,
    delta: Dict[str, int],
) -> Metrics:
    t = tracer
    ops = traced.attempted
    requests = delta.get("requests", 0)
    misses = t.calls["serve.encode"]
    lookups = delta.get("hits", 0) + delta.get("misses", 0)
    batches = t.calls["runtime.evaluate"]
    sizes = t.payload_bytes()
    m: Metrics = {
        "serve.key_us": (
            _per(t.total["serve.request.key"], requests, 1e6), "us"),
        "serve.cache_us": (_per(t.total["serve.cache"], requests, 1e6), "us"),
        "serve.cache.hit_ratio": (
            _per(delta.get("hits", 0), lookups, 1.0), "ratio"),
        "serve.cache.evictions": (
            float(delta.get("evictions", 0)), "count"),
        "serve.dedup_ratio": (
            _per(delta.get("deduplicated", 0), requests, 1.0), "ratio"),
        "serve.self_us_per_req": (
            _per(t.self_time["serve.service"], requests, 1e6), "us"),
        "serve.shard_overlap": (
            _per(t.stage_eval_s, t.stage_wall_s, 1.0), "ratio"),
        "serve.encode_us_per_miss": (
            _per(t.total["serve.encode"], misses, 1e6), "us"),
        "serve.payload_bytes_per_miss": (
            _per(sum(sizes), len(sizes), 1.0), "bytes"),
        "runtime.evaluate_ms_per_batch": (
            _per(t.total["runtime.evaluate"], batches, 1e3), "ms"),
        "runtime.ipc_ms_per_batch": (
            _per(t.self_time["runtime.evaluate"], batches, 1e3), "ms"),
        "runtime.chunks": (float(delta.get("chunks", 0)), "count"),
        "runtime.retries": (float(delta.get("retries", 0)), "count"),
        "runtime.pool_restarts": (
            float(delta.get("pool_restarts", 0)), "count"),
        "serve.decode_us_per_miss": (
            _per(t.total["serve.decode"], t.calls["serve.decode"], 1e6),
            "us"),
    }
    for algo in SERVE_ALGORITHMS:
        span = "serve.engine." + algo
        m[f"serve.engine_ms_per_miss.{algo}"] = (
            _per(t.total[span], t.calls[span], 1e3), "ms")

    m["trees.lower_ms_per_op"] = (_per(t.total["trees.lower"], ops, 1e3), "ms")
    m["arena.select_ms_per_op"] = (
        _per(t.total["arena.select"], ops, 1e3), "ms")
    m["arena.select_us_per_step"] = (
        _per(t.total["arena.select"], t.calls["arena.select"], 1e6), "us")
    m["arena.settle_ms_per_op"] = (
        _per(t.total["arena.settle"], ops, 1e3), "ms")
    cells: Dict[str, List[float]] = defaultdict(list)
    for label, seconds in zip(untraced.labels, untraced.durations):
        cells[label].append(seconds)
    for cell in SOLVE_CELLS:
        values = cells.get(cell, [])
        m[f"core.op_ms.{cell}"] = (_per(sum(values), len(values), 1e3), "ms")
    schedule = getattr(workload, "schedule", [])[:SCHEDULE_OPS]
    m["core.steps_per_op"] = (
        _per(sum(s for s, _ in schedule), len(schedule), 1.0), "count")
    m["core.leaves_per_op"] = (
        _per(sum(w for _, w in schedule), len(schedule), 1.0), "count")

    leaf_s = t.total["shm.leaf_eval"]
    p, cost = workload.leaf_workers, workload.leaf_cost_s
    ideal_s = sum(math.ceil(b / p) for b in t.leaf_batches) * cost if p else 0.0
    serial_s = sum(t.leaf_batches) * cost
    m["shm.lifecycle_ms_per_op"] = (
        _per(t.self_time["shm.lifecycle"], ops, 1e3), "ms")
    m["shm.leaf_eval_ms_per_op"] = (_per(leaf_s, ops, 1e3), "ms")
    m["shm.barrier_overhead_ms_per_op"] = (
        _per(leaf_s - ideal_s, ops, 1e3) if leaf_s else 0.0, "ms")
    m["shm.parallel_efficiency"] = (_per(serial_s, p * leaf_s, 1.0), "ratio")

    m["trace.overhead"] = (traced.ops_per_s / untraced.ops_per_s, "ratio")
    # Shares of the op time the client measured around each call, less
    # the tracer's own bookkeeping: the named layers below the op entry
    # point, and the entry point's own rest (serve() or the engine's
    # step loop), which no layer names.
    op_s = traced.busy_s - t.bookkeeping_s
    inner = sum(t.self_time.values()) - t.outer_self
    m["trace.attributed_share"] = (inner / op_s, "ratio")
    m["trace.residual_share"] = (t.outer_self / op_s, "ratio")
    return m


def attribution(
    workload: Any, tracer: Any, metrics: Metrics
) -> Tuple[bool, str]:
    """Whether the traced run reached every layer, and how much of the
    op time the layers account for.

    A layer the workload is built to reach that recorded no span means
    the measurement is broken, and fails the run.  The attributed share
    is reported with its verdict but does not fail the run: it falls
    whenever the named layers get faster and the entry points do not.
    """
    share = metrics["trace.attributed_share"][0]
    missed = [
        layer for layer in workload.layers
        if not any(
            name.startswith(layer) and count
            for name, count in tracer.calls.items()
        )
    ]
    complete = abs(share - 1.0) <= ATTRIBUTION_TOLERANCE
    note = (
        f"attribution {'complete' if complete else 'INCOMPLETE'}: "
        f"named layer self times "
        f"cover {share:.2%} of op time (tolerance "
        f"{ATTRIBUTION_TOLERANCE:.0%}); op entry point residual "
        f"{metrics['trace.residual_share'][0]:.2%}; "
        f"tracer bookkeeping {tracer.bookkeeping_s:.3f} s left out; "
        f"layers never reached: {', '.join(missed) or 'none'}; "
        f"trace.overhead {metrics['trace.overhead'][0]:.3f}"
    )
    return not missed, note


def run_traced(workload: Any, seconds: float, stem: Path) -> Report:
    import tracing
    from repro.telemetry import write_chrome, write_jsonl

    try:
        set_up(workload, traced=False)
        untraced = closed_loop(workload, seconds / 2, scale=False)
    finally:
        workload.teardown()
    tracer = tracing.Tracer()
    try:
        set_up(workload, traced=True)
        before = workload.counters()
        with tracing.installed(tracer, workload.patches):
            traced = closed_loop(workload, seconds / 2, scale=False)
        after = workload.counters()
    finally:
        workload.teardown()
    delta = {key: after[key] - before[key] for key in after}
    metrics = per_layer(workload, untraced, traced, tracer, delta)
    write_jsonl(tracer.recorder, f"{stem}.trace.jsonl")
    write_chrome(tracer.recorder, f"{stem}.chrome.json")
    reached, note = attribution(workload, tracer, metrics)
    notes = [
        note,
        f"trace: {len(tracer.recorder.events)} spans kept, "
        f"{tracer.dropped} beyond the cap counted but not kept",
    ]
    failed = untraced.failed + traced.failed
    return Report(
        metrics, untraced.attempted + traced.attempted, failed,
        failed == 0 and reached, notes,
    )


# -- fingerprint ----------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int) -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def leaked_segments() -> List[str]:
    """Shared-memory segments this process published and left behind.

    ``repro.core.shm`` names its segments ``repro_<owner pid>_...``.
    Call this before stop_resource_tracker, which unlinks leftovers.
    """
    shm = Path("/dev/shm")
    prefix = f"repro_{os.getpid()}_"
    if not shm.is_dir():
        return []
    return sorted(p.name for p in shm.iterdir() if p.name.startswith(prefix))


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to exit.

    Shared memory and process pools start it on first use; left alone
    it would outlive this process by a moment, and the benchmark waits
    for every process it started.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark of the repro library."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="small inputs, for the smoke test",
    )
    parser.add_argument(
        "--out", type=Path, default=ROOT / ".perfbench",
        help="directory for the result file and traces",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from a "
            f"checkout of the repository", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}"
        )
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        report = run_traced(workload, args.seconds, stem)
    else:
        report = run_untraced(workload, args.seconds)
    leaked = leaked_segments()
    if leaked:
        report.ok = False
        report.notes.append(
            f"{len(leaked)} shared-memory segments left behind, "
            f"e.g. {leaked[0]}"
        )
    stop_resource_tracker()

    error_rate = report.failed / report.attempted
    print(
        f"perfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    width = max(len(name) for name in report.metrics)
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(
        f"  {'error_rate':<{width}}  {error_rate:.6g} "
        f"({report.failed} of {report.attempted} ops)"
    )
    for note in report.notes:
        print(f"  {note}")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in report.metrics.items()
    }
    result = {
        "correct": report.ok,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "fingerprint": fingerprint(args.seed),
        "error_rate": error_rate,
        "notes": report.notes,
        **result,
    }
    stem.with_suffix(".json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"  result file: {stem.with_suffix('.json')}")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
