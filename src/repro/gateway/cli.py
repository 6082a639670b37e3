"""``repro gateway`` — overload-safe serving with chaos and reports.

Generates a seeded open-loop workload, runs it through the
deterministic gateway, and prints the load report.  ``--chaos``
schedules a shard crash with recovery via a
:class:`~repro.faults.FaultPlan`, exercising failover, probing and
re-admission; ``--log-out`` writes the byte-replayable outcome log
the CI ``gateway-smoke`` job compares across same-seed runs;
``--wallclock`` opts into the asyncio real-time driver (same answers,
real pacing).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..faults import FaultPlan, ScheduleEntry
from ..serve import direct_mismatches
from .gateway import Gateway, GatewayConfig
from .loadgen import open_loop_arrivals, render_report, summarize

__all__ = ["add_gateway_arguments", "run_gateway"]


def add_gateway_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-requests", type=int, default=200)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--rate", type=float, default=8.0,
        help="mean arrivals per tick (open loop)",
    )
    parser.add_argument("--zipf", type=float, default=1.2)
    parser.add_argument("--num-trees", type=int, default=12)
    parser.add_argument("--branching", type=int, default=2)
    parser.add_argument("--height", type=int, default=4)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument(
        "--batch-size", type=int, default=8,
        help="max requests per dispatch round (capacity knob)",
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=None, metavar="N",
        help="override every priority class's queue bound",
    )
    parser.add_argument("--retry-capacity", type=int, default=8)
    parser.add_argument("--retry-refill", type=float, default=0.25)
    parser.add_argument("--probe-after", type=int, default=4)
    parser.add_argument(
        "--chaos", action="store_true",
        help="crash one shard mid-run with scheduled recovery",
    )
    parser.add_argument("--chaos-shard", type=int, default=0)
    parser.add_argument("--chaos-tick", type=int, default=5)
    parser.add_argument("--chaos-duration", type=int, default=12)
    parser.add_argument(
        "--verify", action="store_true",
        help="re-evaluate every completed response inline and compare",
    )
    parser.add_argument(
        "--log-out", type=str, default=None, metavar="PATH",
        help="write the deterministic outcome log",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="write a JSONL telemetry trace of the run",
    )
    parser.add_argument(
        "--wallclock", action="store_true",
        help="asyncio real-time pacing (opt-in; same answers)",
    )
    parser.add_argument(
        "--tick-seconds", type=float, default=0.001,
        help="real seconds per tick in --wallclock mode",
    )


def run_gateway(args: argparse.Namespace) -> int:
    if not 0 <= args.chaos_shard < args.shards:
        print(
            f"--chaos-shard must be in [0, {args.shards})",
            file=sys.stderr,
        )
        return 2

    arrivals = open_loop_arrivals(
        args.num_requests,
        seed=args.seed,
        rate=args.rate,
        zipf_s=args.zipf,
        num_trees=args.num_trees,
        branching=args.branching,
        height=args.height,
    )

    plan: Optional[FaultPlan] = None
    if args.chaos:
        plan = FaultPlan(args.seed, schedule=[ScheduleEntry(
            "crash",
            tick=args.chaos_tick,
            level=args.chaos_shard,
            duration=args.chaos_duration,
        )])

    recorder = None
    if args.trace_out is not None:
        from ..telemetry import InMemoryRecorder

        recorder = InMemoryRecorder()

    capacities = None
    if args.queue_capacity is not None:
        capacities = {
            name: args.queue_capacity
            for name in ("interactive", "batch", "bulk")
        }
    config = GatewayConfig(
        num_shards=args.shards,
        batch_size=args.batch_size,
        retry_capacity=args.retry_capacity,
        retry_refill_per_tick=args.retry_refill,
        probe_after=args.probe_after,
        probe_interval=args.probe_after,
        **({"queue_capacities": capacities} if capacities else {}),
    )

    with Gateway(
        config, fault_plan=plan, recorder=recorder
    ) as gateway:
        if args.wallclock:
            from .aio import run_wallclock

            report, elapsed = run_wallclock(
                gateway, arrivals, tick_seconds=args.tick_seconds
            )
        else:
            report, elapsed = gateway.run(arrivals), None

    if args.log_out is not None:
        with open(args.log_out, "w", encoding="utf-8") as fh:
            fh.write(report.response_log)

    if recorder is not None:
        from ..telemetry.cli import emit_jsonl_trace

        emit_jsonl_trace(recorder, args.trace_out)

    load = summarize(report)
    print(render_report(load))
    if elapsed is not None:
        ticks = max(1, load.ticks)
        print(
            f"  wall-clock: {elapsed:.3f}s for {ticks} tick(s) "
            f"({elapsed / ticks * 1000:.3f} ms/tick)"
        )

    if args.verify:
        by_id = {g.request.request_id: g.request for _t, g in arrivals}
        wrong = 0
        for _req, outcome, direct in direct_mismatches(
            (by_id[o.request_id], o)
            for o in report.outcomes if o.status == "ok"
        ):
            wrong += 1
            print(
                f"MISMATCH id={outcome.request_id} "
                f"algo={outcome.algo}: served "
                f"({outcome.value}, {outcome.steps}, {outcome.work})"
                f" != direct {direct}",
                file=sys.stderr,
            )
        if wrong:
            print(
                f"verify: {wrong} mismatch(es)", file=sys.stderr
            )
            return 1
        print(
            f"verify: all {load.completed} completed response(s) "
            f"correct"
        )
    return 0
