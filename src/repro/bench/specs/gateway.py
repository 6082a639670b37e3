"""Benchmark spec for the overload-safe request gateway (e26).

e26 drives a seeded open-loop zipf workload at roughly twice the
gateway's service capacity while a fault plan crashes a shard
mid-run and lets it recover.  The gates encode the robustness
contract of ``docs/serving.md``:

* two same-seed runs produce byte-identical outcome logs
  (rejections and latencies included);
* every completed answer matches direct evaluation — overload and
  chaos shed load, they never corrupt results;
* every arrival is resolved (completed or typed rejection) — no
  silent drops, no deadlocks;
* under 2x overload the gateway sheds but keeps a goodput floor —
  it degrades, it does not collapse;
* the crashed shard is probed and readmitted (self-healing ran).

All primary metrics are logical-tick quantities, so the bands are
zero-tolerance.  The wall-clock profile additionally paces the same
workload through the asyncio driver and checks its log matches the
simulated run byte for byte.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple

from ...faults import FaultPlan, ScheduleEntry
from ...gateway import (
    Gateway,
    GatewayConfig,
    GatewayReport,
    GatewayRequest,
    open_loop_arrivals,
    summarize,
)
from ...serve import direct_mismatches
from ..registry import Band, BenchSpec, Gate, SpecResult, register_spec

#: Deterministic logical-tick metrics: zero drift tolerated.
EXACT = Band()


def _build(params: Dict[str, Any]) -> Tuple[
    GatewayConfig, FaultPlan, List[Tuple[int, GatewayRequest]]
]:
    config = GatewayConfig(
        num_shards=params["shards"],
        batch_size=params["batch_size"],
        retry_capacity=params["retry_capacity"],
        probe_after=params["probe_after"],
        probe_interval=params["probe_after"],
    )
    plan = FaultPlan(params["seed"], schedule=[ScheduleEntry(
        "crash",
        tick=params["crash_tick"],
        level=params["crash_shard"],
        duration=params["crash_duration"],
    )])
    arrivals = open_loop_arrivals(
        params["num_requests"],
        seed=params["seed"],
        rate=params["rate"],
        zipf_s=params["zipf_s"],
        num_trees=params["num_trees"],
        height=params["height"],
    )
    return config, plan, arrivals


def _run_once(
    config: GatewayConfig,
    plan: FaultPlan,
    arrivals: List[Tuple[int, GatewayRequest]],
) -> GatewayReport:
    with Gateway(config, fault_plan=plan) as gateway:
        return gateway.run(arrivals)


def _wrong_answers(
    report: GatewayReport,
    arrivals: List[Tuple[int, GatewayRequest]],
) -> int:
    by_id = {g.request.request_id: g.request for _t, g in arrivals}
    return sum(1 for _ in direct_mismatches(
        (by_id[o.request_id], o)
        for o in report.outcomes if o.status == "ok"
    ))


def _run_e26(params: Dict[str, Any], wallclock: bool) -> SpecResult:
    config, plan, arrivals = _build(params)
    report = _run_once(config, plan, arrivals)
    rerun = _run_once(config, plan, arrivals)
    load = summarize(report)
    resolved = load.completed + sum(load.rejected.values())
    metrics = {
        "logs_identical": (
            1.0 if rerun.response_log == report.response_log else 0.0
        ),
        "wrong_answers": float(_wrong_answers(report, arrivals)),
        "all_resolved": (
            1.0 if resolved == load.requests else 0.0
        ),
        "goodput": load.goodput,
        "shed_rate": load.shed_rate,
        "latency_p50": load.p50,
        "latency_p99": load.p99,
        "readmissions": float(load.readmissions),
        "probes": float(load.probes),
        "outages": float(load.outages),
        "max_queue_depth": float(load.max_queue_depth),
        "ticks": float(load.ticks),
    }
    digests = {
        "response_log": hashlib.sha256(
            report.response_log.encode("utf-8")
        ).hexdigest(),
    }
    wc: Dict[str, float] = {}
    if wallclock:
        from ...gateway.aio import run_wallclock

        with Gateway(config, fault_plan=plan) as gateway:
            paced, elapsed = run_wallclock(
                gateway, arrivals,
                tick_seconds=params["tick_seconds"],
            )
        wc = {
            "wallclock_identical": (
                1.0
                if paced.response_log == report.response_log
                else 0.0
            ),
            "elapsed_s": elapsed,
            "ms_per_tick": elapsed / max(1, load.ticks) * 1000.0,
        }
    return SpecResult(
        metrics=metrics, digests=digests, wallclock_metrics=wc
    )


register_spec(BenchSpec(
    name="e26",
    suite="infra",
    title="Gateway overload soak - 2x capacity with shard chaos",
    seed=2026,
    runner=_run_e26,
    params={
        "num_requests": 400, "rate": 16.0, "zipf_s": 1.2,
        "num_trees": 12, "height": 5, "seed": 2026,
        "shards": 2, "batch_size": 6, "retry_capacity": 8,
        "probe_after": 4, "crash_tick": 5, "crash_shard": 0,
        "crash_duration": 12, "tick_seconds": 0.0005,
    },
    quick_params={"num_requests": 160, "height": 4},
    gates=(
        Gate("deterministic_log", "logs_identical", ">=", 1.0),
        Gate("zero_wrong_answers", "wrong_answers", "<=", 0.0),
        Gate("all_resolved", "all_resolved", ">=", 1.0),
        Gate("goodput_floor", "goodput", ">=", 0.2),
        Gate("overload_shed", "shed_rate", ">=", 0.05),
        Gate("self_healing", "readmissions", ">=", 1.0),
        Gate("wallclock_identity", "wallclock_identical", ">=", 1.0,
             wallclock=True),
    ),
    bands={
        "goodput": EXACT, "shed_rate": EXACT,
        "latency_p50": EXACT, "latency_p99": EXACT,
        "max_queue_depth": EXACT, "ticks": EXACT,
    },
))
