"""Benchmark specs for the infrastructure subsystems (e21b, e23-e25,
e27 and e28; the e26 gateway overload soak lives in
:mod:`repro.bench.specs.gateway`).

These runners are the only implementation of the gated infra
benchmarks — the bounded machine's default backend, fault-injection
overhead, telemetry overhead, serving throughput, the arena backend
and shared-memory leaf evaluation.  ``repro bench`` runs them, and each
``benchmarks/bench_e2*.py`` file is a thin wrapper that runs its spec
through :func:`repro.bench.runner.run_benchmarks` and asserts every
gate.

Deterministic metrics (step identity, tick ratios, cache hit
structure, response-log digests) are always produced; wall-clock
numbers only exist when the runner was invoked with ``--wallclock``,
and their gates are evaluated only in the full profile.  Each identity
metric folds in every check of its property: a ``0.0`` means some
compared run differed.  The backend comparisons (e21b, e27) time
every cell they check, as ``{cell}_speedup``; their gates read one
named cell.
"""

from __future__ import annotations

import hashlib
import time
from functools import partial
from statistics import median
from typing import Any, Callable, Dict, List, Optional

from ...core import WidthPolicy, parallel_solve
from ...core.alphabeta import parallel_alpha_beta
from ...core.shm import CalibratedOracle, ShmOptions, ShmSession
from ...faults import ALL_FAULT_KINDS, FaultPlan
from ...serve import (
    EvalRequest,
    ShardedBatchService,
    make_tree_pool,
    response_log,
    synthetic_stream,
)
from ...serve.engines import evaluate_payload
from ...simulator import simulate
from ...telemetry import InMemoryRecorder, NullRecorder
from ...trees.generators import iid_boolean
from ...trees.generators.iid import iid_minmax, level_invariant_bias
from ..registry import Band, BenchSpec, Gate, SpecResult, register_spec
from ..wallclock import best_of, median_seconds, run_signature

#: Band for wall-clock-free ratio metrics of the infra suite.
FLOAT = Band(rel=0.02)

#: Tick-overhead ratios: growth beyond 10% is a regression.
TICKS = Band(rel=0.10, direction="up_bad")


#: Bounded-machine (width, processors) cells whose runs must match
#: across backends (e27 also checks the spec's unbounded widths).
E21B_BOUNDED = ((4, 2), (4, 4), (2, 3))
E27_BOUNDED = ((4, 2), (8, 5))

#: e27's arena-vs-rescan crossover grid, checked and timed
#: besides the spec's widths and gate cells: Parallel SOLVE
#: ``(width, processors)`` cells and alpha-beta widths.
E27_SOLVE_GRID = ((0, None), (1, None), (2, None), (8, None), (8, 2))
E27_AB_GRID = (0, 1, 2, 8)

#: Fault rates above e23's gated one: runs must still converge, but
#: their cost is not gated.
E23_HIGH_RATES = (0.05, 0.2)

#: Every message fault and crashes in one plan (e23's bench kernel).
E23_MIXED_PLAN = dict(
    drop=0.05, duplicate=0.02, delay=0.02, crash=0.01, max_faults=32
)


def uniform_boolean(params: Dict[str, Any]):
    """The i.i.d. uniform Boolean tree a spec's params describe."""
    branching = params["branching"]
    return iid_boolean(
        branching, params["height"], level_invariant_bias(branching),
        seed=params["seed"],
    )


def _cell(width: int, procs: Optional[int]) -> str:
    """A ``(width, procs)`` cell's metric stem: ``w8`` or ``w8_p2``."""
    return f"w{width}" if procs is None else f"w{width}_p{procs}"


def _agree(backends, run) -> bool:
    """Whether ``run`` (an engine call lacking only its ``backend``)
    runs identically on each of ``backends`` (``None``: the engine's
    default)."""
    first, *rest = [
        run_signature(run(keep_batches=True, backend=backend))
        for backend in backends
    ]
    return all(signature == first for signature in rest)


def _speedups(
    pair, runs: Dict[str, Callable[..., Any]], repeats: int
) -> Dict[str, float]:
    """``{cell}_speedup`` for each named run in ``runs``: the first
    backend's best-of-``repeats`` seconds over the second's."""
    speedups = {}
    for cell, run in runs.items():
        slow, fast = [
            best_of(partial(run, backend=backend), repeats)
            for backend in pair
        ]
        speedups[f"{cell}_speedup"] = slow / fast
    return speedups


def _run_e21b(params: Dict[str, Any], wallclock: bool) -> SpecResult:
    tree = uniform_boolean(params)
    # ``None`` is the default backend, which runs a bounded machine on
    # the arena (every other run is rescan's own).
    pair = ("rescan", None)
    runs = {
        _cell(width, procs): partial(
            parallel_solve, tree, width, max_processors=procs
        )
        for width, procs in E21B_BOUNDED
    }
    identical = all(_agree(pair, run) for run in runs.values())
    gate_cell = _cell(*params["gate_case"])
    bounded = runs[gate_cell](backend=None)
    metrics = {
        "backends_identical": float(identical),
        "bounded_steps": float(bounded.num_steps),
    }
    wc: Dict[str, float] = {}
    if wallclock:
        wc = _speedups(pair, runs, params["repeats"])
        wc["speedup"] = wc[f"{gate_cell}_speedup"]
    return SpecResult(metrics=metrics, wallclock_metrics=wc)


register_spec(BenchSpec(
    name="e21b",
    suite="infra",
    title="Bounded machine - the default backend vs per-step rescan",
    seed=2026,
    runner=_run_e21b,
    params={
        "branching": 4, "height": 8, "seed": 2026,
        "gate_case": (4, 2), "repeats": 2,
    },
    quick_params={"height": 6},
    gates=(
        Gate("step_identity", "backends_identical", ">=", 1.0),
        Gate("default_bounded_speedup", "speedup", ">=", 5.0,
             wallclock=True),
    ),
))


def _run_e27(params: Dict[str, Any], wallclock: bool) -> SpecResult:
    boolean_tree = uniform_boolean(params)
    minmax_tree = iid_minmax(
        params["branching"], params["height"], seed=params["seed"]
    )
    pair = ("rescan", "arena")
    solve_w = params["solve_gate_width"]
    ab_w = params["ab_gate_width"]
    solve_cells = dict.fromkeys(
        [(width, None) for width in params["solve_widths"]]
        + list(E27_BOUNDED) + list(E27_SOLVE_GRID) + [(solve_w, None)]
    )
    solve_runs = {
        f"solve_{_cell(width, procs)}": partial(
            parallel_solve, boolean_tree, width, max_processors=procs
        )
        for width, procs in solve_cells
    }
    ab_runs = {
        f"ab_w{width}": partial(parallel_alpha_beta, minmax_tree, width)
        for width in dict.fromkeys(
            tuple(params["ab_widths"]) + E27_AB_GRID + (ab_w,)
        )
    }
    solve_identical = float(all(
        _agree(pair, run) for run in solve_runs.values()
    ))
    ab_identical = float(all(
        _agree(pair, run) for run in ab_runs.values()
    ))
    solve_run = solve_runs[f"solve_w{solve_w}"](backend="arena")
    ab_run = ab_runs[f"ab_w{ab_w}"](backend="arena")
    metrics = {
        "solve_identical": solve_identical,
        "ab_identical": ab_identical,
        "backends_identical": min(solve_identical, ab_identical),
        "solve_steps": float(solve_run.num_steps),
        "ab_steps": float(ab_run.num_steps),
    }
    wc: Dict[str, float] = {}
    if wallclock:
        # Lowering is memoized per tree, so the identity runs above
        # paid it before the clock starts.
        wc = _speedups(pair, {**solve_runs, **ab_runs}, params["repeats"])
        wc["solve_speedup"] = wc[f"solve_w{solve_w}_speedup"]
        wc["ab_speedup"] = wc[f"ab_w{ab_w}_speedup"]
    return SpecResult(metrics=metrics, wallclock_metrics=wc)


register_spec(BenchSpec(
    name="e27",
    suite="infra",
    title="Arena backend - vectorised columnar sweeps vs rescan",
    seed=2027,
    runner=_run_e27,
    params={
        "branching": 5, "height": 7, "seed": 2027,
        "solve_widths": (2, 4, 8), "ab_widths": (2, 4),
        "solve_gate_width": 8, "ab_gate_width": 12, "repeats": 2,
    },
    # Smaller tree keeps the quick profile cheap; the gate widths grow
    # so the batches stay large enough to clear the 10x bar there too.
    quick_params={
        "height": 6, "solve_gate_width": 12, "ab_gate_width": 16,
    },
    gates=(
        Gate("step_identity", "backends_identical", ">=", 1.0),
        Gate("solve_speedup", "solve_speedup", ">=", 10.0,
             wallclock=True),
        Gate("ab_speedup", "ab_speedup", ">=", 10.0, wallclock=True),
    ),
))


def _run_e28(params: Dict[str, Any], wallclock: bool) -> SpecResult:
    width, height = params["width"], params["height"]
    tree = uniform_boolean(params)
    reference = parallel_solve(
        tree, width, keep_batches=True, backend="arena"
    )
    sequential = parallel_solve(tree, 0, backend="arena")
    identical = float(all(
        run_signature(parallel_solve(
            tree, width, keep_batches=True, backend="arena",
            executor="shm",
            shm_options=ShmOptions(workers=p, chunk_size=chunk),
        )) == run_signature(reference)
        for p in params["p_grid"]
        for chunk in params["chunk_sizes"]
    ))
    # One alpha-beta cell keeps the minmax half of the executor honest
    # without doubling the sweep.
    minmax_tree = iid_minmax(
        params["branching"], height, seed=params["seed"]
    )
    ab_reference = parallel_alpha_beta(
        minmax_tree, 1, keep_batches=True, backend="arena"
    )
    ab_shm = parallel_alpha_beta(
        minmax_tree, 1, keep_batches=True, backend="arena",
        executor="shm", shm_options=ShmOptions(workers=2),
    )
    ab_identical = float(
        run_signature(ab_shm) == run_signature(ab_reference)
    )
    # The paper's Theorem 1 speedup is S(T)/steps = c.(n+1); report
    # the measured constant so the trajectory tracks it.
    step_speedup = sequential.num_steps / reference.num_steps
    metrics = {
        "solve_identical": identical,
        "ab_identical": ab_identical,
        "backends_identical": min(identical, ab_identical),
        "steps": float(reference.num_steps),
        "work": float(reference.total_work),
        "seq_steps": float(sequential.num_steps),
        "step_speedup": step_speedup,
        "c_hat": step_speedup / (height + 1),
    }
    wc: Dict[str, float] = {}
    if wallclock:
        oracle = CalibratedOracle(
            params["oracle_cost_s"], params["oracle_mode"]
        )
        repeats = params["repeats"]
        policy = WidthPolicy(width)
        times: Dict[int, float] = {}
        for p in params["p_grid"]:
            with ShmSession(
                tree, ShmOptions(workers=p, oracle=oracle)
            ) as session:
                times[p] = best_of(lambda: session.solve(policy), repeats)
        grid = list(params["p_grid"])
        base = times[grid[0]]
        for p in grid:
            wc[f"t_p{p}"] = times[p]
            wc[f"speedup_p{p}"] = base / times[p]
        # Monotone within 5% noise: adding workers never slows a step
        # barrier down by more than jitter.
        monotone = 1.0
        for lo, hi in zip(grid, grid[1:]):
            if times[hi] > times[lo] * 1.05:
                monotone = 0.0
        wc["monotone_speedup"] = monotone
        wc["oracle_floor_s"] = reference.total_work * params[
            "oracle_cost_s"
        ]
    return SpecResult(metrics=metrics, wallclock_metrics=wc)


register_spec(BenchSpec(
    name="e28",
    suite="infra",
    title="Shared-memory leaf evaluation - hardware speedup vs c.(n+1)",
    seed=2028,
    runner=_run_e28,
    params={
        "branching": 3, "height": 6, "width": 1, "seed": 2028,
        "p_grid": (1, 2, 4), "chunk_sizes": (None, 3),
        "oracle_cost_s": 0.004, "oracle_mode": "sleep", "repeats": 2,
    },
    # The quick profile is the CI canary: a smaller tree, p <= 2, one
    # chunking policy, and no wall-clock leg (the snapshot must be
    # byte-identical across runs).
    quick_params={
        "height": 5, "p_grid": (1, 2), "chunk_sizes": (None,),
        "repeats": 1,
    },
    gates=(
        Gate("step_identity", "backends_identical", ">=", 1.0),
        Gate("speedup_p4", "speedup_p4", ">=", 1.8, wallclock=True),
        Gate("monotone", "monotone_speedup", ">=", 1.0,
             wallclock=True),
    ),
))


def _run_e23(params: Dict[str, Any], wallclock: bool) -> SpecResult:
    trees = [
        iid_boolean(2, params["height"], 0.45, seed=s)
        for s in range(params["tree_seeds"])
    ]
    instances = [(t, simulate(t)) for t in trees]
    tree, baseline = instances[0]
    mixed = simulate(tree, fault_plan=FaultPlan(1, **E23_MIXED_PLAN))
    converged = mixed.value == baseline.value
    metrics: Dict[str, float] = {}
    for kind in ALL_FAULT_KINDS:
        for rate in (params["rate"],) + E23_HIGH_RATES:
            ratios = []
            for tree, baseline in instances:
                for plan_seed in range(params["plan_seeds"]):
                    plan = FaultPlan.with_rate(
                        plan_seed, kind, rate,
                        max_faults=params["max_faults"],
                    )
                    res = simulate(tree, fault_plan=plan)
                    converged &= res.value == baseline.value
                    ratios.append(res.ticks / baseline.ticks)
            if rate == params["rate"]:
                metrics[f"tick_ratio_{kind}"] = float(median(ratios))
    metrics["converged"] = float(converged)
    return SpecResult(metrics=metrics)


register_spec(BenchSpec(
    name="e23",
    suite="infra",
    title="Fault-injection overhead on the Section 7 machine",
    seed=0,
    runner=_run_e23,
    params={
        "height": 6, "tree_seeds": 5, "plan_seeds": 3,
        "rate": 0.01, "max_faults": 32,
    },
    quick_params={"tree_seeds": 3, "plan_seeds": 2},
    gates=(
        (Gate("converges", "converged", ">=", 1.0),)
        + tuple(
            Gate(f"overhead_{kind}", f"tick_ratio_{kind}", "<=", 2.0)
            for kind in ALL_FAULT_KINDS
        )
    ),
    bands={"tick_ratio_*": TICKS},
))


def _run_e24(params: Dict[str, Any], wallclock: bool) -> SpecResult:
    width = params["width"]
    tree = uniform_boolean(params)
    baseline = parallel_solve(tree, width, keep_batches=True)
    identical = float(all(
        run_signature(parallel_solve(
            tree, width, keep_batches=True, recorder=recorder
        )) == run_signature(baseline)
        for recorder in (None, NullRecorder(), InMemoryRecorder())
    ))
    metrics = {
        "recorders_identical": identical,
        "steps": float(baseline.num_steps),
    }
    wc: Dict[str, float] = {}
    if wallclock:
        repeats = params["repeats"]
        t_base, _ = median_seconds(
            lambda: parallel_solve(tree, width), repeats
        )
        t_null, _ = median_seconds(
            lambda: parallel_solve(
                tree, width, recorder=NullRecorder()
            ),
            repeats,
        )
        t_mem, _ = median_seconds(
            lambda: parallel_solve(
                tree, width, recorder=InMemoryRecorder()
            ),
            repeats,
        )
        wc = {
            "base_s": t_base,
            "null_overhead_x": t_null / t_base,
            "inmemory_overhead_x": t_mem / t_base,
        }
    return SpecResult(metrics=metrics, wallclock_metrics=wc)


register_spec(BenchSpec(
    name="e24",
    suite="infra",
    title="Telemetry recorder overhead on the solve hot loop",
    seed=2026,
    runner=_run_e24,
    params={
        "branching": 4, "height": 8, "width": 4, "seed": 2026,
        "repeats": 5,
    },
    quick_params={"height": 6, "repeats": 3},
    gates=(
        Gate("step_identity", "recorders_identical", ">=", 1.0),
        Gate("null_overhead", "null_overhead_x", "<=", 1.05,
             wallclock=True),
        Gate("inmemory_overhead", "inmemory_overhead_x", "<=", 1.5,
             wallclock=True),
    ),
))


#: e25's shard-scaling stream: this many distinct height-4 trees,
#: each payload sleeping ``SHARD_SLEEP_S`` in its worker.  The cost is
#: a clock, not CPU (as e28's calibrated leaf), so the speedup over
#: one shard holds on a one-core machine.
SHARD_REQUESTS = 128
SHARD_SLEEP_S = 0.004


def _sleep_cost_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker function of e25's shard-scaling run: sleep, then answer
    like the default worker.  Module-level, so a process pool pickles
    it by reference."""
    time.sleep(SHARD_SLEEP_S)
    return evaluate_payload(payload)


def _shard_seconds(
    requests: List[EvalRequest], num_shards: int, repeats: int
) -> float:
    """Median seconds of one cold ``serve`` of ``requests`` over
    ``num_shards`` one-worker process shards."""
    with ShardedBatchService(
        num_shards, cache_size=0, pool="process", max_workers=1,
        oracle=_sleep_cost_payload,
    ) as service:
        service.serve(requests)  # forks every shard's worker
        seconds, _ = median_seconds(
            lambda: service.serve(requests), repeats
        )
    return seconds


def _run_e25(params: Dict[str, Any], wallclock: bool) -> SpecResult:
    num_requests = params["num_requests"]
    stream = synthetic_stream(
        num_requests, seed=params["seed"],
        num_trees=params["num_trees"], height=params["height"],
        zipf_s=params["zipf_s"],
    )
    with ShardedBatchService(2, cache_size=0) as cold_service:
        cold_responses = cold_service.serve(stream)
    cold_log = response_log(cold_responses)
    with ShardedBatchService(2, cache_size=None) as warm_service:
        warm_service.serve(stream)
        unique = warm_service.stats.evaluated
        warm_responses = warm_service.serve(stream)
        stats = warm_service.stats
    # Only the populate pass missed: the warm pass was all hits.
    all_hits = stats.cache.misses == stats.evaluated == unique
    warm_log = response_log(warm_responses)
    steps = sorted(r.steps for r in cold_responses)
    p99 = steps[min(len(steps) - 1, int(0.99 * len(steps)))]
    metrics = {
        "logs_identical": float(warm_log == cold_log and all_hits),
        "unique_evaluated": float(unique),
        "unique_frac": unique / num_requests,
        "steps_p99": float(p99),
        "total_steps": float(sum(steps)),
    }
    digests = {
        "response_log": hashlib.sha256(
            cold_log.encode("utf-8")
        ).hexdigest(),
    }
    wc: Dict[str, float] = {}
    if wallclock:
        repeats = params["repeats"]
        with ShardedBatchService(2, cache_size=0) as cold:
            t_cold, _ = median_seconds(
                lambda: cold.serve(stream), repeats
            )
        with ShardedBatchService(2, cache_size=None) as warm:
            warm.serve(stream)
            t_warm, _ = median_seconds(
                lambda: warm.serve(stream), repeats
            )
        scaling = [
            EvalRequest.make(i, "alphabeta", tree)
            for i, tree in enumerate(make_tree_pool(
                SHARD_REQUESTS, seed=params["seed"], height=4
            ))
        ]
        t_one = _shard_seconds(scaling, 1, repeats)
        wc = {
            "cold_s": t_cold,
            "warm_s": t_warm,
            "warm_speedup": t_cold / t_warm,
            **{
                f"shard_speedup_{shards}":
                    t_one / _shard_seconds(scaling, shards, repeats)
                for shards in (2, 4)
            },
        }
    return SpecResult(
        metrics=metrics, digests=digests, wallclock_metrics=wc
    )


register_spec(BenchSpec(
    name="e25",
    suite="infra",
    title="Serving throughput - warm canonical cache vs cold",
    seed=2025,
    runner=_run_e25,
    params={
        "num_requests": 300, "num_trees": 10, "height": 6,
        "zipf_s": 1.2, "seed": 2025, "repeats": 3,
    },
    # The zipf-dedup premise needs the full stream length; only the
    # wall-clock repeat count shrinks in the quick profile.
    quick_params={"repeats": 2},
    gates=(
        Gate("deterministic_answers", "logs_identical", ">=", 1.0),
        Gate("zipf_dedup", "unique_frac", "<=", 1.0 / 3.0),
        Gate("warm_speedup", "warm_speedup", ">=", 3.0,
             wallclock=True),
        # Cold requests/s on sleep-cost shards scales with the shard
        # count: every shard's share is dispatched before any is
        # collected.
        Gate("shard_scaling_2", "shard_speedup_2", ">=", 0.7 * 2,
             wallclock=True),
        Gate("shard_scaling_4", "shard_speedup_4", ">=", 0.7 * 4,
             wallclock=True),
    ),
    bands={"unique_frac": Band(rel=0.02), "steps_p99": FLOAT,
           "total_steps": FLOAT},
))
