"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list
    List the registered experiments.
run EXPID [EXPID ...]
    Run experiments and print their tables (also saved under
    ``benchmarks/results/``).
report
    Regenerate EXPERIMENTS.md from the saved result tables.
demo
    A 30-second tour: evaluate one instance with every algorithm.
bench --wallclock
    Wall-clock measurements: incremental vs rescan frontier backend
    on Parallel SOLVE and parallel alpha-beta, and (with ``--workers``)
    the process-pool oracle runtime.
lint
    Static-analysis pass enforcing the model invariants (R1-R12).
chaos
    Fault-injection sweep: convergence and overhead under seeded
    message/processor faults, plus OracleRuntime fault drills.
trace
    Record an instrumented run under the deterministic telemetry
    recorder and export it as a Chrome ``trace_event`` file or JSONL.
serve
    Batch-evaluation service: canonical-tree result cache in front of
    hash-sharded OracleRuntime pools, with deterministic response
    logs and an optional chaos (crashing-shard) mode.
gateway
    Overload-safe request gateway in front of the sharded service:
    bounded admission queues, priority classes, deadlines, a retry
    budget and shard self-healing, driven by a deterministic
    logical-clock loop (asyncio wall-clock mode opt-in).
shm
    Shared-memory leaf evaluation over the arena: identity check
    against the serial arena engines and a wall-clock speedup curve
    over worker counts with a calibrated leaf oracle.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from .models.accounting import EvalResult


def _cmd_list(args: argparse.Namespace) -> int:
    from .bench import list_experiments

    for name in list_experiments():
        print(name)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .bench import run_experiment

    for name in args.experiments:
        table = run_experiment(name, save=not args.no_save)
        print(table.render())
        print()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench.report import generate_experiments_md

    generate_experiments_md()
    print("wrote EXPERIMENTS.md")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Fast cross-validation of every algorithm family."""
    import numpy as np

    from .core import parallel_solve, sequential_solve, team_solve
    from .core.alphabeta import (
        alpha_beta,
        parallel_alpha_beta,
        scout,
        sequential_alpha_beta,
        sss_star,
    )
    from .core.nodeexpansion import (
        n_parallel_alpha_beta,
        n_parallel_solve,
        n_sequential_alpha_beta,
        n_sequential_solve,
    )
    from .simulator import simulate
    from .trees import exact_value
    from .trees.generators import iid_boolean, iid_minmax

    rng = np.random.default_rng(args.seed)
    checks = 0
    for trial in range(args.trials):
        n = int(rng.integers(2, 8))
        tree = iid_boolean(2, n, float(rng.random()), seed=trial)
        truth = exact_value(tree)
        for result in (
            sequential_solve(tree),
            team_solve(tree, 4),
            parallel_solve(tree, 1),
            n_sequential_solve(tree),
            n_parallel_solve(tree, 1),
            simulate(tree),
        ):
            assert result.value == truth, "Boolean disagreement!"
            checks += 1
        mtree = iid_minmax(2, int(rng.integers(2, 6)), seed=trial)
        mtruth = exact_value(mtree)
        for result in (
            alpha_beta(mtree),
            sequential_alpha_beta(mtree),
            parallel_alpha_beta(mtree, 1),
            scout(mtree),
            sss_star(mtree),
            n_sequential_alpha_beta(mtree),
            n_parallel_alpha_beta(mtree, 1),
        ):
            assert result.value == mtruth, "MIN/MAX disagreement!"
            checks += 1
    print(f"ok — {checks} algorithm runs agreed with ground truth "
          f"on {args.trials} Boolean + {args.trials} MIN/MAX instances")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .core import parallel_solve, sequential_solve, team_solve
    from .core.nodeexpansion import n_parallel_solve, n_sequential_solve
    from .simulator import simulate
    from .trees.generators import iid_boolean
    from .trees.generators.iid import level_invariant_bias

    n = args.height
    tree = iid_boolean(2, n, level_invariant_bias(2), seed=args.seed)
    print(f"uniform binary NOR tree: height {n}, "
          f"{tree.num_leaves()} leaves, seed {args.seed}\n")
    seq = sequential_solve(tree)
    rows = [
        ("Sequential SOLVE", seq.num_steps, seq.total_work, 1),
        ("Team SOLVE (p=16)", *_tw(team_solve(tree, 16))),
        ("Parallel SOLVE (w=1)", *_tw(parallel_solve(tree, 1))),
        ("Parallel SOLVE (w=2)", *_tw(parallel_solve(tree, 2))),
        ("N-Sequential SOLVE", *_tw(n_sequential_solve(tree))),
        ("N-Parallel SOLVE (w=1)", *_tw(n_parallel_solve(tree, 1))),
    ]
    sim = simulate(tree)
    rows.append(("Section-7 machine", sim.ticks, sim.expansions,
                 sim.max_degree))
    print(f"{'algorithm':>24} {'steps':>7} {'work':>7} {'procs':>6}")
    for name, steps, work, procs in rows:
        print(f"{name:>24} {steps:>7} {work:>7} {procs:>6}")
    print(f"\nroot value: {seq.value}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.diff:
        from .bench.diff import diff_snapshots, render_report
        from .bench.snapshot import load_snapshot

        report = diff_snapshots(
            load_snapshot(args.diff[0]),
            load_snapshot(args.diff[1]),
            allow_removed=args.allow_removed,
        )
        print(render_report(report))
        return report.exit_code
    if args.list:
        from .bench.registry import get_spec, list_specs

        for name in list_specs():
            spec = get_spec(name)
            gates = ", ".join(g.name for g in spec.gates) or "-"
            print(f"{name:6} {spec.suite:13} gates: {gates}")
        return 0
    if args.all or args.spec or args.suite:
        from .bench.runner import failed_gates, run_benchmarks
        from .bench.snapshot import snapshot_path, write_snapshot
        from .errors import WorkloadError

        profile = "quick" if args.quick else "full"
        try:
            doc = run_benchmarks(
                names=args.spec or None,
                suites=args.suite or None,
                profile=profile,
                wallclock=args.wallclock,
                date=args.date,
            )
        except WorkloadError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        out = args.out or snapshot_path(doc["date"])
        write_snapshot(doc, out)
        print(f"wrote {out} ({len(doc['specs'])} specs, "
              f"profile {profile})")
        failures = failed_gates(doc)
        if failures:
            print("FAILED gates: " + ", ".join(failures),
                  file=sys.stderr)
            return 1
        return 0
    if not args.wallclock:
        print("nothing to do: pass --all, --spec, --suite, --diff, "
              "--list or --wallclock", file=sys.stderr)
        return 2
    from .bench.wallclock import run_wallclock

    widths = tuple(int(w) for w in args.widths.split(","))
    return run_wallclock(
        branching=args.branching,
        height=args.height,
        widths=widths,
        seed=args.seed,
        workers=args.workers,
        oracle_iters=args.oracle_iters,
        trace_out=args.trace_out,
        backend=args.backend,
    )


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run_lint

    return run_lint(args)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import run_chaos

    return run_chaos(
        height=args.height,
        num_seeds=args.seeds,
        rates=tuple(float(r) for r in args.rates.split(",")),
        kinds=tuple(args.kinds.split(",")),
        max_faults=args.max_faults,
        quick=args.quick,
        runtime=args.runtime,
        trace_out=args.trace_out,
    )


def _cmd_trace(args: argparse.Namespace) -> int:
    from .telemetry.cli import run_trace

    return run_trace(args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve.cli import run_serve

    return run_serve(args)


def _cmd_gateway(args: argparse.Namespace) -> int:
    from .gateway.cli import run_gateway

    return run_gateway(args)


def _cmd_shm(args: argparse.Namespace) -> int:
    from .core.shm.cli import run_shm

    return run_shm(args)


def _tw(res: EvalResult) -> Tuple[int, int, int]:
    return res.num_steps, res.total_work, res.processors


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Karp & Zhang (SPAA 1989) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(
        fn=_cmd_list
    )

    run = sub.add_parser("run", help="run experiments")
    run.add_argument("experiments", nargs="+")
    run.add_argument("--no-save", action="store_true")
    run.set_defaults(fn=_cmd_run)

    sub.add_parser(
        "report", help="regenerate EXPERIMENTS.md"
    ).set_defaults(fn=_cmd_report)

    demo = sub.add_parser("demo", help="evaluate one instance")
    demo.add_argument("--height", type=int, default=12)
    demo.add_argument("--seed", type=int, default=2026)
    demo.set_defaults(fn=_cmd_demo)

    verify = sub.add_parser(
        "verify", help="cross-validate all algorithm families"
    )
    verify.add_argument("--trials", type=int, default=10)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(fn=_cmd_verify)

    bench = sub.add_parser(
        "bench",
        help="benchmark registry: run specs, snapshot, diff",
    )
    bench.add_argument(
        "--all", action="store_true",
        help="run every registered benchmark spec",
    )
    bench.add_argument(
        "--spec", action="append", metavar="NAME",
        help="run one spec (repeatable)",
    )
    bench.add_argument(
        "--suite", action="append", metavar="SUITE",
        help="restrict to one suite (repeatable)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="quick profile: reduced parameters for CI smoke runs",
    )
    bench.add_argument(
        "--out", type=str, default=None, metavar="PATH",
        help="snapshot output path (default benchmarks/history/)",
    )
    bench.add_argument(
        "--date", type=str, default=None, metavar="YYYY-MM-DD",
        help="snapshot date stamp (default today)",
    )
    bench.add_argument(
        "--diff", nargs=2, metavar=("OLD", "NEW"), default=None,
        help="compare two BENCH_*.json snapshots and exit",
    )
    bench.add_argument(
        "--allow-removed", action="store_true",
        help="removed specs/metrics are notes, not regressions",
    )
    bench.add_argument(
        "--list", action="store_true",
        help="list registered specs with suites and gates",
    )
    bench.add_argument(
        "--wallclock", action="store_true",
        help="also measure wall-clock (with --all/--spec/--suite); "
        "alone: the legacy frontier-backend timing table",
    )
    bench.add_argument(
        "--backend", choices=("rescan", "incremental", "arena"),
        default=None,
        help="time a single frontier backend in the wall-clock tables "
        "instead of the incremental-vs-rescan comparison",
    )
    bench.add_argument("--branching", type=int, default=4)
    bench.add_argument("--height", type=int, default=8)
    bench.add_argument("--widths", type=str, default="1,2,4")
    bench.add_argument("--seed", type=int, default=2026)
    bench.add_argument(
        "--workers", type=int, default=None,
        help="also run the process-pool oracle benchmark",
    )
    bench.add_argument("--oracle-iters", type=int, default=20000)
    bench.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="also write a JSONL telemetry trace of one bench run",
    )
    bench.set_defaults(fn=_cmd_bench)

    from .lint.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint", help="run the invariant static-analysis pass (R1-R12)"
    )
    add_lint_arguments(lint)
    lint.set_defaults(fn=_cmd_lint)

    chaos = sub.add_parser(
        "chaos", help="fault-injection sweep (convergence + overhead)"
    )
    chaos.add_argument(
        "--quick", action="store_true",
        help="small fixed grid for CI smoke runs",
    )
    chaos.add_argument("--height", type=int, default=6)
    chaos.add_argument("--seeds", type=int, default=5)
    chaos.add_argument(
        "--rates", type=str, default="0.01,0.05,0.2",
        help="comma-separated fault rates",
    )
    chaos.add_argument(
        "--kinds", type=str,
        default="drop,duplicate,delay,reorder,crash,stall",
        help="comma-separated fault kinds to sweep",
    )
    chaos.add_argument(
        "--max-faults", type=int, default=64,
        help="cap on injected faults per run (guarantees progress)",
    )
    chaos.add_argument(
        "--runtime", action="store_true",
        help="also chaos-test the oracle runtime (FaultyExecutor)",
    )
    chaos.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="also write a JSONL telemetry trace of one faulty run",
    )
    chaos.set_defaults(fn=_cmd_chaos)

    from .telemetry.cli import add_trace_arguments

    trace = sub.add_parser(
        "trace", help="record and export a deterministic telemetry trace"
    )
    add_trace_arguments(trace)
    trace.set_defaults(fn=_cmd_trace)

    from .serve.cli import add_serve_arguments

    serve = sub.add_parser(
        "serve", help="sharded batch-evaluation service with caching"
    )
    add_serve_arguments(serve)
    serve.set_defaults(fn=_cmd_serve)

    from .gateway.cli import add_gateway_arguments

    gateway = sub.add_parser(
        "gateway",
        help="overload-safe request gateway (admission, deadlines, "
        "retry budget, shard self-healing)",
    )
    add_gateway_arguments(gateway)
    gateway.set_defaults(fn=_cmd_gateway)

    from .core.shm.cli import add_shm_arguments

    shm = sub.add_parser(
        "shm",
        help="shared-memory leaf evaluation: identity check and "
        "hardware speedup curve",
    )
    add_shm_arguments(shm)
    shm.set_defaults(fn=_cmd_shm)

    args = parser.parse_args(argv)
    return int(args.fn(args))


if __name__ == "__main__":
    sys.exit(main())
