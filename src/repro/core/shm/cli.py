"""``python -m repro shm`` — drive the shared-memory executor.

Three modes:

* default — measure the wall-clock speedup curve: one
  :class:`~repro.core.shm.ShmSession` per worker count, a calibrated
  constant-cost leaf oracle, and a printed table of per-p seconds,
  speedup over p=1, and the paper's ``c.(n+1)`` step-count speedup
  for the same instance (Theorem 1's hardware shadow);
* ``--check`` — no clocks: assert the shm executor replays the serial
  arena's value and per-step batches bit-identically, for Parallel
  SOLVE and parallel alpha-beta (the session's two step loops), at
  every worker count and chunk size requested;
* ``--quick`` — the CI canary: a small tree, p=2, identity only.
"""

from __future__ import annotations

import argparse

from ..policies import WidthPolicy
from .engine import ShmOptions, ShmSession
from .oracle import CalibratedOracle

__all__ = ["add_shm_arguments", "run_shm"]


def add_shm_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--check", action="store_true",
        help="identity check only (no wall-clock): shm vs serial arena",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI canary: small tree, p=2 identity check",
    )
    parser.add_argument("--branching", type=int, default=3)
    parser.add_argument("--height", type=int, default=6)
    parser.add_argument("--width", type=int, default=1)
    parser.add_argument("--seed", type=int, default=2028)
    parser.add_argument(
        "--p", type=str, default="1,2,4", metavar="P1,P2,...",
        help="worker counts to sweep",
    )
    parser.add_argument(
        "--chunk-sizes", type=str, default="none,3", metavar="C1,C2,...",
        help="chunk sizes for --check ('none' = one chunk per worker)",
    )
    parser.add_argument(
        "--cost", type=float, default=0.004, metavar="SECONDS",
        help="calibrated per-leaf oracle cost",
    )
    parser.add_argument(
        "--mode", choices=("sleep", "spin"), default="sleep",
        help="oracle cost model: sleep overlaps on any core count; "
        "spin burns real CPU",
    )
    parser.add_argument("--repeats", type=int, default=2)


def _tree(args: argparse.Namespace):
    from ...trees.generators import iid_boolean
    from ...trees.generators.iid import level_invariant_bias

    return iid_boolean(
        args.branching, args.height,
        level_invariant_bias(args.branching), seed=args.seed,
    )


def _check(tree, width, p_grid, chunk_sizes) -> int:
    """Parallel SOLVE and parallel alpha-beta (the session's two loops)
    on shm against the inline arena, at every worker count and chunk
    size."""
    from .. import parallel_solve
    from ..alphabeta import parallel_alpha_beta

    cells = 0
    # SOLVE runs last: the summary line reports its reference.
    for engine in (parallel_alpha_beta, parallel_solve):
        reference = engine(tree, width, keep_batches=True, backend="arena")
        signature = (
            reference.value, reference.trace.degrees,
            reference.trace.batches,
        )
        for p in p_grid:
            for chunk in chunk_sizes:
                shm = engine(
                    tree, width, keep_batches=True, backend="arena",
                    executor="shm",
                    shm_options=ShmOptions(workers=p, chunk_size=chunk),
                )
                got = (shm.value, shm.trace.degrees, shm.trace.batches)
                if got != signature:
                    print(f"MISMATCH at p={p} chunk={chunk}")
                    return 1
                cells += 1
    print(
        f"ok — {cells} shm cells identical to the serial arena "
        f"(value={reference.value}, steps={reference.num_steps}, "
        f"work={reference.total_work})"
    )
    return 0


def run_shm(args: argparse.Namespace) -> int:
    from ...bench.wallclock import best_of
    from .. import parallel_solve

    if args.quick:
        args.height = min(args.height, 4)
        p_grid = (2,)
        chunk_sizes = (None,)
    else:
        p_grid = tuple(int(p) for p in args.p.split(","))
        chunk_sizes = tuple(
            None if c.strip().lower() == "none" else int(c)
            for c in args.chunk_sizes.split(",")
        )
    tree = _tree(args)
    print(
        f"uniform NOR tree: d={args.branching} n={args.height} "
        f"w={args.width} seed={args.seed}"
    )
    status = _check(tree, args.width, p_grid, chunk_sizes)
    if status != 0 or args.check or args.quick:
        return status

    sequential = parallel_solve(tree, 0, backend="arena")
    reference = parallel_solve(tree, args.width, backend="arena")
    oracle = CalibratedOracle(args.cost, args.mode)
    print(
        f"\noracle: {args.mode}, {args.cost * 1e3:.2f} ms/leaf — "
        f"{reference.total_work} leaves over {reference.num_steps} "
        f"steps (sequential: {sequential.num_steps})"
    )
    print(f"{'p':>4} {'seconds':>9} {'speedup':>8} {'efficiency':>11}")
    policy = WidthPolicy(args.width)
    base = None
    for p in p_grid:
        with ShmSession(
            tree, ShmOptions(workers=p, oracle=oracle)
        ) as session:
            seconds = best_of(
                lambda: session.solve(policy), args.repeats
            )
        if base is None:
            base = seconds
        speedup = base / seconds
        print(
            f"{p:>4} {seconds:>9.3f} {speedup:>7.2f}x "
            f"{speedup / p:>10.1%}"
        )
    step_speedup = sequential.num_steps / reference.num_steps
    n_plus_1 = args.height + 1
    print(
        f"\nstep-count speedup S(T)/steps = {step_speedup:.2f} "
        f"on n+1 = {n_plus_1} processors "
        f"(c_hat = {step_speedup / n_plus_1:.3f}; "
        f"Theorem 1 predicts c.(n+1))"
    )
    return 0
