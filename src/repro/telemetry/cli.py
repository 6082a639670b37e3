"""``repro trace``: run one instance under a recorder, export the trace.

The default instance is the acceptance-criterion one — the Section-7
machine on a uniform d=2, n=6 Boolean tree — whose Chrome export shows
one track per level processor with coalesced busy/idle spans.  All
timestamps are logical ticks/steps, so re-running with the same seed
rewrites the identical artifact byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from .export import (
    chrome_json,
    summarize,
    to_chrome,
    to_jsonl,
    validate_chrome_trace,
)
from .recorder import InMemoryRecorder

ALGOS = ("machine", "solve", "alphabeta", "nodeexpansion")


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "action", nargs="?", choices=("export", "summary"),
        default="export",
        help="'export' writes the trace file; 'summary' prints a digest",
    )
    parser.add_argument(
        "--algo", choices=ALGOS, default="machine",
        help="which instrumented run to trace (default: Section-7 machine)",
    )
    parser.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="chrome: Perfetto-loadable trace_event JSON; jsonl: event stream",
    )
    parser.add_argument(
        "--out", type=str, default=None,
        help="output path (default trace.json / trace.jsonl)",
    )
    parser.add_argument("--branching", type=int, default=2)
    parser.add_argument("--height", type=int, default=6)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--width", type=int, default=2,
        help="frontier width for the solve/alphabeta/nodeexpansion algos",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: small instance, self-validate the Chrome export",
    )


def record_run(
    algo: str,
    *,
    branching: int,
    height: int,
    seed: int,
    width: int,
) -> InMemoryRecorder:
    """Run one instance of ``algo`` under a fresh ``InMemoryRecorder``."""
    from ..trees.generators import iid_boolean, iid_minmax
    from ..trees.generators.iid import level_invariant_bias

    recorder = InMemoryRecorder()
    if algo == "machine":
        from ..simulator import simulate

        tree = iid_boolean(
            branching, height, level_invariant_bias(branching), seed=seed
        )
        simulate(tree, recorder=recorder)
    elif algo == "solve":
        from ..core import parallel_solve

        tree = iid_boolean(
            branching, height, level_invariant_bias(branching), seed=seed
        )
        parallel_solve(tree, width, recorder=recorder)
    elif algo == "alphabeta":
        from ..core.alphabeta import parallel_alpha_beta

        mtree = iid_minmax(branching, height, seed=seed)
        parallel_alpha_beta(mtree, width, recorder=recorder)
    elif algo == "nodeexpansion":
        from ..core.nodeexpansion import n_parallel_solve

        tree = iid_boolean(
            branching, height, level_invariant_bias(branching), seed=seed
        )
        n_parallel_solve(tree, width, recorder=recorder)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown algo {algo!r}")
    return recorder


def run_trace(args: argparse.Namespace) -> int:
    height = min(args.height, 4) if args.quick else args.height
    recorder = record_run(
        args.algo,
        branching=args.branching,
        height=height,
        seed=args.seed,
        width=args.width,
    )

    if args.quick:
        problems = validate_chrome_trace(to_chrome(recorder))
        if problems:
            for problem in problems:
                print(f"invalid chrome trace: {problem}", file=sys.stderr)
            return 1

    if args.action == "summary":
        print(summarize(recorder))
        return 0

    if args.format == "chrome":
        payload = chrome_json(recorder)
        out = args.out or "trace.json"
    else:
        payload = to_jsonl(recorder)
        out = args.out or "trace.jsonl"
    if out == "-":
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        n_events = len(recorder.events)
        print(f"wrote {out} ({args.format}, {n_events} events, "
              f"clock={recorder.clock})")
    return 0


def emit_jsonl_trace(recorder: InMemoryRecorder, path: str) -> None:
    """Shared ``--trace-out`` helper for ``repro chaos``, ``repro
    serve`` and ``repro gateway``.

    The commands funnel through this one function so their JSONL
    records are schema-identical by construction (pinned by
    ``tests/telemetry/test_trace_out.py``).
    """
    payload = to_jsonl(recorder)
    json.loads(payload.splitlines()[0])  # sanity: header parses
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
