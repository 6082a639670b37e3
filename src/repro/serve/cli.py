"""``repro serve`` — batch evaluation with sharding and caching.

Serves a request stream (from ``--requests FILE`` or synthesized on
the fly) through :class:`~repro.serve.service.ShardedBatchService`,
in rounds of the gateway's dispatch size
(:attr:`~repro.gateway.GatewayConfig.batch_size`), and prints a
serving report.  ``--log-out`` writes the deterministic
response log — the artifact the acceptance tests byte-compare across
shard counts and cache sizes — and ``--trace-out`` writes a JSONL
telemetry trace through the same emitter as ``repro chaos`` and
``repro bench``.

``--chaos`` turns one shard (``--chaos-shard``, default 0) into a
crashing shard via :class:`~repro.faults.FaultyOracle`; the service
must still answer the whole batch (failover), which ``--verify``
checks against inline re-evaluation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional

from ..errors import AllShardsDegradedError, InvalidRequestError
from ..gateway import GatewayConfig
from .engines import evaluate_payload
from .request import EvalResponse, load_requests
from .request import response_log as render_response_log
from .request import save_requests
from .service import POOLS, ShardedBatchService, direct_mismatches
from .stream import synthetic_stream

__all__ = ["add_serve_arguments", "run_serve"]


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--requests", type=str, default=None, metavar="FILE",
        help="JSONL request stream (default: synthesize one)",
    )
    parser.add_argument(
        "--num-requests", type=int, default=100,
        help="synthetic stream length (ignored with --requests)",
    )
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--zipf", type=float, default=1.2,
        help="synthetic stream skew exponent (0 = uniform)",
    )
    parser.add_argument("--num-trees", type=int, default=12)
    parser.add_argument("--branching", type=int, default=2)
    parser.add_argument("--height", type=int, default=4)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument(
        "--cache-size", type=str, default="inf", metavar="K",
        help="result-cache capacity: an integer, 0 (off) or 'inf'",
    )
    parser.add_argument(
        "--pool", type=str, default="serial", choices=POOLS,
        help="executor flavour behind each shard",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--chaos", action="store_true",
        help="crash one shard's oracle (exercises failover)",
    )
    parser.add_argument("--chaos-shard", type=int, default=0)
    parser.add_argument(
        "--verify", action="store_true",
        help="re-evaluate every unique request inline and compare",
    )
    parser.add_argument(
        "--save-requests", type=str, default=None, metavar="PATH",
        help="also write the served request stream as JSONL",
    )
    parser.add_argument(
        "--log-out", type=str, default=None, metavar="PATH",
        help="write the deterministic response log",
    )
    parser.add_argument(
        "--trace-out", type=str, default=None, metavar="PATH",
        help="write a JSONL telemetry trace of the run",
    )


def _parse_cache_size(text: str) -> Optional[int]:
    if text.lower() in ("inf", "none", "unbounded"):
        return None
    size = int(text)
    if size < 0:
        raise ValueError("--cache-size must be >= 0 or 'inf'")
    return size


def _chaos_oracle_for_shard(
    crash_shard: int, seed: int
) -> Callable[[int], Callable[[Dict[str, Any]], Dict[str, Any]]]:
    from ..faults import FaultyOracle, OracleFaultSpec

    def for_shard(
        shard: int,
    ) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
        if shard != crash_shard:
            return evaluate_payload
        return FaultyOracle(
            evaluate_payload,
            OracleFaultSpec(seed=seed, error_rate=1.0),
        )

    return for_shard


def _report_collapse(exc: AllShardsDegradedError) -> None:
    """Human-readable summary of a total-degradation failure."""
    print(f"serve: {exc}", file=sys.stderr)
    stats = exc.stats
    if stats is not None:
        print(
            f"serve: progress before collapse: {stats.requests} "
            f"request(s) accepted, {stats.evaluated} evaluated, "
            f"{stats.failovers} failover(s); degradation order "
            f"{stats.degraded_shards}",
            file=sys.stderr,
        )


def run_serve(args: argparse.Namespace) -> int:
    cache_size = _parse_cache_size(args.cache_size)

    if args.requests is not None:
        try:
            requests = load_requests(args.requests)
        except InvalidRequestError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2
    else:
        requests = synthetic_stream(
            args.num_requests,
            seed=args.seed,
            num_trees=args.num_trees,
            zipf_s=args.zipf,
            branching=args.branching,
            height=args.height,
        )
    if args.save_requests:
        save_requests(args.save_requests, requests)

    recorder = None
    if args.trace_out is not None:
        from ..telemetry import InMemoryRecorder

        recorder = InMemoryRecorder()

    oracle_for_shard = None
    if args.chaos:
        if not 0 <= args.chaos_shard < args.shards:
            print(
                f"--chaos-shard must be in [0, {args.shards})",
                file=sys.stderr,
            )
            return 2
        oracle_for_shard = _chaos_oracle_for_shard(
            args.chaos_shard, args.seed
        )

    with ShardedBatchService(
        args.shards,
        cache_size=cache_size,
        pool=args.pool,
        max_workers=args.workers,
        oracle_for_shard=oracle_for_shard,
        recorder=recorder,
    ) as service:
        # Rounds of the gateway's dispatch size, so a request repeated
        # in a later round is a cache hit, not an in-batch duplicate.
        size = GatewayConfig.batch_size
        responses: List[EvalResponse] = []
        try:
            for start in range(0, len(requests), size):
                responses.extend(service.serve(requests[start:start + size]))
        except AllShardsDegradedError as exc:
            _report_collapse(exc)
            return 3
        stats = service.stats

    if args.log_out is not None:
        with open(args.log_out, "w", encoding="utf-8") as fh:
            fh.write(render_response_log(responses))

    if recorder is not None:
        from ..telemetry.cli import emit_jsonl_trace

        emit_jsonl_trace(recorder, args.trace_out)

    cache_label = "inf" if cache_size is None else str(cache_size)
    print(
        f"served {stats.requests} request(s) over {args.shards} "
        f"shard(s), cache={cache_label}, pool={args.pool}"
    )
    print(
        f"  unique evaluated {stats.evaluated}, deduplicated "
        f"{stats.deduplicated}, cache hits {stats.cache.hits} / "
        f"misses {stats.cache.misses} / evictions "
        f"{stats.cache.evictions}"
    )
    for shard, rstats in enumerate(stats.shard_stats):
        tag = " DEGRADED" if shard in stats.degraded_shards else ""
        print(
            f"  shard {shard}: units {rstats.units}, batches "
            f"{rstats.batches}, retries {rstats.retries}{tag}"
        )
    if stats.failovers:
        print(f"  failover re-dispatched {stats.failovers} request(s)")

    if args.verify:
        wrong = 0
        for req, resp, direct in direct_mismatches(zip(requests, responses)):
            wrong += 1
            print(
                f"MISMATCH id={req.request_id} algo={req.algo}: "
                f"served ({resp.value}, {resp.steps}, {resp.work}) "
                f"!= direct {direct}",
                file=sys.stderr,
            )
        if wrong:
            print(f"verify: {wrong} mismatch(es)", file=sys.stderr)
            return 1
        print(f"verify: all {len(responses)} response(s) correct")
    return 0
