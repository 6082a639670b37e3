"""Sharded batch-evaluation service with canonical-tree caching.

The first layer that composes the repository's subsystems into one
serving workload: request streams (:mod:`repro.serve.request`,
:mod:`repro.serve.stream`) are deduplicated through a canonical-form
result cache (:mod:`repro.serve.cache` over
:mod:`repro.trees.canonical`), sharded by content hash across
per-shard :class:`~repro.models.executors.OracleRuntime` pools, and
answered deterministically (:mod:`repro.serve.service`) — the same
stream produces byte-identical response logs regardless of shard
count, cache capacity or fault history.  ``python -m repro serve``
drives it from the command line; see ``docs/serving.md``.
"""

from .cache import CacheStats, ResultCache
from .engines import (
    ALGORITHMS,
    evaluate_payload,
    run_algorithm,
)
from .request import (
    EvalRequest,
    EvalResponse,
    load_requests,
    request_key,
    response_log,
    response_record,
    save_requests,
    shard_of,
)
from .service import SerialExecutor, ServeStats, ShardedBatchService
from .service import direct_mismatches
from .stream import make_tree_pool, synthetic_stream, zipf_weights

__all__ = [
    "ALGORITHMS",
    "CacheStats",
    "EvalRequest",
    "EvalResponse",
    "ResultCache",
    "SerialExecutor",
    "ServeStats",
    "ShardedBatchService",
    "direct_mismatches",
    "evaluate_payload",
    "load_requests",
    "make_tree_pool",
    "request_key",
    "response_log",
    "response_record",
    "run_algorithm",
    "save_requests",
    "shard_of",
    "synthetic_stream",
    "zipf_weights",
]
