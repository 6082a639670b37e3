"""The determinism contract: response logs are configuration-blind.

The response log of a request stream must be byte-identical across
shard counts, cache capacities, pool flavours, repeat serving (warm
cache) and chaos mode — placement and recomputation may change,
answers may not.  The thread and process pools run every shard's
share at once, so these cells also check that collecting in shard
order keeps the log fixed.
"""

import itertools
import os

import pytest

from repro.serve import ShardedBatchService, response_log, synthetic_stream
from repro.serve.engines import evaluate_payload


def _stream():
    # Mixed algorithms over both tree kinds, with zipf-repeated trees
    # so caching and dedup actually engage.
    return synthetic_stream(
        30, seed=424, num_trees=6, height=3, zipf_s=1.1,
    )


def _log(num_shards, cache_size, oracle_for_shard=None, pool="serial"):
    with ShardedBatchService(
        num_shards,
        cache_size=cache_size,
        pool=pool,
        max_workers=1 if pool == "process" else None,
        oracle_for_shard=oracle_for_shard,
    ) as service:
        return response_log(service.serve(_stream()))


BASELINE_CONFIG = (1, None)


@pytest.mark.parametrize(
    "num_shards,cache_size",
    [
        pair for pair in itertools.product((1, 2, 4), (0, 64, None))
        if pair != BASELINE_CONFIG
    ],
    ids=lambda v: str(v),
)
def test_log_identical_across_shards_and_cache_sizes(
    num_shards, cache_size
):
    assert _log(num_shards, cache_size) == _log(*BASELINE_CONFIG)


def test_log_identical_on_warm_cache():
    requests = _stream()
    with ShardedBatchService(2, cache_size=None) as service:
        cold = response_log(service.serve(requests))
        warm = response_log(service.serve(requests))
    assert warm == cold
    assert service.stats.cache.hits > 0  # the warm pass really cached


def test_log_identical_under_chaos():
    def crash_first_shard(shard):
        if shard == 0:
            def _crash(payload):
                raise RuntimeError("chaos")
            return _crash
        return evaluate_payload

    chaotic = _log(3, 64, oracle_for_shard=crash_first_shard)
    assert chaotic == _log(*BASELINE_CONFIG)


def test_log_is_reproducible_across_service_instances():
    assert _log(2, 16) == _log(2, 16)


@pytest.mark.parametrize(
    "pool,num_shards,cache_size",
    [
        ("thread", shards, cache)
        for shards, cache in itertools.product((1, 2, 4), (0, None))
    ]
    # Process cells fork one worker per shard; keep them few.
    + [("process", 1, None), ("process", 2, 0), ("process", 4, None)],
    ids=lambda v: str(v),
)
def test_log_identical_across_pools(pool, num_shards, cache_size):
    assert _log(num_shards, cache_size, pool=pool) == _log(
        *BASELINE_CONFIG
    )


def _die(payload):
    os._exit(1)  # the worker process dies mid-chunk


def _kill_first_shard(shard):
    return _die if shard == 0 else evaluate_payload


def test_log_identical_when_a_process_shard_dies():
    chaotic = _log(3, 0, oracle_for_shard=_kill_first_shard, pool="process")
    assert chaotic == _log(*BASELINE_CONFIG)
