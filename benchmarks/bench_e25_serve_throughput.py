"""E25 — serving throughput: the canonical cache must carry real load.

A zipf-skewed stream over a finite tree pool is the serving workload
the cache exists for: a small set of hot (tree, algorithm) pairs
dominates traffic.  The registry spec (:mod:`repro.bench.specs.infra`)
gates the architecture's point — warm-cache serving must process the
same stream at least **3x** faster than serving with the cache
disabled — and re-pins the determinism contract on the way: the warm
pass answers byte-identically and is all cache hits, so the win can
never come from answering less.  It also gates shard scaling: cold
requests/s over sleep-cost process shards must reach 0.7 × the shard
count at 2 and 4 shards, against one shard.

Wall-clock lives in the bench layer rather than in ``repro.serve``
itself: the serving core is wall-clock-free by lint rule R2.
"""

import pytest

from repro.bench.registry import get_spec
from repro.serve import ShardedBatchService, synthetic_stream


@pytest.mark.experiment("e25")
def test_registry_gates(spec_gates):
    spec_gates("e25")


@pytest.mark.experiment("e25")
def test_warm_serving_kernel(benchmark):
    params = get_spec("e25").params
    stream = synthetic_stream(
        params["num_requests"], seed=params["seed"],
        num_trees=params["num_trees"], height=params["height"],
        zipf_s=params["zipf_s"],
    )
    with ShardedBatchService(1, cache_size=None) as service:
        service.serve(stream)
        benchmark(lambda: len(service.serve(stream)))
