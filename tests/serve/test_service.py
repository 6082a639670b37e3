"""Unit tests for the sharded batch service: dedup, routing, failover."""

import multiprocessing
import threading

import pytest

from repro.bench.wallclock import median_seconds
from repro.errors import AllShardsDegradedError, DegradedRunError
from repro.serve import (
    EvalRequest,
    ShardedBatchService,
    make_tree_pool,
    request_key,
    run_algorithm,
    shard_of,
    synthetic_stream,
)
from repro.serve.engines import evaluate_payload
from repro.telemetry import InMemoryRecorder
from repro.trees import ExplicitTree, UniformTree, exact_value
from repro.trees.generators import iid_boolean


def _bool_requests(n, seed=11, height=3):
    pool = make_tree_pool(
        4, seed=seed, height=height, minmax_fraction=0.0,
    )
    return synthetic_stream(
        n, seed=seed, pool=pool, algos=["sequential"],
    )


def _always_crash(payload):
    raise RuntimeError("injected shard failure")


def test_responses_align_with_requests_and_are_correct():
    requests = _bool_requests(10)
    with ShardedBatchService(2) as service:
        responses = service.serve(requests)
    assert [r.request_id for r in responses] == [
        req.request_id for req in requests
    ]
    for req, resp in zip(requests, responses):
        assert resp.algo == req.algo
        assert resp.value == float(exact_value(req.tree))
        direct = run_algorithm(req.algo, req.tree, req.params_dict())
        assert (resp.value, resp.steps, resp.work) == (
            float(direct[0]), direct[1], direct[2]
        )


def test_in_batch_dedup_evaluates_each_unique_key_once():
    tree = iid_boolean(2, 3, 0.5, seed=5)
    requests = [
        EvalRequest.make(i, "sequential", tree) for i in range(6)
    ]
    with ShardedBatchService(1) as service:
        responses = service.serve(requests)
    assert service.stats.evaluated == 1
    assert service.stats.deduplicated == 5
    assert len({r.key for r in responses}) == 1
    assert len({(r.value, r.steps, r.work) for r in responses}) == 1


def test_representation_equal_trees_share_one_key():
    uniform = UniformTree(2, 2, [0, 1, 1, 0])
    explicit = ExplicitTree.from_nested([[0, 1], [1, 0]])
    a = EvalRequest.make(0, "sequential", uniform)
    b = EvalRequest.make(1, "sequential", explicit)
    assert request_key(a) == request_key(b)
    with ShardedBatchService(1) as service:
        service.serve([a, b])
    assert service.stats.evaluated == 1
    assert service.stats.deduplicated == 1


def test_params_distinguish_keys():
    tree = iid_boolean(2, 3, 0.5, seed=5)
    a = EvalRequest.make(0, "parallel", tree, width=1)
    b = EvalRequest.make(1, "parallel", tree, width=2)
    assert request_key(a) != request_key(b)


def test_cache_answers_repeat_batches():
    requests = _bool_requests(8)
    with ShardedBatchService(2, cache_size=None) as service:
        first = service.serve(requests)
        evaluated_once = service.stats.evaluated
        second = service.serve(requests)
    assert service.stats.evaluated == evaluated_once  # nothing recomputed
    assert service.stats.cache.hits == evaluated_once
    assert [
        (r.key, r.value, r.steps, r.work) for r in first
    ] == [(r.key, r.value, r.steps, r.work) for r in second]


def test_disabled_cache_recomputes_every_batch():
    requests = _bool_requests(8)
    with ShardedBatchService(2, cache_size=0) as service:
        service.serve(requests)
        evaluated_once = service.stats.evaluated
        service.serve(requests)
    assert service.stats.evaluated == 2 * evaluated_once
    assert service.stats.cache.hits == 0


def test_requests_route_to_their_key_shard():
    requests = _bool_requests(12, seed=3)
    rec = InMemoryRecorder()
    with ShardedBatchService(3, recorder=rec) as service:
        service.serve(requests)
    expected = [0, 0, 0]
    for key in {request_key(req) for req in requests}:
        expected[shard_of(key, 3)] += 1
    for shard in range(3):
        counted = rec.metrics.counters.get(
            f"serve.shard.{shard}.requests", 0
        )
        assert counted == expected[shard]


def test_failover_answers_the_whole_batch():
    requests = _bool_requests(16, seed=7)
    num_shards = 3
    crash_shard = shard_of(request_key(requests[0]), num_shards)
    routed_to_crash = len({
        key for key in (request_key(r) for r in requests)
        if shard_of(key, num_shards) == crash_shard
    })
    rec = InMemoryRecorder()

    def oracle_for_shard(shard):
        from repro.serve.engines import evaluate_payload
        return _always_crash if shard == crash_shard else evaluate_payload

    with ShardedBatchService(
        num_shards, oracle_for_shard=oracle_for_shard, recorder=rec,
    ) as service:
        responses = service.serve(requests)
    assert service.degraded_shards == [crash_shard]
    assert service.stats.failovers == routed_to_crash
    for req, resp in zip(requests, responses):
        assert resp.value == float(exact_value(req.tree))
    degraded = [
        e for e in rec.events
        if e.kind == "instant" and e.name == "serve.shard_degraded"
    ]
    assert len(degraded) == 1
    assert degraded[0].track == f"serve-shard-{crash_shard}"
    assert rec.metrics.counters["serve.failover.requests"] == routed_to_crash
    assert rec.metrics.counters["serve.failover.recovered"] == routed_to_crash


def test_all_shards_degraded_raises():
    requests = _bool_requests(4)
    with ShardedBatchService(
        2, oracle_for_shard=lambda shard: _always_crash,
    ) as service:
        with pytest.raises(DegradedRunError):
            service.serve(requests)


def test_degraded_shard_stays_out_of_later_batches():
    requests = _bool_requests(16, seed=7)
    num_shards = 2
    crash_shard = shard_of(request_key(requests[0]), num_shards)

    def oracle_for_shard(shard):
        from repro.serve.engines import evaluate_payload
        return _always_crash if shard == crash_shard else evaluate_payload

    with ShardedBatchService(
        num_shards, cache_size=0, oracle_for_shard=oracle_for_shard,
    ) as service:
        service.serve(requests)
        assert service.degraded_shards == [crash_shard]
        responses = service.serve(requests)  # no new degradations
    assert service.degraded_shards == [crash_shard]
    for req, resp in zip(requests, responses):
        assert resp.value == float(exact_value(req.tree))


def test_invalid_configuration_rejected():
    with pytest.raises(ValueError):
        ShardedBatchService(0)
    with pytest.raises(ValueError):
        ShardedBatchService(1, pool="bogus")


# ---------------------------------------------------------------------------
# Concurrent shards: every share is dispatched before any is collected
# ---------------------------------------------------------------------------
SLOW_SECONDS = 0.2


def _slow_payload(payload):
    """Process-pool oracle: sleeps, then answers like the default."""
    threading.Event().wait(SLOW_SECONDS)
    return evaluate_payload(payload)


def _hang_payload(payload):
    threading.Event().wait(60.0)


def _one_per_shard(num_shards, seed=3):
    """One request routed to each of ``num_shards`` shards."""
    picked = {}
    for req in _bool_requests(64, seed=seed, height=4):
        picked.setdefault(shard_of(request_key(req), num_shards), req)
    assert len(picked) == num_shards
    return [picked[shard] for shard in range(num_shards)]


def _assert_correct(requests, responses):
    assert [r.request_id for r in responses] == [
        req.request_id for req in requests
    ]
    for req, resp in zip(requests, responses):
        direct = run_algorithm(req.algo, req.tree, req.params_dict())
        assert (resp.value, resp.steps, resp.work) == (
            float(direct[0]), direct[1], direct[2]
        )


def test_process_shards_evaluate_at_once():
    requests = _one_per_shard(2)
    with ShardedBatchService(
        2, cache_size=0, pool="process", max_workers=1,
        oracle=_slow_payload,
    ) as service:
        service.serve(requests)  # forks each shard's worker
        elapsed, responses = median_seconds(
            lambda: service.serve(requests), 1
        )
    _assert_correct(requests, responses)
    # One after another would take two sleeps.
    assert elapsed < 1.5 * SLOW_SECONDS


def _crash_or_slow(shard):
    return _always_crash if shard == 0 else _slow_payload


def test_failover_into_a_shard_with_a_round_in_flight():
    requests = _one_per_shard(2)
    with ShardedBatchService(
        2, cache_size=0, pool="process", max_workers=1, max_retries=0,
        oracle_for_shard=_crash_or_slow,
    ) as service:
        responses = service.serve(requests)
    _assert_correct(requests, responses)
    assert service.degraded_shards == [0]
    survivor = service.stats.shard_stats[1]
    # Shard 1's own round, then the failed-over share: each payload
    # is evaluated once.
    assert survivor.units == 2
    assert survivor.chunks == 2
    assert survivor.batches == 2


def test_stale_round_is_never_picked_up_after_total_degradation():
    requests = _bool_requests(12, seed=5)
    calls = {0: [], 1: []}
    broken = [True]
    first = [r for r in requests if shard_of(request_key(r), 2) == 0]
    poison = [ShardedBatchService._payload(r) for r in first]

    def oracle_for_shard(shard):
        def oracle(payload):
            calls[shard].append(payload)
            if broken[0] and (shard == 0 or payload in poison):
                raise RuntimeError("injected")
            return evaluate_payload(payload)
        return oracle

    with ShardedBatchService(
        2, cache_size=None, pool="thread", max_retries=0,
        oracle_for_shard=oracle_for_shard,
    ) as service:
        # Shard 0 fails, and so does its failover onto shard 1, whose
        # own started round is left uncollected.
        with pytest.raises(AllShardsDegradedError):
            service.serve(requests)
        assert service.degraded_shards == [0, 1]
        broken[0] = False
        probe = ShardedBatchService._payload(requests[0])
        assert service.probe_shard(1, probe)
        assert calls[1][-1] is probe  # evaluated, not taken stale
        service.readmit(0)
        service.readmit(1)
        before = len(calls[1])
        responses = service.serve(requests)
    _assert_correct(requests, responses)
    own = len({request_key(r) for r in requests}) - len(
        {request_key(r) for r in first}
    )
    # Shard 1's share is evaluated again, not read off the old round.
    assert len(calls[1]) - before == own


def _hang_first(shard):
    return _hang_payload if shard == 0 else evaluate_payload


def test_hung_started_shard_is_cut_off_and_fails_over():
    """A started chunk that hangs still times out and fails over.

    Its ``chunk_timeout`` counts from when the shard's collection
    starts waiting on it, not from the dispatch: here shard 0 is
    collected first, so the two coincide.
    """
    requests = _bool_requests(12, seed=5)
    before = multiprocessing.active_children()
    with ShardedBatchService(2, cache_size=0) as plain:
        expected = plain.serve(requests)
    with ShardedBatchService(
        2, cache_size=0, pool="process", max_workers=1, max_retries=0,
        chunk_timeout=0.3, oracle_for_shard=_hang_first,
    ) as service:
        responses = service.serve(requests)
    assert responses == expected
    assert service.degraded_shards == [0]
    assert service.stats.shard_stats[0].timeouts == 1
    assert [
        p for p in multiprocessing.active_children() if p not in before
    ] == []
