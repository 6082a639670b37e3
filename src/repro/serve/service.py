"""The sharded batch-evaluation service.

``ShardedBatchService`` accepts a stream of
:class:`~repro.serve.request.EvalRequest` and produces one
:class:`~repro.serve.request.EvalResponse` per request, in request
order.  Internally each batch flows through three stages:

1. **dedup/cache** — every request is reduced to its canonical key;
   keys already in the :class:`~repro.serve.cache.ResultCache` are
   answered immediately, and duplicate keys within the batch are
   evaluated once;
2. **shard** — cache-miss keys are partitioned by key hash across
   ``num_shards`` independent
   :class:`~repro.models.executors.OracleRuntime` pools, inheriting
   the runtime's chunking, retry, timeout and circuit-breaker
   machinery.  Every healthy shard's share is dispatched
   (:meth:`~repro.models.executors.OracleRuntime.start`) before any
   is collected, so the shards' pools work at once;
3. **collect and failover** — the shares are collected in shard
   order, which keeps cache writes, telemetry and failover in one
   deterministic order.  A shard whose runtime fails terminally
   (:class:`~repro.errors.WorkerCrashError` or
   :class:`~repro.errors.DegradedRunError`) is marked degraded and its
   work is re-dispatched to the surviving shards in deterministic
   order; only when *every* shard has degraded does the batch raise
   :class:`~repro.errors.AllShardsDegradedError` (carrying the
   service's stats).

Degradation is no longer one-way: :meth:`ShardedBatchService.probe_shard`
runs a half-open health check against a degraded shard's runtime and
:meth:`ShardedBatchService.readmit` returns it to rotation — the
hooks :class:`repro.gateway.Gateway`'s supervisor drives to self-heal
recovered shards.

The determinism contract: response content is a pure function of the
request stream.  Shard count, cache capacity, pool flavour and fault
history may change *where and whether* work is recomputed, never what
is answered — `repro serve`'s response logs are byte-identical across
all of them.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from concurrent.futures import Executor, Future
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import (
    AllShardsDegradedError,
    DegradedRunError,
    WorkerCrashError,
)
from ..models.executors import OracleRuntime, PipePool, RuntimeStats
from ..telemetry import Recorder, live
from .cache import CacheStats, ResultCache
from .engines import EngineOutcome, evaluate_payload, run_algorithm
from .request import (
    EvalRequest,
    EvalResponse,
    request_key,
    request_to_dict,
    shard_of,
)

__all__ = [
    "ServeStats",
    "ShardedBatchService",
    "SerialExecutor",
    "direct_mismatches",
]


class SerialExecutor(Executor):
    """An in-process executor: ``submit`` runs the task inline.

    Gives the shard runtimes their full retry/circuit-breaker
    semantics without process-spawn cost — the default for tests, the
    determinism suite and small CLI runs.
    """

    def submit(self, fn: Callable, /, *args: Any, **kwargs: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # propagated via future.result()
            future.set_exception(exc)
        return future


#: Pool flavours for the per-shard runtimes.
POOLS = ("serial", "thread", "process")


def _pool_factory(
    pool: str, max_workers: Optional[int]
) -> Callable[[], Executor]:
    if pool == "serial":
        return SerialExecutor
    if pool == "thread":
        return lambda: ThreadPoolExecutor(max_workers=max_workers)
    if pool == "process":
        return lambda: PipePool(max_workers=max_workers)
    raise ValueError(f"unknown pool {pool!r}; expected one of {POOLS}")


@dataclass
class ServeStats:
    """Aggregate accounting for one service instance."""

    requests: int = 0
    batches: int = 0
    #: unique cache-miss keys actually evaluated.
    evaluated: int = 0
    #: requests answered by batch-local deduplication.
    deduplicated: int = 0
    #: payload evaluations re-dispatched off a degraded shard.
    failovers: int = 0
    #: degraded shards returned to rotation after a successful probe.
    readmissions: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    #: runtime counters per shard, index-aligned with the pools.
    shard_stats: List[RuntimeStats] = field(default_factory=list)
    #: shards whose runtime failed terminally (degraded, not serving).
    degraded_shards: List[int] = field(default_factory=list)


class ShardedBatchService:
    """Batch evaluation over per-shard oracle runtimes with caching.

    Parameters
    ----------
    num_shards:
        Independent worker pools; requests are routed by canonical-key
        hash, so equal requests always land on the same shard.
    cache_size:
        Result-cache capacity (``None`` unbounded, ``0`` disabled).
    pool:
        ``"serial"`` (inline), ``"thread"`` or ``"process"`` — the
        executor flavour behind every shard.
    oracle:
        Worker function for cache-miss payloads; defaults to
        :func:`repro.serve.engines.evaluate_payload`.  Chaos mode
        wraps this per shard via ``oracle_for_shard``.
    oracle_for_shard:
        Optional per-shard override: maps a shard index to that
        shard's worker function (used to fault-inject one shard).
    max_retries / chunk_timeout / max_consecutive_rebuilds /
    backoff_seconds:
        Forwarded to each shard's :class:`OracleRuntime`.
    recorder:
        Telemetry sink: per-shard ``serve-shard-{i}`` tracks, cache
        counters, queue-depth samples and degradation events.
    """

    def __init__(
        self,
        num_shards: int = 1,
        *,
        cache_size: Optional[int] = None,
        pool: str = "serial",
        oracle: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        oracle_for_shard: Optional[
            Callable[[int], Callable[[Dict[str, Any]], Dict[str, Any]]]
        ] = None,
        max_workers: Optional[int] = None,
        max_retries: int = 1,
        backoff_seconds: float = 0.0,
        chunk_timeout: Optional[float] = None,
        max_consecutive_rebuilds: Optional[int] = 3,
        recorder: Optional[Recorder] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        base_oracle = oracle if oracle is not None else evaluate_payload
        factory = _pool_factory(pool, max_workers)
        self._runtimes: List[OracleRuntime] = []
        for shard in range(num_shards):
            shard_oracle = (
                oracle_for_shard(shard)
                if oracle_for_shard is not None
                else base_oracle
            )
            self._runtimes.append(OracleRuntime(
                shard_oracle,
                max_workers=max_workers,
                max_retries=max_retries,
                backoff_seconds=backoff_seconds,
                chunk_timeout=chunk_timeout,
                max_consecutive_rebuilds=max_consecutive_rebuilds,
                executor_factory=factory,
            ))
        self.cache = ResultCache(cache_size)
        self._degraded: List[bool] = [False] * num_shards
        self._rec = live(recorder)
        self.stats = ServeStats(
            cache=self.cache.stats,
            shard_stats=[rt.stats for rt in self._runtimes],
        )

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "ShardedBatchService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut every shard's pool down (idempotent)."""
        for runtime in self._runtimes:
            runtime.close()

    # -- serving -----------------------------------------------------------
    def serve(
        self, requests: Sequence[EvalRequest]
    ) -> List[EvalResponse]:
        """Answer one batch; responses align with ``requests`` order."""
        reqs = list(requests)
        rec = self._rec
        self.stats.requests += len(reqs)
        self.stats.batches += 1

        # Stage 1 — canonical keys, cache lookups, in-batch dedup.
        keys: List[str] = [request_key(req) for req in reqs]
        outcomes: Dict[str, Dict[str, Any]] = {}
        to_evaluate: List[Tuple[str, EvalRequest]] = []
        for req, key in zip(reqs, keys):
            if key in outcomes:
                self.stats.deduplicated += 1
                continue
            cached = self.cache.get(key)
            if cached is not None:
                outcomes[key] = cached
                if rec is not None:
                    rec.count("serve.cache.hits")
            else:
                if rec is not None:
                    rec.count("serve.cache.misses")
                outcomes[key] = {}  # reserved; filled by evaluation
                to_evaluate.append((key, req))
        self.stats.evaluated += len(to_evaluate)

        # Stage 2 — shard the unique misses by key hash.
        by_shard: List[List[Tuple[str, EvalRequest]]] = [
            [] for _ in range(self.num_shards)
        ]
        for key, req in to_evaluate:
            by_shard[shard_of(key, self.num_shards)].append((key, req))

        # Stage 3 — dispatch every healthy shard's share, then collect
        # shard by shard with failover, so results land in shard order.
        shares = [
            (shard, work, [self._payload(req) for _, req in work])
            for shard, work in enumerate(by_shard) if work
        ]
        for shard, _, payloads in shares:
            if not self._degraded[shard]:
                self._runtimes[shard].start(payloads)
        pending = len(to_evaluate)
        for shard, work, payloads in shares:
            if rec is not None:
                rec.sample(
                    "serve.queue_depth", pending, track="serve",
                )
            self._evaluate_on(shard, work, payloads, outcomes)
            pending -= len(work)
        if rec is not None and to_evaluate:
            rec.sample("serve.queue_depth", 0, track="serve")

        # Assemble responses in request order.
        responses: List[EvalResponse] = []
        for req, key in zip(reqs, keys):
            outcome = outcomes[key]
            responses.append(EvalResponse(
                request_id=req.request_id,
                key=key,
                algo=req.algo,
                value=float(outcome["value"]),
                steps=int(outcome["steps"]),
                work=int(outcome["work"]),
            ))
            if rec is not None:
                rec.count("serve.responses")
        if rec is not None:
            rec.advance(self.stats.requests)
        return responses

    # -- health ------------------------------------------------------------
    def is_degraded(self, shard: int) -> bool:
        """Whether ``shard`` is currently out of rotation."""
        self._check_shard(shard)
        return self._degraded[shard]

    def probe_shard(self, shard: int, payload: Dict[str, Any]) -> bool:
        """Half-open health check: run one payload on ``shard``.

        Bypasses the cache and routing — the payload goes straight to
        the shard's runtime — and absorbs terminal runtime errors into
        a ``False`` verdict.  Safe to call on healthy and degraded
        shards alike; the gateway's supervisor uses it to decide when
        a degraded shard may rejoin the rotation.
        """
        self._check_shard(shard)
        try:
            self._runtimes[shard].evaluate([payload])
        except (WorkerCrashError, DegradedRunError):
            return False
        return True

    def readmit(self, shard: int) -> None:
        """Return a degraded shard to rotation (no-op when healthy).

        The inverse of the one-way degradation ``_mark_degraded``
        applies: the shard serves its key range again from the next
        batch on.  Callers are expected to have verified recovery via
        :meth:`probe_shard` first — readmitting a still-broken shard
        just means the next batch re-degrades it.
        """
        self._check_shard(shard)
        if not self._degraded[shard]:
            return
        self._degraded[shard] = False
        self.stats.degraded_shards.remove(shard)
        self.stats.readmissions += 1
        if self._rec is not None:
            self._rec.event(
                "serve.shard_readmitted",
                track=f"serve-shard-{shard}",
                shard=shard,
            )

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )

    # -- internals ---------------------------------------------------------
    def _healthy_shards(self) -> List[int]:
        return [s for s in range(self.num_shards) if not self._degraded[s]]

    def _evaluate_on(
        self,
        shard: int,
        work: List[Tuple[str, EvalRequest]],
        payloads: List[Dict[str, Any]],
        outcomes: Dict[str, Dict[str, Any]],
        *,
        is_failover: bool = False,
    ) -> None:
        """Collect one shard's share, failing over on terminal errors.

        The shard's runtime picks up the round ``serve`` started for
        exactly these ``payloads``; failed-over work, which the target
        shard never started, is dispatched afresh.
        """
        if self._degraded[shard]:
            self._failover(shard, work, payloads, outcomes)
            return
        rec = self._rec
        if rec is not None:
            rec.count(f"serve.shard.{shard}.requests", len(work))
        try:
            results = self._runtimes[shard].evaluate(payloads)
        except (WorkerCrashError, DegradedRunError) as exc:
            self._mark_degraded(shard, exc)
            self._failover(shard, work, payloads, outcomes)
            return
        for (key, _req), outcome in zip(work, results):
            self.cache.put(key, outcome)
            outcomes[key] = outcome
        if rec is not None and is_failover:
            rec.count("serve.failover.recovered", len(work))

    def _failover(
        self,
        shard: int,
        work: List[Tuple[str, EvalRequest]],
        payloads: List[Dict[str, Any]],
        outcomes: Dict[str, Dict[str, Any]],
    ) -> None:
        """Re-dispatch a degraded shard's work to the next healthy one."""
        healthy = self._healthy_shards()
        if not healthy:
            raise AllShardsDegradedError(
                f"all {self.num_shards} shards degraded; "
                f"{len(work)} request(s) unserved",
                stats=self.stats,
                pending=len(work),
            )
        # Deterministic choice: first healthy shard after the dead one.
        target = next(
            (s for s in healthy if s > shard), healthy[0]
        )
        self.stats.failovers += len(work)
        if self._rec is not None:
            self._rec.count("serve.failover.requests", len(work))
        self._evaluate_on(
            target, work, payloads, outcomes, is_failover=True
        )

    def _mark_degraded(self, shard: int, exc: Exception) -> None:
        if not self._degraded[shard]:
            self._degraded[shard] = True
            self.stats.degraded_shards.append(shard)
        if self._rec is not None:
            self._rec.event(
                "serve.shard_degraded",
                track=f"serve-shard-{shard}",
                shard=shard,
                error=type(exc).__name__,
            )

    @staticmethod
    def _payload(req: EvalRequest) -> Dict[str, Any]:
        data = request_to_dict(req)
        # The worker does not need the request id; dropping it keeps
        # payloads for equal requests identical (FaultyOracle hashes
        # payload reprs, so identity matters for deterministic chaos).
        del data["id"]
        return data

    @property
    def degraded_shards(self) -> List[int]:
        return list(self.stats.degraded_shards)


def direct_mismatches(
    served: Iterable[Tuple[EvalRequest, Any]],
) -> Iterator[Tuple[EvalRequest, Any, EngineOutcome]]:
    """Re-evaluate served requests inline; yield the ones served wrong.

    ``served`` pairs each request with its answer: anything with
    ``key``, ``value``, ``steps`` and ``work`` (an
    :class:`~repro.serve.request.EvalResponse` or a gateway outcome).
    Direct results are memoised by request key, so each unique
    computation runs once however hot the stream is.  Yields
    ``(request, served, direct)`` for every answer whose key or
    ``(value, steps, work)`` differs from direct evaluation.
    """
    direct: Dict[str, EngineOutcome] = {}
    for req, answer in served:
        key = request_key(req)
        if key not in direct:
            direct[key] = run_algorithm(req.algo, req.tree, req.params_dict())
        if (
            answer.key != key
            or (answer.value, answer.steps, answer.work) != direct[key]
        ):
            yield req, answer, direct[key]
