"""The four benchmark workloads and the inputs they are made from.

Each workload turns the run seed into its inputs (trees, requests and
each tree's reference root value), builds what the library needs
before the first timed op, and answers one op at a time through the
library's public entry points.  Inputs are made in chunks between ops,
outside the timed region.

An *op* is one request for ``serve-*`` (sent in batches of ``BATCH``)
and one tree evaluation for ``solve-*``.  README.md says why each
workload exists.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

import repro.core
import repro.core.alphabeta
import tracing
from repro.core import sequential_solve
from repro.core.alphabeta import minimax
from repro.core.shm import CalibratedOracle, ShmOptions
from repro.serve import (
    EvalRequest,
    ShardedBatchService,
    make_tree_pool,
    synthetic_stream,
)
from repro.trees.base import GameTree
from repro.trees.generators import iid_boolean, iid_minmax
from repro.trees.generators.iid import level_invariant_bias
from repro.types import TreeKind

#: Requests per serve() call: the gateway's default dispatch size.
BATCH = 8
#: Requests made per input chunk on the serve workloads.
CHUNK = 256
#: Per-leaf cost of the solve-shm oracle.  It spins on the monotonic
#: clock: on a shared 2-core VM, ops_per_s of ten runs with the sleep
#: mode spread by a third (quartile distance over median), spun by 2-4%.
LEAF_COST_S = 0.0005


def sub_seed(seed: int, *keys: object) -> int:
    """A 32-bit seed for one named input stream of the run."""
    entropy = [seed, *(zlib.crc32(str(key).encode()) for key in keys)]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def reference_value(tree: GameTree) -> float:
    """The root value by an engine other than the ones timed."""
    if tree.kind is TreeKind.BOOLEAN:
        return float(sequential_solve(tree).value)
    return float(minimax(tree).value)


@dataclass
class Op:
    """One timed call: a batch of requests, or one tree evaluation."""

    size: int  # ops the call answers
    label: str  # the cell it belongs to
    args: Any
    expected: Any


class Workload:
    """Inputs, set-up and the timed call of one workload."""

    name = ""
    #: percentile reported as latency_tail_ms
    tail_percentile = 90
    #: worker processes the library runs at once (peak_rss_mb counts them)
    worker_processes = 0
    #: the layer wrappers the traced run installs
    patches: Tuple[tracing.Patch, ...] = ()
    #: span name prefixes a traced run must record at least once
    layers: Tuple[str, ...] = ()
    #: shm leaf workers and per-leaf cost (0 where no shm pool runs)
    leaf_workers = 0
    leaf_cost_s = 0.0

    def __init__(self, seed: int, tiny: bool) -> None:
        self.seed = seed
        self.tiny = tiny
        self.setups = 0
        #: one op stream per run, shared by its phases: no input repeats
        self.ops: Iterator[Op] = self._ops()

    def _ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def warmup_inputs(self) -> Any:
        """The next set-up's warm-up inputs, made before its timer starts."""
        raise NotImplementedError

    def setup(self, warmup: Any, traced: bool) -> None:
        """Build and warm up what the first timed op needs."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what setup built."""

    def call(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> int:
        """Number of wrong answers in one call's result."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """The library's cumulative counters (differenced per phase)."""
        return {}

    def clock_bound_s(self, result: Any) -> float:
        """Seconds of a call that ran to a clock, not at CPU speed."""
        return 0.0


# -- serve ---------------------------------------------------------------------
class _Serve(Workload):
    tail_percentile = 99
    patches = tracing.SERVE
    layers = (
        "serve.service", "serve.request.key", "serve.cache", "serve.encode",
        "runtime.evaluate", "serve.decode", "serve.engine.",
    )
    warmup_requests = 0

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.service: Optional[ShardedBatchService] = None

    def _service(self, oracle: Any) -> ShardedBatchService:
        raise NotImplementedError

    def _requests(
        self, n: int, stream: str, index: int
    ) -> Tuple[List[EvalRequest], List[float]]:
        raise NotImplementedError

    def _ops(self) -> Iterator[Op]:
        for index in itertools.count():
            requests, expected = self._requests(CHUNK, "timed", index)
            for i in range(0, CHUNK, BATCH):
                yield Op(
                    BATCH, "serve",
                    requests[i:i + BATCH], expected[i:i + BATCH],
                )

    def warmup_inputs(self) -> List[EvalRequest]:
        self.setups += 1
        requests, _ = self._requests(
            self.warmup_requests, "warm-up", self.setups
        )
        return requests

    def setup(self, warmup: List[EvalRequest], traced: bool) -> None:
        self.service = self._service(
            tracing.timed_payload if traced else None
        )
        for i in range(0, len(warmup), BATCH):
            self.service.serve(warmup[i:i + BATCH])

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def call(self, op: Op) -> Any:
        assert self.service is not None
        return self.service.serve(op.args)

    def check(self, op: Op, result: Any) -> int:
        if len(result) != len(op.args):
            return op.size
        return sum(
            resp.request_id != req.request_id or resp.value != want
            for req, resp, want in zip(op.args, result, op.expected)
        )

    def counters(self) -> Dict[str, int]:
        assert self.service is not None
        stats = self.service.stats
        shards = stats.shard_stats
        return {
            "requests": stats.requests,
            "deduplicated": stats.deduplicated,
            "hits": stats.cache.hits,
            "misses": stats.cache.misses,
            "evictions": stats.cache.evictions,
            "chunks": sum(s.chunks for s in shards),
            "retries": sum(s.retries for s in shards),
            "pool_restarts": sum(s.pool_restarts for s in shards),
        }


class ServeHot(_Serve):
    """Zipf traffic over a tree pool, behind a cache smaller than its
    key set: most requests end at the cache, the misses set the tail."""

    name = "serve-hot"

    def __init__(self, seed: int, tiny: bool) -> None:
        n_trees, height = (8, 4) if tiny else (64, 6)
        self.cache_size = 16 if tiny else 256
        self.warmup_requests = 64 if tiny else 2048
        self.pool = make_tree_pool(
            n_trees, seed=sub_seed(seed, "pool"), height=height
        )
        self.expected = {id(t): reference_value(t) for t in self.pool}
        super().__init__(seed, tiny)

    def _service(self, oracle: Any) -> ShardedBatchService:
        return ShardedBatchService(
            2, cache_size=self.cache_size, pool="serial", oracle=oracle
        )

    def _requests(
        self, n: int, stream: str, index: int
    ) -> Tuple[List[EvalRequest], List[float]]:
        requests = synthetic_stream(
            n, seed=sub_seed(self.seed, stream, index),
            pool=self.pool, zipf_s=1.2,
        )
        return requests, [self.expected[id(r.tree)] for r in requests]


class ServeCold(_Serve):
    """Every request carries a tree the service has never seen, so
    each pays the hash, the wire round trip and the engine."""

    name = "serve-cold"
    worker_processes = 2
    warmup_requests = 4 * BATCH

    def __init__(self, seed: int, tiny: bool) -> None:
        self.height = 4 if tiny else 6
        super().__init__(seed, tiny)

    def _service(self, oracle: Any) -> ShardedBatchService:
        return ShardedBatchService(
            2, cache_size=256, pool="process", max_workers=1,
            oracle=oracle,
        )

    def _requests(
        self, n: int, stream: str, index: int
    ) -> Tuple[List[EvalRequest], List[float]]:
        base = sub_seed(self.seed, stream, index)
        trees = make_tree_pool(n, seed=base, height=self.height)
        order = np.random.default_rng(base).permutation(n).tolist()
        requests: List[EvalRequest] = []
        expected: List[float] = []
        for rid, i in enumerate(order):
            tree = trees[i]
            # A one-tree pool makes synthetic_stream draw the default
            # algorithm mix for exactly this tree.
            (drawn,) = synthetic_stream(1, seed=base + rid, pool=[tree])
            requests.append(EvalRequest(rid, drawn.algo, tree, drawn.params))
            expected.append(reference_value(tree))
        return requests, expected


# -- solve ---------------------------------------------------------------------
class SolveArena(Workload):
    """Trees never lowered before, through the arena backend: SOLVE and
    alpha-beta alternate while the width cycles through 1, 2, 4, 8."""

    name = "solve-arena"
    patches = tracing.SOLVE
    layers = (
        "core.parallel_solve", "core.parallel_alpha_beta", "trees.lower",
        "arena.select", "arena.settle",
    )
    cells: Tuple[Tuple[str, int], ...] = tuple(
        (engine, width)
        for width in (1, 2, 4, 8)
        for engine in ("parallel_solve", "parallel_alpha_beta")
    )

    def __init__(self, seed: int, tiny: bool) -> None:
        self.branching, self.height = (3, 4) if tiny else (4, 6)
        #: (steps, leaves) of every checked op, in op order
        self.schedule: List[Tuple[int, int]] = []
        self.runtime = {"chunks": 0, "retries": 0, "pool_restarts": 0}
        super().__init__(seed, tiny)

    def _tree(self, engine: str, key: object) -> GameTree:
        seed = sub_seed(self.seed, "tree", key)
        if engine == "parallel_solve":
            bias = level_invariant_bias(self.branching)
            return iid_boolean(self.branching, self.height, bias, seed)
        return iid_minmax(self.branching, self.height, seed)

    def _ops(self) -> Iterator[Op]:
        for k in itertools.count():
            engine, width = self.cells[k % len(self.cells)]
            tree = self._tree(engine, k)
            yield Op(
                1, f"{engine}.w{width}", (engine, tree, width),
                reference_value(tree),
            )

    def call(self, op: Op) -> Any:
        engine, tree, width = op.args
        if engine == "parallel_solve":
            return repro.core.parallel_solve(tree, width, backend="arena")
        return repro.core.alphabeta.parallel_alpha_beta(
            tree, width, backend="arena"
        )

    def warmup_inputs(self) -> List[Tuple[str, GameTree, int]]:
        # One op per engine, at its widest cell, on trees of full size.
        self.setups += 1
        return [
            (engine, self._tree(engine, f"warm-up-{self.setups}"), width)
            for engine, width in dict(self.cells).items()
        ]

    def setup(
        self, warmup: List[Tuple[str, GameTree, int]], traced: bool
    ) -> None:
        for args in warmup:
            self.call(Op(1, "warm-up", args, None))

    def check(self, op: Op, result: Any) -> int:
        self.schedule.append((result.num_steps, result.total_work))
        stats = getattr(result, "stats", None)  # shm runs carry theirs
        if stats is not None:
            for key in self.runtime:
                self.runtime[key] += getattr(stats, key)
        return int(float(result.value) != op.expected)

    def counters(self) -> Dict[str, int]:
        return dict(self.runtime)


class SolveShm(SolveArena):
    """Small Boolean trees whose leaves cost a calibrated spin, each
    evaluated by a new two-process shared-memory pool."""

    name = "solve-shm"
    worker_processes = 2
    leaf_workers = 2
    leaf_cost_s = LEAF_COST_S
    cells = (("parallel_solve", 1), ("parallel_solve", 2))
    layers = (
        "core.parallel_solve", "trees.lower", "arena.select",
        "arena.settle", "shm.lifecycle", "shm.leaf_eval", "runtime.evaluate",
    )

    def __init__(self, seed: int, tiny: bool) -> None:
        super().__init__(seed, tiny)
        self.branching, self.height = 3, (3 if tiny else 5)
        self.options = ShmOptions(
            workers=self.leaf_workers,
            oracle=CalibratedOracle(self.leaf_cost_s, "spin"),
        )

    def call(self, op: Op) -> Any:
        engine, tree, width = op.args
        return repro.core.parallel_solve(
            tree, width, backend="arena", executor="shm",
            shm_options=self.options,
        )

    def clock_bound_s(self, result: Any) -> float:
        # Each step's leaves go out as one chunk per worker, and every
        # leaf spins for leaf_cost_s: the step barrier waits for
        # ceil(m / p) leaf costs whatever the CPU speed.
        return self.leaf_cost_s * sum(
            -(-degree // self.leaf_workers)
            for degree in result.trace.degrees
        )


WORKLOADS = {
    cls.name: cls for cls in (ServeHot, ServeCold, SolveArena, SolveShm)
}
