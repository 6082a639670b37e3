"""The oracle runner is ``run_boolean`` plus a leaf evaluator.

* the ``evaluate=`` seam of ``run_boolean`` and ``BooleanState.settle_leaf``;
* differential: ``run_with_oracle`` (serial, thread pool, OracleRuntime)
  against ``run_boolean`` — value, degrees, evaluated leaves and
  logical-clock telemetry — over every Boolean policy on i.i.d. and
  degenerate trees;
* the circuit breaker tripping mid-run reports the steps that finished;
* oracle outputs outside {0, 1} are rejected;
* the runner's telemetry vocabulary.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import (
    BoundedWidthPolicy,
    IncrementalBoundedWidthPolicy,
    IncrementalSaturationPolicy,
    IncrementalSequentialPolicy,
    IncrementalTeamPolicy,
    IncrementalWidthPolicy,
    SaturationPolicy,
    SequentialPolicy,
    TeamPolicy,
    WidthPolicy,
    run_boolean,
)
from repro.core.status import BooleanState
from repro.errors import DegradedRunError, ModelViolationError
from repro.models.executors import OracleRuntime
from repro.models.oracle_runner import run_with_oracle
from repro.telemetry import InMemoryRecorder
from repro.trees import ExplicitTree, UniformTree
from repro.trees.generators import iid_boolean
from repro.types import Gate, TreeKind


def bit(x):
    return int(x)


#: name -> zero-argument factory; a fresh policy per run.
POLICIES = {
    "sequential": SequentialPolicy,
    "sequential-incr": IncrementalSequentialPolicy,
    **{f"width{w}": (lambda w=w: WidthPolicy(w)) for w in (0, 1, 2)},
    **{
        f"width{w}-incr": (lambda w=w: IncrementalWidthPolicy(w))
        for w in (0, 1, 2)
    },
    "bounded": lambda: BoundedWidthPolicy(2, 2),
    "bounded-incr": lambda: IncrementalBoundedWidthPolicy(2, 2),
    **{f"team{p}": (lambda p=p: TeamPolicy(p)) for p in (1, 3)},
    **{
        f"team{p}-incr": (lambda p=p: IncrementalTeamPolicy(p))
        for p in (1, 3)
    },
    "saturation": SaturationPolicy,
    "saturation-incr": IncrementalSaturationPolicy,
}

TREES = {
    "iid-b2": iid_boolean(2, 6, 0.45, seed=11),
    "iid-b3": iid_boolean(3, 4, 0.4, seed=12),
    "height0-uniform": UniformTree(3, 0, [1], kind=TreeKind.BOOLEAN),
    "height0-explicit": ExplicitTree([()], {0: 0}),
    "chain": UniformTree(1, 6, [1], kind=TreeKind.BOOLEAN),
    "mixed-arity": ExplicitTree.from_nested(
        [[1, [0, [1]]], 0, [[1, 0, 1], [[0]]]], gates=Gate.NOR
    ),
}


def _thread_factory():
    return ThreadPoolExecutor(max_workers=2)


class TestEvaluateSeam:
    def test_evaluator_values_replace_tree_values(self):
        t = ExplicitTree.from_nested([0, 0])  # NOR of two zeros = 1
        res = run_boolean(
            t, SaturationPolicy(), evaluate=lambda b: [1] * len(b)
        )
        assert res.value == 0

    def test_invalid_batch_never_reaches_the_evaluator(self):
        t = ExplicitTree.from_nested([0, 0])
        calls = []

        def evaluate(batch):
            calls.append(batch)
            return [0] * len(batch)

        with pytest.raises(ModelViolationError):
            run_boolean(
                t, lambda tree, st: [1, 1], evaluate=evaluate,
                validate_batches=True,
            )
        assert calls == []

    def test_evaluator_called_once_per_step_in_batch_order(self):
        t = iid_boolean(2, 5, 0.5, seed=3)
        batches = []

        def evaluate(batch):
            batches.append(list(batch))
            return [t.leaf_value(leaf) for leaf in batch]

        res = run_boolean(t, WidthPolicy(1), evaluate=evaluate)
        assert len(batches) == res.num_steps
        assert [x for b in batches for x in b] == res.evaluated

    def test_settle_leaf_matches_evaluate_leaf(self):
        t = iid_boolean(2, 4, 0.5, seed=5)
        a, b = BooleanState(t), BooleanState(t)
        for leaf in run_boolean(t, WidthPolicy(1)).evaluated:
            assert a.evaluate_leaf(leaf) == b.settle_leaf(
                leaf, t.leaf_value(leaf)
            )
        assert a.value == b.value
        assert t.root in b.value

    def test_settle_leaf_rejects_repeats_and_non_leaves(self):
        t = ExplicitTree.from_nested([[0, 0], 0])
        state = BooleanState(t)
        with pytest.raises(ModelViolationError, match="not a leaf"):
            state.settle_leaf(1, 0)
        state.settle_leaf(2, 1)
        with pytest.raises(ModelViolationError, match="twice"):
            state.settle_leaf(2, 1)


@pytest.fixture(scope="module")
def thread_pool():
    with ThreadPoolExecutor(max_workers=3) as pool:
        yield pool


@pytest.mark.parametrize("mode", ["serial", "threads", "runtime"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_oracle_run_matches_run_boolean(policy, mode, thread_pool):
    make_policy = POLICIES[policy]
    for name, tree in TREES.items():
        ref_rec = InMemoryRecorder()
        ref = run_boolean(tree, make_policy(), recorder=ref_rec)
        rec = InMemoryRecorder()
        if mode == "runtime":
            with OracleRuntime(
                bit, chunk_size=2, executor_factory=_thread_factory
            ) as rt:
                res = run_with_oracle(
                    tree, bit, make_policy(), runtime=rt, recorder=rec
                )
        else:
            executor = thread_pool if mode == "threads" else None
            res = run_with_oracle(
                tree, bit, make_policy(), executor, recorder=rec
            )
        assert res.value == ref.value, name
        assert res.trace.degrees == ref.trace.degrees, name
        assert res.evaluated == ref.evaluated, name
        assert len(res.trace.step_seconds) == res.num_steps, name
        events = rec.events
        if mode == "runtime":
            # The runtime's stats are bridged as one closing event.
            *events, last = events
            assert (last.name, last.track) == ("runtime_stats", "oracle")
        assert events == ref_rec.events, name


class _BreaksAfter:
    """Pool factory: the first pool serves ``k`` submits, then it and
    every rebuilt pool refuse work."""

    def __init__(self, k):
        self.left = k
        self.inner = ThreadPoolExecutor(max_workers=1)

    def __call__(self):
        return self

    def submit(self, fn, /, *args, **kwargs):
        if self.left <= 0:
            raise BrokenExecutor("worker gone")
        self.left -= 1
        return self.inner.submit(fn, *args, **kwargs)

    def shutdown(self, wait=True, cancel_futures=False):
        self.inner.shutdown(wait=wait, cancel_futures=cancel_futures)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_breaker_mid_run_reports_finished_steps(k):
    tree = iid_boolean(2, 6, 0.5, seed=4)
    assert run_with_oracle(tree, bit, WidthPolicy(1)).num_steps > k
    rt = OracleRuntime(
        bit, chunk_size=10_000, max_retries=99, backoff_seconds=0.0,
        max_consecutive_rebuilds=1, executor_factory=_BreaksAfter(k),
        sleep=lambda _s: None,
    )
    with rt:
        with pytest.raises(DegradedRunError) as err:
            run_with_oracle(tree, bit, WidthPolicy(1), runtime=rt)
    assert err.value.steps_completed == k
    assert rt.stats.batches == k


class TestOracleOutputs:
    def test_height0_non_bit_rejected(self):
        t = ExplicitTree([()], {0: 1})
        with pytest.raises(ModelViolationError, match=r"7.*leaf 0"):
            run_with_oracle(t, lambda _x: 7, WidthPolicy(1))

    def test_non_bit_rejected_mid_tree(self):
        t = ExplicitTree.from_nested([[1, 0], [0, 0]])
        with pytest.raises(ModelViolationError, match=r"returned 2 .*leaf 2"):
            run_with_oracle(t, lambda _x: 2, WidthPolicy(1))

    @pytest.mark.parametrize("one", [True, np.int64(1), 1.0])
    def test_bit_like_outputs_accepted(self, one):
        t = ExplicitTree.from_nested([[1, 0], [0, 0]])
        expected = run_boolean(
            t, WidthPolicy(1), evaluate=lambda b: [1] * len(b)
        ).value
        res = run_with_oracle(t, lambda _x: one, WidthPolicy(1))
        assert res.value == expected
        assert type(res.value) is int


class TestTelemetry:
    def test_solve_track_and_metrics_only(self):
        t = iid_boolean(2, 5, 0.5, seed=8)
        rec = InMemoryRecorder()
        res = run_with_oracle(t, bit, WidthPolicy(1), recorder=rec)
        assert {e.track for e in rec.events} == {"solve"}
        counters = rec.metrics.counters
        assert counters["solve.steps"] == res.num_steps
        assert counters["solve.leaves_evaluated"] == res.total_work
        assert not [n for n in counters if n.startswith("oracle_run.")]
        assert rec.metrics.histograms == {}

    def test_step_seconds_histogram_only_under_wallclock(self):
        t = iid_boolean(2, 5, 0.5, seed=8)
        rec = InMemoryRecorder(wallclock=True)
        res = run_with_oracle(t, bit, WidthPolicy(1), recorder=rec)
        assert rec.metrics.histograms["oracle_run.step_seconds"] == (
            res.trace.step_seconds
        )

    def test_runtime_stats_bridged_at_run_end(self):
        t = iid_boolean(2, 5, 0.5, seed=8)
        rec = InMemoryRecorder()
        with OracleRuntime(bit, executor_factory=_thread_factory) as rt:
            res = run_with_oracle(
                t, bit, WidthPolicy(1), runtime=rt, recorder=rec
            )
        last = rec.events[-1]
        assert (last.name, last.track) == ("runtime_stats", "oracle")
        assert dict(last.attrs)["batches"] == res.num_steps
        assert rec.metrics.counters["oracle.batches"] == res.num_steps
