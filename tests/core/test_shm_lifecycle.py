"""Buffer-lifecycle guarantees of the shared-memory executor.

The contract under test: no ``/dev/shm`` entry (and no resource-
tracker registration) survives a session — not on clean shutdown, not
on crash-rebuild, not on the degraded path where the pool's circuit
breaker aborts the run mid-step.  Leaked segments are how shared-
memory backends rot: each one pins real pages until reboot, and the
resource tracker's exit-time sweep both warns and races concurrent
runs.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import resource_tracker, shared_memory

import pytest

from repro.core import WidthPolicy, parallel_solve
from repro.core.shm import ArenaSegments, ShmOptions, ShmSession
from repro.core.shm.pool import _worker_init
from repro.errors import DegradedRunError, WorkerCrashError
from repro.trees.canonical import canonical_arrays
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias

SHM_DIR = "/dev/shm"


def _session_names(session: ShmSession) -> tuple:
    spec = session.segments.spec
    return (spec.values_name, spec.batch_name, spec.out_name)


def _live(name: str) -> bool:
    try:
        blk = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    blk.close()
    return True


def _dev_shm_entries() -> set:
    if not os.path.isdir(SHM_DIR):  # pragma: no cover - non-tmpfs CI
        return set()
    return {f for f in os.listdir(SHM_DIR) if f.startswith("repro_")}


def _tracker_unregister_is_clean(name: str) -> bool:
    """After a proper unlink the tracker no longer knows the name, so
    a second unregister must be a silent no-op (set-discard)."""
    resource_tracker.unregister("/" + name, "shared_memory")
    return True


@pytest.fixture()
def tree():
    return iid_boolean(3, 4, level_invariant_bias(3), seed=13)


class _CrashOnce:
    """Leaf oracle that kills its worker process exactly once."""

    def __init__(self, marker: str) -> None:
        self.marker = marker

    def __call__(self, value: float, index: int) -> float:
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write("crashed")
            os._exit(1)
        return value


class _CrashAlways:
    def __call__(self, value: float, index: int) -> float:
        os._exit(1)


class _Hang:
    """Leaf oracle that never returns within a test's patience."""

    def __call__(self, value: float, index: int) -> float:
        threading.Event().wait(60.0)
        return value


class TestCleanShutdown:
    def test_session_close_unlinks_everything(self, tree):
        before = _dev_shm_entries()
        with ShmSession(tree, ShmOptions(workers=2)) as session:
            names = _session_names(session)
            result = session.solve(WidthPolicy(1))
            assert result.num_steps >= 1
            for name in names:
                assert _live(name)
        for name in names:
            assert not _live(name)
            assert _tracker_unregister_is_clean(name)
        assert _dev_shm_entries() == before

    def test_close_idempotent_and_exception_safe(self, tree):
        session = ShmSession(tree, ShmOptions(workers=1))
        names = _session_names(session)
        session.close()
        session.close()
        for name in names:
            assert not _live(name)

    def test_exception_inside_with_still_unlinks(self, tree):
        names = ()
        with pytest.raises(RuntimeError, match="boom"):
            with ShmSession(tree, ShmOptions(workers=1)) as session:
                names = _session_names(session)
                raise RuntimeError("boom")
        for name in names:
            assert not _live(name)


class TestCrashRebuild:
    def test_crash_rebuild_reattaches_and_unlinks(self, tree, tmp_path):
        before = _dev_shm_entries()
        baseline = parallel_solve(tree, 1, backend="arena")
        oracle = _CrashOnce(str(tmp_path / "crash-marker"))
        with ShmSession(
            tree,
            ShmOptions(workers=2, oracle=oracle, backoff_seconds=0.01),
        ) as session:
            names = _session_names(session)
            result = session.solve(WidthPolicy(1))
            # The rebuilt pool re-ran the initializer (re-attach) and
            # converged to the exact fault-free result.
            assert session.pool.stats.pool_restarts >= 1
            assert result.value == baseline.value
            assert result.num_steps == baseline.num_steps
        for name in names:
            assert not _live(name)
        assert _dev_shm_entries() == before

    def test_retry_exhaustion_still_unlinks(self, tree):
        before = _dev_shm_entries()
        names = ()
        with pytest.raises(WorkerCrashError):
            with ShmSession(
                tree,
                ShmOptions(
                    workers=1, oracle=_CrashAlways(),
                    max_retries=1, backoff_seconds=0.01,
                ),
            ) as session:
                names = _session_names(session)
                session.solve(WidthPolicy(1))
        for name in names:
            assert not _live(name)
        assert _dev_shm_entries() == before


    def test_timed_out_worker_does_not_outlive_the_session(self, tree):
        # The hung worker keeps the segments mapped for as long as it
        # lives, so the rebuild must terminate it, not abandon it.
        before = multiprocessing.active_children()
        names = ()
        with pytest.raises(WorkerCrashError):
            with ShmSession(
                tree,
                ShmOptions(
                    workers=1, oracle=_Hang(), max_retries=0,
                    chunk_timeout=0.2,
                ),
            ) as session:
                names = _session_names(session)
                session.solve(WidthPolicy(1))
        assert session.pool.stats.timeouts == 1
        assert [
            p for p in multiprocessing.active_children() if p not in before
        ] == []
        for name in names:
            assert not _live(name)


class TestDegradedPath:
    def test_degraded_run_unlinks_and_reports_steps(self, tree):
        before = _dev_shm_entries()
        names = ()
        with pytest.raises(DegradedRunError) as exc_info:
            with ShmSession(
                tree,
                ShmOptions(
                    workers=1, oracle=_CrashAlways(),
                    max_retries=8, backoff_seconds=0.01,
                    max_consecutive_rebuilds=2,
                ),
            ) as session:
                names = _session_names(session)
                session.solve(WidthPolicy(1))
        err = exc_info.value
        assert err.steps_completed == 0
        assert err.pending >= 1
        for name in names:
            assert not _live(name)
            assert _tracker_unregister_is_clean(name)
        assert _dev_shm_entries() == before


class TestInProcessAttach:
    def test_thread_executor_runs_initializer_in_process(self, tree):
        """Injected executors exercise the same attach path (and the
        initializer closes a previously inherited mapping)."""
        before = _dev_shm_entries()

        def factory(spec, oracle):
            return ThreadPoolExecutor(
                max_workers=2,
                initializer=_worker_init,
                initargs=(spec, oracle),
            )

        baseline = parallel_solve(tree, 1, backend="arena")
        with ShmSession(
            tree, ShmOptions(workers=2, executor_factory=factory)
        ) as session:
            first = session.solve(WidthPolicy(1))
            second = session.solve(WidthPolicy(1))
        assert first.value == second.value == baseline.value
        assert _dev_shm_entries() == before

    def test_segments_context_manager_balanced(self, tree):
        arrays = canonical_arrays(tree)
        before = _dev_shm_entries()
        with ArenaSegments.publish(arrays):
            assert len(_dev_shm_entries() - before) == 3
        assert _dev_shm_entries() == before
