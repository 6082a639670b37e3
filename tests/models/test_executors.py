"""Unit tests for the process pool and the oracle runtime."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.models.executors import PipePool


def square(x):
    return x * x


# ---------------------------------------------------------------------------
# OracleRuntime
# ---------------------------------------------------------------------------
import os

from repro.core.policies import WidthPolicy
from repro.errors import WorkerCrashError
from repro.models.executors import OracleRuntime
from repro.models.oracle_runner import run_with_oracle
from repro.trees.generators import iid_boolean


def _thread_factory(workers=2):
    return lambda: ThreadPoolExecutor(max_workers=workers)


def _crash_until_sentinel(payload):
    """Process-pool oracle: dies hard until the sentinel file exists."""
    path, value = payload
    if not os.path.exists(path):
        with open(path, "w"):
            pass
        os._exit(1)  # hard worker death, not an exception
    return value * 2


class TestOracleRuntimeDispatch:
    def test_chunked_dispatch_preserves_order(self):
        with OracleRuntime(
            square, chunk_size=3, executor_factory=_thread_factory(4)
        ) as rt:
            assert rt.evaluate(range(10)) == [i * i for i in range(10)]
            stats = rt.stats
        assert stats.batches == 1
        assert stats.units == 10
        assert stats.chunks == 4  # ceil(10 / 3)
        assert stats.retries == 0
        assert stats.pool_restarts == 0
        assert stats.last_batch_size == 10
        assert stats.oracle_seconds >= stats.last_batch_seconds >= 0

    def test_default_chunking_splits_across_workers(self):
        with OracleRuntime(
            square, max_workers=4, executor_factory=_thread_factory(4)
        ) as rt:
            rt.evaluate(range(10))
            assert rt.stats.chunks == 4  # chunks of ceil(10/4)=3

    def test_pool_persists_across_batches(self):
        with OracleRuntime(
            square, executor_factory=_thread_factory()
        ) as rt:
            rt.evaluate([1, 2])
            rt.evaluate([3])
            assert rt.stats.batches == 2
            assert rt.stats.units == 3

    def test_empty_batch(self):
        with OracleRuntime(
            square, executor_factory=_thread_factory()
        ) as rt:
            assert rt.evaluate([]) == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            OracleRuntime(square, max_retries=-1)
        with pytest.raises(ValueError):
            OracleRuntime(square, chunk_size=0)


class TestOracleRuntimeRetries:
    def test_transient_failure_recovers_with_same_values(self):
        failed = []

        def flaky(x):
            if x == 5 and not failed:
                failed.append(x)
                raise RuntimeError("transient")
            return x * x

        sleeps = []
        with OracleRuntime(
            flaky, chunk_size=2, max_retries=2, backoff_seconds=0.01,
            executor_factory=_thread_factory(),
            sleep=sleeps.append,
        ) as rt:
            out = rt.evaluate(range(8))
        # The retry leaves the results exactly as a clean run's.
        assert out == [i * i for i in range(8)]
        assert rt.stats.retries == 1
        assert sleeps == [0.01]

    def test_exhausted_retries_raise_typed_error(self):
        def always_broken(x):
            raise ValueError("oracle bug")

        sleeps = []
        rt = OracleRuntime(
            always_broken, chunk_size=1, max_retries=2,
            backoff_seconds=0.05, max_backoff_seconds=1.0,
            executor_factory=_thread_factory(),
            sleep=sleeps.append,
        )
        with rt:
            with pytest.raises(WorkerCrashError) as err:
                rt.evaluate([1])
        assert isinstance(err.value.__cause__, ValueError)
        assert rt.stats.retries == 2
        assert sleeps == [0.05, 0.1]

    def test_backoff_is_capped(self):
        def always_broken(x):
            raise ValueError("nope")

        sleeps = []
        rt = OracleRuntime(
            always_broken, chunk_size=1, max_retries=3,
            backoff_seconds=0.5, max_backoff_seconds=0.6,
            executor_factory=_thread_factory(),
            sleep=sleeps.append,
        )
        with rt, pytest.raises(WorkerCrashError):
            rt.evaluate([1])
        assert sleeps == [0.5, 0.6, 0.6]


class TestOracleRuntimeCrashes:
    def test_worker_death_restarts_pool_and_recovers(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        sleeps = []
        with OracleRuntime(
            _crash_until_sentinel, max_workers=1, max_retries=3,
            backoff_seconds=0.01, max_backoff_seconds=1.0,
            sleep=sleeps.append,
        ) as rt:
            out = rt.evaluate([(sentinel, 21)])
        assert out == [42]
        assert rt.stats.pool_restarts >= 1
        assert rt.stats.retries >= 1
        # The fake clock proves backoff followed the documented
        # schedule without the test ever actually sleeping.
        assert sleeps == [
            min(0.01 * 2 ** i, 1.0) for i in range(len(sleeps))
        ]
        assert len(sleeps) == rt.stats.retries

    def test_usable_after_manual_restart(self):
        with OracleRuntime(
            square, executor_factory=_thread_factory()
        ) as rt:
            assert rt.evaluate([3]) == [9]
            rt.restart_pool()
            assert rt.evaluate([4]) == [16]
            assert rt.stats.pool_restarts == 1

    def test_close_is_idempotent(self):
        rt = OracleRuntime(square, executor_factory=_thread_factory())
        with rt:
            rt.evaluate([2])
        rt.close()
        rt.close()


class TestRunWithOracleRuntime:
    def test_runtime_backed_run_matches_serial(self):
        tree = iid_boolean(2, 5, 0.4, seed=9)

        def oracle(v):
            return int(v)

        serial = run_with_oracle(tree, oracle, WidthPolicy(1))
        with OracleRuntime(
            oracle, chunk_size=2, executor_factory=_thread_factory()
        ) as rt:
            pooled = run_with_oracle(
                tree, oracle, WidthPolicy(1), runtime=rt
            )
        assert pooled.value == serial.value
        assert pooled.trace.degrees == serial.trace.degrees
        assert len(pooled.trace.step_seconds) == pooled.num_steps
        assert pooled.trace.wall_seconds >= 0
        assert rt.stats.batches == pooled.num_steps

    def test_executor_and_runtime_mutually_exclusive(self):
        tree = iid_boolean(2, 3, 0.5, seed=0)
        with ThreadPoolExecutor(max_workers=1) as pool:
            with OracleRuntime(
                int, executor_factory=_thread_factory()
            ) as rt:
                with pytest.raises(ValueError):
                    run_with_oracle(
                        tree, int, WidthPolicy(1),
                        executor=pool, runtime=rt,
                    )


# ---------------------------------------------------------------------------
# Chunk timeouts and the circuit breaker
# ---------------------------------------------------------------------------
import threading
from concurrent.futures import BrokenExecutor

from repro.errors import DegradedRunError
from repro.faults import FaultyExecutor, InjectedFaultError


class _DeadPool:
    """Executor whose submit always raises (a pool that died)."""

    def submit(self, fn, /, *args, **kwargs):
        raise BrokenExecutor("dead on arrival")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class _FirstSubmitOnlyPool:
    """Each fresh pool serves exactly one submit, then breaks."""

    def __init__(self):
        self.inner = ThreadPoolExecutor(max_workers=1)
        self.submits = 0

    def submit(self, fn, /, *args, **kwargs):
        self.submits += 1
        if self.submits > 1:
            raise BrokenExecutor("worker gone")
        return self.inner.submit(fn, *args, **kwargs)

    def shutdown(self, wait=True, cancel_futures=False):
        self.inner.shutdown(wait=wait, cancel_futures=cancel_futures)


class TestChunkTimeout:
    def test_hung_chunk_times_out_and_is_retried(self):
        release = threading.Event()
        hung = []

        def sticky(x):
            if x == 3 and not hung:
                hung.append(x)
                release.wait(5.0)  # far beyond the chunk timeout
            return x * x

        try:
            with OracleRuntime(
                sticky, chunk_size=2, max_retries=2,
                backoff_seconds=0.0, chunk_timeout=0.2,
                executor_factory=_thread_factory(2),
                sleep=lambda _s: None,
            ) as rt:
                out = rt.evaluate(range(6))
        finally:
            release.set()
        assert out == [i * i for i in range(6)]
        assert rt.stats.timeouts == 1
        assert rt.stats.pool_restarts >= 1

    def test_timeout_validation(self):
        with pytest.raises(ValueError):
            OracleRuntime(square, chunk_timeout=0.0)
        with pytest.raises(ValueError):
            OracleRuntime(square, max_consecutive_rebuilds=0)


class TestCircuitBreaker:
    def test_dead_environment_trips_breaker(self):
        rt = OracleRuntime(
            square, chunk_size=1, max_retries=99,
            backoff_seconds=0.0, max_consecutive_rebuilds=3,
            executor_factory=_DeadPool, sleep=lambda _s: None,
        )
        with rt:
            with pytest.raises(DegradedRunError) as err:
                rt.evaluate([1, 2, 3])
        exc = err.value
        assert exc.completed == 0
        assert exc.pending == 3
        assert exc.partial == [None, None, None]
        assert rt.stats.pool_restarts == 3
        assert isinstance(exc.__cause__, BrokenExecutor)

    def test_breaker_carries_partial_results(self):
        rt = OracleRuntime(
            square, chunk_size=2, max_retries=99,
            backoff_seconds=0.0, max_consecutive_rebuilds=2,
            executor_factory=_FirstSubmitOnlyPool,
            sleep=lambda _s: None,
        )
        with rt:
            with pytest.raises(DegradedRunError) as err:
                rt.evaluate(range(6))
        exc = err.value
        # One chunk lands per round; two rounds ran before the trip.
        assert exc.completed == 4
        assert exc.pending == 2
        assert exc.partial[:4] == [0, 1, 4, 9]
        assert exc.partial[4:] == [None, None]

    def test_clean_round_resets_the_streak(self):
        # Pools break twice back-to-back, then the environment heals:
        # with max_consecutive_rebuilds=3 the batch must complete.
        built = []

        def factory():
            built.append(1)
            if len(built) <= 2:
                return _DeadPool()
            return ThreadPoolExecutor(max_workers=2)

        rt = OracleRuntime(
            square, chunk_size=2, max_retries=99,
            backoff_seconds=0.0, max_consecutive_rebuilds=3,
            executor_factory=factory, sleep=lambda _s: None,
        )
        with rt:
            assert rt.evaluate(range(6)) == [i * i for i in range(6)]
        assert rt.stats.pool_restarts == 2

    def test_breaker_error_reaches_run_with_oracle(self):
        tree = iid_boolean(2, 3, 0.5, seed=1)
        rt = OracleRuntime(
            int, chunk_size=1, max_retries=99, backoff_seconds=0.0,
            max_consecutive_rebuilds=1, executor_factory=_DeadPool,
            sleep=lambda _s: None,
        )
        with rt:
            with pytest.raises(DegradedRunError) as err:
                run_with_oracle(tree, int, WidthPolicy(1), runtime=rt)
        assert err.value.steps_completed == 0


class TestFaultyExecutor:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultyExecutor(
                ThreadPoolExecutor(max_workers=1),
                seed=0, broken_rate=0.8, task_error_rate=0.5,
            )

    def test_injection_is_deterministic_per_seed(self):
        def outcomes(seed):
            inner = ThreadPoolExecutor(max_workers=1)
            fx = FaultyExecutor(
                inner, seed=seed, broken_rate=0.2, task_error_rate=0.3
            )
            out = []
            for i in range(30):
                try:
                    fut = fx.submit(square, i)
                except BrokenExecutor:
                    out.append("broken")
                    continue
                try:
                    out.append(fut.result())
                except InjectedFaultError:
                    out.append("task")
            fx.shutdown()
            return out

        assert outcomes(5) == outcomes(5)
        assert outcomes(5) != outcomes(6)

    def test_runtime_recovers_from_injected_faults(self):
        # A fixed seed per *build* would replay the same fault stream
        # after every rebuild and could wedge; derive each rebuilt
        # pool's seed from the build count (still deterministic).
        builds = []

        def factory():
            builds.append(1)
            return FaultyExecutor(
                ThreadPoolExecutor(max_workers=2),
                seed=100 + len(builds),
                broken_rate=0.15, task_error_rate=0.25,
                max_faults=10,
            )

        rt = OracleRuntime(
            square, chunk_size=2, max_retries=20,
            backoff_seconds=0.0, executor_factory=factory,
            sleep=lambda _s: None,
        )
        with rt:
            assert rt.evaluate(range(12)) == [
                i * i for i in range(12)
            ]
        assert rt.stats.retries + rt.stats.pool_restarts > 0


# ---------------------------------------------------------------------------
# PipePool: the default process transport
# ---------------------------------------------------------------------------
import multiprocessing
import signal
from concurrent.futures import TimeoutError as FuturesTimeoutError



class OracleBug(Exception):
    """A task-side exception type the pool must hand back unchanged."""


def _raise_bug(x):
    raise OracleBug(f"bad payload {x}")


def _die(x):
    os._exit(3)


def _hang(x):
    threading.Event().wait(60.0)
    return x


def _failing_init():
    raise ValueError("initializer broke")


def _total(values):
    return sum(values)


def _new_children(before):
    return [p for p in multiprocessing.active_children() if p not in before]


def _coordinator_dies_abruptly(conn):
    """Runs in a forked child: start a default OracleRuntime pool's
    two workers, report their pids, then exit without shutting the
    pool down."""
    with OracleRuntime(abs, max_workers=2, chunk_size=1) as runtime:
        assert runtime.evaluate([-1, -2, -3, -4]) == [1, 2, 3, 4]
        conn.send(sorted(p.pid for p in multiprocessing.active_children()))
        os._exit(0)


def _dead(pid):
    """Gone, or a zombie its new parent has not reaped yet."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestPipePool:
    def test_results_ordered_with_more_chunks_than_workers(self):
        with OracleRuntime(square, max_workers=2, chunk_size=1) as rt:
            assert rt.evaluate(range(9)) == [i * i for i in range(9)]
            assert rt.stats.chunks == 9
        with PipePool(max_workers=2) as pool:
            futures = [pool.submit(square, i) for i in range(7)]
            assert [f.result() for f in reversed(futures)] == [
                i * i for i in reversed(range(7))
            ]

    def test_worker_exception_keeps_its_type(self):
        with PipePool(max_workers=1) as pool:
            with pytest.raises(OracleBug, match="bad payload 4") as err:
                pool.submit(_raise_bug, 4).result()
            # The worker traceback rides along; the pool stays usable.
            assert "_raise_bug" in str(err.value.__cause__)
            assert pool.submit(square, 5).result() == 25

    def test_killed_worker_breaks_the_pool(self):
        pool = PipePool(max_workers=2)
        try:
            running = pool.submit(_die, 0)
            with pytest.raises(BrokenExecutor, match="exit code 3"):
                running.result(timeout=30.0)
            with pytest.raises(BrokenExecutor):
                pool.submit(square, 1)
        finally:
            pool.shutdown()

    def test_runtime_rebuilds_after_killed_worker(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        payloads = [(sentinel, v) for v in range(6)]
        with OracleRuntime(
            _crash_until_sentinel, max_workers=2, chunk_size=1,
            max_retries=3, backoff_seconds=0.0, sleep=lambda _s: None,
        ) as rt:
            assert rt.evaluate(payloads) == [2 * v for v in range(6)]
        assert rt.stats.pool_restarts >= 1

    def test_failing_initializer_breaks_the_pool(self):
        pool = PipePool(max_workers=1, initializer=_failing_init)
        try:
            with pytest.raises(BrokenExecutor):
                pool.submit(square, 2).result(timeout=30.0)
            with pytest.raises(BrokenExecutor):
                pool.submit(square, 3)
        finally:
            pool.shutdown()

    def test_submit_after_shutdown_raises(self):
        pool = PipePool(max_workers=1)
        assert pool.submit(square, 3).result() == 9
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(square, 4)

    def test_arguments_are_pickled_at_submit(self):
        with PipePool(max_workers=1) as pool:
            # The only worker is busy, so this task waits in the queue
            # while its argument is mutated.
            busy = pool.submit(square, 6)
            values = [1, 2]
            queued = pool.submit(_total, values)
            values.append(100)  # lint: disable=R9
            assert busy.result() == 36
            assert queued.result() == 3

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat"
    )
    def test_workers_exit_with_a_coordinator_that_dies(self):
        ours, theirs = multiprocessing.Pipe()
        child = multiprocessing.get_context("fork").Process(
            target=_coordinator_dies_abruptly, args=(theirs,)
        )
        child.start()
        theirs.close()
        assert ours.poll(60)
        pids = ours.recv()
        child.join(60)
        assert child.exitcode == 0
        assert len(pids) == 2
        try:
            pause = threading.Event()
            for _ in range(200):  # 10 s
                if all(_dead(pid) for pid in pids):
                    break
                pause.wait(0.05)
            assert all(_dead(pid) for pid in pids), "workers outlived it"
        finally:
            for pid in pids:
                if not _dead(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_missed_deadline_then_shutdown_kills_the_worker(self):
        before = multiprocessing.active_children()
        pool = PipePool(max_workers=1)
        future = pool.submit(_hang, 1)
        with pytest.raises(FuturesTimeoutError):
            future.result(timeout=0.05)
        pool.shutdown(wait=False)
        with pytest.raises(BrokenExecutor):
            future.result(timeout=0)
        assert _new_children(before) == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PipePool(max_workers=0)


class TestTimedOutWorkersTerminated:
    def test_no_child_survives_close_after_a_timeout(self):
        before = multiprocessing.active_children()
        rt = OracleRuntime(
            _hang, max_workers=1, max_retries=0, chunk_timeout=0.2
        )
        with pytest.raises(WorkerCrashError):
            rt.evaluate([1])
        rt.close()
        assert rt.stats.timeouts == 1
        assert _new_children(before) == []


# ---------------------------------------------------------------------------
# start(): a dispatched round that the next evaluate of the same
# payloads collects
# ---------------------------------------------------------------------------
class _Counting:
    """Thread-pool oracle that records every payload it evaluates."""

    def __init__(self):
        self.calls = []
        self._lock = threading.Lock()

    def __call__(self, x):
        with self._lock:
            self.calls.append(x)
        return x * x


class TestStartedRound:
    def test_evaluate_collects_the_started_round(self):
        oracle = _Counting()
        payloads = [1, 2, 3, 4, 5]
        with OracleRuntime(
            oracle, max_workers=2, executor_factory=_thread_factory()
        ) as rt:
            rt.start(payloads)
            # A copied list of the same objects is the same batch.
            assert rt.evaluate(list(payloads)) == [1, 4, 9, 16, 25]
        assert sorted(oracle.calls) == payloads
        assert rt.stats.chunks == 2
        assert rt.stats.units == 5
        assert rt.stats.batches == 1

    def test_other_payloads_leave_the_round_in_place(self):
        oracle = _Counting()
        mine, theirs = [1, 2], [3, 4]
        with OracleRuntime(
            oracle, max_workers=1, executor_factory=_thread_factory()
        ) as rt:
            rt.start(mine)
            assert rt.evaluate(theirs) == [9, 16]
            assert rt.evaluate(mine) == [1, 4]
            # Equal values in new objects are not the started batch.
            assert rt.evaluate([1, 2]) == [1, 4]
        assert sorted(oracle.calls) == [1, 1, 2, 2, 3, 4]
        assert rt.stats.chunks == 3

    def test_start_replaces_an_uncollected_round(self):
        oracle = _Counting()
        first, second = [1], [2]
        with OracleRuntime(
            oracle, executor_factory=_thread_factory()
        ) as rt:
            rt.start(first)
            rt.start(second)
            assert rt.evaluate(first) == [1]
            assert rt.evaluate(second) == [4]
        assert sorted(oracle.calls) == [1, 1, 2]

    @pytest.mark.parametrize("drop", ["close", "restart_pool"])
    def test_close_and_restart_drop_the_round(self, drop):
        oracle = _Counting()
        payloads = [6, 7]
        rt = OracleRuntime(
            oracle, max_workers=1, executor_factory=_thread_factory()
        )
        try:
            rt.start(payloads)
            getattr(rt, drop)()
            assert rt.evaluate(payloads) == [36, 49]
        finally:
            rt.close()
        # The dropped round ran on its own; evaluate dispatched anew.
        assert rt.stats.chunks == 2
        assert rt.stats.units == 2

    def test_close_does_not_wait_for_an_uncollected_process_round(self):
        before = multiprocessing.active_children()
        rt = OracleRuntime(_hang, max_workers=1)
        rt.start([1])
        rt.close()  # terminates the hung worker instead of waiting
        assert _new_children(before) == []

    def test_started_round_failures_run_the_retry_loop(self):
        # The started round is round one: its failed chunk is retried.
        failed_once = []

        def flaky(x):
            if x == 2 and not failed_once:
                failed_once.append(x)
                raise RuntimeError("transient")
            return x * x

        with OracleRuntime(
            flaky, chunk_size=1, max_retries=1, backoff_seconds=0.0,
            executor_factory=_thread_factory(), sleep=lambda _s: None,
        ) as rt:
            payloads = [1, 2, 3]
            rt.start(payloads)
            assert rt.evaluate(payloads) == [1, 4, 9]
        assert rt.stats.retries == 1
        assert rt.stats.chunks == 4

    def test_started_round_on_a_dead_pool_trips_the_breaker(self):
        rt = OracleRuntime(
            square, chunk_size=1, max_retries=99,
            backoff_seconds=0.0, max_consecutive_rebuilds=2,
            executor_factory=_DeadPool, sleep=lambda _s: None,
        )
        with rt:
            payloads = [1, 2]
            rt.start(payloads)
            with pytest.raises(DegradedRunError) as err:
                rt.evaluate(payloads)
        assert err.value.pending == 2
        assert rt.stats.pool_restarts == 2

    def test_started_chunk_deadline_counts_from_collection(self):
        """``chunk_timeout`` counts from when ``evaluate`` starts
        waiting on a chunk, not from ``start``.

        The chunk runs 0.6 s under a 0.5 s timeout, but collection
        begins 0.4 s after dispatch, so it finishes in time.  A hung
        started chunk is still cut off (tests/serve/test_service.py).
        """
        def slow(x):
            threading.Event().wait(0.6)
            return x + 1

        with OracleRuntime(
            slow, max_retries=0, chunk_timeout=0.5,
            executor_factory=_thread_factory(1),
        ) as rt:
            payloads = [0]
            rt.start(payloads)
            threading.Event().wait(0.4)
            assert rt.evaluate(payloads) == [1]
        assert rt.stats.timeouts == 0
