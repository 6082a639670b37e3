"""Worker-set reuse across shared-memory sessions.

The lifecycle contract once workers outlive a session: no ``/dev/shm``
entry survives a session, no worker maps a closed session's segments,
a set that failed is never reused, and a process keeps at most one
idle set.  Worker sets are told apart by the pids of the processes
they add to ``multiprocessing.active_children()``.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

from repro.core import WidthPolicy, parallel_solve
from repro.core.shm import ShmOptions, ShmSession
from repro.core.shm import pool as shm_pool
from repro.errors import DegradedRunError, WorkerCrashError
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias

SRC = Path(__file__).resolve().parents[2] / "src"


def _drop_idle_set() -> None:
    with shm_pool._IDLE_LOCK:
        idle, shm_pool._IDLE = shm_pool._IDLE, None
    if idle is not None:
        idle.shutdown()


@pytest.fixture(autouse=True)
def no_idle_set():
    """Each test starts, and leaves, without an idle worker set."""
    _drop_idle_set()
    yield
    _drop_idle_set()


@pytest.fixture()
def tree():
    return iid_boolean(3, 4, level_invariant_bias(3), seed=13)


@pytest.fixture()
def expected(tree):
    return parallel_solve(tree, 1, backend="arena")


def _children() -> set:
    return {p.pid for p in multiprocessing.active_children()}


def _dev_shm_entries() -> set:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-tmpfs
        return set()
    return {f for f in os.listdir("/dev/shm") if f.startswith("repro_")}


def _mapped_segments(pid: int) -> set:
    """The ``repro_`` shared-memory names process ``pid`` maps."""
    with open(f"/proc/{pid}/maps", encoding="utf-8") as fh:
        return {
            os.path.basename(line.split()[5])
            for line in fh
            if len(line.split()) > 5 and "/repro_" in line
        }


def _solve(tree, **options):
    return parallel_solve(
        tree, 1, backend="arena", executor="shm",
        shm_options=ShmOptions(**options),
    )


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
    def __call__(self, value: float, index: int) -> float:
        threading.Event().wait(60.0)
        return value


class TestReuse:
    def test_same_worker_count_runs_on_the_same_pids(self, tree, expected):
        before = _children()
        first = _solve(tree, workers=2)
        pids = _children() - before
        second = _solve(tree, workers=2)
        assert len(pids) == 2
        assert _children() - before == pids
        assert first.value == second.value == expected.value
        assert second.num_steps == expected.num_steps

    def test_other_worker_count_gets_a_new_set(self, tree, expected):
        before = _children()
        _solve(tree, workers=2)
        two = _children() - before
        result = _solve(tree, workers=1)
        one = _children() - before
        assert result.value == expected.value
        assert len(one) == 1
        # The new set replaced the old as the one idle set.
        assert not one & two

    def test_two_sessions_open_at_once(self, tree, expected):
        before = _children()
        other = iid_boolean(2, 5, level_invariant_bias(2), seed=4)
        other_expected = parallel_solve(other, 2, backend="arena")
        with ShmSession(tree, ShmOptions(workers=2)) as a:
            with ShmSession(other, ShmOptions(workers=2)) as b:
                ra1 = a.solve(WidthPolicy(1))
                rb = b.solve(WidthPolicy(2))
                ra2 = a.solve(WidthPolicy(1))
            assert len(_children() - before) == 4
        assert ra1.value == ra2.value == expected.value
        assert rb.value == other_expected.value
        assert rb.num_steps == other_expected.num_steps
        assert len(_children() - before) == 2

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity")
        or len(os.sched_getaffinity(0)) < 2,
        reason="pinning needs the affinity call and two CPUs",
    )
    def test_new_set_pins_each_worker_to_its_own_cpu(self, tree):
        before = _children()
        _solve(tree, workers=2)
        pinned = [os.sched_getaffinity(pid) for pid in _children() - before]
        assert sorted(len(cpus) for cpus in pinned) == [1, 1]
        assert pinned[0] != pinned[1]

    def test_clean_close_leaves_no_segment_mapped(self, tree):
        with ShmSession(tree, ShmOptions(workers=2)) as session:
            spec = session.segments.spec
            names = {spec.values_name, spec.batch_name, spec.out_name}
            before = _children()
            session.solve(WidthPolicy(1))
            # Checked while attached, so the probe is known to see
            # these mappings at all.
            pids = _children() - before
            assert pids
            for pid in pids:
                assert _mapped_segments(pid) == names
        assert _children() >= pids
        for pid in pids:
            assert _mapped_segments(pid) == set()


class TestFailedSetsAreNotReused:
    def _warm(self, workers: int) -> set:
        before = _children()
        _solve(_tree(), workers=workers)
        return _children() - before

    def test_after_a_crash(self, tmp_path, expected, tree):
        before = _children()
        warm = self._warm(2)
        oracle = _CrashOnce(str(tmp_path / "marker"))
        result = _solve(
            tree, workers=2, oracle=oracle, backoff_seconds=0.01
        )
        assert result.value == expected.value
        assert not warm & _children()
        assert _children() - before == set()

    def test_after_a_timeout(self, tree):
        before = _children()
        warm = self._warm(2)
        with pytest.raises(WorkerCrashError):
            _solve(
                tree, workers=2, oracle=_Hang(), max_retries=0,
                chunk_timeout=0.2,
            )
        assert not warm & _children()
        assert _children() - before == set()

    def test_after_a_degraded_run(self, tree):
        before = _children()
        warm = self._warm(1)
        entries = _dev_shm_entries()
        with pytest.raises(DegradedRunError):
            _solve(
                tree, workers=1, oracle=_CrashAlways(), max_retries=8,
                backoff_seconds=0.01, max_consecutive_rebuilds=2,
            )
        assert not warm & _children()
        assert _children() - before == set()
        assert _dev_shm_entries() == entries

    def test_after_an_exception_in_the_session(self, tree):
        before = _children()
        warm = self._warm(2)
        with pytest.raises(RuntimeError, match="boom"):
            with ShmSession(tree, ShmOptions(workers=2)) as session:
                session.solve(WidthPolicy(1))
                assert _children() - before == warm
                raise RuntimeError("boom")
        assert _children() - before == set()


def _tree():
    return iid_boolean(3, 3, level_invariant_bias(3), seed=2)


def _child_session(parent_set: list) -> None:
    """Runs in a forked child: a correct shm session on a set of its
    own, never its parent's."""
    tree = _tree()
    expected = parallel_solve(tree, 1, backend="arena")
    result = _solve(tree, workers=2)
    mine = _children()
    ok = (
        result.value == expected.value
        and len(mine) == 2
        and not mine & set(parent_set)
    )
    sys.exit(0 if ok else 3)


def _child_dies_abruptly(conn) -> None:
    """Runs in a forked child: leave an idle set, then exit without
    shutting it down."""
    _solve(_tree(), workers=2)
    conn.send(sorted(_children()))
    os._exit(0)


def _dead(pid: int) -> bool:
    """Gone, or a zombie its new parent has not reaped yet."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestForkAndPickle:
    def test_fork_child_leaves_the_parent_set_alone(self, tree, expected):
        before = _children()
        _solve(tree, workers=2)
        pids = _children() - before
        child = multiprocessing.get_context("fork").Process(
            target=_child_session, args=(sorted(pids),)
        )
        child.start()
        child.join(60)
        assert child.exitcode == 0
        result = _solve(tree, workers=2)
        assert result.value == expected.value
        assert _children() - before == pids

    def test_workers_exit_with_a_coordinator_that_dies(self):
        ours, theirs = multiprocessing.Pipe()
        child = multiprocessing.get_context("fork").Process(
            target=_child_dies_abruptly, args=(theirs,)
        )
        child.start()
        assert ours.poll(60)
        pids = ours.recv()
        child.join(60)
        assert child.exitcode == 0
        assert len(pids) == 2
        pause = threading.Event()
        for _ in range(600):  # 30 s
            if all(_dead(pid) for pid in pids):
                break
            pause.wait(0.05)
        assert all(_dead(pid) for pid in pids), "idle workers outlived it"

    def test_unpicklable_oracle_is_a_clear_error(self, tree):
        entries = _dev_shm_entries()
        with pytest.raises(TypeError, match="does not pickle"):
            ShmSession(tree, ShmOptions(workers=1, oracle=lambda v, i: v))
        assert _dev_shm_entries() == entries


def test_process_exits_after_stopping_the_resource_tracker():
    """Idle workers must not hold the tracker's pipe: stopping the
    tracker waits for it to read end-of-file on that pipe."""
    script = textwrap.dedent(
        """
        from multiprocessing import resource_tracker
        from repro.core import parallel_solve
        from repro.core.shm import ShmOptions
        from repro.trees.generators import iid_boolean
        from repro.trees.generators.iid import level_invariant_bias

        tree = iid_boolean(3, 3, level_invariant_bias(3), seed=1)
        for _ in range(2):
            parallel_solve(
                tree, 1, backend="arena", executor="shm",
                shm_options=ShmOptions(workers=2),
            )
        resource_tracker._resource_tracker._stop()
        print("stopped")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "stopped"
