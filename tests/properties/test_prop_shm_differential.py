"""Differential properties: shm executor == serial arena engines.

The shared-memory executor promises bit-identical observable behaviour
to ``backend="arena"`` — same root value, same per-step degree
sequence, same per-step batches — regardless of worker count or chunk
size, because selection and cascades run the same serial code and only
the leaf *evaluation site* moves across processes.  The suite drives
random instances through real worker pools at p ∈ {1, 2, 4} and
through injected in-process executors across chunk sizes (the chunking
sweep would be prohibitively slow with per-example process spawns, and
chunk-splitting behaviour is identical either way — it lives in
``OracleRuntime._split``, above the executor).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LeftmostPolicy,
    WidthPolicy,
    parallel_solve,
    saturation_solve,
    team_solve,
)
from repro.core.alphabeta import parallel_alpha_beta
from repro.core.shm import ShmOptions, ShmSession
from repro.core.shm.pool import _worker_init
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import iid_minmax, level_invariant_bias

from ..conftest import (
    boolean_tree_from_spec,
    minmax_tree_from_spec,
    nested_boolean,
    nested_minmax,
)


def _signature(result):
    return (result.value, result.trace.degrees, result.trace.batches)


def _thread_factory(spec, oracle):
    """In-process stand-in for the worker pool: same initializer,
    same shared-memory reads/writes, no fork cost."""
    return ThreadPoolExecutor(
        max_workers=2, initializer=_worker_init, initargs=(spec, oracle)
    )


def _inprocess_options(chunk_size=None):
    return ShmOptions(
        workers=2, chunk_size=chunk_size,
        executor_factory=_thread_factory,
    )


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_real_worker_pools_identical_across_p(branching, height, seed):
    """Real process pools at p ∈ {1, 2, 4}: value and batches match
    the serial arena exactly, for SOLVE and alpha-beta."""
    tree = iid_boolean(
        branching, height, level_invariant_bias(branching), seed=seed
    )
    reference = parallel_solve(
        tree, 1, keep_batches=True, backend="arena"
    )
    for p in (1, 2, 4):
        shm = parallel_solve(
            tree, 1, keep_batches=True, backend="arena",
            executor="shm", shm_options=ShmOptions(workers=p),
        )
        assert _signature(shm) == _signature(reference), f"p={p}"

    mm = iid_minmax(branching, height, seed=seed)
    ab_reference = parallel_alpha_beta(
        mm, 1, keep_batches=True, backend="arena"
    )
    for p in (1, 2, 4):
        shm = parallel_alpha_beta(
            mm, 1, keep_batches=True, backend="arena",
            executor="shm", shm_options=ShmOptions(workers=p),
        )
        assert _signature(shm) == _signature(ab_reference), f"p={p}"


@settings(max_examples=40, deadline=None)
@given(
    nested_boolean(),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([None, 1, 2, 7]),
)
def test_solve_chunk_sizes_identical(spec, width, chunk_size):
    tree = boolean_tree_from_spec(spec)
    reference = parallel_solve(
        tree, width, keep_batches=True, backend="arena"
    )
    shm = parallel_solve(
        tree, width, keep_batches=True, backend="arena",
        executor="shm", shm_options=_inprocess_options(chunk_size),
    )
    assert _signature(shm) == _signature(reference)


@settings(max_examples=30, deadline=None)
@given(nested_boolean(), st.sampled_from([None, 1, 3]))
def test_team_and_saturation_identical(spec, chunk_size):
    tree = boolean_tree_from_spec(spec)
    for processors in (1, 2, 5):
        reference = team_solve(
            tree, processors, keep_batches=True, backend="arena"
        )
        shm = team_solve(
            tree, processors, keep_batches=True, backend="arena",
            executor="shm", shm_options=_inprocess_options(chunk_size),
        )
        assert _signature(shm) == _signature(reference)
    reference = saturation_solve(
        tree, keep_batches=True, backend="arena"
    )
    shm = saturation_solve(
        tree, keep_batches=True, backend="arena",
        executor="shm", shm_options=_inprocess_options(chunk_size),
    )
    assert _signature(shm) == _signature(reference)


@settings(max_examples=30, deadline=None)
@given(
    nested_minmax(),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([None, 1, 2]),
)
def test_alphabeta_identical(spec, width, chunk_size):
    tree = minmax_tree_from_spec(spec)
    reference = parallel_alpha_beta(
        tree, width, keep_batches=True, backend="arena"
    )
    shm = parallel_alpha_beta(
        tree, width, keep_batches=True, backend="arena",
        executor="shm", shm_options=_inprocess_options(chunk_size),
    )
    assert _signature(shm) == _signature(reference)


@settings(max_examples=15, deadline=None)
@given(nested_boolean(), st.integers(min_value=0, max_value=2))
def test_session_reuse_is_stable(spec, width):
    """One session, many runs: results do not drift as the pool warms
    up or as different engines share the same segments."""
    tree = boolean_tree_from_spec(spec)
    reference = parallel_solve(
        tree, width, keep_batches=True, backend="arena"
    )
    with ShmSession(tree, _inprocess_options()) as session:
        first = session.solve(WidthPolicy(width), keep_batches=True)
        second = session.solve(WidthPolicy(width), keep_batches=True)
        saturated = session.solve(LeftmostPolicy(), keep_batches=True)
    assert _signature(first) == _signature(reference)
    assert _signature(second) == _signature(reference)
    sat_reference = saturation_solve(
        tree, keep_batches=True, backend="arena"
    )
    assert _signature(saturated) == _signature(sat_reference)
