"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import math
import os
import signal
import sys

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

# CI runs with HYPOTHESIS_PROFILE=ci: fully deterministic example
# generation (fixed derivation from the test body, no timing-dependent
# deadline failures), so a red property job is always reproducible
# locally by exporting the same variable.
hypothesis_settings.register_profile(
    "ci", derandomize=True, deadline=None, print_blob=True
)
_profile = os.environ.get("HYPOTHESIS_PROFILE")
if _profile:
    hypothesis_settings.load_profile(_profile)

from repro.core.arena import selection as arena_selection
from repro.trees import ExplicitTree, UniformTree
from repro.types import Gate, TreeKind


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------
def nested_boolean(max_depth: int = 4, max_branch: int = 3):
    """Nested-list specs of Boolean trees (leaves are 0/1)."""
    return st.recursive(
        st.integers(min_value=0, max_value=1),
        lambda children: st.lists(children, min_size=1,
                                  max_size=max_branch),
        max_leaves=24,
    )


def nested_minmax(max_branch: int = 3):
    """Nested-list specs of MIN/MAX trees (float leaves)."""
    finite = st.floats(
        min_value=-100, max_value=100, allow_nan=False,
        allow_infinity=False,
    )
    return st.recursive(
        finite,
        lambda children: st.lists(children, min_size=1,
                                  max_size=max_branch),
        max_leaves=20,
    )


#: MIN/MAX leaf values whose ``repr`` tokens differ where ``==`` does
#: not (NaN, the two zeros) or that are easy to mis-encode.
SPECIAL_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 1.5, 2.0,
)


@st.composite
def uniform_trees(draw, max_leaves=4096):
    """Uniform trees of every shape up to ``max_leaves`` leaves: both
    kinds, gate cycles of length 1-3, and special-float leaves."""
    branching = draw(st.integers(min_value=1, max_value=4))
    max_height = 7
    while branching ** max_height > max_leaves:
        max_height -= 1
    height = draw(st.integers(min_value=0, max_value=max_height))
    n = branching ** height
    kind = draw(st.sampled_from(list(TreeKind)))
    if kind is TreeKind.BOOLEAN:
        gates = draw(st.lists(st.sampled_from(list(Gate)),
                              min_size=1, max_size=3))
        leaf = st.integers(min_value=0, max_value=1)
    else:
        gates = None
        leaf = st.one_of(
            st.sampled_from(SPECIAL_FLOATS),
            st.floats(allow_nan=True, allow_infinity=True),
        )
    # A few drawn values spread over the leaves by a seeded generator:
    # large trees without a 4096-element Hypothesis draw.
    pool = draw(st.lists(leaf, min_size=1, max_size=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    picks = np.random.default_rng(seed).integers(len(pool), size=n)
    values = [pool[i] for i in picks.tolist()]
    return UniformTree(branching, height, values, kind=kind, gates=gates)


def boolean_tree_from_spec(spec, gates=Gate.NOR) -> ExplicitTree:
    if not isinstance(spec, (list, tuple)):
        spec = [spec]  # promote a bare leaf to a one-child root
    return ExplicitTree.from_nested(spec, kind=TreeKind.BOOLEAN,
                                    gates=gates)


def minmax_tree_from_spec(spec) -> ExplicitTree:
    if not isinstance(spec, (list, tuple)):
        spec = [spec]
    return ExplicitTree.from_nested(spec, kind=TreeKind.MINMAX)


# ---------------------------------------------------------------------------
# per-test timeout
# ---------------------------------------------------------------------------
# CI passes --timeout/--timeout-method to pytest-timeout (a dev
# extra).  Environments without the plugin fall back to a SIGALRM
# watchdog so a hung test (the exact failure mode fault injection
# exists to provoke) can never wedge the suite.  Override the budget
# with REPRO_TEST_TIMEOUT=<seconds>; 0 disables the fallback.
_FALLBACK_TIMEOUT = int(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    if (
        _FALLBACK_TIMEOUT <= 0
        or request.config.pluginmanager.hasplugin("timeout")
        or not hasattr(signal, "SIGALRM")
    ):
        yield
        return

    def _expired(signum, frame):
        raise TimeoutError(
            f"test exceeded the {_FALLBACK_TIMEOUT}s fallback timeout "
            f"(REPRO_TEST_TIMEOUT)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(_FALLBACK_TIMEOUT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------
@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=["numpy", "scalar"])
def arena_path(request, monkeypatch):
    """Force every arena kernel onto one path for the test.

    ``selection.SCALAR_MAX`` sends segments of at most that many
    entries down the scalar path: 0 sends all of them to numpy, a
    value above any test tree's size sends all of them to the scalar
    path.  The setting holds for every example of a ``@given`` test.
    """
    monkeypatch.setattr(
        arena_selection, "SCALAR_MAX",
        0 if request.param == "numpy" else sys.maxsize,
    )
    return request.param
