"""The arena suites again, with every kernel forced onto one path.

The arena runs a segment of at most ``selection.SCALAR_MAX`` entries
on Python scalars and a larger one with numpy calls, so on the small
trees of the suites below the default threshold would exercise mostly
the scalar path.  Here each of their tests runs twice through the
``arena_path`` fixture: once with every segment on numpy and once with
every segment on the scalar path.  Each test compares the arena with
the incremental backend, the golden corpus or a first-principles
oracle, so both paths are held to the same values, batches,
evaluation order and recorder streams.
"""

import pytest

from ..golden.test_golden_arena import *  # noqa: F401,F403
from ..properties.test_prop_frontier_differential import (  # noqa: F401
    test_alphabeta_backends_agree_on_signed_zeros,
    test_alphabeta_backends_identical,
    test_bounded_team_saturation_backends_identical,
    test_width0_equals_sequential,
    test_width_backends_identical_iid,
    test_width_backends_identical_nested,
)
from .test_arena import *  # noqa: F401,F403

pytestmark = pytest.mark.usefixtures("arena_path")
