"""E24 — telemetry overhead gates on the E21 workload.

The recorder parameter threads through every engine hot loop, so its
cost must be provably negligible when telemetry is off and bounded
when it is on.  On the E21 benchmark tree (uniform d=4, n=8) the
registry spec (:mod:`repro.bench.specs.infra`) checks that every
recorder leaves the run unchanged, then gates median run time:

* ``NullRecorder`` — ≤ 1.05x the ``recorder=None`` run (the guard is
  one ``is not None`` test per basic step);
* ``InMemoryRecorder`` — ≤ 1.5x (one span append, two registry
  updates and one counter sample per step).
"""

import pytest

from repro.bench.registry import get_spec
from repro.bench.specs.infra import uniform_boolean
from repro.core import parallel_solve
from repro.telemetry import InMemoryRecorder


@pytest.mark.experiment("e24")
def test_registry_gates(spec_gates):
    spec_gates("e24")


@pytest.mark.experiment("e24")
def test_inmemory_recorder_kernel(benchmark):
    params = get_spec("e24").params
    tree = uniform_boolean(params)
    benchmark(lambda: parallel_solve(
        tree, params["width"], recorder=InMemoryRecorder()
    ).num_steps)
