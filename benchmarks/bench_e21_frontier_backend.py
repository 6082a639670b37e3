"""E21b — the bounded machine: the default backend vs per-step rescan.

The registry spec (:mod:`repro.bench.specs.infra`) checks that a
bounded machine (``max_processors``) run on the default backend, which
resolves to the arena, replays the rescan reference's runs exactly,
and then gates wall-clock: on a uniform d=4, n=8 tree the default must
be at least 5x faster than rescan on the bounded width-w schedule,
where the rescan re-walks the whole in-range region every basic step
while only ``p`` leaves run.
"""

import pytest

from repro.bench.registry import get_spec
from repro.bench.specs.infra import uniform_boolean
from repro.core import parallel_solve


@pytest.mark.experiment("e21b")
def test_registry_gates(spec_gates):
    spec_gates("e21b")


@pytest.mark.experiment("e21b")
def test_bounded_default_kernel(benchmark):
    params = get_spec("e21b").params
    tree = uniform_boolean(params)
    width, procs = params["gate_case"]
    benchmark(lambda: parallel_solve(
        tree, width, max_processors=procs
    ).num_steps)
