"""E28 — shared-memory leaf evaluation: hardware speedup vs c.(n+1).

The registry spec (:mod:`repro.bench.specs.infra`) checks that with
``executor="shm"`` the run replays exactly the serial arena's, at
every worker count and chunking policy, because only the leaf
*evaluation site* moves across processes.  Then wall-clock: with a
calibrated constant-cost leaf oracle (sleep mode, so the measurement
is independent of the host's core count) the step barrier must show a
monotone speedup curve over p = 1, 2, 4 reaching at least 1.8x at
p=4 — the hardware shadow of the paper's ``c.(n+1)`` step-count
speedup (Theorem 1).
"""

import pytest


@pytest.mark.experiment("e28")
def test_registry_gates(spec_gates):
    spec_gates("e28")
