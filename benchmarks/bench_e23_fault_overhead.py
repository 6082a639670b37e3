"""E23 — fault-injection overhead on the Section 7 machine.

The registry spec (:mod:`repro.bench.specs.infra`) checks convergence
first: every faulty run, at the gated 1% rate, at 5% and 20%, and
under a plan mixing every fault kind, must return the exact
fault-free ``val(root)``.  Then overhead: at 1% the recovery protocol
(acks, retransmission, heartbeat supervision) must be cheap — the
median tick count across seeds stays within 2x of the fault-free run
for every fault kind.
"""

import pytest

from repro.bench.specs.infra import E23_MIXED_PLAN
from repro.faults import FaultPlan
from repro.simulator import simulate
from repro.trees.generators import iid_boolean


@pytest.mark.experiment("e23")
def test_registry_gates(spec_gates):
    spec_gates("e23")


@pytest.mark.experiment("e23")
def test_faulty_run_kernel(benchmark):
    tree = iid_boolean(2, 6, 0.45, seed=0)
    plan = FaultPlan(1, **E23_MIXED_PLAN)
    benchmark(lambda: simulate(tree, fault_plan=plan).value)
