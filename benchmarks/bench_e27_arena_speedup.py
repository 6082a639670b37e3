"""E27 — arena backend: vectorised columnar sweeps vs rescan.

The registry spec (:mod:`repro.bench.specs.infra`) checks that the
arena backend replays exactly the runs the rescan engine produces —
batches, evaluation order, steps, degrees and values — on the SOLVE
loop (bounded machine included) and the alpha-beta loop.  Then
wall-clock: on uniform d=5 trees with batch-sized widths the arena's
level-batched settle/cascade sweeps must beat the rescan object-graph
engine by at least 10x on both loops.  The one-time lowering
(``canonical_arrays``) is memoized per tree and paid outside the
clock, mirroring how a caller amortises it over repeated solves.
"""

import pytest


@pytest.mark.experiment("e27")
def test_registry_gates(spec_gates):
    spec_gates("e27")
