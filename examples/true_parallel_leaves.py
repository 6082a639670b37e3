#!/usr/bin/env python
"""Real wall-clock speed-up when the leaf oracle is expensive.

Everything else in this repository measures *model* steps (the paper's
own methodology, GIL-proof by construction).  This example shows the
bridge to actual parallel hardware: when evaluating a leaf costs real
CPU time — here an iterated-hash proof-of-work stands in for a
position evaluator — the width-1 batches are embarrassingly parallel,
and running them on a process pool yields genuine wall-clock speed-up
in ordinary CPython.  ``run_with_oracle`` is ``run_boolean`` with the
pool as its leaf evaluator, so both runs take the same schedule.
"""

import hashlib
import os

from repro.core import WidthPolicy
from repro.models.executors import PipePool
from repro.models.oracle_runner import run_with_oracle
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias

#: iterations of the stand-in "expensive evaluator".
WORK_FACTOR = 12_000


def expensive_oracle(seed_value: int) -> int:
    """Burn CPU deterministically, then emit a bit.

    The bit equals the stored leaf value, so both runs compute the
    same tree; the hashing is the stand-in for real evaluation cost.
    """
    digest = str(seed_value).encode()
    for _ in range(WORK_FACTOR):
        digest = hashlib.sha256(digest).digest()
    return seed_value % 2


def main() -> None:
    n = 10
    tree = iid_boolean(2, n, level_invariant_bias(2), seed=7)

    cores = os.cpu_count() or 1
    print(f"binary NOR tree, height {n}; oracle ~{WORK_FACTOR} hashes "
          f"per leaf; {cores} CPU core(s) available")
    print("expected wall-clock speed-up ~ min(cores, mean batch "
          "size); on a single-core machine the two runs tie.\n")

    serial = run_with_oracle(tree, expensive_oracle, WidthPolicy(1))
    print(
        f"serial batches:   {serial.total_seconds:6.2f}s "
        f"({serial.total_work} leaf evaluations, "
        f"{serial.num_steps} steps)"
    )

    with PipePool() as pool:
        # Warm the pool so fork cost is not billed to the run.
        list(pool.map(expensive_oracle, [0, 1]))
        parallel = run_with_oracle(
            tree, expensive_oracle, WidthPolicy(1), pool
        )
    print(
        f"process-pool batches: {parallel.total_seconds:6.2f}s "
        f"({parallel.total_work} leaf evaluations, "
        f"{parallel.num_steps} steps)"
    )
    assert serial.value == parallel.value
    assert serial.evaluated == parallel.evaluated
    print(
        f"\nwall-clock speed-up: "
        f"{serial.total_seconds / parallel.total_seconds:.2f}x "
        f"(model schedule identical: same steps, same batches)"
    )


if __name__ == "__main__":
    main()
