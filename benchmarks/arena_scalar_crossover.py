"""Per-kernel cost of the arena's scalar and numpy paths against size.

The arena runs a segment of at most ``selection.SCALAR_MAX`` entries
on Python scalars and a larger one with numpy calls.  This script
times each kernel both ways at a range of segment sizes, on one
d=4, n=6 tree (the solve-arena shape), by forcing the threshold:

* ``select``: one width-walk level under ``k`` kept parents (the
  walk resumes at the last level; ``budget`` 1 keeps two of each
  parent's four children, ``budget`` 3 all four);
* ``ab-finish``: ``_AlphaBetaArena.finish_leaves`` of ``k`` leaves on
  a fresh arena (root-path touch and finish cascade);
* ``bool-settle``: ``_BooleanArena.evaluate_batch`` of ``k`` leaves
  on a fresh arena (determination cascade).

Batches are ``k`` consecutive leaves from a random start, so the
cascades finish parents as a narrow step's batch does.  Each cell is
the median of SAMPLES runs, in microseconds; the two paths alternate
run by run.  Run from the repo root:

    PYTHONPATH=src python benchmarks/arena_scalar_crossover.py
"""

from __future__ import annotations

import statistics
import sys
from functools import partial

import numpy as np

from repro.bench.wallclock import best_of
from repro.core.arena import alphabeta, boolean, selection
from repro.trees import canonical_arrays
from repro.trees.generators import iid_boolean, iid_minmax

SIZES = (1, 2, 4, 8, 12, 16, 20, 24, 32, 48, 64)
SAMPLES = 300
FORCED = {"scalar": 10**9, "numpy": 0}


def _median_us(prepare, kernel):
    """Median microseconds of ``kernel(prepare())`` on each path.

    The paths alternate sample by sample, so a change of CPU speed
    during the run lands on both.
    """
    saved = selection.SCALAR_MAX
    times = {path: [] for path in FORCED}
    try:
        for _ in range(SAMPLES):
            for path, threshold in FORCED.items():
                selection.SCALAR_MAX = threshold
                times[path].append(best_of(partial(kernel, prepare()), 1))
    finally:
        selection.SCALAR_MAX = saved
    return {path: statistics.median(ts) * 1e6 for path, ts in times.items()}


def select_cells(arrays, rng, size, parent_budget):
    height = arrays.height
    parents = np.sort(rng.choice(arrays.levels[height - 1], size, False))
    settled = np.zeros(arrays.n_nodes, dtype=bool)
    budget = np.zeros(arrays.n_nodes, dtype=np.int64)
    budget[parents] = parent_budget
    walk = selection.WidthWalk()
    empty = np.empty(0, dtype=np.int64)
    walk.kept = [empty] * (height - 1) + [parents]
    walk.leaves = [empty] * height

    def prepare():
        walk.resume = height
        return walk

    def kernel(state):
        selection.select_width(arrays, settled, 8, budget, state)

    return prepare, kernel


def _consecutive_leaves(arrays, rng, size):
    leaves = arrays.levels[arrays.height]
    start = int(rng.integers(0, leaves.shape[0] - size + 1))
    return leaves[start:start + size]


def finish_cells(arrays, rng, size):
    batch = _consecutive_leaves(arrays, rng, size)
    values = arrays.values.take(batch)

    def prepare():
        return alphabeta._AlphaBetaArena(arrays)

    return prepare, lambda arena: arena.finish_leaves(batch, values)


def settle_cells(arrays, rng, size):
    batch = _consecutive_leaves(arrays, rng, size)
    values = arrays.values.take(batch)

    def prepare():
        return boolean._BooleanArena(arrays)

    return prepare, lambda arena: arena.evaluate_batch(batch, values)


def main() -> int:
    minmax = canonical_arrays(iid_minmax(4, 6, seed=1))
    boolean_tree = canonical_arrays(iid_boolean(4, 6, 0.5, seed=1))
    kernels = {
        "select, budget 1": lambda rng, k: select_cells(minmax, rng, k, 1),
        "select, budget 3": lambda rng, k: select_cells(minmax, rng, k, 3),
        "ab-finish": lambda rng, k: finish_cells(minmax, rng, k),
        "bool-settle": lambda rng, k: settle_cells(boolean_tree, rng, k),
    }
    print("| kernel | path | " + " | ".join(map(str, SIZES)) + " |")
    print("|---|---|" + "---|" * len(SIZES))
    for name, cells in kernels.items():
        rows = {path: [] for path in FORCED}
        for size in SIZES:
            prepare, kernel = cells(np.random.default_rng(size), size)
            for path, us in _median_us(prepare, kernel).items():
                rows[path].append(us)
        for path, row in rows.items():
            print(
                f"| {name} | {path} | "
                + " | ".join(f"{us:.1f}" for us in row) + " |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
