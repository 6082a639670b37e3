"""E21: empirical exploration of the paper's open problem.

Section 8: "We believe that the speed-up on uniform trees should
remain linear in the number of processors for any fixed width.  We are
not able to prove this.  The counting argument that works for width 1
is no longer applicable to higher widths."

This experiment gathers the evidence a proof attempt would want:

* per-degree step histograms of width-2 and width-3 runs on skeletons,
  against the natural guess that the width-1 bound generalises to
  ``t_{k+1} <= C(n + w - 1, k) * (d-1)^k``-style binomial growth;
* the achieved speed-up divided by processors-used across widths — the
  conjectured "linear in processors" constant.

No claim is asserted beyond what is measured; the table records the
shapes so future work can check candidate bounds against them.
"""

from __future__ import annotations

import math
from collections import Counter

from ...analysis import skeleton_of
from ...core import parallel_solve, sequential_solve
from ...trees.generators import iid_boolean, sequential_worst_case
from ...trees.generators.iid import level_invariant_bias
from ..harness import ExperimentTable

BASE_SEED = 20260705


def _candidate_bound(n: int, k: int, d: int, w: int) -> int:
    """A natural (unproven!) generalisation of the Prop 3 bound."""
    if k < 0:
        return 0
    return math.comb(n + w - 1, min(k, n + w - 1)) * (d - 1) ** k * w


def e21_width_open_problem(
    iid_heights=(12, 14), worst_height: int = 12, widths=(1, 2, 3)
) -> ExperimentTable:
    """Evidence table for the fixed-width linear speed-up conjecture."""
    table = ExperimentTable(
        "e21",
        "Section 8 open problem - higher-width degree histograms "
        "and efficiency",
        ["family", "d", "n", "w", "steps", "speed-up", "procs",
         "sp/procs", "max degree", "hist<=cand"],
    )
    bias = level_invariant_bias(2)
    cases = [
        ("iid p*", iid_boolean(2, n, bias, seed=BASE_SEED + i))
        for i, n in enumerate(iid_heights)
    ]
    cases.append(("worst", sequential_worst_case(2, worst_height)))
    for family, tree in cases:
        n = tree.height()
        d = tree.branching
        skel = skeleton_of(tree)
        seq_steps = sequential_solve(tree).num_steps
        for w in widths:
            par = parallel_solve(tree, w)
            par_skel = parallel_solve(skel, w)
            hist = Counter(par_skel.trace.degrees)
            within = all(
                count <= _candidate_bound(n, deg - 1, d, w)
                for deg, count in hist.items()
            )
            speedup = seq_steps / par.num_steps
            table.add_row(
                family, d, n, w, par.num_steps, float(speedup),
                par.processors, float(speedup / par.processors),
                par.processors, within,
            )
    table.add_note(
        "hist<=cand checks the measured skeleton histograms against "
        "the *unproven* candidate bound C(n+w-1,k)(d-1)^k * w; the "
        "speed-up/processors column is the conjecture's constant — "
        "it shrinks with w (processor growth outpaces step shrinkage "
        "on these instances) but stays well away from zero."
    )
    return table
