"""Experiments E8-E13: MIN/MAX, node-expansion and randomized results."""

from __future__ import annotations

import numpy as np

from ...analysis import (
    fact2_certificate_size,
    fact2_lower_bound,
    minmax_skeleton_of,
    prop6_bound,
    skeleton_of,
    theorem2_holds,
)
from ...core.alphabeta import (
    alpha_beta,
    parallel_alpha_beta,
    run_minmax,
    sequential_alpha_beta,
)
from ...core.nodeexpansion import n_parallel_solve, n_sequential_solve
from ...core.policies import WidthPolicy
from ...core.randomized import (
    estimate_expectation,
    r_parallel_alpha_beta,
    r_parallel_solve,
    r_sequential_alpha_beta,
    r_sequential_solve,
)
from ...trees.base import exact_value
from ...trees.generators import (
    alpha_beta_worst_case,
    iid_boolean,
    iid_minmax,
    iid_minmax_integers,
    sequential_worst_case,
)
from ...trees.generators.iid import level_invariant_bias
from ..harness import ExperimentTable
from collections import Counter

BASE_SEED = 20260705


def e08_theorem2_invariant(
    cases=((2, 6, 12), (2, 8, 8), (3, 5, 8), (4, 4, 8)),
) -> ExperimentTable:
    """Theorem 2: the pruning rule preserves the root value stepwise."""
    table = ExperimentTable(
        "e08",
        "Theorem 2 - val(T-tilde) == val(T) after every step",
        ["d", "n", "trials", "steps checked", "violations",
         "mean pruned nodes"],
    )
    for d, n, trials in cases:
        checked = violations = 0
        pruned_counts = []
        for t in range(trials):
            tree = (
                iid_minmax(d, n, seed=BASE_SEED + t)
                if t % 2
                else iid_minmax_integers(d, n, seed=BASE_SEED + t,
                                         num_values=5)
            )
            truth = exact_value(tree)
            counts = {"checked": 0, "bad": 0}

            def on_step(state, step, batch):
                counts["checked"] += 1
                if not theorem2_holds(state, truth):
                    counts["bad"] += 1

            res = run_minmax(tree, WidthPolicy(1),
                             on_step=on_step)
            assert abs(res.value - truth) < 1e-12
            checked += counts["checked"]
            violations += counts["bad"]
            pruned_counts.append(len(res.evaluated))
        table.add_row(d, n, trials, checked, violations,
                      float(np.mean(pruned_counts)))
    table.add_note("violations must be zero: the invariant is exact.")
    return table


def e09_fact2_minmax_bound(
    configs=((2, (6, 8, 10, 12)), (3, (4, 6, 8))), trials: int = 8
) -> ExperimentTable:
    """Fact 2: total work >= d^(n/2) + d^ceil(n/2) - 1 on M(d, n)."""
    table = ExperimentTable(
        "e09",
        "Fact 2 - MIN/MAX inherent lower bound",
        ["d", "n", "bound", "min S~ (iid)", "mean S~", "mean certificate"],
    )
    for d, heights in configs:
        for n in heights:
            bound = fact2_lower_bound(d, n)
            works, certs = [], []
            for t in range(trials):
                tree = iid_minmax(d, n, seed=BASE_SEED + 3 * t)
                works.append(alpha_beta(tree).total_work)
                certs.append(fact2_certificate_size(tree))
            table.add_row(
                d, n, bound, int(np.min(works)), float(np.mean(works)),
                float(np.mean(certs)),
            )
    table.add_note(
        "every measured alpha-beta leaf count and every certificate "
        "size respects the bound."
    )
    return table


def e10_theorem3_alphabeta_speedup(
    configs=(
        (2, (6, 8, 10, 12), "cont"),
        (2, (6, 8, 10), "int"),
        (3, (4, 6, 8), "cont"),
    ),
    trials: int = 6,
    worst_cases=((2, 8), (2, 10), (3, 6)),
) -> ExperimentTable:
    """Theorem 3 + Prop 5: width-1 Parallel alpha-beta speed-up."""
    table = ExperimentTable(
        "e10",
        "Theorem 3 - Parallel alpha-beta width 1 vs Sequential",
        ["d", "n", "leaves", "trials", "mean S~", "mean P~", "speed-up",
         "procs", "c = sp/(n+1)", "prop5 viol", "prop5 max ratio"],
    )
    for d, heights, kinds in configs:
        for n in heights:
            S, P, procs = [], [], 0
            viol = 0
            worst_ratio = 0.0
            for t in range(trials):
                if kinds == "cont":
                    tree = iid_minmax(d, n, seed=BASE_SEED + 11 * t)
                else:
                    tree = iid_minmax_integers(
                        d, n, seed=BASE_SEED + 11 * t, num_values=6
                    )
                seq = sequential_alpha_beta(tree)
                par = parallel_alpha_beta(tree, 1)
                assert abs(seq.value - par.value) < 1e-12
                S.append(seq.num_steps)
                P.append(par.num_steps)
                procs = max(procs, par.processors)
                skel = minmax_skeleton_of(tree)
                ph = parallel_alpha_beta(skel, 1).num_steps
                ratio = par.num_steps / ph
                worst_ratio = max(worst_ratio, ratio)
                if par.num_steps > ph:
                    viol += 1
            speedup = float(np.sum(S) / np.sum(P))
            table.add_row(
                d, n, kinds, trials, float(np.mean(S)), float(np.mean(P)),
                speedup, procs, speedup / (n + 1), viol,
                float(worst_ratio),
            )
    # Every-instance check: the alpha-beta worst case (no cutoffs at
    # all, S~ = d^n) still gets the width-1 speed-up.
    for d, n in worst_cases:
        tree = alpha_beta_worst_case(d, n)
        seq = sequential_alpha_beta(tree)
        par = parallel_alpha_beta(tree, 1)
        assert abs(seq.value - par.value) < 1e-12
        speedup = seq.num_steps / par.num_steps
        skel = minmax_skeleton_of(tree)
        ph = parallel_alpha_beta(skel, 1).num_steps
        table.add_row(
            d, n, "worst", 1, float(seq.num_steps),
            float(par.num_steps), float(speedup), par.processors,
            float(speedup / (n + 1)),
            int(par.num_steps > ph), float(par.num_steps / ph),
        )
    table.add_note(
        "REPRODUCTION FINDING: the literal Prop 5 inequality "
        "P~(T) <= P~(H~) fails on a sizable fraction of instances, but "
        "always within a small constant (max ratio column), so the "
        "linear speed-up of Theorem 3 is unaffected."
    )
    table.add_note(
        "'worst' rows use the Knuth-Moore no-cutoff instance "
        "(S~ = d^n): the speed-up holds on every instance, as the "
        "theorem states."
    )
    return table


def e11_theorem4_node_expansion(
    configs=((2, (8, 10, 12, 14)), (3, (5, 7, 9))), trials: int = 6
) -> ExperimentTable:
    """Theorem 4 + Prop 6: node-expansion model speed-up and bounds."""
    table = ExperimentTable(
        "e11",
        "Theorem 4 - N-Parallel SOLVE width 1 vs N-Sequential SOLVE",
        ["d", "n", "trials", "mean S*", "mean P*", "speed-up", "procs",
         "c = sp/(n+1)", "prop6 ok"],
    )
    for d, heights in configs:
        bias = level_invariant_bias(d)
        for n in heights:
            S, P, procs = [], [], 0
            prop6_ok = True
            for t in range(trials):
                tree = iid_boolean(d, n, bias, seed=BASE_SEED + 17 * t)
                seq = n_sequential_solve(tree)
                par = n_parallel_solve(tree, 1)
                assert seq.value == par.value
                S.append(seq.num_steps)
                P.append(par.num_steps)
                procs = max(procs, par.processors)
                # Prop 6 bounds the degree histogram on the skeleton.
                skel = skeleton_of(tree)
                par_h = n_parallel_solve(skel, 1)
                hist = Counter(par_h.trace.degrees)
                for deg, cnt in hist.items():
                    if cnt > prop6_bound(n, deg - 1, d):
                        prop6_ok = False
            speedup = float(np.sum(S) / np.sum(P))
            table.add_row(
                d, n, trials, float(np.mean(S)), float(np.mean(P)),
                speedup, procs, speedup / (n + 1), prop6_ok,
            )
    return table


def e12_theorem5_randomized_solve(
    heights=(8, 10, 12), num_seeds: int = 12
) -> ExperimentTable:
    """Theorem 5: expected speed-up of R-Parallel over R-Sequential."""
    table = ExperimentTable(
        "e12",
        "Theorem 5 - randomized SOLVE on worst-case instances",
        ["n", "seeds", "det S*", "E(S*_R)", "E(P*_R)", "ratio",
         "ratio/(n+1)"],
    )
    seeds = list(range(num_seeds))
    for n in heights:
        tree = sequential_worst_case(2, n)
        det = n_sequential_solve(tree).num_steps
        est_s = estimate_expectation(r_sequential_solve, tree, seeds)
        est_p = estimate_expectation(r_parallel_solve, tree, seeds,
                                     width=1)
        ratio = est_s.mean_steps / est_p.mean_steps
        table.add_row(
            n, len(seeds), det, est_s.mean_steps, est_p.mean_steps,
            float(ratio), float(ratio / (n + 1)),
        )
    table.add_note(
        "the deterministic worst case forces S* = all nodes; the "
        "randomized pair keeps a linear expected speed-up (Theorem 5)."
    )
    return table


def e13_theorem6_randomized_alphabeta(
    configs=((2, (6, 8, 10)), (3, (4, 6))), num_seeds: int = 10
) -> ExperimentTable:
    """Theorem 6: R-Parallel alpha-beta linear expected speed-up."""
    table = ExperimentTable(
        "e13",
        "Theorem 6 - randomized alpha-beta (node expansion)",
        ["d", "n", "seeds", "E(S~_R)", "E(P~_R)", "ratio", "ratio/(n+1)"],
    )
    seeds = list(range(num_seeds))
    for d, heights in configs:
        for n in heights:
            tree = iid_minmax(d, n, seed=BASE_SEED + n)
            est_s = estimate_expectation(
                r_sequential_alpha_beta, tree, seeds
            )
            est_p = estimate_expectation(
                r_parallel_alpha_beta, tree, seeds, width=1
            )
            ratio = est_s.mean_steps / est_p.mean_steps
            table.add_row(
                d, n, len(seeds), est_s.mean_steps, est_p.mean_steps,
                float(ratio), float(ratio / (n + 1)),
            )
    return table
