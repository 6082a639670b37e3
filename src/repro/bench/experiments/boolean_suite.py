"""Experiments E1-E7: the Boolean (AND/OR - NOR) results of the paper.

Each experiment regenerates the measurement its paper claim is about;
its spec (:mod:`repro.bench.specs.experiments`) gates the claim's
*shape* on the returned table.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ...analysis import (
    codes_lex_decreasing,
    degree_matches_code,
    fact1_lower_bound,
    lemma1_k1,
    lemma2_k2,
    proof_tree_leaf_count,
    prop3_bound,
    skeleton_of,
    trace_codes,
    x0_threshold,
)
from ...core import parallel_solve, sequential_solve, team_solve
from ...trees.generators import (
    all_ones,
    forced_value_instance,
    iid_boolean,
    near_uniform_boolean,
    sequential_worst_case,
)
from ...trees.generators.iid import level_invariant_bias
from ..harness import ExperimentTable

#: Deterministic base seed for every ensemble in the suite.
BASE_SEED = 20260705


def e01_fact1_lower_bound(
    configs=((2, (6, 8, 10, 12, 14)), (3, (4, 6, 8))),
    iid_trials: int = 8,
) -> ExperimentTable:
    """Fact 1: total work >= d**(n//2); tight on minimal instances."""
    table = ExperimentTable(
        "e01",
        "Fact 1 - inherent lower bound on total work, B(d, n)",
        ["d", "n", "bound d^(n/2)", "S forced-0", "S forced-1",
         "min S iid", "proof leaves"],
    )
    for d, heights in configs:
        bias = level_invariant_bias(d)
        for n in heights:
            bound = fact1_lower_bound(d, n)
            s0 = sequential_solve(forced_value_instance(d, n, 0)).total_work
            s1 = sequential_solve(forced_value_instance(d, n, 1)).total_work
            iid_s = min(
                sequential_solve(
                    iid_boolean(d, n, bias, seed=BASE_SEED + t)
                ).total_work
                for t in range(iid_trials)
            )
            proof = proof_tree_leaf_count(d, n, 0)
            table.add_row(d, n, bound, s0, s1, iid_s, proof)
    table.add_note(
        "forced-0 instances meet the bound exactly; every measured S "
        "is >= the bound (the paper's Fact 1)."
    )
    return table


def e02_team_solve_sqrt(
    n: int = 16, trials: int = 5, max_log2_p: int = 8
) -> ExperimentTable:
    """Proposition 1: Team SOLVE speed-up is Theta(sqrt(p))."""
    d = 2
    hard = all_ones(d, n)
    s_hard = sequential_solve(hard).num_steps
    bias = level_invariant_bias(d)
    iid_trees = [
        iid_boolean(d, n, bias, seed=BASE_SEED + t) for t in range(trials)
    ]
    s_iid = [sequential_solve(t).num_steps for t in iid_trees]
    table = ExperimentTable(
        "e02",
        f"Proposition 1 - Team SOLVE speed-up vs sqrt(p), B(2, {n})",
        ["p", "sqrt(p)", "hard steps", "hard speed-up",
         "hard ratio/sqrt(p)", "iid speed-up"],
    )
    for k in range(0, max_log2_p + 1):
        p = 2 ** k
        t_hard = team_solve(hard, p).num_steps
        sp_hard = s_hard / t_hard
        sp_iid = float(
            np.mean(
                [
                    s / team_solve(tree, p).num_steps
                    for s, tree in zip(s_iid, iid_trees)
                ]
            )
        )
        table.add_row(
            p, float(np.sqrt(p)), t_hard, float(sp_hard),
            float(sp_hard / np.sqrt(p)), sp_iid,
        )
    table.add_note(
        "hard = all-ones instance: speed-up tracks sqrt(p) "
        "(bounded ratio), matching the Theta(sqrt(p)) claim."
    )
    return table


def e03_theorem1_linear_speedup(
    configs=((2, (8, 10, 12, 14, 16)), (3, (4, 6, 8, 10))),
    trials: int = 8,
) -> ExperimentTable:
    """Theorem 1 + Corollary 1: width-1 speed-up ~ c(n+1), work ~ c'S."""
    table = ExperimentTable(
        "e03",
        "Theorem 1 - Parallel SOLVE width 1 vs Sequential SOLVE",
        ["d", "n", "trials", "mean S", "mean P", "speed-up", "procs",
         "c = sp/(n+1)", "work/S (c')"],
    )
    for d, heights in configs:
        bias = level_invariant_bias(d)
        for n in heights:
            S, P, W, procs = [], [], [], 0
            for t in range(trials):
                tree = iid_boolean(d, n, bias, seed=BASE_SEED + 31 * t)
                seq = sequential_solve(tree)
                par = parallel_solve(tree, 1)
                assert seq.value == par.value
                S.append(seq.num_steps)
                P.append(par.num_steps)
                W.append(par.total_work)
                procs = max(procs, par.processors)
            speedup = float(np.sum(S) / np.sum(P))
            table.add_row(
                d, n, trials, float(np.mean(S)), float(np.mean(P)),
                speedup, procs, speedup / (n + 1),
                float(np.sum(W) / np.sum(S)),
            )
    table.add_note(
        "procs stays at n+1; c stabilises at a positive constant; the "
        "work ratio c' stays bounded (Corollary 1)."
    )
    return table


def e04_prop2_skeleton_monotonicity(trials: int = 40) -> ExperimentTable:
    """Proposition 2: P_w(T) <= P_w(H_T) for every width."""
    table = ExperimentTable(
        "e04",
        "Proposition 2 - parallel steps on T vs on the skeleton H_T",
        ["w", "trials", "violations", "mean P(T)/P(H)", "max P(T)/P(H)"],
    )
    rng = np.random.default_rng(BASE_SEED)
    cases = []
    for t in range(trials):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(4, 10))
        tree = iid_boolean(d, n, level_invariant_bias(d),
                           seed=BASE_SEED + t)
        cases.append((tree, skeleton_of(tree)))
    for w in (1, 2, 3):
        ratios = []
        violations = 0
        for tree, skel in cases:
            pt = parallel_solve(tree, w).num_steps
            ph = parallel_solve(skel, w).num_steps
            ratios.append(pt / ph)
            if pt > ph:
                violations += 1
        table.add_row(
            w, trials, violations, float(np.mean(ratios)),
            float(np.max(ratios)),
        )
    table.add_note("Boolean Prop 2 is exact: zero violations expected.")
    return table


def e05_prop3_degree_bounds(
    configs=((2, 12), (3, 7)), trials: int = 10
) -> ExperimentTable:
    """Proposition 3: t_{k+1}(H_T) <= C(n,k)(d-1)^k; code properties."""
    table = ExperimentTable(
        "e05",
        "Proposition 3 - step-degree histogram vs binomial bound",
        ["d", "n", "k", "bound", "max t_{k+1}", "mean t_{k+1}",
         "utilisation"],
    )
    all_lex = all_deg = True
    for d, n in configs:
        bias = level_invariant_bias(d)
        hists = []
        for t in range(trials):
            tree = iid_boolean(d, n, bias, seed=BASE_SEED + 7 * t)
            skel = skeleton_of(tree)
            records = trace_codes(skel, width=1)
            all_lex &= codes_lex_decreasing(records)
            all_deg &= degree_matches_code(records)
            hists.append(Counter(r.degree for r in records))
        for k in range(0, 6):
            bound = prop3_bound(n, k, d)
            observed = [h.get(k + 1, 0) for h in hists]
            mx = max(observed)
            table.add_row(
                d, n, k, bound, mx, float(np.mean(observed)),
                (mx / bound) if bound else 0.0,
            )
    table.add_note(f"codes lexicographically decreasing: {all_lex}")
    table.add_note(f"degree == 1 + #nonzero(code) everywhere: {all_deg}")
    return table


def e06_lemma_constants() -> ExperimentTable:
    """Lemmas 1-2: k1, k2 grow linearly in n; x0(d) thresholds."""
    table = ExperimentTable(
        "e06",
        "Lemmas 1 & 2 - k1(n), k2(n) linear in n; x0(d)",
        ["d", "n", "k1", "k2", "k1/n", "k2/n", "x0(d)"],
    )
    for d in (2, 3, 4):
        x0 = x0_threshold(d)
        for n in (20, 40, 80, 160, 320):
            k1 = lemma1_k1(n, d)
            k2 = lemma2_k2(n, d)
            table.add_row(d, n, k1, k2, k1 / n, k2 / n, float(x0))
    table.add_note(
        "k1/n and k2/n settle at positive constants (alpha in the "
        "lemmas), larger for larger d."
    )
    return table


def e07_corollary2_near_uniform(
    heights=(8, 10, 12, 14, 16), trials: int = 8
) -> ExperimentTable:
    """Corollary 2: near-uniform trees keep the linear speed-up."""
    table = ExperimentTable(
        "e07",
        "Corollary 2 - Parallel SOLVE width 1 on near-uniform trees",
        ["n", "alpha", "beta", "trials", "mean S", "mean P", "speed-up",
         "max procs"],
    )
    alpha, beta = 0.5, 0.6
    for n in heights:
        S, P, procs = [], [], 0
        for t in range(trials):
            tree = near_uniform_boolean(
                4, n, alpha, beta, p=0.3, seed=BASE_SEED + 13 * t + n,
            )
            seq = sequential_solve(tree)
            par = parallel_solve(tree, 1)
            assert seq.value == par.value
            S.append(seq.num_steps)
            P.append(par.num_steps)
            procs = max(procs, par.processors)
            # At n=16 a tree is ~10 M nodes: let it go before the next
            # trial builds its own, so the peak holds one tree, not two.
            del tree, seq, par
        table.add_row(
            n, alpha, beta, trials, float(np.mean(S)), float(np.mean(P)),
            float(np.sum(S) / np.sum(P)), procs,
        )
    table.add_note(
        "speed-up keeps growing with n despite irregular degrees "
        "(between alpha*d and d) and depths (between beta*n and n)."
    )
    return table


def e03b_worst_case_family(
    configs=((2, (8, 10, 12, 14)), (3, (5, 7, 9))),
) -> ExperimentTable:
    """Theorem 1 on the deterministic worst-case family (S = d**n)."""
    table = ExperimentTable(
        "e03b",
        "Theorem 1 on sequential-worst-case instances (S(T) = d^n)",
        ["d", "n", "S", "P", "speed-up", "procs", "c = sp/(n+1)"],
    )
    for d, heights in configs:
        for n in heights:
            tree = sequential_worst_case(d, n)
            seq = sequential_solve(tree)
            par = parallel_solve(tree, 1)
            assert seq.value == par.value
            sp = seq.num_steps / par.num_steps
            table.add_row(
                d, n, seq.num_steps, par.num_steps, float(sp),
                par.processors, float(sp / (n + 1)),
            )
    table.add_note(
        "on the all-leaves-forced family the width-1 algorithm achieves "
        "its strongest speed-ups (dense live frontier)."
    )
    return table
