"""Benchmark specs for the paper experiments (e01-e22 and e03b).

Each spec is the one statement of its experiment: the function that
builds its table, the metrics read off that table
(:mod:`repro.bench.specs.tables`), the gates on those metrics, the
per-metric tolerance bands for snapshot diffs, a quick-profile
parameter overlay small enough for CI, and the paper claim and
expected shape EXPERIMENTS.md reports.

Every gate is a claim's shape on the table.  A gate that reads rows
only the full profile builds is ``full_only``; every other gate holds
in both profiles.  A strict inequality over floats is gated at a round
bound strictly inside it (``> 3.0`` becomes ``>= 3.5``), and "the last
row beats the first" at ``GROWS``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from ..experiments.boolean_suite import (
    e01_fact1_lower_bound,
    e02_team_solve_sqrt,
    e03_theorem1_linear_speedup,
    e03b_worst_case_family,
    e04_prop2_skeleton_monotonicity,
    e05_prop3_degree_bounds,
    e06_lemma_constants,
    e07_corollary2_near_uniform,
)
from ..experiments.extension_suite import (
    e17_solve_expectation,
    e18_pearl_branching_factor,
    e19_sequential_baselines,
    e20_ablations,
)
from ..experiments.minmax_suite import (
    e08_theorem2_invariant,
    e09_fact2_minmax_bound,
    e10_theorem3_alphabeta_speedup,
    e11_theorem4_node_expansion,
    e12_theorem5_randomized_solve,
    e13_theorem6_randomized_alphabeta,
)
from ..experiments.open_problem_suite import e21_width_open_problem
from ..experiments.scale_suite import e22_theorem1_at_scale
from ..experiments.width_impl_suite import (
    e14_althofer_iid,
    e15_implementation_sim,
    e16_width_sweep_constant,
)
from ..harness import ExperimentTable
from ..registry import (
    Band,
    BenchSpec,
    Expectation,
    Gate,
    SpecResult,
    register_spec,
)
from .tables import Extractor

#: Seed every experiment ensemble derives from (see experiments/*.py).
BASE_SEED = 20260705

#: Band for stable floating aggregates (means, constants).
FLOAT = Band(rel=0.02)

#: Speed-ups may improve freely; shrinking beyond 5% is a regression.
SPEEDUP = Band(rel=0.05, direction="down_bad")

#: Overheads may shrink freely; growing beyond 5% is a regression.
OVERHEAD = Band(rel=0.05, direction="up_bad")

#: "The last row beats the first": a ``span_`` ratio past rounding.
GROWS = 1.001


def _where(
    test: Callable[[Dict[str, Any]], bool], column: Optional[str] = None
) -> Callable[[Dict[str, Any]], Any]:
    """A row ref: ``column``'s cell (or 1) on the rows ``test`` keeps."""
    return lambda r: (1 if column is None else r[column]) if test(r) else None


def _procs_minus_n(row: Dict[str, Any]) -> float:
    """At most 1 where a run uses n + 1 processors."""
    return row["procs"] - row["n"]


def _spec(
    name: str,
    suite: str,
    title: str,
    experiment: Callable[..., ExperimentTable],
    expectation: Expectation,
    quick: Dict,
    metrics: Mapping[str, Extractor],
    gates=(),
    bands: Optional[Dict[str, Band]] = None,
) -> None:
    register_spec(BenchSpec(
        name=name,
        suite=suite,
        title=title,
        seed=BASE_SEED,
        runner=lambda params, wallclock: SpecResult(
            table=experiment(**params)
        ),
        quick_params=quick,
        gates=tuple(gates),
        bands=bands or {},
        extractors={"rows": ("count",), **metrics},
        expectation=expectation,
    ))


_spec(
    "e01", "boolean", "Fact 1 - inherent lower bound on total work",
    e01_fact1_lower_bound,
    Expectation(
        "Fact 1: any algorithm evaluating an instance of B(d, n) "
        "performs total work >= d^(n/2) — the size of a proof tree.",
        "Every measured sequential leaf count is >= the bound; the "
        "forced-0 instance family meets it exactly (the bound is "
        "tight); proof-tree extraction certifies the same number.",
    ),
    quick={"configs": ((2, (6, 8, 10)), (3, (4, 6))), "iid_trials": 3},
    metrics={
        "min_iid_over_bound": ("ratio_min", "min S iid",
                               "bound d^(n/2)"),
        "min_forced0_over_bound": ("ratio_min", "S forced-0",
                                   "bound d^(n/2)"),
        "max_forced0_over_bound": ("ratio_max", "S forced-0",
                                   "bound d^(n/2)"),
        "min_forced1_over_bound": ("ratio_min", "S forced-1",
                                   "bound d^(n/2)"),
        "min_proof_over_bound": ("ratio_min", "proof leaves",
                                 "bound d^(n/2)"),
        "max_proof_over_bound": ("ratio_max", "proof leaves",
                                 "bound d^(n/2)"),
        "total_proof_leaves": ("sum", "proof leaves"),
    },
    gates=[
        Gate("fact1_iid_above_bound", "min_iid_over_bound", ">=", 1.0),
        Gate("fact1_tight_lower", "min_forced0_over_bound", ">=", 1.0),
        Gate("fact1_tight_upper", "max_forced0_over_bound", "<=", 1.0),
        Gate("fact1_forced1_above_bound", "min_forced1_over_bound",
             ">=", 1.0),
        Gate("proof_tree_lower", "min_proof_over_bound", ">=", 1.0),
        Gate("proof_tree_upper", "max_proof_over_bound", "<=", 1.0),
    ],
    bands={"m*_over_bound": FLOAT},
)

_spec(
    "e02", "boolean", "Proposition 1 - Team SOLVE tracks sqrt(p)",
    e02_team_solve_sqrt,
    Expectation(
        "Proposition 1: Team SOLVE with p processors has speed-up "
        "Omega(sqrt(p)) on every instance, and instances exist capping "
        "it at O(sqrt(p)).",
        "On the all-ones hard family, speed-up / sqrt(p) stays inside "
        "constant bounds across p = 1..256; the speed-up never falls "
        "as p grows and is far below linear in p at the largest p.",
    ),
    quick={"n": 12, "trials": 2, "max_log2_p": 6},
    metrics={
        "min_ratio_sqrtp": ("min", "hard ratio/sqrt(p)"),
        "max_ratio_sqrtp": ("max", "hard ratio/sqrt(p)"),
        "last_iid_speedup": ("last", "iid speed-up"),
        "min_hard_speedup_step": ("step_min", "hard speed-up"),
        "last_hard_speedup_over_p": ("ratio_last", "hard speed-up",
                                     "p"),
    },
    gates=[
        Gate("sqrt_tracking_low", "min_ratio_sqrtp", ">=", 0.3),
        Gate("sqrt_tracking_high", "max_ratio_sqrtp", "<=", 2.0),
        Gate("more_procs_never_slower", "min_hard_speedup_step", ">=",
             0.999),
        Gate("far_below_linear", "last_hard_speedup_over_p", "<=", 0.2),
    ],
    bands={"*_ratio_sqrtp": FLOAT, "last_iid_speedup": SPEEDUP},
)

_spec(
    "e03", "boolean", "Theorem 1 - width-1 linear speed-up",
    e03_theorem1_linear_speedup,
    Expectation(
        "Theorem 1 + Corollary 1: Parallel SOLVE of width 1 achieves "
        "speed-up >= c(n+1) over Sequential SOLVE on every instance of "
        "B(d, n), with n+1 processors; its total work is <= c'S(T).",
        "Speed-up grows with n at fixed d; speed-up/(n+1) levels off "
        "at ~0.35 (d=2) and ~0.5 (d=3); work ratio c' stays ~1.6. The "
        "paper proves only a small c — as its Section 8 notes, "
        "'simulations indicate a better constant is achievable', which "
        "is exactly what we measure.",
    ),
    quick={"configs": ((2, (8, 10)), (3, (4, 6))), "trials": 3},
    metrics={
        "min_speedup": ("min", "speed-up"),
        "last_c": ("last", "c = sp/(n+1)"),
        "max_work_ratio": ("max", "work/S (c')"),
        "max_procs": ("max", "procs"),
        "max_procs_minus_n": ("max", _procs_minus_n),
        "min_speedup_step": ("step_min", "speed-up", "d"),
        "min_c": ("min", "c = sp/(n+1)"),
    },
    gates=[
        Gate("speedup_ge_1", "min_speedup", ">=", 1.0),
        Gate("work_ratio_bounded", "max_work_ratio", "<=", 3.0),
        Gate("procs_le_n_plus_1", "max_procs_minus_n", "<=", 1.0),
        Gate("speedup_grows_with_n", "min_speedup_step", ">=", 1.0),
        Gate("c_bounded_away_from_0", "min_c", ">=", 0.2),
    ],
    bands={"min_speedup": SPEEDUP, "last_c": FLOAT,
           "max_work_ratio": OVERHEAD},
)

_spec(
    "e03b", "boolean", "Theorem 1 on the worst-case family",
    e03b_worst_case_family,
    Expectation(
        "Theorem 1 is an every-instance theorem: it holds on the "
        "deterministic worst-case family for Sequential SOLVE too "
        "(S = d^n).",
        "Speed-up grows with n at fixed d, with n+1 processors; the "
        "dense live frontier gives the strongest width-1 speed-ups.",
    ),
    quick={"configs": ((2, (8, 10)), (3, (5,)))},
    metrics={
        "min_speedup": ("min", "speed-up"),
        "last_c": ("last", "c = sp/(n+1)"),
        "max_procs": ("max", "procs"),
        "min_speedup_step": ("step_min", "speed-up", "d"),
    },
    gates=[
        Gate("speedup_ge_1", "min_speedup", ">=", 1.0),
        Gate("speedup_grows_with_n", "min_speedup_step", ">=", 1.0),
    ],
    bands={"min_speedup": SPEEDUP, "last_c": FLOAT},
)

_spec(
    "e04", "boolean", "Proposition 2 - skeleton monotonicity",
    e04_prop2_skeleton_monotonicity,
    Expectation(
        "Proposition 2: for every width w, P_w(T) <= P_w(H_T) — "
        "running on the skeleton is never faster.",
        "Zero violations over the ensemble for w in {1, 2, 3} (the "
        "paper proves this exactly via Property A).",
    ),
    quick={"trials": 10},
    metrics={
        "total_violations": ("sum", "violations"),
        "max_ratio": ("max", "max P(T)/P(H)"),
    },
    gates=[
        Gate("prop2_no_violations", "total_violations", "<=", 0.0),
        Gate("prop2_ratio_le_1", "max_ratio", "<=", 1.0),
    ],
    bands={"max_ratio": FLOAT},
)

_spec(
    "e05", "boolean", "Proposition 3 - degree histogram bound",
    e05_prop3_degree_bounds,
    Expectation(
        "Proposition 3: on skeletons, the number of width-1 steps of "
        "parallel degree k+1 is at most C(n, k)(d-1)^k; the proof's "
        "base-path codes strictly decrease lexicographically and "
        "encode the degree.",
        "Measured histograms never exceed the bound (utilisation <= "
        "1); both code properties verified on every instance.",
    ),
    quick={"configs": ((2, 10), (3, 6)), "trials": 4},
    metrics={
        "max_utilisation": ("max", "utilisation"),
        "max_excess": ("max", lambda r: r["max t_{k+1}"] - r["bound"]),
        "codes_decreasing": (
            "notes", "codes lexicographically decreasing: True"),
        "degrees_match_codes": (
            "notes", "degree == 1 + #nonzero(code) everywhere: True"),
    },
    gates=[
        Gate("prop3_within_bound", "max_utilisation", "<=", 1.0),
        Gate("histogram_le_bound", "max_excess", "<=", 0.0),
        Gate("codes_lex_decreasing", "codes_decreasing", ">=", 1.0),
        Gate("degree_encodes_code", "degrees_match_codes", ">=", 1.0),
    ],
    bands={"max_utilisation": OVERHEAD},
)

_spec(
    "e06", "boolean", "Lemmas 1 & 2 - linear thresholds",
    e06_lemma_constants,
    Expectation(
        "Lemmas 1 & 2: the thresholds k1, k2 grow linearly in n "
        "(k_i >= alpha*n) for n beyond a d-dependent n0.",
        "k1/n and k2/n settle at positive constants (~0.09-0.19, "
        "larger for larger d); x0(d) grows with d as the proof "
        "requires.",
    ),
    quick={},
    metrics={
        "min_k1_over_n": ("min", "k1/n"),
        "min_k2_over_n": ("min", "k2/n"),
        "min_k2_minus_k1": ("min", lambda r: r["k2"] - r["k1"]),
        "min_k2_over_n_span": ("span_min", "k2/n", "d"),
    },
    gates=[
        Gate("k1_linear", "min_k1_over_n", ">=", 0.05),
        Gate("k2_linear", "min_k2_over_n", ">=", 0.05),
        Gate("k2_ge_k1", "min_k2_minus_k1", ">=", 0.0),
        Gate("k2_fraction_holds", "min_k2_over_n_span", ">=", 0.8),
    ],
    bands={"min_k*": FLOAT},
)

_spec(
    "e07", "boolean", "Corollary 2 - near-uniform trees",
    e07_corollary2_near_uniform,
    Expectation(
        "Corollary 2: the linear speed-up persists on near-uniform "
        "trees (degrees in [alpha*d, d], depths in [beta*n, n]).",
        "Speed-up keeps growing with the height band on random "
        "(0.5, 0.6)-near-uniform trees of base degree 4.",
    ),
    quick={"heights": (8, 10), "trials": 2},
    metrics={
        "min_speedup": ("min", "speed-up"),
        "last_speedup": ("last", "speed-up"),
        "max_procs": ("max", "max procs"),
        "speedup_span": ("span_min", "speed-up"),
    },
    gates=[
        Gate("speedup_ge_1", "min_speedup", ">=", 1.0),
        Gate("speedup_grows_with_n", "speedup_span", ">=", GROWS),
        Gate("last_speedup_above_3", "last_speedup", ">=", 3.5),
    ],
    bands={"*_speedup": SPEEDUP},
)

_spec(
    "e08", "minmax", "Theorem 2 - pruning preserves the root value",
    e08_theorem2_invariant,
    Expectation(
        "Theorem 2: the pruning rule (delete unfinished v when "
        "alpha(v) >= beta(v)) preserves val(T-tilde) = val(T) at every "
        "step, for any evaluation policy.",
        "The invariant is checked after every basic step of width-1 "
        "Parallel alpha-beta across the ensemble: zero violations.",
    ),
    quick={"cases": ((2, 6, 6), (3, 4, 4))},
    metrics={
        "total_checked": ("sum", "steps checked"),
        "total_violations": ("sum", "violations"),
    },
    gates=[
        Gate("theorem2_no_violations", "total_violations", "<=", 0.0),
        Gate("steps_checked", "total_checked", ">=", 1.0),
        Gate("over_100_steps_checked", "total_checked", ">=", 101.0,
             full_only=True),
    ],
)

_spec(
    "e09", "minmax", "Fact 2 - MIN/MAX inherent lower bound",
    e09_fact2_minmax_bound,
    Expectation(
        "Fact 2: evaluating any instance of M(d, n) requires at least "
        "d^floor(n/2) + d^ceil(n/2) - 1 leaf evaluations.",
        "Every measured alpha-beta leaf count and every extracted "
        "two-sided certificate respects the bound.",
    ),
    quick={"configs": ((2, (6, 8)), (3, (4, 6))), "trials": 3},
    metrics={
        "min_work_over_bound": ("ratio_min", "min S~ (iid)", "bound"),
        "min_cert_over_bound": ("ratio_min", "mean certificate",
                                "bound"),
    },
    gates=[
        Gate("fact2_work_above_bound", "min_work_over_bound", ">=",
             1.0),
        Gate("fact2_certificate", "min_cert_over_bound", ">=", 1.0),
    ],
    bands={"min_*_over_bound": FLOAT},
)

_spec(
    "e10", "minmax", "Theorem 3 - parallel alpha-beta speed-up",
    e10_theorem3_alphabeta_speedup,
    Expectation(
        "Theorem 3 (+ Proposition 5): Parallel alpha-beta of width 1 "
        "achieves speed-up >= c(n+1) on every instance of M(d, n); "
        "Prop 5 claims P~_w(T) <= P~_w(H~_T).",
        "Speed-up grows with n, with n+1 processors, on continuous "
        "and tie-heavy integer leaves. REPRODUCTION FINDING: the "
        "literal Prop 5 inequality (stated without proof in the "
        "paper) FAILS on ~30-50% of random instances — parallel "
        "evaluation order can leave a node outside H~ unfinished "
        "whose sequential pruning bound is not yet available, "
        "inflating pruning numbers. The violation is always a small "
        "constant factor (max observed ~1.5x, bounded < 2x across all "
        "ensembles), so Theorem 3's conclusion is unaffected: its "
        "proof only needs P~(T) = O(P~(H~_T)).",
    ),
    quick={
        "configs": ((2, (6, 8), "cont"), (3, (4, 6), "cont")),
        "trials": 3,
        "worst_cases": ((2, 8),),
    },
    metrics={
        "min_speedup": ("min", "speed-up"),
        "total_prop5_violations": ("sum", "prop5 viol"),
        "max_prop5_ratio": ("max", "prop5 max ratio"),
        "max_procs_minus_n": ("max", _procs_minus_n),
        "speedup_span": ("span_min", "speed-up", "d", "leaves"),
    },
    gates=[
        Gate("speedup_ge_1", "min_speedup", ">=", 1.0),
        Gate("prop5_violation_bounded", "max_prop5_ratio", "<=", 1.9),
        Gate("procs_le_n_plus_1", "max_procs_minus_n", "<=", 1.0),
        Gate("speedup_grows_with_n", "speedup_span", ">=", GROWS),
        Gate("speedups_above_2", "min_speedup", ">=", 2.5),
    ],
    bands={"min_speedup": SPEEDUP, "max_prop5_ratio": OVERHEAD},
)

_spec(
    "e11", "minmax", "Theorem 4 - node-expansion speed-up",
    e11_theorem4_node_expansion,
    Expectation(
        "Theorem 4 + Proposition 6: the node-expansion versions keep "
        "the linear speed-up; degree histograms obey the (n-k)C(n,k)"
        "(d-1)^k bound.",
        "Speed-up in expansions-per-step grows with n; skeleton "
        "histograms always within the Prop 6 bound.",
    ),
    quick={"configs": ((2, (8, 10)), (3, (5,))), "trials": 3},
    metrics={
        "min_speedup": ("min", "speed-up"),
        "min_prop6_ok": ("min", "prop6 ok"),
        "max_procs_minus_n": ("max", _procs_minus_n),
        "min_speedup_step": ("step_min", "speed-up", "d"),
    },
    gates=[
        Gate("speedup_ge_1", "min_speedup", ">=", 1.0),
        Gate("prop6_within_bound", "min_prop6_ok", ">=", 1.0),
        Gate("procs_le_n_plus_1", "max_procs_minus_n", "<=", 1.0),
        Gate("speedup_grows_with_n", "min_speedup_step", ">=", 1.0),
    ],
    bands={"min_speedup": SPEEDUP},
)

_spec(
    "e12", "minmax", "Theorem 5 - randomized SOLVE speed-up",
    e12_theorem5_randomized_solve,
    Expectation(
        "Theorem 5: E(S*_R)/E(P*_R) >= c(n+1) — the randomized pair "
        "keeps a linear expected speed-up.",
        "On instances that are worst-case for the deterministic "
        "left-to-right order, the randomized ratio grows with n and "
        "the randomized sequential algorithm also beats the "
        "deterministic one (the motivation for Section 6).",
    ),
    quick={"heights": (8, 10), "num_seeds": 6},
    metrics={
        "min_ratio": ("min", "ratio"),
        "last_ratio_per_n": ("last", "ratio/(n+1)"),
        "last_ratio": ("last", "ratio"),
        "min_ratio_step": ("step_min", "ratio"),
        "min_det_over_2_pow_n": ("min", lambda r: r["det S*"] / 2 ** r["n"]),
    },
    gates=[
        Gate("expected_speedup_ge_1", "min_ratio", ">=", 1.0),
        Gate("ratio_grows_with_n", "min_ratio_step", ">=", 1.0),
        Gate("last_ratio_above_3", "last_ratio", ">=", 3.5),
        Gate("det_expands_every_leaf", "min_det_over_2_pow_n", ">=",
             1.0),
    ],
    bands={"min_ratio": SPEEDUP, "last_ratio_per_n": FLOAT},
)

_spec(
    "e13", "minmax", "Theorem 6 - randomized alpha-beta speed-up",
    e13_theorem6_randomized_alphabeta,
    Expectation(
        "Theorem 6: R-Parallel alpha-beta of width 1 achieves a "
        "linear expected speed-up over R-Sequential alpha-beta.",
        "Expected ratios grow with n for d = 2 and d = 3.",
    ),
    quick={"configs": ((2, (6, 8)), (3, (4,))), "num_seeds": 5},
    metrics={
        "min_ratio": ("min", "ratio"),
        "last_ratio_per_n": ("last", "ratio/(n+1)"),
        "max_ratio": ("max", "ratio"),
        "ratio_span": ("span_min", "ratio", "d"),
    },
    gates=[
        Gate("expected_speedup_ge_1", "min_ratio", ">=", 1.0),
        Gate("ratio_grows_with_n", "ratio_span", ">=", GROWS),
        Gate("max_ratio_above_2", "max_ratio", ">=", 2.5),
    ],
    bands={"min_ratio": SPEEDUP, "last_ratio_per_n": FLOAT},
)

#: e14's full sweep: widths 0-3 at each of these heights.
_E14_HEIGHTS = (10, 12, 14)

_spec(
    "e14", "width_impl", "Althofer setting - width sweep",
    e14_althofer_iid,
    Expectation(
        "Section 6 discussion (Althofer's setting): on i.i.d. "
        "golden-ratio binary AND/OR trees, expected speed-up is "
        "proportional to the number of processors for moderate "
        "parallelism.",
        "Widths 0-3 use 1, n+1, O(n^2), O(n^3) processors; speed-up "
        "rises with width and speed-up/processors degrades gracefully "
        "(no cliff), matching the expected-case proportionality claim "
        "at moderate widths.",
    ),
    quick={"heights": (10, 12), "trials": 2},
    metrics={
        "min_speedup": ("min", "speed-up"),
        "max_speedup": ("max", "speed-up"),
        "min_efficiency": ("min", "speed-up/procs"),
        "grid_rows": ("count", _where(
            lambda r: r["n"] in _E14_HEIGHTS and r["w"] in range(4))),
        "off_grid_rows": ("count", _where(
            lambda r: r["n"] in _E14_HEIGHTS and r["w"] not in range(4))),
        "min_speedup_step": ("step_min", "speed-up", "n"),
        "min_w2_over_w1_efficiency": ("span_min", _where(
            lambda r: r["w"] in (1, 2), "speed-up/procs"), "n"),
    },
    gates=[
        Gate("speedups_near_1_or_more", "min_speedup", ">=", 0.9),
        Gate("widths_0_to_3_at_each_height", "grid_rows", ">=", 12.0,
             full_only=True),
        Gate("no_other_widths", "off_grid_rows", "<=", 0.0),
        Gate("wider_is_faster", "min_speedup_step", ">=", 1.0),
        Gate("efficiency_no_cliff", "min_w2_over_w1_efficiency", ">=",
             0.2),
    ],
    bands={"*_speedup": SPEEDUP, "min_efficiency": FLOAT},
)


def _full_machine(row: Dict[str, Any]) -> bool:
    """e15: the row runs one physical processor per level."""
    return row["phys procs"] == row["n"] + 1


_spec(
    "e15", "width_impl", "Section 7 machine vs ideal model",
    e15_implementation_sim,
    Expectation(
        "Section 7: the message-passing implementation (one processor "
        "per level, six message types, pre-emption rule) preserves "
        "the linear speed-up; a fixed processor budget works via zone "
        "multiplexing.",
        "Simulated wall-ticks stay within ~1.6-2x of the idealized "
        "P* across heights, so speed-up over sequential still grows "
        "with n; with p physical processors the run degrades "
        "gracefully as p shrinks.",
    ),
    quick={"heights": (8, 10), "budgets": (2, 4)},
    metrics={
        "min_ticks_over_pstar": ("min", "ticks/P*"),
        "max_ticks_over_pstar": ("max", "ticks/P*"),
        "max_machine_speedup": ("max", "speed-up S*/ticks"),
        "total_messages": ("sum", "messages"),
        "max_full_ticks_over_pstar": (
            "max", _where(_full_machine, "ticks/P*")),
        "full_speedup_span": (
            "span_min", _where(_full_machine, "speed-up S*/ticks")),
        "max_fixed_ticks_step": ("step_max", _where(
            lambda r: not _full_machine(r), "ticks")),
    },
    gates=[
        Gate("machine_never_beats_ideal", "min_ticks_over_pstar",
             ">=", 1.0),
        Gate("machine_overhead_bounded", "max_ticks_over_pstar",
             "<=", 8.0),
        Gate("full_machine_within_4x", "max_full_ticks_over_pstar",
             "<=", 3.5),
        Gate("speedup_grows_with_n", "full_speedup_span", ">=", GROWS),
        Gate("more_procs_fewer_ticks", "max_fixed_ticks_step", "<=",
             1.0),
    ],
    bands={"*_ticks_over_pstar": OVERHEAD,
           "max_machine_speedup": SPEEDUP},
)

_spec(
    "e16", "width_impl", "Section 8 - width sweep constant",
    e16_width_sweep_constant,
    Expectation(
        "Section 8 remarks: width w needs O(n^w) processors; the "
        "conjecture is that speed-up remains linear in processors for "
        "fixed width; the provable constant c 'is rather poor' but "
        "simulations indicate better.",
        "Processor usage measured at n+1 / O(n^2) / O(n^3) for widths "
        "1/2/3; speed-ups keep growing with width on all three "
        "instance families; the empirical width-1 constant c is "
        "0.26-0.44 — far better than the proof's.",
    ),
    quick={"n": 10, "widths": (0, 1, 2)},
    metrics={
        "min_speedup": ("min", "speed-up"),
        "max_speedup": ("max", "speed-up"),
        "max_procs_over_n_pow_w": (
            "max", lambda r: r["procs"] / (r["n"] + 1) ** r["w"]),
        "min_procs_step": ("step_min", "procs", "family"),
        "min_speedup_step": ("step_min", "speed-up", "family"),
        "min_width1_c": (
            "min", _where(lambda r: r["w"] == 1, "c = sp/(n+1)")),
        "width3_rows": ("count", _where(lambda r: r["w"] == 3)),
    },
    gates=[
        Gate("speedups_near_1_or_more", "min_speedup", ">=", 0.9),
        Gate("procs_le_n_plus_1_pow_w", "max_procs_over_n_pow_w", "<=",
             1.0),
        Gate("procs_grow_with_width", "min_procs_step", ">=", 2.0),
        Gate("wider_is_faster", "min_speedup_step", ">=", 1.0),
        Gate("width1_c_above_0_2", "min_width1_c", ">=", 0.25),
        Gate("widths_1_to_3_per_family", "width3_rows", ">=", 3.0,
             full_only=True),
    ],
    bands={"*_speedup": SPEEDUP},
)

_spec(
    "e17", "extension", "Tarsi - SOLVE cost vs exact expectation",
    e17_solve_expectation,
    Expectation(
        "Context (Tarsi 1983, cited for the baseline's optimality): in "
        "the i.i.d. model the left-to-right algorithm's expected cost "
        "follows a known conditional recurrence.",
        "Measured means match the exact expectation within sampling "
        "error for d = 2, 3 at the level-invariant bias — the "
        "sequential baseline behaves exactly as the optimality theory "
        "assumes.",
    ),
    quick={"configs": ((2, (8, 10)), (3, (5,))), "trials": 10},
    metrics={
        "min_ratio": ("min", "ratio"),
        "max_ratio": ("max", "ratio"),
    },
    gates=[
        Gate("matches_theory_low", "min_ratio", ">=", 0.8),
        Gate("matches_theory_high", "max_ratio", "<=", 1.2),
    ],
    bands={"*_ratio": FLOAT},
)

_spec(
    "e18", "extension", "Pearl - alpha-beta branching factor",
    e18_pearl_branching_factor,
    Expectation(
        "Context (Pearl 1982, cited in Section 6): alpha-beta's "
        "branching factor on continuous i.i.d. MIN/MAX trees is "
        "xi_d/(1 - xi_d), strictly between sqrt(d) and d.",
        "Measured per-level growth of the alpha-beta leaf count sits "
        "between sqrt(d) and d and within ~25% of Pearl's asymptotic "
        "constant (finite heights bias it slightly high).",
    ),
    quick={"configs": ((2, (6, 8, 10)), (3, (4, 6))), "trials": 6},
    metrics={
        "min_growth_over_floor": ("ratio_min", "measured ab growth",
                                  "floor sqrt(d)"),
        "max_growth_over_d": ("ratio_max", "measured ab growth",
                              "minimax growth d"),
        "min_growth_over_pearl": ("ratio_min", "measured ab growth",
                                  "pearl xi/(1-xi)"),
        "max_growth_over_pearl": ("ratio_max", "measured ab growth",
                                  "pearl xi/(1-xi)"),
    },
    gates=[
        Gate("growth_above_sqrt_d", "min_growth_over_floor", ">=",
             1.05),
        Gate("growth_below_d", "max_growth_over_d", "<=", 0.95),
        Gate("near_pearl_low", "min_growth_over_pearl", ">=", 0.75),
        Gate("near_pearl_high", "max_growth_over_pearl", "<=", 1.25),
    ],
    bands={"m*_growth_*": FLOAT},
)

_spec(
    "e19", "extension", "Sequential baselines - SSS* dominance",
    e19_sequential_baselines,
    Expectation(
        "Context (Vornberger 1987, reference [11]; Pearl's SCOUT, "
        "reference [7]): the sequential comparators alpha-beta, SCOUT "
        "and SSS* at the leaf-count level.",
        "SSS* never evaluates more leaves than alpha-beta (Stockman "
        "dominance, exact on every instance); SCOUT's distinct-leaf "
        "count matches alpha-beta's ballpark but it re-visits leaves; "
        "minimax reads everything.",
    ),
    quick={"heights": (6, 8), "trials": 4},
    metrics={
        "min_sss_le_ab": ("min", "sss* <= ab"),
        "total_ab_leaves": ("sum", "alpha-beta"),
        "total_minimax_leaves": ("sum", "minimax"),
        "max_sss_over_ab": ("ratio_max", "sss*", "alpha-beta"),
        "max_ab_over_minimax": ("ratio_max", "alpha-beta", "minimax"),
        "max_scout_distinct_over_minimax": (
            "ratio_max", "scout distinct", "minimax"),
        "min_scout_events_over_distinct": (
            "ratio_min", "scout events", "scout distinct"),
        "min_minimax_over_2_pow_n": (
            "min", lambda r: r["minimax"] / 2 ** r["n"]),
        "max_minimax_over_2_pow_n": (
            "max", lambda r: r["minimax"] / 2 ** r["n"]),
    },
    gates=[
        Gate("sss_dominance", "min_sss_le_ab", ">=", 1.0),
        Gate("sss_le_ab", "max_sss_over_ab", "<=", 1.0),
        Gate("ab_le_minimax", "max_ab_over_minimax", "<=", 1.0),
        Gate("scout_distinct_le_minimax",
             "max_scout_distinct_over_minimax", "<=", 1.0),
        Gate("scout_revisits", "min_scout_events_over_distinct", ">=",
             1.0),
        Gate("minimax_reads_all_low", "min_minimax_over_2_pow_n", ">=",
             1.0),
        Gate("minimax_reads_all_high", "max_minimax_over_2_pow_n",
             "<=", 1.0),
    ],
)

#: e20's matched-processor arms, team first in each height's rows.
_E20_ARMS = {"team@n+1": 1, "parallel w=1": -1}

_spec(
    "e20", "extension", "Ablations - matched procs; scheduling",
    e20_ablations,
    Expectation(
        "Ablations of our design choices (not paper claims).",
        "At matched processor budgets Team SOLVE is competitive on "
        "i.i.d. averages — the width policy's value is the "
        "every-instance guarantee (cf. E02's sqrt(p) cap). The "
        "Section 7 machine's critical-cascade-first scheduling is "
        "~3-4x faster than sibling-first, validating the default.",
    ),
    quick={"heights": (10,), "trials": 3, "machine_heights": (10,),
           "budgets": (2, 4)},
    metrics={
        "min_speedup": ("min", "speed-up"),
        "max_speedup": ("max", "speed-up"),
        "team_rows": ("count", _where(
            lambda r: r["ablation"] == "team@n+1")),
        "arm_balance": ("sum", lambda r: _E20_ARMS.get(r["ablation"])),
        "min_arm_speedup": ("min", _where(
            lambda r: r["ablation"] in _E20_ARMS, "speed-up")),
        "min_parallel_over_team": ("span_min", _where(
            lambda r: r["ablation"] in _E20_ARMS, "speed-up"), "n"),
        "max_parallel_over_team": ("span_max", _where(
            lambda r: r["ablation"] in _E20_ARMS, "speed-up"), "n"),
        "min_s_first_over_p_first": ("span_min", _where(
            lambda r: r["ablation"] == "machine priority",
            "steps/ticks"), "n"),
    },
    gates=[
        Gate("speedups_positive", "min_speedup", ">=", 0.1),
        Gate("arms_at_3_heights", "team_rows", ">=", 3.0,
             full_only=True),
        Gate("arms_matched_low", "arm_balance", ">=", 0.0),
        Gate("arms_matched_high", "arm_balance", "<=", 0.0),
        Gate("arms_beat_sequential", "min_arm_speedup", ">=", 1.5),
        Gate("arms_within_2_5x_low", "min_parallel_over_team", ">=",
             0.4),
        Gate("arms_within_2_5x_high", "max_parallel_over_team", "<=",
             2.0),
        Gate("p_first_beats_s_first", "min_s_first_over_p_first", ">=",
             1.5),
    ],
    bands={"*_speedup": SPEEDUP},
)

_spec(
    "e21", "open_problem", "Section 8 open problem - higher widths",
    e21_width_open_problem,
    Expectation(
        "Section 8 open problem: the authors believe the speed-up "
        "stays linear in the processors for any fixed width, but the "
        "width-1 counting argument does not generalise.",
        "Measured evidence, no claim asserted: speed-up keeps rising "
        "with width and the per-processor constant stays positive; a "
        "naive generalisation of the Prop 3 binomial bound is "
        "VIOLATED on some instances — concrete confirmation that "
        "'the counting argument that works for width 1 is no longer "
        "applicable', as the paper says.",
    ),
    quick={"iid_heights": (12,), "worst_height": 10,
           "widths": (1, 2)},
    metrics={
        "min_speedup": ("min", "speed-up"),
        "min_efficiency": ("min", "sp/procs"),
        "min_hist_within_candidate": ("min", "hist<=cand"),
        "min_speedup_step": ("step_min", "speed-up", "family", "d",
                             "n"),
    },
    gates=[
        Gate("speedup_ge_1", "min_speedup", ">=", 1.0),
        Gate("wider_is_faster", "min_speedup_step", ">=", 1.0),
        Gate("efficiency_positive", "min_efficiency", ">=", 0.05),
        Gate("candidate_bound_violated", "min_hist_within_candidate",
             "<=", 0.0),
    ],
    bands={"min_speedup": SPEEDUP, "min_efficiency": FLOAT},
)

_spec(
    "e22", "scale", "Theorem 1 at scale - constant c holds",
    e22_theorem1_at_scale,
    Expectation(
        "Theorem 1 again, asymptotically: the constant c is defined "
        "for n beyond an instance-family threshold n0, so it should "
        "hold steady as instances grow without bound.",
        "Using the vectorised fast path for S(T), the measured "
        "c = speed-up/(n+1) stays in a narrow band (~0.33-0.36) from "
        "4k-leaf to 4M-leaf instances — no drift toward zero, i.e. "
        "genuine linear-in-(n+1) speed-up, not a small-n artefact.",
    ),
    quick={"height_trials": ((12, 2), (14, 2), (16, 1))},
    metrics={
        "min_c": ("min", "c = sp/(n+1)"),
        "max_c": ("max", "c = sp/(n+1)"),
        "max_procs": ("max", "procs"),
        "max_procs_minus_n": ("max", _procs_minus_n),
        "min_speedup_step": ("step_min", "speed-up"),
        "c_span": ("span_min", "c = sp/(n+1)"),
    },
    gates=[
        Gate("c_stays_positive", "min_c", ">=", 0.25),
        Gate("procs_le_n_plus_1", "max_procs_minus_n", "<=", 1.0),
        Gate("speedup_grows_with_n", "min_speedup_step", ">=", 1.0),
        Gate("c_does_not_collapse", "c_span", ">=", 0.8),
    ],
    bands={"m*_c": FLOAT},
)
