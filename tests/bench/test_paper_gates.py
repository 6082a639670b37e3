"""The paper specs' gates: one statement of each experiment's shape.

The committed full-profile tables (``benchmarks/results/tables.json``,
the tables EXPERIMENTS.md quotes) pass every gate; a quick run passes
every gate it can check and skips exactly the ``full_only`` ones; and
every gate that replaced a bench-file assertion, or was tightened to
one, is live: a doctored copy of its full table fails exactly that
gate.
"""

import csv
import io

import pytest

from repro.bench.harness import ExperimentTable
from repro.bench.registry import SpecResult, get_spec, select_specs
from repro.bench.runner import failed_gates, run_benchmarks, spec_entry
from repro.bench.snapshot import load_table_entry
from repro.bench.specs.tables import extract_metrics
from repro.errors import WorkloadError

PAPER = [spec.name for spec in select_specs() if spec.expectation]


def _cell(text):
    """A CSV cell as the bool, int, float or str it was written from."""
    if text in ("True", "False"):
        return text == "True"
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


def committed_table(name):
    """The committed full-profile table, rebuilt from its CSV and notes."""
    entry = load_table_entry(name)
    header, *rows = csv.reader(io.StringIO(entry["csv"]))
    notes = [
        line[len("note: "):] for line in entry["render"].splitlines()
        if line.startswith("note: ")
    ]
    return ExperimentTable(
        name, "", header, [tuple(map(_cell, row)) for row in rows], notes
    )


def failed(name, table, profile="full"):
    spec = get_spec(name)
    result = SpecResult(metrics=extract_metrics(table, spec.extractors))
    entry = spec_entry(spec, result, profile)
    return failed_gates({"specs": {name: entry}})


def test_paper_specs_are_the_experiments():
    assert PAPER == sorted(
        [f"e{i:02d}" for i in range(1, 23)] + ["e03b"]
    )


@pytest.mark.parametrize("name", PAPER)
def test_committed_full_tables_pass_every_gate(name):
    assert failed(name, committed_table(name)) == []


def test_quick_run_checks_all_but_the_full_only_gates():
    doc = run_benchmarks(PAPER, profile="quick", progress=io.StringIO())
    assert failed_gates(doc) == []
    for name in PAPER:
        for gate in get_spec(name).gates:
            entry = doc["specs"][name]["gates"][gate.name]
            assert entry["skipped"] is gate.full_only, (name, gate.name)


def _set(row, column, value):
    def doctor(table):
        cells = list(table.rows[row])
        cells[list(table.columns).index(column)] = value
        table.rows[row] = tuple(cells)

    return doctor


def _drop(*rows):
    def doctor(table):
        for row in sorted(rows, reverse=True):
            del table.rows[row]

    return doctor


def _append(*cells):
    return lambda table: table.rows.append(cells)


def _note(index, old, new):
    def doctor(table):
        table.notes[index] = table.notes[index].replace(old, new)

    return doctor


def _all(*doctors):
    def doctor(table):
        for each in doctors:
            each(table)

    return doctor


#: "spec:gate" -> how to break the committed full table so that this
#: gate, and only it, fails.
MUTATIONS = {
    "e01:fact1_forced1_above_bound": _set(0, "S forced-1", 7),
    "e01:proof_tree_lower": _set(0, "proof leaves", 7),
    "e01:proof_tree_upper": _set(0, "proof leaves", 9),
    "e02:more_procs_never_slower": _set(2, "hard speed-up", 0.9),
    "e02:far_below_linear": _set(8, "hard speed-up", 64.0),
    "e03:procs_le_n_plus_1": _set(0, "procs", 10),
    "e03:speedup_grows_with_n": _set(1, "speed-up", 3.0),
    "e03:c_bounded_away_from_0": _set(0, "c = sp/(n+1)", 0.1),
    "e03b:speedup_grows_with_n": _set(1, "speed-up", 4.0),
    "e05:histogram_le_bound": _set(1, "max t_{k+1}", 13),
    "e05:codes_lex_decreasing": _note(0, "True", "False"),
    "e05:degree_encodes_code": _note(1, "True", "False"),
    "e06:k2_ge_k1": _set(0, "k2", 1),
    "e06:k2_fraction_holds": _set(4, "k2/n", 0.07),
    "e07:speedup_grows_with_n": _set(4, "speed-up", 4.5),
    "e07:last_speedup_above_3": _all(
        _set(0, "speed-up", 2.0), _set(4, "speed-up", 3.0)
    ),
    "e08:over_100_steps_checked": _all(
        *(_set(row, "steps checked", 25) for row in range(4))
    ),
    "e10:prop5_violation_bounded": _set(0, "prop5 max ratio", 1.95),
    "e10:procs_le_n_plus_1": _set(0, "procs", 8),
    "e10:speedup_grows_with_n": _set(3, "speed-up", 3.0),
    "e10:speedups_above_2": _set(0, "speed-up", 2.4),
    "e11:procs_le_n_plus_1": _set(0, "procs", 10),
    "e11:speedup_grows_with_n": _set(1, "speed-up", 3.0),
    "e12:ratio_grows_with_n": _set(1, "ratio", 3.7),
    "e12:last_ratio_above_3": _all(
        _set(0, "ratio", 3.0), _set(1, "ratio", 3.2),
        _set(2, "ratio", 3.4),
    ),
    "e12:det_expands_every_leaf": _set(0, "det S*", 255),
    "e13:ratio_grows_with_n": _set(2, "ratio", 3.0),
    "e13:max_ratio_above_2": _all(*(
        _set(row, "ratio", ratio)
        for row, ratio in enumerate((2.0, 2.2, 2.4, 2.0, 2.3))
    )),
    "e14:widths_0_to_3_at_each_height": _drop(11),
    "e14:no_other_widths": _append(
        14, 4, 6, 836.167, 10.0, 40.0, 1000, 0.04
    ),
    "e14:wider_is_faster": _set(2, "speed-up", 4.0),
    "e14:efficiency_no_cliff": _set(2, "speed-up/procs", 0.05),
    "e15:full_machine_within_4x": _set(0, "ticks/P*", 3.6),
    "e15:speedup_grows_with_n": _set(3, "speed-up S*/ticks", 1.4),
    "e15:more_procs_fewer_ticks": _set(6, "ticks", 2000),
    "e16:procs_le_n_plus_1_pow_w": _set(1, "procs", 14),
    "e16:procs_grow_with_width": _set(2, "procs", 20),
    "e16:wider_is_faster": _set(3, "speed-up", 10.0),
    "e16:width1_c_above_0_2": _set(1, "c = sp/(n+1)", 0.2),
    "e16:widths_1_to_3_per_family": _drop(11),
    "e17:matches_theory_high": _set(0, "ratio", 1.22),
    "e18:growth_above_sqrt_d": _set(0, "measured ab growth", 1.45),
    "e18:growth_below_d": _set(0, "measured ab growth", 1.95),
    "e18:near_pearl_low": _set(0, "pearl xi/(1-xi)", 2.3),
    "e18:near_pearl_high": _set(0, "pearl xi/(1-xi)", 1.3),
    "e19:sss_le_ab": _set(0, "sss*", 38.0),
    "e19:ab_le_minimax": _set(0, "alpha-beta", 65.0),
    "e19:scout_distinct_le_minimax": _set(0, "scout distinct", 65.0),
    "e19:scout_revisits": _set(0, "scout events", 30.0),
    "e19:minimax_reads_all_low": _set(0, "minimax", 63.0),
    "e19:minimax_reads_all_high": _set(0, "minimax", 65.0),
    "e20:arms_at_3_heights": _drop(4, 5),
    "e20:arms_matched_low": _append(
        "parallel w=1", 16, "p<=17", 100.0, 5.0
    ),
    "e20:arms_matched_high": _drop(1),
    "e20:arms_beat_sequential": _all(
        _set(0, "speed-up", 1.2), _set(1, "speed-up", 1.2)
    ),
    "e20:arms_within_2_5x_low": _set(1, "speed-up", 2.0),
    "e20:arms_within_2_5x_high": _set(1, "speed-up", 11.0),
    "e20:p_first_beats_s_first": _set(7, "steps/ticks", 200),
    "e21:wider_is_faster": _set(1, "speed-up", 4.0),
    "e21:efficiency_positive": _set(0, "sp/procs", 0.04),
    "e21:candidate_bound_violated": _all(
        *(_set(row, "hist<=cand", True) for row in range(9))
    ),
    "e22:procs_le_n_plus_1": _set(0, "procs", 14),
    "e22:speedup_grows_with_n": _set(1, "speed-up", 4.5),
    "e22:c_does_not_collapse": _set(5, "c = sp/(n+1)", 0.26),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_doctored_table_fails_exactly_its_gate(mutation):
    name = mutation.split(":")[0]
    table = committed_table(name)
    MUTATIONS[mutation](table)
    assert failed(name, table) == [mutation]


def test_full_only_gates_skip_in_quick():
    # The e08 count the quick cases cannot reach is not a quick failure.
    table = committed_table("e08")
    MUTATIONS["e08:over_100_steps_checked"](table)
    assert failed("e08", table, profile="quick") == []


def _table(columns, *rows, notes=()):
    return ExperimentTable("x", "demo", columns, list(rows), list(notes))


class TestExtractorForms:
    TABLE = _table(
        ["g", "n", "v"],
        ("a", 1, 2.0), ("a", 2, 3.0), ("a", 3, 6.0),
        ("b", 1, 4.0), ("b", 2, 2.0), ("c", 1, 9.0),
        notes=["x: True", "y: False"],
    )

    def metric(self, *how):
        return extract_metrics(self.TABLE, {"m": how})["m"]

    def test_step_reads_consecutive_rows_within_groups(self):
        assert self.metric("step_min", "v", "g") == 0.5
        assert self.metric("step_max", "v", "g") == 2.0
        # Without a group, the table is one group.
        assert self.metric("step_max", "v") == 4.5

    def test_span_skips_single_row_groups(self):
        assert self.metric("span_min", "v", "g") == 0.5
        assert self.metric("span_max", "v", "g") == 3.0
        assert self.metric("span_min", "v") == 4.5

    def test_row_function_refs_filter_rows(self):
        only_a = lambda r: r["v"] if r["g"] == "a" else None  # noqa: E731
        assert self.metric("count", only_a) == 3.0
        assert self.metric("max", only_a) == 6.0
        assert self.metric("min", lambda r: r["v"] - r["n"]) == 0.0
        assert self.metric("count") == 6.0

    def test_notes_counts_matching_notes(self):
        assert self.metric("notes", "True") == 1.0
        assert self.metric("notes", "z") == 0.0

    def test_unknown_column_is_an_error(self):
        with pytest.raises(WorkloadError):
            self.metric("max", "nope")
        with pytest.raises(WorkloadError):
            self.metric("step_min", "v", "nope")

    def test_no_group_of_two_rows_is_an_error(self):
        with pytest.raises(WorkloadError):
            self.metric("span_min", lambda r: r["v"] if r["n"] == 1
                        else None, "g")
