"""Unit tests for the benchmark harness."""

import os

import pytest

from repro.bench import ExperimentTable
from repro.bench.registry import get_spec, list_specs
from repro.errors import WorkloadError


class TestExperimentTable:
    def test_add_row_and_column(self):
        t = ExperimentTable("x", "demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row(3, 4.0)
        assert t.column("a") == [1, 3]
        assert t.column("b") == [2.5, 4.0]

    def test_row_arity_checked(self):
        t = ExperimentTable("x", "demo", ["a", "b"])
        with pytest.raises(WorkloadError):
            t.add_row(1)

    def test_render_contains_everything(self):
        t = ExperimentTable("x", "demo title", ["col"])
        t.add_row(42)
        t.add_note("a note")
        out = t.render()
        assert "demo title" in out
        assert "42" in out
        assert "note: a note" in out

    def test_save_funnels_into_table_store(self, tmp_path):
        from repro.bench.snapshot import load_table_entry, table_store_path

        t = ExperimentTable("xsave", "demo", ["col"])
        t.add_row(7)
        path = t.save(directory=str(tmp_path))
        assert path == table_store_path(str(tmp_path))
        assert os.path.exists(path)
        entry = load_table_entry("xsave", str(tmp_path))
        assert "7" in entry["render"]
        assert entry["csv"].splitlines()[0] == "col"
        # A second table lands in the same store file.
        t2 = ExperimentTable("other", "demo2", ["col"])
        t2.add_row(9)
        assert t2.save(directory=str(tmp_path)) == path
        assert load_table_entry("xsave", str(tmp_path)) == entry
        assert "9" in load_table_entry("other", str(tmp_path))["render"]

    def test_to_csv(self):
        t = ExperimentTable("x", "demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_row(3, 4.0)
        lines = t.to_csv().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert len(lines) == 3

    def test_to_csv_ends_rows_in_newline_only(self):
        t = ExperimentTable("x", "demo", ["a", "b"])
        t.add_row(1, "two, quoted")
        assert t.to_csv() == 'a,b\n1,"two, quoted"\n'
        assert "\r" not in t.to_csv()

    def test_committed_tables_end_rows_in_newline_only(self):
        from repro.bench.snapshot import table_store_path

        path = table_store_path()
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert "\\r" not in text


class TestRegistry:
    """Every paper experiment is one spec whose runner builds its table."""

    def test_all_experiments_registered(self):
        names = list_specs()
        for expected in [f"e{i:02d}" for i in range(1, 23)] + ["e03b"]:
            assert expected in names
            assert get_spec(expected).expectation is not None

    def test_unknown_experiment(self):
        with pytest.raises(WorkloadError):
            get_spec("nope")

    def test_run_small_experiment(self):
        table = get_spec("e06").run().table
        assert table.experiment == "e06"
        assert table.rows

    def test_param_overrides_shrink_the_workload(self):
        spec = get_spec("e04")
        full = spec.runner({"trials": 6}, False).table
        quick = spec.run(profile="quick").table
        assert full.column("trials") == [6, 6, 6]
        assert quick.column("trials") == [10, 10, 10]
