"""Unit tests for the CLI and the EXPERIMENTS.md report generator."""

import os

import pytest

from repro.__main__ import main
from repro.bench.report import (
    EXPECTATIONS,
    generate_experiments_md,
    load_table_text,
)
from repro.bench.wallclock import backend_wallclock_table
from repro.core import policies
from repro.core.alphabeta import engine as alphabeta_engine


class TestCli:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out and "e16" in out and "e21" in out

    def test_demo_runs(self, capsys):
        assert main(["demo", "--height", "6", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Sequential SOLVE" in out
        assert "Section-7 machine" in out
        assert "root value" in out

    def test_run_small_experiment(self, capsys):
        assert main(["run", "e06", "--no-save"]) == 0
        out = capsys.readouterr().out
        assert "Lemmas 1 & 2" in out

    def test_verify_runs(self, capsys):
        assert main(["verify", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "agreed with ground truth" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestBenchCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "e01" in out and "e21b" in out and "e25" in out
        assert "infra" in out

    def test_bench_run_write_and_diff(self, tmp_path, capsys):
        first = str(tmp_path / "BENCH_2026-01-01.json")
        second = str(tmp_path / "BENCH_2026-01-02.json")
        assert main([
            "bench", "--spec", "e06", "--spec", "e04", "--quick",
            "--out", first, "--date", "2026-01-01",
        ]) == 0
        assert main([
            "bench", "--spec", "e06", "--spec", "e04", "--quick",
            "--out", second, "--date", "2026-01-02",
        ]) == 0
        capsys.readouterr()
        assert main(["bench", "--diff", first, second]) == 0
        assert "diff: OK" in capsys.readouterr().out

    def test_bench_diff_catches_doctored_regression(
        self, tmp_path, capsys
    ):
        from repro.bench.snapshot import load_snapshot, write_snapshot

        good = str(tmp_path / "BENCH_2026-01-01.json")
        assert main([
            "bench", "--spec", "e06", "--quick",
            "--out", good, "--date", "2026-01-01",
        ]) == 0
        doc = load_snapshot(good)
        entry = doc["specs"]["e06"]
        metric = next(iter(entry["metrics"]))
        entry["metrics"][metric] += 1000.0
        bad = str(tmp_path / "BENCH_2026-01-02.json")
        write_snapshot(doc, bad)
        capsys.readouterr()
        assert main(["bench", "--diff", good, bad]) == 1
        assert "diff: FAILED" in capsys.readouterr().out

    def test_bench_unknown_spec_fails(self, capsys):
        assert main(["bench", "--spec", "e99"]) != 0


class TestReport:
    def test_expectations_cover_all_experiments(self):
        names = {e.experiment for e in EXPECTATIONS}
        for i in range(1, 23):
            assert f"e{i:02d}" in names

    def test_load_missing_table(self, tmp_path):
        text = load_table_text("e01", directory=str(tmp_path))
        assert "no saved results" in text

    def test_generate_report(self, tmp_path):
        from repro.bench.snapshot import save_table_entry

        results = tmp_path / "results"
        results.mkdir()
        save_table_entry(
            "e01", "[e01] demo table\n1 2 3", "a,b\n1,2\n",
            directory=str(results),
        )
        out = tmp_path / "EXPERIMENTS.md"
        text = generate_experiments_md(
            results_dir=str(results), out_path=str(out)
        )
        assert os.path.exists(out)
        assert "[e01] demo table" in text
        assert "Paper claim" in text
        # Every experiment section is present even without results.
        assert text.count("## E") == len(EXPECTATIONS)


class TestBackendWallclockTable:
    def test_two_way_and_single_backend_tables(self):
        table = backend_wallclock_table(height=4, widths=(1, 2), repeats=1)
        assert table.columns[-3:] == ("rescan_s", "incremental_s", "speedup")
        assert table.column("procs") == ["-", "-", 2]
        single = backend_wallclock_table(
            height=4, widths=(1, 2), repeats=1, backend="arena"
        )
        assert single.columns[-1] == "arena_s"
        assert single.column("steps") == table.column("steps")

    def test_reordered_batches_are_caught_before_timing(self, monkeypatch):
        # Same leaves per step, so value and degrees still agree; only
        # the batches tell the runs apart.
        original = policies.BoundedWidthPolicy.__call__
        monkeypatch.setattr(
            policies.BoundedWidthPolicy, "__call__",
            lambda self, tree, state: original(self, tree, state)[::-1],
        )
        with pytest.raises(AssertionError, match="rescan diverged"):
            backend_wallclock_table(height=4, widths=(1, 2), repeats=1)

    def test_alpha_beta_table(self):
        table = backend_wallclock_table(
            height=4, widths=(0, 1, 2), repeats=1, alpha_beta=True
        )
        assert table.experiment == "wallclock_backend_alpha_beta"
        assert table.column("width") == [0, 1, 2]
        assert table.column("procs") == ["-", "-", "-"]
        single = backend_wallclock_table(
            height=4, widths=(0, 1, 2), repeats=1, backend="arena",
            alpha_beta=True,
        )
        assert single.experiment == "wallclock_backend_arena_alpha_beta"
        assert single.column("steps") == table.column("steps")

    def test_alpha_beta_reordered_batches_are_caught(self, monkeypatch):
        original = alphabeta_engine.AlphaBetaWidthPolicy.__call__
        monkeypatch.setattr(
            alphabeta_engine.AlphaBetaWidthPolicy, "__call__",
            lambda self, tree, state: original(self, tree, state)[::-1],
        )
        with pytest.raises(AssertionError, match="rescan diverged"):
            backend_wallclock_table(
                height=4, widths=(2,), repeats=1, alpha_beta=True
            )
