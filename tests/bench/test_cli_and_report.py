"""Unit tests for the CLI and the EXPERIMENTS.md report generator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench.registry import select_specs
from repro.bench.report import generate_experiments_md, load_table_text


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

    def test_run_refuses_a_spec_without_a_table(self, capsys):
        from repro.bench.registry import (
            BenchSpec,
            SpecResult,
            register_spec,
            temporary_registry,
        )

        with temporary_registry():
            register_spec(BenchSpec(
                name="x1", suite="infra", title="no table", seed=0,
                runner=lambda params, wallclock: SpecResult(
                    metrics={"m": 1.0}
                ),
            ))
            assert main(["run", "x1"]) == 2
        assert "builds no table" in capsys.readouterr().err

    def test_verify_runs(self, capsys):
        assert main(["verify", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "agreed with ground truth" in out

    def test_verify_reports_a_wrong_engine(self, capsys, monkeypatch):
        # An explicit check, not an assert: ``python -O`` must still
        # fail a broken engine.
        import repro.core
        from repro.trees import exact_value

        class Wrong:
            def __init__(self, tree):
                self.value = 1 - exact_value(tree)

        monkeypatch.setattr(
            repro.core, "team_solve", lambda tree, p: Wrong(tree)
        )
        assert main(["verify", "--trials", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL — team_solve(p=4)" in out
        assert "trial 0" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_closed_stdout_exits_without_a_traceback(self):
        # Stdout is a pipe whose reader is already gone, as when
        # `repro list | head` stops reading.
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "list"],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


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

    def test_bench_wallclock_alone_has_nothing_to_do(self, capsys):
        assert main(["bench", "--wallclock"]) == 2
        assert "nothing to do" in capsys.readouterr().err


#: The specs EXPERIMENTS.md reports, one section each.
REPORTED = [spec for spec in select_specs() if spec.expectation]


class TestReport:
    def test_expectations_cover_all_experiments(self):
        names = {spec.name for spec in REPORTED}
        for i in range(1, 23):
            assert f"e{i:02d}" in names
        assert "e03b" in names

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
        assert text.count("## E") == len(REPORTED)

    def test_committed_report_is_regenerated_byte_for_byte(self, tmp_path):
        # Prose, gates and tables live in the specs, the committed
        # snapshot and the table store; EXPERIMENTS.md must not drift.
        out = tmp_path / "EXPERIMENTS.md"
        text = generate_experiments_md(out_path=str(out))
        repo = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        with open(os.path.join(repo, "EXPERIMENTS.md"), "rb") as fh:
            assert fh.read() == text.encode()

    def test_gates_listed_with_snapshot_verdicts(self, tmp_path):
        text = generate_experiments_md(
            results_dir=str(tmp_path), out_path=str(tmp_path / "E.md")
        )
        section = text.split("## E08\n")[1].split("## E09\n")[0]
        assert "| theorem2_no_violations | total_violations | <= | 0 " \
            "| pass |" in section
        # Full-only gates read as skipped in the quick snapshot.
        assert "| over_100_steps_checked | total_checked | >= | 101 " \
            "| skipped |" in section
        for spec in REPORTED:
            for gate in spec.gates:
                assert f"| {gate.name} | {gate.metric} |" in text
