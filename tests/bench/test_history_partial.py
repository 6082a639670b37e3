"""A partial benchmark run stays out of the BENCH trajectory.

``repro bench --spec``/``--suite`` without ``--out`` writes no snapshot,
and ``repro report`` reads gate verdicts only from a snapshot that
covers every registered spec, so a stray partial file in the history
directory cannot change EXPERIMENTS.md.
"""

import shutil

import pytest

from repro.__main__ import main
from repro.bench import snapshot
from repro.bench.registry import list_specs
from repro.bench.report import generate_experiments_md
from repro.bench.snapshot import (
    latest_complete_snapshot_path,
    latest_snapshot_path,
    load_snapshot,
    write_snapshot,
)
from repro.errors import WorkloadError


@pytest.fixture()
def history(tmp_path, monkeypatch):
    """A temporary history directory holding a copy of the newest
    committed snapshot."""
    committed = latest_snapshot_path()
    directory = tmp_path / "history"
    directory.mkdir()
    shutil.copy(committed, directory / "BENCH_2026-01-01.json")
    monkeypatch.setattr(snapshot, "history_dir", lambda: str(directory))
    return directory


def _partial(directory, date="2026-01-02"):
    doc = load_snapshot(str(directory / "BENCH_2026-01-01.json"))
    doc["specs"] = {"e06": doc["specs"]["e06"]}
    return write_snapshot(doc, str(directory / f"BENCH_{date}.json"))


class TestPartialRunWrites:
    def test_spec_run_without_out_leaves_history_alone(
        self, history, capsys
    ):
        before = sorted(p.name for p in history.iterdir())
        assert main(["bench", "--spec", "e06", "--quick"]) == 0
        assert "no snapshot written" in capsys.readouterr().out
        assert sorted(p.name for p in history.iterdir()) == before

    def test_spec_run_with_out_into_history_writes_there(self, history):
        out = history / "BENCH_2026-01-03.json"
        assert main([
            "bench", "--spec", "e06", "--quick", "--out", str(out),
            "--date", "2026-01-03",
        ]) == 0
        assert sorted(load_snapshot(str(out))["specs"]) == ["e06"]


class TestReportReadsCompleteSnapshots:
    def test_newest_complete_snapshot_skips_a_partial_one(self, history):
        complete = str(history / "BENCH_2026-01-01.json")
        partial = _partial(history)
        assert latest_snapshot_path() == partial
        assert latest_complete_snapshot_path(list_specs()) == complete

    def test_stray_partial_snapshot_does_not_change_the_report(
        self, history, tmp_path
    ):
        clean = generate_experiments_md(out_path=str(tmp_path / "a.md"))
        _partial(history)
        stray = generate_experiments_md(out_path=str(tmp_path / "b.md"))
        assert stray == clean

    def test_no_complete_snapshot_is_an_error(self, history, tmp_path):
        _partial(history)
        (history / "BENCH_2026-01-01.json").unlink()
        with pytest.raises(WorkloadError, match="covers every"):
            generate_experiments_md(out_path=str(tmp_path / "c.md"))
