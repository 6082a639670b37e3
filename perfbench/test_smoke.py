"""Smoke test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced through the real
command.  The test checks that every metric BENCHMARK.json names is
emitted, finite and in its unit; that the traced run's Chrome trace is
valid; that solve-shm leaves no shared-memory segment behind; and that
the command refuses to run without the library.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.telemetry import validate_chrome_trace  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SHM = Path("/dev/shm")


def _run(workload: str, trace: int, out: Path, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0.5",
            "--trace", str(trace), "--tiny", "--out", str(out),
        ],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def _segments() -> set:
    return {p.name for p in SHM.iterdir() if p.name.startswith("repro_")}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace, tmp_path):
    before = _segments() if SHM.is_dir() else set()
    proc = _run(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(emitted["value"]), metric["name"]
    stem = tmp_path / f"{workload}-seed7-trace{trace}"
    record = json.loads(stem.with_suffix(".json").read_text("utf-8"))
    assert {"cpu_count", "cpu_model", "python", "numpy", "platform",
            "git_commit", "seed"} <= set(record["fingerprint"])
    if trace:
        chrome = json.loads(
            Path(f"{stem}.chrome.json").read_text("utf-8")
        )
        assert validate_chrome_trace(chrome) == []
        assert chrome["traceEvents"]
    # The resource tracker unlinks a leaked segment at exit and says so.
    assert "leaked shared_memory" not in proc.stderr
    if SHM.is_dir():
        assert _segments() <= before, "shared-memory segments left behind"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(WORKLOADS[0], 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
