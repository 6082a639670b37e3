"""``repro serve`` end-to-end: logs, traces, chaos, round-trips."""

import json
import re

import pytest

from repro.__main__ import main
from repro.telemetry.export import SCHEMA_VERSION


def _parse_trace(path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:-1]]
    footer = json.loads(lines[-1])
    return header, records, footer


def test_serve_writes_log_and_valid_trace(tmp_path, capsys):
    log = tmp_path / "responses.jsonl"
    trace = tmp_path / "trace.jsonl"
    rc = main([
        "serve", "--num-requests", "30", "--height", "3",
        "--shards", "2", "--verify",
        "--log-out", str(log), "--trace-out", str(trace),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "served 30 request(s)" in out
    assert "verify: all 30 response(s) correct" in out

    lines = log.read_text().splitlines()
    assert len(lines) == 30
    for line in lines:
        record = json.loads(line)
        assert set(record) == {
            "id", "key", "algo", "value", "steps", "work"
        }

    header, records, footer = _parse_trace(trace)
    assert header["kind"] == "meta"
    assert header["schema"] == SCHEMA_VERSION
    assert header["events"] == len(records)
    assert footer["kind"] == "metrics"
    assert footer["counters"]["serve.responses"] == 30
    assert any(
        r["kind"] == "counter" and r["name"] == "serve.queue_depth"
        for r in records
    )


def test_serve_log_identical_across_shard_counts(tmp_path, capsys):
    logs = []
    for shards, cache in (("1", "inf"), ("2", "64"), ("4", "0")):
        out = tmp_path / f"log-{shards}-{cache}.jsonl"
        rc = main([
            "serve", "--num-requests", "25", "--height", "3",
            "--shards", shards, "--cache-size", cache,
            "--log-out", str(out),
        ])
        assert rc == 0
        logs.append(out.read_bytes())
    assert logs[0] == logs[1] == logs[2]


def test_serve_rounds_let_the_cache_answer(tmp_path, capsys):
    """The stream is served in rounds of the gateway's batch size, so
    a small cache answers repeats from earlier rounds, and the log is
    the cache-off log byte for byte."""
    logs = {}
    for cache in ("0", "4"):
        out = tmp_path / f"log-{cache}.jsonl"
        rc = main([
            "serve", "--num-requests", "60", "--height", "3",
            "--shards", "2", "--cache-size", cache,
            "--log-out", str(out),
        ])
        assert rc == 0
        report = capsys.readouterr().out
        hits = int(re.search(r"cache hits (\d+)", report).group(1))
        logs[cache] = out.read_bytes()
        if cache == "4":
            assert hits > 0
    assert logs["0"] == logs["4"]


def test_serve_chaos_fails_over_and_verifies(tmp_path, capsys):
    log = tmp_path / "chaos.jsonl"
    clean = tmp_path / "clean.jsonl"
    trace = tmp_path / "chaos-trace.jsonl"
    rc = main([
        "serve", "--num-requests", "30", "--height", "3",
        "--shards", "3", "--chaos", "--verify",
        "--log-out", str(log), "--trace-out", str(trace),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "DEGRADED" in out
    assert "failover re-dispatched" in out

    rc = main([
        "serve", "--num-requests", "30", "--height", "3",
        "--shards", "1", "--log-out", str(clean),
    ])
    assert rc == 0
    assert log.read_bytes() == clean.read_bytes()

    _header, records, _footer = _parse_trace(trace)
    degraded = [
        r for r in records if r["name"] == "serve.shard_degraded"
    ]
    assert len(degraded) == 1
    assert degraded[0]["attrs"]["shard"] == 0


def test_serve_request_stream_round_trip(tmp_path, capsys):
    stream = tmp_path / "stream.jsonl"
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    rc = main([
        "serve", "--num-requests", "20", "--height", "3",
        "--save-requests", str(stream), "--log-out", str(first),
    ])
    assert rc == 0
    rc = main([
        "serve", "--requests", str(stream),
        "--shards", "2", "--log-out", str(second),
    ])
    assert rc == 0
    assert first.read_bytes() == second.read_bytes()


def test_serve_rejects_bad_chaos_shard(capsys):
    rc = main([
        "serve", "--num-requests", "5", "--height", "2",
        "--shards", "2", "--chaos", "--chaos-shard", "5",
    ])
    assert rc == 2
    assert "--chaos-shard" in capsys.readouterr().err


def test_serve_rejects_negative_cache_size(capsys):
    with pytest.raises(ValueError):
        main([
            "serve", "--num-requests", "5", "--cache-size", "-3",
        ])
