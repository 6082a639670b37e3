"""Every JSONL trace shares one schema.

``repro trace --format jsonl`` and ``repro chaos --trace-out`` both
funnel through the telemetry exporter, as does a wall-clock recorder
exported with ``telemetry.cli.emit_jsonl_trace``; these tests pin the
resulting schema identity so a divergence in any one path fails
loudly.
"""

import json

from repro.core import parallel_solve
from repro.faults import run_chaos
from repro.telemetry import InMemoryRecorder
from repro.telemetry.cli import emit_jsonl_trace, record_run
from repro.telemetry.export import SCHEMA_VERSION, to_jsonl
from repro.trees.generators import iid_boolean
from repro.trees.generators.iid import level_invariant_bias


def _parse(path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:-1]]
    footer = json.loads(lines[-1])
    return header, records, footer


def _chaos_trace(tmp_path, name="chaos.jsonl"):
    out = tmp_path / name
    rc = run_chaos(
        height=4, num_seeds=1, rates=(0.05,), kinds=("drop",),
        max_faults=16, trace_out=str(out),
    )
    assert rc == 0
    return out


def _wallclock_trace(tmp_path, name="wallclock.jsonl"):
    out = tmp_path / name
    recorder = InMemoryRecorder(wallclock=True)
    tree = iid_boolean(2, 4, level_invariant_bias(2), seed=7)
    parallel_solve(tree, 1, recorder=recorder)
    emit_jsonl_trace(recorder, str(out))
    return out


def test_chaos_trace_out_writes_valid_jsonl(tmp_path, capsys):
    header, records, footer = _parse(_chaos_trace(tmp_path))
    assert header["kind"] == "meta"
    assert header["schema"] == SCHEMA_VERSION
    assert header["events"] == len(records)
    assert footer["kind"] == "metrics"
    # A machine run under faults: level tracks and fault accounting.
    assert any(r["track"].startswith("level-") for r in records)
    assert any(r["name"] == "fault_stats" for r in records)


def test_wallclock_recorder_writes_valid_jsonl(tmp_path):
    path = _wallclock_trace(tmp_path)
    header, records, footer = _parse(path)
    assert header["schema"] == SCHEMA_VERSION
    assert header["events"] == len(records)
    assert footer["kind"] == "metrics"
    assert any(r["track"] == "solve" for r in records)
    # A solve without an oracle reads no clock: opting into wall time
    # leaves the file byte-identical to the logical recorder's.
    logical = InMemoryRecorder()
    parallel_solve(
        iid_boolean(2, 4, level_invariant_bias(2), seed=7), 1,
        recorder=logical,
    )
    assert path.read_text() == to_jsonl(logical)


def test_trace_and_chaos_share_one_schema(tmp_path, capsys):
    chaos_h, chaos_r, chaos_f = _parse(_chaos_trace(tmp_path))
    trace_payload = to_jsonl(
        record_run("machine", branching=2, height=4, seed=0, width=2)
    ).splitlines()
    trace_h = json.loads(trace_payload[0])
    trace_r = [json.loads(line) for line in trace_payload[1:-1]]
    trace_f = json.loads(trace_payload[-1])

    assert set(chaos_h) == set(trace_h)
    assert chaos_h["schema"] == trace_h["schema"]
    assert set(chaos_f) == set(trace_f)

    def key_profile(records):
        # kind -> the set of key-sets seen for that record kind.
        profile = {}
        for r in records:
            profile.setdefault(r["kind"], set()).add(
                frozenset(k for k in r if k != "attrs")
            )
        return profile

    chaos_p = key_profile(chaos_r)
    trace_p = key_profile(trace_r)
    for kind in ("span", "counter"):
        assert chaos_p[kind] == trace_p[kind], kind


def test_chaos_trace_out_is_replay_deterministic(tmp_path, capsys):
    a = _chaos_trace(tmp_path, "a.jsonl")
    b = _chaos_trace(tmp_path, "b.jsonl")
    assert a.read_bytes() == b.read_bytes()
