"""Bad requests fail where they are built, never inside a shard."""

import dataclasses
import json

import pytest

from repro.__main__ import main
from repro.errors import InvalidRequestError
from repro.serve import (
    EvalRequest,
    ShardedBatchService,
    direct_mismatches,
    load_requests,
    request_key,
    save_requests,
    synthetic_stream,
)
from repro.serve.request import request_from_dict, request_to_dict
from repro.trees.generators import iid_boolean
from repro.types import Gate

TREE = iid_boolean(2, 3, 0.5, seed=4)


def test_poisoned_request_no_longer_degrades_the_service():
    # A width=-1 request used to reach a shard, fail there and take
    # every shard down, for that batch and the next valid one.
    with pytest.raises(InvalidRequestError, match="width"):
        EvalRequest.make(0, "parallel", TREE, width=-1)
    batch = synthetic_stream(24, seed=4, height=3)
    with ShardedBatchService(3) as service:
        first = service.serve(batch)
        second = service.serve(batch)
    assert service.stats.degraded_shards == []
    assert len(first) == len(second) == len(batch)


def test_machine_request_on_a_non_binary_tree_no_longer_degrades():
    # The Section 7 machine runs binary NOR trees only.  A ternary tree
    # used to pass the kind check, fail inside a shard and take every
    # shard down, for that batch and the next valid one.
    with pytest.raises(InvalidRequestError, match="binary NOR"):
        EvalRequest(0, "machine", iid_boolean(3, 3, 0.5, seed=1), ())
    with pytest.raises(InvalidRequestError, match="binary NOR"):
        EvalRequest.make(0, "machine", iid_boolean(2, 3, 0.5, seed=1,
                                                   gates=Gate.AND))
    valid = [
        EvalRequest(0, "machine", TREE, ()),
        EvalRequest(1, "sequential", TREE, ()),
    ]
    with ShardedBatchService(3) as service:
        first = service.serve(valid[:1])
        second = service.serve(valid[1:])
    assert service.stats.degraded_shards == []
    assert list(direct_mismatches(zip(valid, first + second))) == []


@pytest.mark.parametrize("algo,params", [
    ("parallel", {"bogus": 1}),
    ("sequential", {"width": 3}),
    ("team", {"processors": 0}),
])
def test_unknown_or_out_of_range_parameters_are_rejected(algo, params):
    with pytest.raises(InvalidRequestError):
        EvalRequest.make(0, algo, TREE, **params)


def _wire(width):
    data = request_to_dict(EvalRequest.make(3, "parallel", TREE, width=2))
    data["params"] = {"width": width}
    return data


@pytest.mark.parametrize("width", [1.7, 1.0, True, "2", None])
def test_wire_parameters_are_not_cast(width):
    with pytest.raises(InvalidRequestError, match="must be an int"):
        request_from_dict(_wire(width))


def test_wire_round_trip_keeps_valid_parameters():
    req = request_from_dict(_wire(2))
    assert req.params == (("width", 2),)
    again = request_from_dict(request_to_dict(req))
    assert request_key(again) == request_key(req)


def _bad_stream(tmp_path, bad_line):
    path = tmp_path / "requests.jsonl"
    save_requests(str(path), synthetic_stream(5, seed=1, height=3))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    return str(path)


@pytest.mark.parametrize("bad_line", [
    json.dumps(_wire(-1)),
    json.dumps(_wire(1.7)),
    "{not json",
])
def test_load_requests_names_the_bad_line(tmp_path, bad_line):
    path = _bad_stream(tmp_path, bad_line)
    with pytest.raises(InvalidRequestError, match=f"^{path}:6: "):
        load_requests(path)


def test_serve_cli_reports_a_bad_request_file(tmp_path, capsys):
    path = _bad_stream(tmp_path, json.dumps(_wire(-1)))
    assert main(["serve", "--requests", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"serve: {path}:6: parallel: parameter 'width'")
    assert "Traceback" not in err


def test_direct_mismatches_flags_only_wrong_answers():
    batch = synthetic_stream(20, seed=3, height=3)
    with ShardedBatchService(2) as service:
        responses = service.serve(batch)
    assert list(direct_mismatches(zip(batch, responses))) == []
    tampered = list(responses)
    tampered[4] = dataclasses.replace(responses[4], steps=-1)
    tampered[7] = dataclasses.replace(responses[7], key="0" * 64)
    found = list(direct_mismatches(zip(batch, tampered)))
    assert [(req.request_id, served) for req, served, _ in found] == [
        (4, tampered[4]), (7, tampered[7]),
    ]
    for req, served, direct in found:
        resp = responses[req.request_id]
        assert direct == (resp.value, resp.steps, resp.work)
