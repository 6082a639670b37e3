"""Evaluation requests, responses and their wire forms.

A request names a tree, an algorithm and its parameters; a response
carries the deterministic outcome (root value, model steps, total
work).  Everything timing- or placement-dependent (which shard ran
it, whether the cache hit, wall-clock) is *excluded* from the
response by construction — that is the determinism contract: the
response log for a request stream is a pure function of the stream,
regardless of shard count, cache size or fault history.

Requests serialise to JSONL (one request per line) so streams can be
checked in, replayed and diffed; trees travel as the
representation-tagged dicts of :mod:`repro.trees.io`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..errors import InvalidRequestError
from ..trees.canonical import canonical_hash
from ..trees.explicit import ExplicitTree
from ..trees.io import tree_from_dict, tree_to_dict
from ..trees.uniform import UniformTree
from .engines import check_request

__all__ = [
    "EvalRequest",
    "EvalResponse",
    "request_key",
    "shard_of",
    "request_to_dict",
    "request_from_dict",
    "load_requests",
    "save_requests",
    "response_record",
    "response_log",
]

#: Concrete tree types a request may carry (lazy trees must be
#: materialised before they can be shipped or hashed into a key).
ConcreteTree = Union[UniformTree, ExplicitTree]


@dataclass(frozen=True)
class EvalRequest:
    """One unit of work for the batch-evaluation service.

    Checked against the engine table when built.
    """

    request_id: int
    algo: str
    tree: ConcreteTree
    #: algorithm parameters (width, processors, ...), order-free.
    params: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        check_request(self.algo, self.tree, dict(self.params))

    @classmethod
    def make(
        cls,
        request_id: int,
        algo: str,
        tree: ConcreteTree,
        **params: int,
    ) -> "EvalRequest":
        """Build a request from keyword parameters (sorted for keys)."""
        return cls(request_id, algo, tree, tuple(sorted(params.items())))

    def params_dict(self) -> Dict[str, int]:
        return dict(self.params)


@dataclass(frozen=True)
class EvalResponse:
    """Deterministic outcome of one request.

    ``value``/``steps``/``work`` depend only on the request content;
    ``key`` is the canonical cache key so equal requests are visibly
    equal in the log.
    """

    request_id: int
    key: str
    algo: str
    value: float
    steps: int
    work: int


def request_key(req: EvalRequest) -> str:
    """Canonical-form cache key: content hash of tree + algo + params.

    Two requests with semantically equal trees (any representation),
    the same algorithm and the same parameters collide on purpose —
    that collision *is* the cache's deduplication.
    """
    tag = json.dumps(
        {"algo": req.algo, "params": list(req.params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    blob = f"{canonical_hash(req.tree)}:{tag}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def shard_of(key: str, num_shards: int) -> int:
    """Stable shard assignment from a canonical key."""
    return int(key[:16], 16) % num_shards


# ---------------------------------------------------------------------------
# wire forms
# ---------------------------------------------------------------------------
def request_to_dict(req: EvalRequest) -> Dict[str, Any]:
    return {
        "id": req.request_id,
        "algo": req.algo,
        "params": dict(req.params),
        "tree": tree_to_dict(req.tree),
    }


def request_from_dict(data: Dict[str, Any]) -> EvalRequest:
    """Inverse of :func:`request_to_dict`; parameter values are taken
    as they are, so anything but a JSON integer is rejected."""
    return EvalRequest(
        request_id=int(data["id"]),
        algo=str(data["algo"]),
        tree=tree_from_dict(data["tree"]),
        params=tuple(sorted(
            (str(k), v) for k, v in data.get("params", {}).items()
        )),
    )


def save_requests(path: str, requests: Sequence[EvalRequest]) -> None:
    """Write a request stream as JSONL (one request per line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for req in requests:
            fh.write(json.dumps(
                request_to_dict(req), sort_keys=True,
                separators=(",", ":"),
            ))
            fh.write("\n")


def load_requests(path: str) -> List[EvalRequest]:
    """Read a JSONL request stream written by :func:`save_requests`.

    A line that is not JSON or not a valid request raises
    :class:`~repro.errors.InvalidRequestError` prefixed ``path:line:``.
    """
    requests: List[EvalRequest] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                requests.append(request_from_dict(json.loads(line)))
            except ValueError as exc:
                raise InvalidRequestError(f"{path}:{lineno}: {exc}") from exc
    return requests


def response_record(resp: EvalResponse) -> str:
    """One compact, sorted-key JSON line for a response."""
    return json.dumps(
        {
            "id": resp.request_id,
            "key": resp.key,
            "algo": resp.algo,
            "value": resp.value,
            "steps": resp.steps,
            "work": resp.work,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def response_log(responses: Sequence[EvalResponse]) -> str:
    """The newline-terminated response log (the determinism artifact)."""
    return "".join(response_record(r) + "\n" for r in responses)

