"""``request_key`` digests, pinned byte for byte.

The request key is the serve cache's content address and the shard
route: it hashes the tree's canonical hash together with an
``(algo, params)`` tag.  These pins record the key of one Boolean and
one MIN/MAX tree under every algorithm of the engine table, with
default parameters and with each parameter at its minimum, a middle
value and ``10**9``.  A change to how the tag is built must not move a
single digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import ALGORITHMS, EvalRequest, request_key
from repro.trees import UniformTree, canonical_hash
from repro.types import TreeKind

TREES = {
    TreeKind.BOOLEAN: UniformTree(2, 3, [0, 1, 1, 0, 1, 0, 0, 1]),
    TreeKind.MINMAX: UniformTree(
        2, 3, [3.0, -1.5, 2.0, 7.0, 0.0, 4.25, -2.0, 5.0],
        kind=TreeKind.MINMAX,
    ),
}

#: (algo, tree kind, "name=value" or "" for defaults) -> request key.
KEYS = {
    ("alphabeta", "boolean", ""): (
        "4ea0c47bdd556e07c56fcb96cd64ae9dd90b44f2395fb624acf9294819b800ce"
    ),
    ("alphabeta", "minmax", ""): (
        "8f83dd6dc7080b605eb639a5be2aaf09ce5579d7aee17040eb4085a4981fbe47"
    ),
    ("machine", "boolean", ""): (
        "7676eee6afbc136d34524bc6e6b0833f55b03c1aee477583116b7016ae6e9c1d"
    ),
    ("machine", "boolean", "processors=1"): (
        "3b5924165f195a1199bf42df84d76a3fda79805158bb73272638f2f93fd6dc1c"
    ),
    ("machine", "boolean", "processors=7"): (
        "3a40349da74f832516f05ff5d30675e62294c3afc6865ddff9648aa7bdff406c"
    ),
    ("machine", "boolean", "processors=1000000000"): (
        "20df540a31d2086ea1565f05079ad735315c56c32d4a2c9490409a231ba63a63"
    ),
    ("minimax", "boolean", ""): (
        "de284ec1218bf0b478afe2efcfead2619021316c2f3ceeb1834a202fa5a20852"
    ),
    ("minimax", "minmax", ""): (
        "46e6441680323f80d3090d36b91d990b45bf88211e14bb0da121cb8890881f12"
    ),
    ("nparallel", "boolean", ""): (
        "68085a306f68bee06a7a3adeb16513a990bdcaee50764e36a980f237f0b498c9"
    ),
    ("nparallel", "boolean", "width=0"): (
        "0eafad79d242294dcaaccaec2f197188772e4572cfff8a18e2dbbd06d6fad34d"
    ),
    ("nparallel", "boolean", "width=7"): (
        "150f1e8f45b4b641dd9d20851cdc0262f4852a108608dde43790df4fa62a31f0"
    ),
    ("nparallel", "boolean", "width=1000000000"): (
        "a03147a9f702b37f568e181315396be2076db1fb7e84f7862697314bbd48591e"
    ),
    ("nparallel_ab", "boolean", ""): (
        "4f447cbc29a630b528af274d26d9f7b61f855ee66c58ac18ebd51df5049baaa2"
    ),
    ("nparallel_ab", "boolean", "width=0"): (
        "a82ddaaf88c6db266ef147cd60cf0ea2f5cf5b1b1511fc8710359beab37eea2c"
    ),
    ("nparallel_ab", "boolean", "width=7"): (
        "49f587f4dd563ee6a601b13393f286122e52da87e0484f40049699981dd99dca"
    ),
    ("nparallel_ab", "boolean", "width=1000000000"): (
        "842ed877b53c9c1b228a8dc734a694fd8bcd1d6d03cf54eb5594929b407d603c"
    ),
    ("nparallel_ab", "minmax", ""): (
        "045f021e4e9fa974e2f13cf94f315de0e5038e4e1bfc236d11fbb89c095e49d9"
    ),
    ("nparallel_ab", "minmax", "width=0"): (
        "57da03161f8e6ec543abc6b26982f042ff57d78440e1c5d01025b91d9c325b72"
    ),
    ("nparallel_ab", "minmax", "width=7"): (
        "2ab545a97c2471de62f1d36270f107ee26defa2fd33efed6187083cbd76d3594"
    ),
    ("nparallel_ab", "minmax", "width=1000000000"): (
        "84430e295b91256841b9e7eb5c7ab1f1ebeea724f29294f03fa4d0abd0231e96"
    ),
    ("nsequential", "boolean", ""): (
        "443033d7e6836efb8eb0056e8547f6a7e9e2572cf965390007e4e8152e2159d7"
    ),
    ("nsequential_ab", "boolean", ""): (
        "6d2d6dbfd6066c0e540394ad42bc98d4cbcd4773afa5aa1ab564380116d0d94d"
    ),
    ("nsequential_ab", "minmax", ""): (
        "2d20f1a1134e4aca4ac5d77e7cf784af22ebf1bb8964eee2e15cac32a7fef857"
    ),
    ("parallel", "boolean", ""): (
        "1d79f03f31e94f9b95bdd98330ce5d4b6119d5d43283cee16e780b233aa87503"
    ),
    ("parallel", "boolean", "width=0"): (
        "3374a115de7cd3d17b8b9399e654386212d1700c596e5bfc4a24480b0da1983e"
    ),
    ("parallel", "boolean", "width=7"): (
        "5541ab9817b7af98e53d32aa2062b4409a1bd91d28d70162b341c359dea1a83b"
    ),
    ("parallel", "boolean", "width=1000000000"): (
        "2af3a4a02c84e0051819f1b32b3b0f4a3b1a4f8ba9f33e08eb218735fa0a5644"
    ),
    ("parallel_ab", "boolean", ""): (
        "9c2dc85099468a95a623c35df81cd8a2112e02abe8b575fca409aa75255fa578"
    ),
    ("parallel_ab", "boolean", "width=0"): (
        "190821b26a0193370acc6f9270a886a2f53ea02b1dbebce07d49bd0466bfb743"
    ),
    ("parallel_ab", "boolean", "width=7"): (
        "b9aa942b74be1cb2738c96dbe0306d8bde7ff585b8bf6abbf0f80a2608a3b172"
    ),
    ("parallel_ab", "boolean", "width=1000000000"): (
        "a186935e465bac91e9eac3ecbaf48116ba2c81f8fffb53803ad9d9a2c1e4e45d"
    ),
    ("parallel_ab", "minmax", ""): (
        "7bce5f66b8c5eedde3a665c5b0cb3f12ef4699839fa3b61a081604fd070b0d18"
    ),
    ("parallel_ab", "minmax", "width=0"): (
        "dc04cbd8c351754a6d4cffd334ebe555c7999df398da18a908bc3b830a88b4e4"
    ),
    ("parallel_ab", "minmax", "width=7"): (
        "012699d2fda7737cf99396002d0ab2e9c86be478da6ab2762f75da4bd9a50c73"
    ),
    ("parallel_ab", "minmax", "width=1000000000"): (
        "f8c1b4567f8d8d83fa51c1e3d5f19d0f4db97eecf5bcb03418910bf5598e7a00"
    ),
    ("scout", "boolean", ""): (
        "e6a5a2c436febf466b234af6eb47f3ac80129f2914c06e7076d2e2109a7149db"
    ),
    ("scout", "minmax", ""): (
        "88c0219530f6be3cac907e36b60eab95aab3cc3fa0d73af44a02196a97ef2341"
    ),
    ("sequential", "boolean", ""): (
        "607685c7fe8cfd3937718cfb3b8fc0e82c88ac7fc71521b7aa10ad5968e7fcd6"
    ),
    ("sequential_ab", "boolean", ""): (
        "7a55ffb7011a7b0fde920f64171f478a3cfb1a25e3082652b4d7538a9e0fbcca"
    ),
    ("sequential_ab", "minmax", ""): (
        "20f1f40d26daa734880f52af08b3a7525465970b3a34a053c84da380c65be74f"
    ),
    ("sss", "minmax", ""): (
        "2cec674854649d964969ac8f04858acd4f54577f3fa407760eb331cf19bcaedd"
    ),
    ("team", "boolean", ""): (
        "8e572b2a9485b0d24835c286ea53489831b7b4969c06f2c970679aa33667a332"
    ),
    ("team", "boolean", "processors=1"): (
        "a6e1fbb6d3402beb0c61bfc6ee95ba7ce7e4eec5fec1dedb24f100897161ed36"
    ),
    ("team", "boolean", "processors=7"): (
        "d5fd9cf355645d9ebd52d7fc984f766a5dc8b31d9c0c4d15f6f69968823b9ac8"
    ),
    ("team", "boolean", "processors=1000000000"): (
        "e7972ff03bd80fb1d666bd97d6132a8683fc8e948847297fdb611f67aeacdc3f"
    ),
}


def _request(algo, kind, label):
    params = {}
    if label:
        name, value = label.split("=")
        params[name] = int(value)
    return EvalRequest.make(0, algo, TREES[TreeKind(kind)], **params)


@pytest.mark.parametrize("case", sorted(KEYS), ids="-".join)
def test_request_key_is_pinned(case):
    assert request_key(_request(*case)) == KEYS[case]


def test_every_algorithm_and_parameter_is_pinned():
    pinned = {(algo, kind) for algo, kind, _label in KEYS}
    for algo, spec in ALGORITHMS.items():
        for kind in spec.kinds:
            assert (algo, kind.value) in pinned
        for name in spec.params:
            assert any(
                label.startswith(f"{name}=")
                for a, _kind, label in KEYS if a == algo
            )


def _json_key(req):
    """The key with its tag written by ``json.dumps``."""
    tag = json.dumps(
        {"algo": req.algo, "params": list(req.params)},
        sort_keys=True,
        separators=(",", ":"),
    )
    blob = f"{canonical_hash(req.tree)}:{tag}".encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@st.composite
def valid_requests(draw):
    algo = draw(st.sampled_from(sorted(ALGORITHMS)))
    spec = ALGORITHMS[algo]
    params = {}
    for name, param in spec.params.items():
        if draw(st.booleans()):
            params[name] = draw(
                st.integers(min_value=param.minimum, max_value=10**18)
            )
    kind = draw(st.sampled_from(sorted(spec.kinds, key=lambda k: k.value)))
    return EvalRequest.make(0, algo, TREES[kind], **params)


@settings(max_examples=200, deadline=None)
@given(valid_requests())
def test_key_equals_the_json_tagged_key(req):
    assert request_key(req) == _json_key(req)
