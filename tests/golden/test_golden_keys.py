"""The serve cache key, pinned byte for byte.

``canonical_hash`` is the content address every serve cache, shard
route and response log is keyed on, so a change to how the canonical
encoding is produced must not change a single digest.  These pins
record the digest of every golden-corpus tree (uniform and explicit,
Boolean and MIN/MAX) and of one mixed-algorithm response log, whose
``key`` fields carry the request keys.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.serve import ShardedBatchService, response_log, synthetic_stream
from repro.trees import canonical_hash
from repro.trees.io import load_explicit, load_uniform

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

CORPUS_HASHES = {
    "bool_iid_d2h3.npz": (
        "e7f408c079ddc0db21b2cdea533157a30d7875d0d000949038daaff7a70bd4ee"
    ),
    "bool_iid_d2h4.npz": (
        "98beff9c13ffdda9c8c25396ce91108a0ceb22e4386e41a6315774345adc4edc"
    ),
    "bool_iid_d2h5.npz": (
        "c83b158c5b17260f256f913cc1df058a06a3d9510f8a29c236e4754fb120093f"
    ),
    "bool_iid_d2h6.npz": (
        "9b1fae669c6fb2f21be842c20b2df358e8d5eee31cd5bac8a0d8f7e63a30e38b"
    ),
    "bool_iid_d3h3.npz": (
        "a1e0f3e8505fdceadaf9e53bdf395b340a18c26d94033f58395de62ec4639fa0"
    ),
    "bool_iid_d4h2.npz": (
        "da7056de323f9c469921fb9f3b76915b589a0c80f18b5430cdddba8e889ddd92"
    ),
    "bool_irregular_a.json": (
        "81b96a2199cba338d584f1643f553c12174619cee016aabf4786bc0f432bfc8d"
    ),
    "bool_irregular_b.json": (
        "a5bd1bbd62cd0d619b0070a16353754146a6e14432eae71ae92a9a85446a3096"
    ),
    "bool_near_uniform.json": (
        "b74f81fd0729996a1fd7b2b1506060bc780837d11fed9bb529d13323877ea929"
    ),
    "bool_seq_worst_d2h4.npz": (
        "c18974433c51962313ccc13d7fb85b7ea9d23bbb14815cc79dd4c1e8a53b12b1"
    ),
    "bool_seq_worst_d3h3.npz": (
        "5939c455ff3d8bda65f39dbc31059cd26d99174fccc43bcc75b8062db03addbe"
    ),
    "bool_team_hard_d2h4.npz": (
        "4a2aeb93257da061651e3506f8831c664847d0fa98795bf34cf86d71b117b984"
    ),
    "mm_ab_worst_d2h4.npz": (
        "943621f2c697167675b72049bc893cedb191840d3ee278ba781233d57782a32e"
    ),
    "mm_iid_d2h4.npz": (
        "b19f830bb9000c38c8419f842e35dab3a6c20240df5b4792a5ccfdb969f49c33"
    ),
    "mm_iid_d2h5.npz": (
        "6418d096bac07dba27ad659257474744ad500d2db6801eee62a396d3293311e1"
    ),
    "mm_iid_d3h3.npz": (
        "81713fdf7cdf432bc8a1c7106a65c316fcdcbbf52cd9fcb0d5b1ad67028d8e65"
    ),
    "mm_irregular_a.json": (
        "59e1f420cc922d4fef162067120d3c73f32a36e29ddfe0fa4f75524ea30449eb"
    ),
    "mm_irregular_b.json": (
        "d594b6cd8842f49980b654d520d91cdcfdc5519984cb5c642018e3935547e4dd"
    ),
    "mm_ties_d2h4.npz": (
        "bb94af2c3158bfb34d269aaa6c242f6f05323de1c28d2f34a787d2d7ac237e4b"
    ),
    "mm_ties_d3h3.npz": (
        "8234c370aafaf97b250213ecad9bd1eb552d0b1c22186b7b3f07f4c2b162a5aa"
    ),
}

#: SHA-256 of the response log of ``synthetic_stream(300, seed=7,
#: height=6)`` served by ``ShardedBatchService(2)``.
RESPONSE_LOG_DIGEST = (
    "cb8a8994b94a66d221bbc34c23bd263311685c2b6ee3466120b7ca5d03df7c2f"
)


def test_every_corpus_tree_is_pinned():
    files = {f for f in os.listdir(CORPUS_DIR) if f != "manifest.json"}
    assert files == set(CORPUS_HASHES)


@pytest.mark.parametrize("name", sorted(CORPUS_HASHES))
def test_corpus_canonical_hash(name):
    path = os.path.join(CORPUS_DIR, name)
    load = load_uniform if name.endswith(".npz") else load_explicit
    tree = load(path)
    assert canonical_hash(tree) == CORPUS_HASHES[name]


def test_response_log_digest():
    with ShardedBatchService(2) as service:
        log = response_log(
            service.serve(synthetic_stream(300, seed=7, height=6))
        )
    digest = hashlib.sha256(log.encode("utf-8")).hexdigest()
    assert digest == RESPONSE_LOG_DIGEST
