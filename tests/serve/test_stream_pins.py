"""The synthetic request streams, pinned byte for byte.

Every serve workload is seeded from :func:`synthetic_stream`, whose
per-kind algorithm lists come from the engine table.  A table whose
order or parameter draws change would change these digests.
"""

import hashlib

import pytest

from repro.serve import save_requests, synthetic_stream


@pytest.mark.parametrize("kwargs,digest", [
    (
        {"seed": 2026},
        "f5a05034e5197f1a6e6494213da15ba766a257595584fc605a085d0dee4cefb9",
    ),
    (
        {"seed": 7, "height": 6},
        "0fb2d287ce44532faf77cfe8cd909897a39faee1c23000830fdf48438280ae35",
    ),
])
def test_saved_stream_digest(tmp_path, kwargs, digest):
    path = tmp_path / "stream.jsonl"
    save_requests(str(path), synthetic_stream(300, **kwargs))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
