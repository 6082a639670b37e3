"""Smoke tests for cheap experiment functions (full runs live in
benchmarks/; these keep the experiment code importable and sane under
plain `pytest tests/`)."""

import pytest

from repro.bench.registry import get_spec


@pytest.fixture(scope="module")
def e01():
    return get_spec("e01").run().table


@pytest.fixture(scope="module")
def e16():
    return get_spec("e16").run().table


class TestE01Smoke:
    def test_bound_respected(self, e01):
        for bound, s0 in zip(e01.column("bound d^(n/2)"),
                             e01.column("S forced-0")):
            assert s0 == bound

    def test_has_both_branchings(self, e01):
        assert {2, 3} <= set(e01.column("d"))


class TestE16Smoke:
    def test_families_present(self, e16):
        assert {"iid p*", "worst-case", "all-ones"} == \
            set(e16.column("family"))

    def test_width0_speedup_is_one(self, e16):
        for row in e16.rows:
            if row[2] == 0:
                assert row[5] == 1.0

    def test_notes_attached(self, e16):
        assert e16.notes


class TestRenderStability:
    def test_render_is_deterministic(self, e01):
        assert e01.render() == e01.render()

    def test_render_parses_back(self, e01):
        lines = e01.render().splitlines()
        # header + separator + one line per row (+ notes).
        assert len(lines) >= 2 + len(e01.rows)
