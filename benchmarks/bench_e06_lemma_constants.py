"""E6 — Lemmas 1 & 2: k1 and k2 grow linearly in the height."""

import pytest

from repro.analysis import lemma1_k1, lemma2_k2


@pytest.mark.experiment("e06")
def test_registry_gates(spec_gates):
    spec_gates("e06")


@pytest.mark.experiment("e06")
def test_kernel(benchmark):
    benchmark(lambda: (lemma1_k1(320, 2), lemma2_k2(320, 2)))
