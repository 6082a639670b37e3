"""E6 — Lemmas 1 & 2: k1 and k2 grow linearly in the height."""

import pytest

from repro.analysis import lemma1_k1, lemma2_k2
from repro.bench import run_experiment


@pytest.fixture(scope="module")
def table():
    return run_experiment("e06")


@pytest.mark.experiment("e06")
def test_lemma_constants_linear(table, benchmark):
    # k2 >= k1 always (Lemma 2's proof), and both fractions settle at a
    # positive constant as n grows.
    for k1, k2 in zip(table.column("k1"), table.column("k2")):
        assert k2 >= k1 >= 0
    for d in (2, 3, 4):
        fracs = [r[5] for r in table.rows if r[0] == d]
        assert fracs[-1] >= 0.05, "k2/n must stay bounded away from 0"
        # Larger n should not collapse the fraction.
        assert fracs[-1] >= fracs[0] * 0.8

    benchmark(lambda: (lemma1_k1(320, 2), lemma2_k2(320, 2)))
    print("\n" + table.render())


@pytest.mark.experiment("e06")
def test_registry_gate_parity(table, gate_parity):
    gate_parity(table)
