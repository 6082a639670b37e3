"""Gate parity: the registry specs are the only gated benchmarks.

Every file under ``benchmarks/`` runs its registry spec and asserts
its gates, so there is one implementation of every gate.  These tests
pin the contract: the bounds carry their historical values, the
deterministic gated specs pass, a paper spec's metrics are its
extractors read off the table its runner built, every identity check
a spec runner makes is live (breaking the compared engine fails the
gate), and wall-clock gates are confined to full-profile
``--wallclock`` runs.  The paper specs' own gates are proved live in
``test_paper_gates.py``.
"""

import io
from itertools import count

import pytest

from repro.bench.registry import get_spec
from repro.bench.runner import failed_gates, run_benchmarks
from repro.bench.specs import gate_bound, infra
from repro.bench.specs.tables import extract_metrics
from repro.core import policies
from repro.core.arena import alphabeta as arena_alphabeta
from repro.core.arena import boolean as arena_boolean
from repro.serve.cache import ResultCache


class TestBoundsAreTheHistoricalBars:
    """The bars the gated bench files asserted before the registry."""

    def test_e21b_frontier_speedup(self):
        assert gate_bound("e21b", "default_bounded_speedup") == 5.0

    def test_e23_fault_overhead(self):
        for kind in ("drop", "duplicate", "delay", "reorder", "crash",
                     "stall"):
            assert gate_bound("e23", f"overhead_{kind}") == 2.0

    def test_e24_telemetry_overhead(self):
        assert gate_bound("e24", "null_overhead") == 1.05
        assert gate_bound("e24", "inmemory_overhead") == 1.5

    def test_e25_serve(self):
        assert gate_bound("e25", "warm_speedup") == 3.0
        assert gate_bound("e25", "zipf_dedup") == pytest.approx(1 / 3)

    def test_unknown_gate_raises(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            gate_bound("e23", "nope")


class TestDeterministicGatedSpecsPassBothWays:
    """The deterministic gates pass, and Gate.holds compares as stated."""

    def test_e23_registry_run_matches_standalone_verdict(self):
        spec = get_spec("e23")
        result = spec.run(profile="quick")
        for gate in spec.gates:
            value = result.metrics[gate.metric]
            # Gate.holds is the comparison its op names.
            standalone = (
                value >= gate.bound if gate.op == ">="
                else value <= gate.bound
            )
            assert gate.holds(value) == standalone
            assert gate.holds(value), (gate.name, value)

    def test_e21b_step_identity_via_registry(self):
        spec = get_spec("e21b")
        result = spec.run(profile="quick")
        assert result.metrics["backends_identical"] == 1.0
        # no wall-clock requested -> no wall-clock metrics at all
        assert result.wallclock_metrics == {}

    def test_e24_step_identity_via_registry(self):
        spec = get_spec("e24")
        result = spec.run(profile="quick")
        assert result.metrics["recorders_identical"] == 1.0

    def test_e25_determinism_and_dedup_via_registry(self):
        spec = get_spec("e25")
        result = spec.run(profile="quick")
        assert result.metrics["logs_identical"] == 1.0
        assert result.metrics["unique_frac"] <= gate_bound(
            "e25", "zipf_dedup"
        )
        assert "response_log" in result.digests

    def test_flipping_a_value_flips_both_verdicts(self):
        spec = get_spec("e23")
        gate = next(g for g in spec.gates if g.name == "overhead_drop")
        eps = 1e-9
        assert gate.holds(gate.bound - eps)
        assert not gate.holds(gate.bound + eps)


class TestTableSpecParity:
    """A paper spec's metrics are its extractors read off its table."""

    def test_e06_same_metrics_both_paths(self):
        spec = get_spec("e06")
        result = spec.run(profile="full")
        assert result.metrics == extract_metrics(
            result.table, spec.extractors
        )

    def test_e04_quick_same_metrics_both_paths(self):
        spec = get_spec("e04")
        via_registry = spec.run(profile="quick").metrics
        table = spec.runner(spec.effective_params("quick"), False).table
        assert extract_metrics(table, spec.extractors) == via_registry


class TestWallclockGateDiscipline:
    def test_every_wallclock_gate_is_marked(self):
        # Wall-clock gates exist only on the infra specs, and every
        # wall-clock metric gate is flagged so the runner can skip it.
        for name in ("e21b", "e24", "e25", "e27", "e28"):
            spec = get_spec(name)
            assert any(g.wallclock for g in spec.gates), name

    @pytest.mark.parametrize("name, cells, gates", [
        pytest.param(
            "e21b",
            {"w4_p2", "w4_p4", "w2_p3"},
            {"speedup": "w4_p2"},
            id="e21b",
        ),
        pytest.param(
            "e27",
            {f"solve_w{w}" for w in (0, 1, 2, 4, 8, 12)}
            | {"solve_w4_p2", "solve_w8_p2", "solve_w8_p5"}
            | {f"ab_w{w}" for w in (0, 1, 2, 4, 8, 16)},
            {"solve_speedup": "solve_w12", "ab_speedup": "ab_w16"},
            id="e27",
        ),
    ])
    def test_every_checked_cell_is_timed(
        self, name, cells, gates, monkeypatch
    ):
        # Every cell whose runs the spec compares is timed, and each
        # gate reads its own cell's speedup; fake seconds keep the
        # test off the clock.
        seconds = count(1.0)
        monkeypatch.setattr(
            infra, "best_of", lambda fn, repeats: next(seconds)
        )
        timed = get_spec(name).run(
            profile="quick", wallclock=True
        ).wallclock_metrics
        assert set(timed) == {f"{cell}_speedup" for cell in cells} | set(
            gates
        )
        for gate, cell in gates.items():
            assert timed[gate] == timed[f"{cell}_speedup"]

    def test_paper_specs_have_no_wallclock_gates(self):
        from repro.bench.registry import list_specs

        for name in list_specs():
            spec = get_spec(name)
            if spec.suite == "infra":
                continue
            assert all(not g.wallclock for g in spec.gates), name


def _reversed_batches(monkeypatch, owner, name):
    """Make ``owner.name`` return its batch in reverse order."""
    original = getattr(owner, name)

    def reverse(*args, **kwargs):
        return original(*args, **kwargs)[::-1]

    monkeypatch.setattr(owner, name, reverse)


def _reversed_alphabeta_order(monkeypatch):
    """Reverse the arena alpha-beta's evaluation order, not its batches."""
    original = arena_alphabeta.run_steps

    def run_steps(*args, **kwargs):
        trace, order = original(*args, **kwargs)
        return trace, order[::-1]

    monkeypatch.setattr(arena_alphabeta, "run_steps", run_steps)


def _wrong_fault_values(monkeypatch, faulty):
    """Flip the machine's value whenever ``faulty(plan)`` holds."""
    original = infra.simulate

    class Wrong:
        def __init__(self, result):
            self.value = 1 - result.value
            self.ticks = result.ticks

    def simulate(tree, fault_plan=None):
        result = original(tree, fault_plan=fault_plan)
        if fault_plan is not None and faulty(fault_plan):
            return Wrong(result)
        return result

    monkeypatch.setattr(infra, "simulate", simulate)


#: mutation -> (spec, identity metric it must zero, gate that fails,
#: how to break the compared engine).
MUTATIONS = {
    "e21b-bounded-rescan": (
        "e21b", "backends_identical", "step_identity",
        lambda mp: _reversed_batches(mp, policies.WidthPolicy, "__call__"),
    ),
    "e27-bounded-arena": (
        "e27", "solve_identical", "step_identity",
        lambda mp: _reversed_batches(mp, arena_boolean, "most_urgent"),
    ),
    "e27-solve-rescan": (
        "e27", "backends_identical", "step_identity",
        lambda mp: _reversed_batches(mp, policies.WidthPolicy, "__call__"),
    ),
    "e27-alphabeta-rescan": (
        "e27", "backends_identical", "step_identity",
        lambda mp: _reversed_batches(mp, policies.WidthPolicy, "__call__"),
    ),
    "e27-alphabeta-order": (
        "e27", "ab_identical", "step_identity", _reversed_alphabeta_order,
    ),
    "e23-high-rates": (
        "e23", "converged", "converges",
        lambda mp: _wrong_fault_values(
            mp, lambda plan: max(
                plan.drop, plan.duplicate, plan.delay, plan.reorder,
                plan.crash, plan.stall,
            ) >= 0.2,
        ),
    ),
    "e23-mixed-plan": (
        "e23", "converged", "converges",
        lambda mp: _wrong_fault_values(
            mp, lambda plan: plan.drop > 0 and plan.crash > 0
        ),
    ),
    "e25-warm-pass-misses": (
        "e25", "logs_identical", "deterministic_answers",
        lambda mp: mp.setattr(ResultCache, "put", lambda *args: None),
    ),
}


class TestSpecChecksAreLive:
    """Breaking what a runner's identity check compares fails its gate."""

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutation_fails_the_gate(self, mutation, monkeypatch):
        name, metric, gate, mutate = MUTATIONS[mutation]
        mutate(monkeypatch)
        doc = run_benchmarks(
            [name], profile="quick", progress=io.StringIO()
        )
        assert doc["specs"][name]["metrics"][metric] == 0.0
        assert failed_gates(doc) == [f"{name}:{gate}"]
