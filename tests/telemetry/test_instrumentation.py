"""End-to-end instrumentation: engines, machine, oracle runtime.

Two properties per surface: (1) the recorded data is consistent with
the run's own accounting, and (2) attaching a recorder changes nothing
about the result (the differential suite widens this over random
instances; here it is pinned on fixed seeds).
"""

from concurrent.futures import ThreadPoolExecutor

from repro.core import parallel_solve, sequential_solve, team_solve
from repro.core.alphabeta import parallel_alpha_beta
from repro.core.nodeexpansion import n_parallel_solve
from repro.models.executors import OracleRuntime
from repro.simulator import simulate
from repro.simulator.machine import Machine
from repro.telemetry import InMemoryRecorder
from repro.trees.generators import iid_boolean, iid_minmax
from repro.trees.generators.iid import level_invariant_bias


def _tree(height=5, seed=11):
    return iid_boolean(2, height, level_invariant_bias(2), seed=seed)


class TestSolveInstrumentation:
    def test_step_spans_match_the_trace(self):
        rec = InMemoryRecorder()
        result = parallel_solve(_tree(), 2, recorder=rec)
        spans = rec.spans(track="solve")
        assert len(spans) == result.num_steps
        assert [dict(s.attrs)["degree"] for s in spans] \
            == result.trace.degrees
        assert rec.clock == result.num_steps

    def test_counters_match_the_accounting(self):
        rec = InMemoryRecorder()
        result = parallel_solve(_tree(), 2, recorder=rec)
        counters = rec.metrics.counters
        assert counters["solve.leaves_evaluated"] == result.total_work
        assert counters["solve.steps"] == result.num_steps
        assert rec.metrics.gauges["solve.processors"] == result.processors

    def test_default_runs_record_no_frontier_metrics(self):
        # The frontier.* counters went with the incremental backend;
        # a default run, bounded or not, records the solve track only.
        for max_processors in (None, 2):
            rec = InMemoryRecorder()
            parallel_solve(
                _tree(), 2, max_processors=max_processors, recorder=rec
            )
            names = [
                *rec.metrics.counters, *rec.metrics.gauges,
                *rec.metrics.histograms, *(e.name for e in rec.events),
            ]
            assert names
            assert not [n for n in names if n.startswith("frontier.")]

    def test_team_and_sequential_also_record(self):
        rec = InMemoryRecorder()
        team = team_solve(_tree(), 4, recorder=rec)
        assert len(rec.spans(track="solve")) == team.num_steps
        rec2 = InMemoryRecorder()
        seq = sequential_solve(_tree(), recorder=rec2)
        assert len(rec2.spans(track="sequential")) == seq.num_steps

    def test_recorder_does_not_change_the_run(self):
        bare = parallel_solve(_tree(), 2, keep_batches=True)
        traced = parallel_solve(
            _tree(), 2, keep_batches=True, recorder=InMemoryRecorder()
        )
        assert bare.value == traced.value
        assert bare.trace.degrees == traced.trace.degrees
        assert bare.trace.batches == traced.trace.batches


class TestAlphaBetaAndNodeExpansion:
    def test_alphabeta_spans_carry_pruning(self):
        rec = InMemoryRecorder()
        mtree = iid_minmax(2, 5, seed=3)
        result = parallel_alpha_beta(mtree, 2, recorder=rec)
        spans = rec.spans(track="alphabeta")
        assert len(spans) == result.num_steps
        assert all("pruned" in dict(s.attrs) for s in spans)
        assert rec.metrics.counters["alphabeta.leaves_evaluated"] \
            == result.total_work

    def test_nodeexpansion_records_expansions(self):
        rec = InMemoryRecorder()
        result = n_parallel_solve(_tree(), 2, recorder=rec)
        assert len(rec.spans(track="expansion")) == result.num_steps
        assert rec.metrics.counters["expansion.nodes_expanded"] \
            == result.total_work


class TestMachineInstrumentation:
    def test_one_level_track_with_busy_idle_spans_tiling_the_run(self):
        tree = _tree(height=6, seed=2026)
        rec = InMemoryRecorder()
        result = simulate(tree, recorder=rec)
        for level in range(7):  # height 6 -> levels 0..6
            spans = rec.spans(track=f"level-{level}")
            assert spans, f"level {level} has no spans"
            # Ticks are numbered from 1; the final delivery-only tick
            # (where the root value arrives) does no work phase.
            assert spans[0].start == 1
            assert spans[-1].end == result.ticks
            assert {s.name for s in spans} <= {"busy", "idle"}
            for prev, cur in zip(spans, spans[1:]):
                assert prev.end == cur.start

    def test_counters_match_the_simulation_result(self):
        tree = _tree(height=5, seed=9)
        rec = InMemoryRecorder()
        result = simulate(tree, recorder=rec)
        counters = rec.metrics.counters
        assert counters["machine.ticks"] == result.ticks
        assert counters["machine.expansions"] == result.expansions
        assert counters["machine.messages"] == result.messages
        per_kind = sum(
            v for k, v in counters.items() if k.startswith("machine.msg.")
        )
        assert per_kind == result.messages

    def test_degree_time_series_matches_degree_by_tick(self):
        tree = _tree(height=4, seed=5)
        rec = InMemoryRecorder()
        result = simulate(tree, recorder=rec)
        samples = [
            e for e in rec.events
            if e.kind == "counter" and e.name == "machine.degree"
        ]
        # The final tick only delivers the root value (no work phase
        # runs, so no sample); every worked tick is sampled in order.
        assert [e.value for e in samples] == [
            float(d) for d in result.degree_by_tick[:-1]
        ]
        assert result.degree_by_tick[-1] == 0

    def test_busy_ticks_gauges_bounded_by_run_length(self):
        tree = _tree(height=4, seed=5)
        rec = InMemoryRecorder()
        result = simulate(tree, recorder=rec)
        busy = {
            k: v for k, v in rec.metrics.gauges.items()
            if k.startswith("machine.level") and k.endswith("busy_ticks")
        }
        assert len(busy) == 5
        assert all(0 <= v <= result.ticks for v in busy.values())
        assert busy["machine.level0.busy_ticks"] > 0

    def test_recorder_does_not_change_the_simulation(self):
        tree = _tree(height=6, seed=2026)
        bare = simulate(tree)
        traced = simulate(tree, recorder=InMemoryRecorder())
        assert (bare.value, bare.ticks, bare.expansions, bare.messages) \
            == (traced.value, traced.ticks, traced.expansions,
                traced.messages)
        assert bare.degree_by_tick == traced.degree_by_tick

    def test_physical_mode_also_records_all_levels(self):
        tree = _tree(height=5, seed=1)
        rec = InMemoryRecorder()
        result = simulate(tree, physical_processors=2, recorder=rec)
        for level in range(6):
            spans = rec.spans(track=f"level-{level}")
            assert spans and spans[-1].end == result.ticks

    def test_faulty_run_records_reissue_events(self):
        from repro.faults import FaultPlan

        tree = iid_boolean(2, 5, 0.45, seed=0)
        # A crash-heavy plan reliably exercises the recovery path.
        plan = FaultPlan.with_rate(0, "crash", 0.2, max_faults=16)
        rec = InMemoryRecorder()
        result = simulate(tree, fault_plan=plan, recorder=rec)
        assert result.fault_stats is not None
        if result.fault_stats.reissues:
            reissues = [
                e for e in rec.events
                if e.kind == "instant" and e.name == "reissue"
            ]
            assert len(reissues) == result.fault_stats.reissues
        assert rec.events[-1].name == "fault_stats"


def _square(x):
    return x * x


class TestOracleRuntimeInstrumentation:
    def test_chunk_histogram_and_batch_counters(self):
        rec = InMemoryRecorder()
        rt = OracleRuntime(
            _square, chunk_size=3,
            executor_factory=lambda: ThreadPoolExecutor(max_workers=2),
            recorder=rec,
        )
        with rt:
            out = rt.evaluate(list(range(10)))
        assert out == [x * x for x in range(10)]
        assert rec.metrics.counters["oracle.batches"] == 1
        assert rec.metrics.counters["oracle.units"] == 10
        chunks = rec.metrics.histograms["oracle.chunk_size"]
        assert sorted(chunks) == [1.0, 3.0, 3.0, 3.0]

    def test_wallclock_opt_in_times_chunks(self):
        rec = InMemoryRecorder(wallclock=True)
        rt = OracleRuntime(
            _square, chunk_size=2,
            executor_factory=lambda: ThreadPoolExecutor(max_workers=2),
            recorder=rec,
        )
        with rt:
            rt.evaluate([1, 2, 3, 4])
        seconds = rec.metrics.histograms["oracle.chunk_seconds"]
        assert len(seconds) == 2
        assert all(s >= 0 for s in seconds)
        assert rec.metrics.histograms["oracle.batch_seconds"]


class TestMachineDirectConstruction:
    def test_machine_accepts_recorder_parameter(self):
        tree = _tree(height=3, seed=4)
        rec = InMemoryRecorder()
        machine = Machine(tree, recorder=rec)
        result = machine.run()
        assert result.ticks > 0
        assert rec.metrics.counters["machine.ticks"] == result.ticks
