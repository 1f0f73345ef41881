"""Observability wired through the stack: interpreter, DBT, campaigns.

The acceptance contract: **off means free** (no instrumentation state
is touched without an installed registry), and a parallel campaign's
merged registry matches a serial run's totals exactly.
"""

from repro import obs
from repro.checking import EdgCF
from repro.dbt import Dbt
from repro.isa import assemble
from repro.machine import Cpu, run_native
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecorder


LOOP = """
.entry main
main:
    movi r1, 0
    movi r2, 1
loop:
    add r1, r1, r2
    addi r2, r2, 1
    cmpi r2, 11
    jl loop
    syscall 1
    movi r1, 0
    syscall 0
"""


def install():
    registry = MetricsRegistry()
    recorder = SpanRecorder()
    obs.install(registry, recorder)
    return registry, recorder


def counter_value(registry, name, **labels):
    return registry.counter(name, **labels).value


class TestHelpersOff:
    def test_helpers_return_nulls_when_off(self):
        assert obs.get_registry() is None
        assert obs.counter("x") is obs.NULL_COUNTER
        assert obs.gauge("x") is obs.NULL_GAUGE
        assert obs.histogram("x") is obs.NULL_HISTOGRAM
        assert obs.span("x") is obs.NULL_SPAN
        assert obs.snapshot() == {}
        assert obs.drain_worker_snapshot() is None

    def test_merge_snapshot_noop_when_off(self):
        obs.merge_snapshot({"counters": [{"name": "x", "value": 1}]})
        assert obs.get_registry() is None


class TestInterpreter:
    def test_off_leaves_cpu_hooks_alone(self):
        cpu = Cpu()
        cpu.load_program(assemble(LOOP))
        cpu.run()
        assert cpu.branch_profiler is None

    def test_instruction_and_cycle_counters_exact(self):
        registry, _ = install()
        cpu, stop = run_native(assemble(LOOP))
        assert counter_value(
            registry, "interp_instructions_total") == cpu.icount
        assert counter_value(
            registry, "interp_cycles_total") == cpu.cycles

    def test_branch_mix_recorded(self):
        registry, _ = install()
        run_native(assemble(LOOP))
        taken = counter_value(registry, "interp_branches_total",
                              direction="taken")
        not_taken = counter_value(registry, "interp_branches_total",
                                  direction="not_taken")
        assert taken == 9      # jl loop taken 9 times
        assert not_taken == 1  # final fall-through

    def test_observed_run_restores_profiler_slot(self):
        install()
        cpu, _ = run_native(assemble(LOOP))
        assert cpu.branch_profiler is None

    def test_existing_profiler_not_displaced(self):
        from repro.machine.profile import BranchProfiler
        registry, _ = install()
        profiler = BranchProfiler()
        cpu, _ = run_native(assemble(LOOP), profiler=profiler)
        assert cpu.branch_profiler is profiler
        assert sum(stats.executions
                   for stats in profiler.branches.values()) == 10
        # branch-mix counters are unavailable, but instructions are not
        assert counter_value(
            registry, "interp_instructions_total") == cpu.icount

    def test_interp_span_recorded(self):
        _, recorder = install()
        run_native(assemble(LOOP))
        assert recorder.aggregates["interp.run"][0] == 1


class TestDbt:
    def test_translation_and_cache_metrics(self):
        registry, recorder = install()
        dbt = Dbt(assemble(LOOP), technique=EdgCF())
        result = dbt.run()
        assert result.ok
        translated = counter_value(registry,
                                   "dbt_blocks_translated_total")
        assert translated == len(dbt.blocks)
        assert counter_value(registry, "dbt_cache_lookup_total",
                             result="miss") == translated
        assert counter_value(registry, "dbt_cache_lookup_total",
                             result="hit") >= 1
        assert registry.gauge("dbt_cache_bytes_used").value > 0
        assert recorder.aggregates["dbt.translate"][0] == translated
        assert recorder.aggregates["dbt.run"][0] == 1
        assert registry.histogram(
            "dbt_translate_seconds").count == translated

    def test_signature_checks_executed_counted(self):
        registry, _ = install()
        dbt = Dbt(assemble(LOOP), technique=EdgCF())
        dbt.run()
        # every block body executes its CHECK_SIG each time through
        assert counter_value(registry,
                             "dbt_checks_executed_total") > 0

    def test_detection_event_counted(self):
        from repro.faults import DbtInjector, FaultSpec, RedirectFault
        registry, _ = install()
        program = assemble(LOOP)
        dbt = Dbt(program, technique=EdgCF())
        # redirect the loop's jl back to main's head: arriving with the
        # wrong signature must fire a check, counted as a detection
        DbtInjector(FaultSpec(0x1014, 2,
                              RedirectFault(program.symbols["main"])),
                    dbt).install(dbt.cpu)
        result = dbt.run(max_steps=100_000)
        assert result.detected_error
        assert counter_value(registry, "dbt_detections_total",
                             kind="signature") == 1

    def test_off_means_no_check_site_instrumentation_on_cpu_path(self):
        dbt = Dbt(assemble(LOOP), technique=EdgCF())
        result = dbt.run()
        assert result.ok


class TestBlockBackend:
    """The branch-mix counter rides the profiler slot, which the block
    backend serves from its folded traces: an observed block run keeps
    its loop closures and counts what the interpreter counts."""

    @staticmethod
    def _branch_counts(registry):
        return tuple(
            counter_value(registry, "interp_branches_total",
                          direction=direction)
            for direction in ("taken", "not_taken")) + (
            counter_value(registry, "dbt_checks_executed_total"),)

    def test_native_block_run_stays_folded(self):
        from repro.workloads import load
        program = load("254.gap", "test")
        counts = {}
        for backend in ("interp", "block"):
            registry, _ = install()
            cpu, _ = run_native(program, backend=backend)
            obs.uninstall()
            counts[backend] = self._branch_counts(registry)
            if backend == "block":
                assert any(b.loop for b in cpu.backend.blocks.values())
        assert counts["interp"][0] > 0
        assert counts["block"] == counts["interp"]

    def test_dbt_block_run_counts_checks_like_interp(self):
        from repro.exec import install_backend
        counts = {}
        for backend in ("interp", "block"):
            registry, _ = install()
            dbt = Dbt(assemble(LOOP), technique=EdgCF())
            install_backend(dbt.cpu, backend)
            assert dbt.run().ok
            obs.uninstall()
            counts[backend] = self._branch_counts(registry)
            if backend == "block":
                assert dbt.cpu.backend.blocks
        assert counts["interp"][2] > 0
        assert counts["block"] == counts["interp"]


class TestWorkerProtocol:
    def test_drain_roundtrip_matches_direct_counts(self):
        worker = MetricsRegistry(worker=True)
        worker_recorder = SpanRecorder()
        obs.install(worker, worker_recorder)
        run_native(assemble(LOOP))
        icount = counter_value(worker, "interp_instructions_total")
        snap = obs.drain_worker_snapshot()
        assert counter_value(worker, "interp_instructions_total") == 0

        parent = MetricsRegistry()
        parent_recorder = SpanRecorder()
        obs.install(parent, parent_recorder)
        obs.merge_snapshot(snap)
        assert counter_value(
            parent, "interp_instructions_total") == icount
        assert parent_recorder.aggregates["interp.run"][0] == 1

    def test_parent_registry_never_drains(self):
        registry, _ = install()
        registry.counter("x").inc()
        assert obs.drain_worker_snapshot() is None
        assert registry.counter("x").value == 1


class TestSession:
    def test_session_noop_without_paths(self):
        with obs.session(None, None):
            assert obs.get_registry() is None

    def test_session_writes_snapshot(self, tmp_path):
        path = tmp_path / "metrics.json"
        with obs.session(str(path), None):
            obs.counter("events_total").inc(2)
        assert obs.get_registry() is None
        from repro.obs.exporters import load_snapshot
        snap = load_snapshot(str(path))
        assert snap["counters"][0] == {"name": "events_total",
                                       "labels": {}, "value": 2}

    def test_session_trace_sink(self, tmp_path):
        import json
        path = tmp_path / "trace.jsonl"
        with obs.session(None, str(path)):
            with obs.span("unit.test"):
                pass
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["name"] == "unit.test"


class TestCampaignExactMatch:
    """Acceptance: a parallel campaign's merged registry reports the
    same instruction total as the serial run — per-worker snapshots sum
    exactly."""

    def test_parallel_merge_equals_serial(self):
        from repro.faults import (CampaignExecutor, PipelineConfig,
                                  clear_caches, generate_category_faults)
        from repro.workloads import suite as workload_suite
        program = workload_suite.load("254.gap", "test")
        faults = generate_category_faults(program, per_category=2,
                                          seed=7)
        specs = [spec for specs in faults.by_category.values()
                 for spec in specs]
        config = PipelineConfig("dbt", "rcf")

        def run(jobs):
            clear_caches()
            registry, recorder = install()
            records = CampaignExecutor(program, config,
                                       jobs=jobs).run_specs(specs)
            snap = obs.snapshot()
            obs.uninstall()
            return records, snap

        serial_records, serial_snap = run(1)
        parallel_records, parallel_snap = run(2)
        assert serial_records == parallel_records

        def total(snap, name):
            return sum(entry["value"]
                       for entry in snap["counters"]
                       if entry["name"] == name)

        for name in ("interp_instructions_total",
                     "dbt_checks_executed_total",
                     "interp_branches_total"):
            assert total(serial_snap, name) == total(
                parallel_snap, name), name
        outcomes_serial = {
            (entry["labels"]["outcome"], entry["value"])
            for entry in serial_snap["counters"]
            if entry["name"] == "campaign_runs_total"}
        outcomes_parallel = {
            (entry["labels"]["outcome"], entry["value"])
            for entry in parallel_snap["counters"]
            if entry["name"] == "campaign_runs_total"}
        assert outcomes_serial == outcomes_parallel

    def test_parallel_map_merges_worker_metrics(self):
        from repro.faults import parallel_map
        registry, _ = install()
        results = parallel_map(_observed_square, [1, 2, 3, 4], jobs=2)
        assert results == [1, 4, 9, 16]
        assert counter_value(registry, "map_calls_total") == 4


def _observed_square(value):
    obs.counter("map_calls_total").inc()
    return value * value
