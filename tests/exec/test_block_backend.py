"""BlockCompileBackend: transparency against the reference interpreter.

The backend's contract is byte-identical observable behaviour —
architectural state, icount/cycles, StopInfo, hook and profiler
callbacks — with the only difference being wall-clock.  These tests
drive both backends over the same programs and diff everything.
"""

import pytest

from repro.exec import (BACKEND_NAMES, InterpBackend, create_backend,
                        install_backend)
from repro.exec.block import BlockCompileBackend, clear_code_cache
from repro.faults.cache import config_key
from repro.faults.campaign import PipelineConfig
from repro.fuzz.generator import FuzzKnobs, generate_program
from repro.fuzz.oracle import capture
from repro.isa import assemble
from repro.machine import BranchProfiler, Cpu, StopReason, run_native
from repro.workloads import load

PARITY_PROGRAMS = 200
MAX_STEPS = 200_000
NATIVE = PipelineConfig("native")
NATIVE_BLOCK = PipelineConfig("native", backend="block")


def _fresh(program, backend):
    cpu = Cpu()
    install_backend(cpu, backend)
    cpu.load_program(program, executable_text=True)
    return cpu


def _state(cpu, stop):
    return (stop.reason, stop.pc, stop.fault, stop.fault_addr,
            stop.trap_no, stop.exit_code, cpu.icount, cpu.cycles,
            cpu.flags, tuple(cpu.regs), tuple(cpu.output_values),
            cpu.output)


class TestWiring:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("interp", "block")

    def test_create_backend(self):
        assert isinstance(create_backend("interp"), InterpBackend)
        assert isinstance(create_backend("block"), BlockCompileBackend)
        with pytest.raises(ValueError):
            create_backend("jit")

    def test_install_interp_is_noop(self):
        cpu = Cpu()
        assert install_backend(cpu, "interp") is None
        assert cpu.backend is None

    def test_install_block_claims_cpu(self):
        cpu = Cpu()
        backend = install_backend(cpu, "block")
        assert cpu.backend is backend
        assert cpu.memory.perm_watch is not None

    def test_config_key_records_backend(self):
        key = config_key(PipelineConfig("dbt", "rcf", backend="block"))
        assert key[-1] == "block"
        assert config_key(PipelineConfig("dbt", "rcf"))[-1] == "interp"

    def test_label_suffix(self):
        assert PipelineConfig("dbt", "rcf").label() == "dbt/rcf/allbb"
        assert (PipelineConfig("dbt", "rcf", backend="block").label()
                == "dbt/rcf/allbb@block")


class TestDigestParity:
    def test_seeded_program_parity(self):
        """The acceptance bar: >=200 generator programs, byte-identical
        RunDigests on both backends."""
        knobs = FuzzKnobs()
        for seed in range(PARITY_PROGRAMS):
            program = generate_program(seed, knobs)
            ref = capture(program, NATIVE, MAX_STEPS)
            blk = capture(program, NATIVE_BLOCK, MAX_STEPS)
            assert blk == ref, f"seed {seed} diverged"

    def test_step_limit_sweep(self):
        """STEP_LIMIT stops must land on the exact same instruction:
        batched charging may never over- or under-run the budget."""
        knobs = FuzzKnobs()
        for seed in (3, 17, 29):
            program = generate_program(seed, knobs)
            for limit in range(1, 300, 7):
                ref = capture(program, NATIVE, limit)
                blk = capture(program, NATIVE_BLOCK, limit)
                assert blk == ref, f"seed {seed} limit {limit}"

    def test_workload_parity(self):
        for name in ("254.gap", "183.equake", "176.gcc", "181.mcf"):
            program = load(name, "test")
            ref_cpu, ref_stop = run_native(program)
            blk_cpu, blk_stop = run_native(program, backend="block")
            assert _state(blk_cpu, blk_stop) == _state(ref_cpu, ref_stop)


class TestFaultParity:
    def test_mid_block_access_fault(self):
        src = """
        .entry main
        main:
            movi r1, 1
            movi r2, 2
            const r3, 0x7ffffff0
            ld r4, r3, 64
            movi r5, 5
            syscall 0
        """
        program = assemble(src, name="fault")
        ref_cpu, ref_stop = run_native(program)
        blk_cpu, blk_stop = run_native(program, backend="block")
        assert ref_stop.reason is StopReason.FAULT
        assert _state(blk_cpu, blk_stop) == _state(ref_cpu, ref_stop)

    def test_div_by_zero(self):
        src = """
        .entry main
        main:
            movi r1, 9
            movi r2, 0
            div r3, r1, r2
            syscall 0
        """
        program = assemble(src, name="dbz")
        ref_cpu, ref_stop = run_native(program)
        blk_cpu, blk_stop = run_native(program, backend="block")
        assert ref_stop.fault is not None
        assert _state(blk_cpu, blk_stop) == _state(ref_cpu, ref_stop)

    def test_scheduled_fault_fires_at_exact_icount(self):
        from repro.faults.injector import RegisterFaultSpec
        program = load("254.gap", "test")
        for icount in (0, 1, 7, 100, 1003):
            states = []
            for backend in BACKEND_NAMES:
                cpu = _fresh(program, backend)
                RegisterFaultSpec(icount=icount, reg=1, bit=3).install(cpu)
                stop = cpu.run(max_steps=MAX_STEPS)
                states.append(_state(cpu, stop))
            assert states[0] == states[1], f"icount {icount}"


def _text_pcs(program):
    return range(program.text_base, program.text_base + len(program.text),
                 4)


def _arm_everywhere(cpu, program, hook):
    for pc in _text_pcs(program):
        cpu.branch_hooks[pc] = hook


class TestHookParity:
    def test_pre_branch_hook_sees_identical_stream(self):
        """Hooks armed at every pc of the text: each branch of every
        folded trace (mid-trace and terminator) leaves through the
        armed slow path with the interpreter's charges."""
        program = load("254.gap", "test")
        streams = []
        for backend in BACKEND_NAMES:
            calls = []
            cpu = _fresh(program, backend)
            _arm_everywhere(cpu, program, lambda c, pc, instr: calls.append(
                (pc, c.icount, c.cycles, instr.op)))
            stop = cpu.run(max_steps=MAX_STEPS)
            streams.append((calls, _state(cpu, stop)))
            if backend == "block":
                assert any(b.loop for b in cpu.backend.blocks.values())
        assert streams[0][0]
        assert streams[0] == streams[1]

    def test_profiler_counts_identical(self):
        program = load("254.gap", "test")
        profiles = []
        for backend in BACKEND_NAMES:
            profiler = BranchProfiler()
            cpu = _fresh(program, backend)
            cpu.branch_profiler = profiler
            cpu.run(max_steps=MAX_STEPS)
            profiles.append({pc: (s.executions, s.taken)
                             for pc, s in profiler.branches.items()})
        assert profiles[0] == profiles[1]

    def test_hook_replacement_applies(self):
        """A hook substituting the branch instruction (the injector's
        mechanism) must behave identically mid-run on both backends."""
        from repro.faults.injector import (DirectionFault, FaultSpec,
                                           NativeInjector)
        program = load("254.gap", "test")
        branch_pcs = sorted(_text_pcs(program))
        states = []
        for backend in BACKEND_NAMES:
            cpu = _fresh(program, backend)
            profiler = BranchProfiler()
            cpu.branch_profiler = profiler
            cpu.run(max_steps=MAX_STEPS)
            executed = [pc for pc, s in profiler.branches.items()
                        if s.executions > 2 and s.instr.meta.cond]
            site = sorted(executed)[0]
            spec = FaultSpec(site, 2, DirectionFault(taken=None))
            cpu = _fresh(program, backend)
            injector = NativeInjector(spec, program)
            injector.install(cpu)
            stop = cpu.run(max_steps=MAX_STEPS)
            assert injector.fired
            states.append(_state(cpu, stop))
        assert states[0] == states[1]
        assert branch_pcs  # site enumeration sanity

    def test_fired_hook_retires_when_installed_directly(self):
        from repro.faults.injector import (DirectionFault, FaultSpec,
                                           NativeInjector)
        program = load("254.gap", "test")
        profiler = BranchProfiler()
        cpu = _fresh(program, "interp")
        cpu.branch_profiler = profiler
        cpu.run(max_steps=MAX_STEPS)
        site = sorted(pc for pc, s in profiler.branches.items()
                      if s.executions > 2 and s.instr.meta.cond)[0]
        cpu = _fresh(program, "block")
        injector = NativeInjector(FaultSpec(site, 1,
                                            DirectionFault(taken=None)),
                                  program)
        injector.install(cpu)
        cpu.run(max_steps=MAX_STEPS)
        assert injector.fired
        assert not cpu.branch_hooks  # retired after firing

    def test_retire_pops_only_own_sites(self):
        from repro.faults.injector import (DirectionFault, FaultSpec,
                                           NativeInjector)
        program = load("254.gap", "test")
        branches = BranchProfiler()
        run_native(program, max_steps=MAX_STEPS, profiler=branches)
        site = sorted(pc for pc, s in branches.branches.items()
                      if s.instr.meta.cond)[0]
        for backend in BACKEND_NAMES:
            cpu = _fresh(program, backend)
            injector = NativeInjector(FaultSpec(site, 1, DirectionFault()),
                                      program)
            injector.install(cpu)
            foreign = cpu.branch_hooks[program.text_base] = (
                lambda c, pc, instr: None)
            cpu.run(max_steps=MAX_STEPS)
            assert injector.fired
            assert cpu.branch_hooks == {program.text_base: foreign}


class TestFoldRule:
    """Traces fold unless their page holds code that has been
    invalidated by a write: then they compile one basic block at a
    time, so a rewritten page does not rebuild long traces."""

    def test_dbt_patched_pages_compile_single_blocks(self, monkeypatch):
        import repro.exec.block as block_mod
        from repro.checking import RCF
        from repro.dbt import Dbt
        monkeypatch.setattr(block_mod, "HOT_RUNS", 8)  # a short program
        program = load("254.gap", "test")
        dbt = Dbt(program, technique=RCF())
        backend = install_backend(dbt.cpu, "block")
        compile_trace = backend._compile
        compiled = []

        def spy(pc, fold):
            block = compile_trace(pc, fold)
            compiled.append((fold, pc >> 12 in backend.rewritten_pages,
                             block.start, block.words, block.loop))
            return block

        backend._compile = spy
        assert dbt.run(max_steps=MAX_STEPS).ok
        unfolded = [c for c in compiled if not c[0]]
        assert unfolded, "no chain patch invalidated a compiled trace"
        for _, rewritten, start, words, loop in unfolded:
            assert rewritten and not loop
            assert list(words) == list(range(start, start + 4 * len(words),
                                             4))
        # a hot block on a patched page is recompiled folded, and the
        # guest loop gets its closure back
        refolded = [c for c in compiled if c[0] and c[1]]
        assert any(c[4] for c in refolded)

    @pytest.mark.parametrize("hot_runs", [1, 256])
    def test_dbt_campaign_identical_across_backends(self, monkeypatch,
                                                     hot_runs):
        """Unfolded, hot-refolded and folded traces on code-cache pages
        give the interpreter's exact fault runs (``hot_runs=1`` refolds
        a block on its first run)."""
        import repro.exec.block as block_mod
        from repro.faults import (CampaignExecutor, PipelineConfig,
                                  generate_category_faults)
        monkeypatch.setattr(block_mod, "HOT_RUNS", hot_runs)
        program = load("254.gap", "test")
        generated = generate_category_faults(program, per_category=4,
                                             seed=5)
        specs = [spec for specs in generated.by_category.values()
                 for spec in specs]
        records = [CampaignExecutor(program, PipelineConfig(
            "dbt", "rcf", backend=backend)).run_specs(specs)
            for backend in BACKEND_NAMES]
        assert records[0] == records[1]

    def test_native_text_keeps_loop_closures(self):
        program = load("254.gap", "test")
        cpu = _fresh(program, "block")
        cpu.run(max_steps=MAX_STEPS)
        assert not cpu.backend.rewritten_pages
        assert any(b.loop for b in cpu.backend.blocks.values())

    def test_unfired_injector_keeps_loop_closures(self):
        """An armed NativeInjector whose occurrence never comes leaves
        the run on folded traces, and one that does come fires at the
        interpreter's occurrence, icount and cycles."""
        from repro.faults.injector import (DirectionFault, FaultSpec,
                                           NativeInjector)
        program = load("254.gap", "test")
        branches = BranchProfiler()
        run_native(program, max_steps=MAX_STEPS, profiler=branches)
        site, stats = max(((pc, s) for pc, s in branches.branches.items()
                           if s.instr.meta.cond),
                          key=lambda item: item[1].executions)
        cpu = _fresh(program, "block")
        idle = NativeInjector(FaultSpec(site, stats.executions + 1,
                                        DirectionFault()), program)
        idle.install(cpu)
        cpu.run(max_steps=MAX_STEPS)
        assert not idle.fired and idle.count == stats.executions
        assert any(b.loop for b in cpu.backend.blocks.values())
        for occurrence in (1, 2, stats.executions // 2, stats.executions):
            seen = []
            for backend in BACKEND_NAMES:
                cpu = _fresh(program, backend)
                injector = NativeInjector(
                    FaultSpec(site, occurrence, DirectionFault()), program)
                injector.install(cpu)
                stop = cpu.run(max_steps=MAX_STEPS)
                assert injector.fired, occurrence
                seen.append((injector.fired_icount, injector.fired_cycles,
                             _state(cpu, stop)))
            assert seen[0] == seen[1], occurrence


class TestInlineProfiling:
    """A branch profiler alone runs on the folded traces: the compiled
    code calls ``record`` itself with the interpreter's icount/cycles,
    so every slot user sees the interpreter's exact stream."""

    @staticmethod
    def _observe(program, backend):
        """One run with all three slot users chained; returns what
        each one saw plus the final state."""
        from repro.exec.profiler import HotBlockProfiler
        from repro.forensics import FlightRecorder
        cpu = _fresh(program, backend)
        branches = BranchProfiler()
        cpu.branch_profiler = branches
        recorder = FlightRecorder(capacity=None)
        recorder.attach(cpu)
        hot = HotBlockProfiler()
        hot.attach(cpu)
        stop = cpu.run(max_steps=MAX_STEPS)
        hot.finish()
        recorder.detach()
        return {
            "samples": {pc: tuple(c) for pc, c in hot.samples.items()},
            "totals": (hot.total_icount, hot.total_cycles),
            "branches": {pc: (s.taken, s.not_taken, dict(s.flags_hist))
                         for pc, s in branches.branches.items()},
            "events": recorder.event_list(),
            "checkpoints": recorder.checkpoints,
            "state": _state(cpu, stop),
        }

    def test_profiler_alone_runs_folded_blocks(self):
        from repro.exec.profiler import profile_native
        program = load("254.gap", "test")
        cpu, stop, _prof = profile_native(program, backend="block",
                                          max_steps=MAX_STEPS)
        assert stop.reason is StopReason.HALTED
        assert any(b.loop for b in cpu.backend.blocks.values())

    def _assert_streams_identical(self, program, label) -> dict:
        ref = self._observe(program, "interp")
        blk = self._observe(program, "block")
        for key in ref:
            assert blk[key] == ref[key], (label, key)
        for event in blk["events"]:
            assert type(event.taken) is bool, label
        return ref

    def test_suite_streams_identical(self):
        from repro.workloads import suite_names
        for name in suite_names():
            seen = self._assert_streams_identical(load(name, "test"), name)
            assert seen["events"], name

    def test_generated_program_streams_identical(self):
        """Generator programs branch on flags produced in other traces,
        so ``record`` also gets the flag-expression form of ``taken``
        (an int in the compiled code) and must see a bool."""
        knobs = FuzzKnobs()
        for seed in range(60):
            self._assert_streams_identical(generate_program(seed, knobs),
                                           seed)

    def test_hook_installed_mid_trace(self):
        """A hook that appears while a folded trace runs (here the
        profiler installs it) takes over at the trace's next branch,
        with the interpreter's exact charges."""
        program = load("254.gap", "test")

        class Installer:
            def __init__(self, cpu, at, calls):
                self.cpu, self.at, self.calls, self.seen = cpu, at, calls, 0

            def record(self, pc, instr, taken, flags):
                self.seen += 1
                if self.seen == self.at:
                    _arm_everywhere(
                        self.cpu, program,
                        lambda c, pc, i: self.calls.append(
                            (pc, c.icount, c.cycles)))

        for at in (7, 50, 333):
            streams = []
            for backend in BACKEND_NAMES:
                calls = []
                cpu = _fresh(program, backend)
                cpu.branch_profiler = Installer(cpu, at, calls)
                stop = cpu.run(max_steps=MAX_STEPS)
                streams.append((calls, _state(cpu, stop)))
            assert streams[0][0], at
            assert streams[1] == streams[0], at

    def test_retiring_hook_switches_to_folded_blocks(self):
        """An injector hook that fires and uninstalls itself mid-run
        hands the rest of the run to the folded traces; the profile
        across the switch matches the interpreter's."""
        from repro.exec.profiler import HotBlockProfiler
        from repro.faults.injector import (DirectionFault, FaultSpec,
                                           NativeInjector)
        program = load("254.gap", "test")
        branches = BranchProfiler()
        run_native(program, max_steps=MAX_STEPS, profiler=branches)
        site = sorted(pc for pc, s in branches.branches.items()
                      if s.executions > 2 and s.instr.meta.cond)[0]
        spec = FaultSpec(site, 2, DirectionFault(taken=None))
        observed = []
        for backend in BACKEND_NAMES:
            cpu = _fresh(program, backend)
            injector = NativeInjector(spec, program)
            injector.install(cpu)
            hot = HotBlockProfiler()
            hot.attach(cpu)
            stop = cpu.run(max_steps=MAX_STEPS)
            hot.finish()
            assert injector.fired and not cpu.branch_hooks
            observed.append(({pc: tuple(c)
                              for pc, c in hot.samples.items()},
                             _state(cpu, stop)))
        assert observed[0] == observed[1]


class TestCompilation:
    def test_loop_trace_compiled(self):
        program = load("254.gap", "test")
        cpu = _fresh(program, "block")
        cpu.run(max_steps=MAX_STEPS)
        assert any(b.loop for b in cpu.backend.blocks.values())

    def test_stats_shape(self):
        program = load("254.gap", "test")
        cpu = _fresh(program, "block")
        cpu.run(max_steps=MAX_STEPS)
        stats = cpu.backend.stats()
        assert stats["blocks_compiled"] > 0
        assert stats["block_runs"] > 0
        assert stats["fused_pairs"] > 0
        assert stats["compile_seconds"] > 0

    def test_code_cache_shared_across_instances(self):
        clear_code_cache()
        program = load("254.gap", "test")
        cpu = _fresh(program, "block")
        cpu.run(max_steps=MAX_STEPS)
        cold = cpu.backend.compile_seconds
        cpu = _fresh(program, "block")
        cpu.run(max_steps=MAX_STEPS)
        warm = cpu.backend.compile_seconds
        assert warm < cold  # second instance reuses cached code objects

    def test_obs_counters_emitted(self):
        from repro import obs
        program = load("254.gap", "test")
        registry = obs.MetricsRegistry()
        obs.install(registry)
        try:
            run_native(program, backend="block")
        finally:
            obs.uninstall()
        snap = registry.snapshot()
        names = {c["name"] for c in snap["counters"]}
        assert "exec_blocks_compiled_total" in names
        assert "exec_block_runs_total" in names
