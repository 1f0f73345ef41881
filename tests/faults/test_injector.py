"""Fault injector mechanics on all pipelines."""

import pytest

from repro.isa import assemble
from repro.machine import Cpu, StopReason
from repro.checking import EdgCF
from repro.dbt import Dbt
from repro.faults import (DbtInjector, DirectionFault, FaultSpec,
                          FlagBitFault, NativeInjector, OffsetBitFault,
                          RedirectFault)

# A loop whose body emits; skipping or duplicating iterations is
# observable in the output.
LOOP_SRC = """
.entry main
main:
    movi r2, 0
loop:
    mov r1, r2
    syscall 4
    addi r2, r2, 1
    cmpi r2, 4
    jl loop
    movi r1, 0
    syscall 0
"""


def native_with_fault(program, spec, max_steps=100_000):
    cpu = Cpu()
    cpu.load_program(program)
    injector = NativeInjector(spec, program)
    injector.install(cpu)
    stop = cpu.run(max_steps=max_steps)
    return cpu, stop, injector


@pytest.fixture
def loop_program():
    return assemble(LOOP_SRC)


def branch_pc(program):
    # loop: mov(+0) syscall(+4) addi(+8) cmpi(+12) jl(+16)
    return program.symbols["loop"] + 16


class TestNativeInjection:
    def test_no_fault_without_hit(self, loop_program):
        spec = FaultSpec(0xDEAD, 1, DirectionFault(taken=None))
        cpu, stop, injector = native_with_fault(loop_program, spec)
        assert not injector.fired
        assert cpu.output_values == [0, 1, 2, 3]

    def test_direction_inversion_first_occurrence(self, loop_program):
        spec = FaultSpec(branch_pc(loop_program), 1,
                         DirectionFault(taken=None))
        cpu, stop, injector = native_with_fault(loop_program, spec)
        assert injector.fired
        # first back-edge suppressed: loop exits after one iteration
        assert cpu.output_values == [0]
        assert stop.reason is StopReason.HALTED

    def test_direction_inversion_last_occurrence(self, loop_program):
        spec = FaultSpec(branch_pc(loop_program), 4,
                         DirectionFault(taken=None))
        cpu, stop, injector = native_with_fault(loop_program, spec)
        assert injector.fired
        # the final not-taken becomes taken: one extra iteration
        assert cpu.output_values == [0, 1, 2, 3, 4]

    def test_occurrence_counting(self, loop_program):
        spec = FaultSpec(branch_pc(loop_program), 3,
                         DirectionFault(taken=None))
        cpu, stop, injector = native_with_fault(loop_program, spec)
        assert injector.count == 3
        assert cpu.output_values == [0, 1, 2]

    def test_fault_is_transient(self, loop_program):
        """Only one execution is affected; later ones behave normally."""
        spec = FaultSpec(branch_pc(loop_program), 2,
                         OffsetBitFault(bit=15))
        cpu, stop, injector = native_with_fault(loop_program, spec)
        assert injector.fired
        # the corrupted branch jumped far away: hardware catches it
        assert stop.reason is StopReason.FAULT

    def test_offset_fault_small_bit(self, loop_program):
        # flipping bit 0 of the backward offset shifts the landing by 4
        spec = FaultSpec(branch_pc(loop_program), 1,
                         OffsetBitFault(bit=0))
        cpu, stop, injector = native_with_fault(loop_program, spec)
        assert injector.fired
        assert cpu.output_values != [0, 1, 2, 3]

    def test_flag_fault_changes_direction(self, loop_program):
        # jl reads SF/OF; flipping SF mid-loop flips the comparison
        spec = FaultSpec(branch_pc(loop_program), 1, FlagBitFault(bit=1))
        cpu, stop, injector = native_with_fault(loop_program, spec)
        assert injector.fired
        assert cpu.output_values == [0]

    def test_flag_fault_on_unread_bit_harmless(self, loop_program):
        spec = FaultSpec(branch_pc(loop_program), 1, FlagBitFault(bit=2))
        cpu, stop, injector = native_with_fault(loop_program, spec)
        assert injector.fired
        assert cpu.output_values == [0, 1, 2, 3]

    def test_redirect(self, loop_program):
        target = loop_program.symbols["main"]
        spec = FaultSpec(branch_pc(loop_program), 2,
                         RedirectFault(target))
        cpu, stop, injector = native_with_fault(loop_program, spec)
        assert injector.fired
        # restarted the loop: r2 reset, output prefix duplicated
        assert cpu.output_values[:3] == [0, 1, 0]

    def test_redirect_to_noncode_faults(self, loop_program):
        spec = FaultSpec(branch_pc(loop_program), 1,
                         RedirectFault(loop_program.data_base))
        cpu, stop, injector = native_with_fault(loop_program, spec)
        assert stop.reason is StopReason.FAULT


class TestDbtInjection:
    def test_detection_by_edgcf(self, loop_program):
        spec = FaultSpec(branch_pc(loop_program), 2,
                         RedirectFault(loop_program.symbols["main"]))
        dbt = Dbt(loop_program, technique=EdgCF())
        injector = DbtInjector(spec, dbt)
        injector.install(dbt.cpu)
        result = dbt.run(max_steps=100_000)
        assert injector.fired
        # jumping to main's head with the wrong signature -> detected
        assert result.detected_error

    def test_baseline_misses_same_error(self, loop_program):
        spec = FaultSpec(branch_pc(loop_program), 2,
                         RedirectFault(loop_program.symbols["main"]))
        dbt = Dbt(loop_program)
        DbtInjector(spec, dbt).install(dbt.cpu)
        result = dbt.run(max_steps=100_000)
        assert not result.detected_error
        assert dbt.cpu.output_values != [0, 1, 2, 3]

    def test_direction_fault_detected(self, loop_program):
        spec = FaultSpec(branch_pc(loop_program), 1,
                         DirectionFault(taken=None))
        dbt = Dbt(loop_program, technique=EdgCF())
        injector = DbtInjector(spec, dbt)
        injector.install(dbt.cpu)
        result = dbt.run(max_steps=100_000)
        assert injector.fired
        assert result.detected_error   # category A caught by EdgCF

    def test_not_taken_offset_fault_harmless(self, loop_program):
        # occurrence 4 of the jl is the final, not-taken execution
        spec = FaultSpec(branch_pc(loop_program), 4,
                         OffsetBitFault(bit=3))
        dbt = Dbt(loop_program, technique=EdgCF())
        injector = DbtInjector(spec, dbt)
        injector.install(dbt.cpu)
        result = dbt.run(max_steps=100_000)
        assert injector.fired
        assert result.ok
        assert dbt.cpu.output_values == [0, 1, 2, 3]

    @pytest.mark.parametrize("backend", ["interp", "block"])
    @pytest.mark.parametrize("cache_size", [None, 0x140])
    def test_occurrences_count_native_executions(self, backend,
                                                 cache_size):
        """Every translation of a guest branch counts, and only those:
        a cache flush reuses the flushed sites' addresses for other
        code, so the injector must disarm them (0x140 bytes of cache
        flushes twice on this program)."""
        from repro.exec import install_backend
        from repro.machine import BranchProfiler, run_native
        from repro.workloads import load
        program = load("254.gap", "test")
        profiler = BranchProfiler()
        run_native(program, profiler=profiler)
        assert profiler.branches
        for pc, stats in sorted(profiler.branches.items()):
            dbt = Dbt(program, technique=EdgCF(), cache_size=cache_size)
            install_backend(dbt.cpu, backend)
            injector = DbtInjector(
                FaultSpec(pc, stats.executions + 1, DirectionFault()), dbt)
            injector.install(dbt.cpu)
            assert dbt.run().ok
            assert (dbt.flushes > 0) == (cache_size is not None)
            assert not injector.fired
            assert injector.count == stats.executions, hex(pc)
