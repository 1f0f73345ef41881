"""Self-modifying code under the DBT (paper Section 5)."""

import itertools

import pytest

from repro.dbt import Dbt, run_dbt
from repro.faults.campaign import Outcome, Pipeline, PipelineConfig
from repro.faults.injector import RegisterFaultSpec
from repro.isa import assemble

# Patches its own later instruction (movi r2, 1 -> movi r2, 7), then
# executes it: output must reflect the *new* code.
SMC_SRC = """
.entry main
main:
    const r1, site
    const r2, 0x21100007      ; movi r2, 7
    st r2, r1, 0
site:
    movi r2, 1
    mov r1, r2
    syscall 4
    movi r1, 0
    syscall 0
"""

# Patch happens only on the second pass through the writer block, after
# the target block was already translated and executed once.
SMC_LOOP_SRC = """
.entry main
main:
    movi r5, 0
again:
    cmpi r5, 1
    jnz skip_patch
    const r1, site
    const r2, 0x21100063      ; movi r2, 99
    st r2, r1, 0
skip_patch:
site:
    movi r2, 1
    mov r1, r2
    syscall 4
    addi r5, r5, 1
    cmpi r5, 3
    jl again
    movi r1, 0
    syscall 0
"""


class TestSelfModifyingCode:
    def test_patch_before_first_execution(self):
        program = assemble(SMC_SRC)
        dbt, result = run_dbt(program)
        assert result.ok
        assert dbt.cpu.output_values == [7]

    def test_patch_after_translation_invalidates(self):
        program = assemble(SMC_LOOP_SRC)
        # ground truth from the native machine with writable text
        cpu, _ = run_native_with_writable_text(program)
        dbt, result = run_dbt(program)
        assert result.ok
        assert result.smc_flushes >= 1
        assert dbt.cpu.output_values == cpu.output_values
        # first iteration ran old code, later ones the patched code
        assert dbt.cpu.output_values[0] == 1
        assert dbt.cpu.output_values[-1] == 99

    def test_flush_resets_translations(self):
        program = assemble(SMC_LOOP_SRC)
        dbt, result = run_dbt(program)
        assert result.ok
        # the program still finished: blocks were retranslated
        assert result.translated_blocks > 0

    def test_run_in_segments_resumes_after_a_flush(self):
        """A run stepped a few instructions at a time (as recovery
        segments and forked-run rungs step it) continues where it
        stopped after the SMC flush instead of re-entering the
        program."""
        from repro.dbt import Dbt
        program = assemble(SMC_LOOP_SRC)
        whole, _ = run_dbt(program)
        dbt = Dbt(program)
        for _ in range(1000):
            result = dbt.run(max_steps=5)
            if result.stop.reason.value != "step_limit":
                break
        assert result.ok and result.smc_flushes == 1
        assert dbt.cpu.output_values == whole.cpu.output_values
        assert (dbt.cpu.icount, dbt.cpu.cycles) == (whole.cpu.icount,
                                                    whole.cpu.cycles)


    def test_step_budget_covers_the_flush(self):
        """The store a flush re-executes is a step of the budget: a run
        stops with exactly its budget retired, wherever the budget ends
        (at the faulting store too), and resumes to the same end."""
        from repro.dbt import Dbt
        program = assemble(SMC_LOOP_SRC)
        whole, _ = run_dbt(program)
        for budget in range(1, whole.cpu.icount):
            dbt = Dbt(program)
            result = dbt.run(max_steps=budget)
            assert result.stop.reason.value == "step_limit", budget
            assert dbt.cpu.icount == budget
            result = dbt.run()
            assert result.ok and result.smc_flushes == 1
            assert (dbt.cpu.icount, dbt.cpu.cycles,
                    dbt.cpu.output_values) == (whole.cpu.icount,
                                               whole.cpu.cycles,
                                               whole.cpu.output_values)

    @pytest.mark.parametrize("backend", ["interp", "block"])
    def test_rollback_from_the_faulting_store_faults_again(self, backend):
        """A recovery attempt whose budget ends on the faulting store is
        rolled back to the checkpoint just before it.  The store it
        never re-executed changed nothing, so the re-executed one
        faults again and the patched code runs."""
        program = assemble(SMC_LOOP_SRC)
        store = next(budget for budget in itertools.count(1)
                     if Dbt(program).run(max_steps=budget + 1).smc_flushes)
        pipe = Pipeline(program, PipelineConfig(
            "dbt", None, backend=backend, recover=True,
            checkpoint_interval=1))
        record = pipe.run(RegisterFaultSpec(icount=10_000, reg=9, bit=0),
                          max_steps=store)
        assert record.outcome is Outcome.RECOVERED
        assert (record.attempts, record.rollback_distance_icount) == (1, 1)
        assert record.outputs == pipe.golden.outputs
        assert record.outputs[1] == (1, 99, 99)


def run_native_with_writable_text(program):
    from repro.machine import Cpu
    from repro.machine.memory import PERM_RWX
    cpu = Cpu()
    cpu.load_program(program)
    cpu.memory.set_perms(program.text_base, len(program.text), PERM_RWX)
    stop = cpu.run(max_steps=1_000_000)
    assert stop.reason.value == "halted"
    return cpu, stop
