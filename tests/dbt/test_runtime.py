"""DBT correctness: equivalence with native, chaining, indirect flow,
dispatch cost accounting, determinism."""

import pytest

from repro.isa import assemble
from repro.machine import StopReason, run_native
from repro.checking import EdgCF
from repro.dbt import CACHE_BASE, Dbt, NullTechnique, run_dbt
from repro.workloads import generate_program, suite as workload_suite


class TestEquivalence:
    def test_sum_loop(self, sum_loop):
        cpu, _ = run_native(sum_loop)
        dbt, result = run_dbt(sum_loop)
        assert result.ok
        assert dbt.cpu.output_values == cpu.output_values

    def test_calls(self, call_program):
        cpu, _ = run_native(call_program)
        dbt, result = run_dbt(call_program)
        assert result.ok
        assert dbt.cpu.output_values == cpu.output_values

    def test_jump_table_program(self):
        program = workload_suite.load("176.gcc", "test")
        cpu, _ = run_native(program)
        dbt, result = run_dbt(program)
        assert result.ok
        assert dbt.cpu.output_values == cpu.output_values

    @pytest.mark.parametrize("name",
                             ["254.gap", "171.swim", "164.gzip",
                              "255.vortex", "186.crafty"])
    def test_suite_members(self, name):
        program = workload_suite.load(name, "test")
        cpu, _ = run_native(program)
        dbt, result = run_dbt(program)
        assert result.ok
        assert dbt.cpu.output_values == cpu.output_values
        assert dbt.cpu.output == cpu.output

    def test_exit_code_propagates(self):
        program = assemble("movi r1, 3\nsyscall 0")
        dbt, result = run_dbt(program)
        assert result.stop.exit_code == 3


class TestTranslationMechanics:
    def test_translate_on_demand(self, diamond_program):
        """Only executed blocks get translated (Section 5)."""
        dbt, result = run_dbt(diamond_program)
        from repro.cfg import build_cfg
        cfg = build_cfg(diamond_program)
        assert result.translated_blocks < len(cfg)

    def test_translated_blocks_counts_this_run_call(self, sum_loop):
        """A run segment inside the loop translates nothing new."""
        from repro.dbt import Dbt
        dbt = Dbt(sum_loop)
        first = dbt.run(max_steps=10)
        assert first.translated_blocks == len(dbt.blocks) > 0
        second = dbt.run(max_steps=10)
        assert second.stop.reason.value == "step_limit"
        assert second.translated_blocks == 0

    def test_blocks_live_in_cache(self, sum_loop):
        dbt, _ = run_dbt(sum_loop)
        for tb in dbt.blocks.values():
            assert tb.cache_start >= CACHE_BASE

    def test_chaining_patches_exits(self, sum_loop):
        dbt, _ = run_dbt(sum_loop)
        patched = [slot for slot in dbt.slots.values() if slot.patched]
        assert patched  # the loop edge must have been chained

    def test_addr_map_covers_executed_guest_code(self, sum_loop):
        dbt, _ = run_dbt(sum_loop)
        for tb in dbt.blocks.values():
            for addr in range(tb.guest_start, tb.guest_end, 4):
                assert addr in dbt.addr_map

    def test_guest_text_not_executable(self, sum_loop):
        """Guest pages lose X: category-F landings in old text fault."""
        from repro.machine.memory import PERM_X
        dbt, _ = run_dbt(sum_loop)
        page = sum_loop.text_base >> 12
        assert not dbt.cpu.memory.perms[page] & PERM_X

    def test_deterministic_layout(self, call_program):
        """Same program, same config => identical cache layout (the
        cache-level fault campaigns rely on this)."""
        layouts = []
        for _ in range(2):
            dbt, result = run_dbt(call_program, technique=EdgCF())
            assert result.ok
            layouts.append(sorted(
                (tb.guest_start, tb.cache_start, tb.cache_end)
                for tb in dbt.blocks.values()))
        assert layouts[0] == layouts[1]

    def test_dispatch_cycles_charged(self, call_program):
        cheap = Dbt(call_program, indirect_cycles=0, dispatch_cycles=0)
        cheap.run()
        costly = Dbt(call_program, indirect_cycles=50,
                     dispatch_cycles=100)
        costly.run()
        assert costly.cpu.cycles > cheap.cpu.cycles

    def test_null_technique_is_default(self, sum_loop):
        dbt = Dbt(sum_loop)
        assert isinstance(dbt.technique, NullTechnique)

    def test_suffix_translation_entryless(self, sum_loop):
        dbt, _ = run_dbt(sum_loop, technique=EdgCF())
        loop = sum_loop.symbols["loop"]
        suffix = dbt.ensure_suffix(loop, loop + 4)
        assert not suffix.instrumented_entry
        assert suffix.guest_start == loop + 4

    def test_step_budget_respected(self):
        program = assemble("spin: jmp spin")
        dbt = Dbt(program)
        result = dbt.run(max_steps=500)
        assert result.stop.reason is StopReason.STEP_LIMIT


class TestOverhead:
    def test_baseline_overhead_small(self):
        """Uninstrumented DBT stays in the paper's ~12% ballpark."""
        program = workload_suite.load("171.swim", "small")
        cpu, _ = run_native(program)
        dbt, result = run_dbt(program)
        slowdown = dbt.cpu.cycles / cpu.cycles
        assert 1.0 <= slowdown < 1.35

    def test_instrumentation_has_cost(self, sum_loop):
        dbt_plain, _ = run_dbt(sum_loop)
        dbt_inst, _ = run_dbt(sum_loop, technique=EdgCF())
        assert dbt_inst.cpu.cycles > dbt_plain.cpu.cycles


class TestRandomPrograms:
    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_random(self, seed):
        program = generate_program(seed, statements=15, with_calls=True)
        cpu, stop = run_native(program, max_steps=500_000)
        assert stop.reason is StopReason.HALTED
        dbt, result = run_dbt(program)
        assert result.ok
        assert dbt.cpu.output_values == cpu.output_values
