"""Data-flow duplication (the paper's future-work extension)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_TABLE, Op
from repro.isa.registers import DF2, SDW, is_host_only_register
from repro.machine import run_native
from repro.checking import EdgCF, RCF
from repro.checking.dataflow import DataFlowDuplication
from repro.dbt import Dbt
from repro.faults import (Outcome, Pipeline, PipelineConfig,
                          RegisterFaultSpec, run_data_fault_campaign)
from repro.workloads import generate_program, load


class TestTransform:
    def setup_method(self):
        self.df = DataFlowDuplication()

    def _instructions(self, seq):
        return [e for e in seq if isinstance(e, Instruction)]

    def test_alu_duplicated_before_original(self):
        instr = Instruction(op=Op.ADD, rd=1, rs=2, rt=3)
        seq = self.df.transform(0x1000, instr)
        assert seq[-1] == instr
        dup = [e for e in self._instructions(seq) if e.op is Op.ADD
               and e is not instr]
        assert dup and dup[0].rd == DF2

    def test_alu_shadow_uses_shadow_inputs(self):
        instr = Instruction(op=Op.MUL, rd=1, rs=2, rt=3)
        seq = self._instructions(self.df.transform(0, instr))
        loads = [e for e in seq if e.op is Op.LD and e.rs == SDW]
        assert {e.imm for e in loads} == {2 * 4, 3 * 4}

    def test_store_checks_value_and_address(self):
        instr = Instruction(op=Op.ST, rd=1, rs=2, imm=8)
        seq = self.df.transform(0, instr)
        markers = [e for e in seq
                   if e is DataFlowDuplication.CHECK_BRANCH]
        assert len(markers) == 2
        assert seq[-1] == instr      # store commits only after checks

    def test_load_copies_result_to_shadow(self):
        instr = Instruction(op=Op.LD, rd=4, rs=5, imm=0)
        seq = self._instructions(self.df.transform(0, instr))
        copies = [e for e in seq if e.op is Op.ST and e.rs == SDW
                  and e.imm == 4 * 4]
        assert copies

    def test_compare_checks_operands(self):
        instr = Instruction(op=Op.CMP, rs=1, rt=2)
        seq = self.df.transform(0, instr)
        markers = [e for e in seq
                   if e is DataFlowDuplication.CHECK_BRANCH]
        assert len(markers) == 2

    def test_syscall_checks_argument(self):
        instr = Instruction(op=Op.SYSCALL, imm=4)
        seq = self.df.transform(0, instr)
        assert DataFlowDuplication.CHECK_BRANCH in seq

    def test_original_flags_last(self):
        """The original must be the last flag-writing instruction so
        guest FLAGS semantics survive duplication."""
        for op in (Op.ADD, Op.SUB, Op.CMP, Op.ADDI, Op.MUL):
            fmt = OP_TABLE[op].fmt.value
            instr = Instruction(op=op, rd=1, rs=2,
                                rt=3 if fmt == "r3" else 0,
                                imm=4 if fmt == "ri" else 0)
            seq = [e for e in self.df.transform(0, instr)
                   if isinstance(e, Instruction)]
            flagged = [e for e in seq if OP_TABLE[e.op].sets_flags]
            assert flagged[-1] == instr

    def test_duplication_uses_reserved_registers(self):
        for op, instr in (
                (Op.ADD, Instruction(op=Op.ADD, rd=1, rs=2, rt=3)),
                (Op.LD, Instruction(op=Op.LD, rd=1, rs=2, imm=0)),
                (Op.MOV, Instruction(op=Op.MOV, rd=1, rs=2))):
            for e in self.df.transform(0, instr):
                if isinstance(e, Instruction) and e is not instr:
                    assert (is_host_only_register(e.rd)
                            or e.op in (Op.ST,)), e

    def test_nop_passthrough(self):
        instr = Instruction(op=Op.NOP)
        assert self.df.transform(0, instr) == [instr]


class TestTransparency:
    @pytest.mark.parametrize("name", ["254.gap", "171.swim",
                                      "176.gcc", "186.crafty"])
    def test_suite_equivalence(self, name):
        program = load(name, "test")
        cpu, _ = run_native(program, max_steps=3_000_000)
        dbt = Dbt(program, dataflow=True)
        result = dbt.run(max_steps=30_000_000)
        assert result.ok and not result.detected_dataflow
        assert dbt.cpu.output_values == cpu.output_values

    @pytest.mark.parametrize("technique", [EdgCF, RCF])
    def test_composes_with_control_flow_checking(self, technique):
        program = load("254.gap", "test")
        cpu, _ = run_native(program)
        dbt = Dbt(program, technique=technique(), dataflow=True)
        result = dbt.run(max_steps=30_000_000)
        assert result.ok
        assert not result.detected_error
        assert not result.detected_dataflow
        assert dbt.cpu.output_values == cpu.output_values

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 200))
    def test_random_program_equivalence(self, seed):
        program = generate_program(seed, statements=10, with_calls=True)
        cpu, stop = run_native(program, max_steps=500_000)
        assert stop.reason.value == "halted"
        dbt = Dbt(program, dataflow=True)
        result = dbt.run(max_steps=20_000_000)
        assert result.ok and not result.detected_dataflow
        assert dbt.cpu.output_values == cpu.output_values

    def test_duplication_costs_cycles(self):
        program = load("254.gap", "test")
        plain = Dbt(program)
        plain.run()
        protected = Dbt(program, dataflow=True)
        protected.run()
        assert protected.cpu.cycles > plain.cpu.cycles * 1.5


class TestDetection:
    def test_register_fault_detected(self):
        program = load("254.gap", "test")
        spec = RegisterFaultSpec(icount=500, reg=1, bit=7)
        dbt = Dbt(program, dataflow=True)
        spec.install(dbt.cpu)
        result = dbt.run(max_steps=30_000_000)
        assert result.detected_dataflow

    def test_same_fault_corrupts_unprotected_run(self):
        program = load("254.gap", "test")
        golden = Dbt(program)
        golden.run()
        spec = RegisterFaultSpec(icount=500, reg=1, bit=7)
        dbt = Dbt(program)
        spec.install(dbt.cpu)
        result = dbt.run(max_steps=30_000_000)
        assert not result.detected_dataflow
        assert dbt.cpu.output_values != golden.cpu.output_values

    def test_campaign_kills_all_sdc(self):
        """Every register fault that corrupts the unprotected run is
        caught by duplication."""
        program = load("254.gap", "test")
        base = run_data_fault_campaign(
            program, PipelineConfig("dbt", None), count=25, seed=4)
        protected = run_data_fault_campaign(
            program, PipelineConfig("dbt", None, dataflow=True),
            count=25, seed=4)
        assert base.sdc > 0
        assert protected.sdc == 0

    def test_dead_register_fault_benign(self):
        """A strike on a register that is rewritten before any use is
        masked — and must not false-positive."""
        program = load("254.gap", "test")
        result = run_data_fault_campaign(
            program, PipelineConfig("dbt", None, dataflow=True),
            count=25, seed=4)
        assert result.count(Outcome.BENIGN) > 0

    def test_golden_run_has_no_false_positive(self):
        program = load("197.parser", "test")
        pipeline = Pipeline(program,
                            PipelineConfig("dbt", "rcf", dataflow=True))
        record = pipeline.run(None)
        assert record.outcome is Outcome.BENIGN
