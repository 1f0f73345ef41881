"""Model-sampled soft-error campaigns."""

import pytest

from repro.faults import (Category, Outcome, PipelineConfig,
                          compute_error_model,
                          run_effectiveness_campaign,
                          sample_model_faults)
from repro.faults.injector import FlagBitFault, OffsetBitFault
from repro.workloads import load


@pytest.fixture(scope="module")
def gap():
    return load("254.gap", "test")


class TestSampling:
    def test_deterministic(self, gap):
        a = sample_model_faults(gap, 20, seed=1)
        b = sample_model_faults(gap, 20, seed=1)
        assert a == b

    def test_seeds_differ(self, gap):
        assert sample_model_faults(gap, 20, seed=1) != \
            sample_model_faults(gap, 20, seed=2)

    def test_fault_kinds(self, gap):
        specs = sample_model_faults(gap, 200, seed=3)
        kinds = {type(s.fault) for s in specs}
        assert kinds == {OffsetBitFault, FlagBitFault}

    def test_flag_faults_only_on_conditionals(self, gap):
        specs = sample_model_faults(gap, 200, seed=3)
        for spec in specs:
            if isinstance(spec.fault, FlagBitFault):
                instr = gap.instruction_at(spec.branch_pc)
                assert instr.meta.cond is not None

    def test_occurrences_within_execution_counts(self, gap):
        from repro.machine import BranchProfiler, run_native
        profiler = BranchProfiler()
        run_native(gap, profiler=profiler)
        specs = sample_model_faults(gap, 100, seed=5)
        for spec in specs:
            stats = profiler.branches[spec.branch_pc]
            assert 1 <= spec.occurrence <= stats.executions

    def test_bit_ranges(self, gap):
        specs = sample_model_faults(gap, 200, seed=7)
        for spec in specs:
            if isinstance(spec.fault, OffsetBitFault):
                assert 0 <= spec.fault.bit < 16
            else:
                assert 0 <= spec.fault.bit < 4


class TestEffectiveness:
    @pytest.fixture(scope="class")
    def results(self, gap):
        return {
            label: run_effectiveness_campaign(
                gap, PipelineConfig("dbt", tech), count=40, seed=11)
            for label, tech in (("none", None), ("rcf", "rcf"))
        }

    def test_rates_sum_to_one(self, results):
        for result in results.values():
            total = sum(result.rate(outcome) for outcome in Outcome)
            assert total == pytest.approx(1.0)

    def test_protection_removes_unreported_harm(self, results):
        assert results["none"].rate(Outcome.SDC) > 0
        assert results["rcf"].rate(Outcome.SDC, Outcome.HANG) == 0.0

    def test_hardware_rate_stable_across_configs(self, results):
        """Category-F faults are hardware-caught with or without a
        technique; the rates should be close."""
        none_hw = results["none"].rate(Outcome.DETECTED_HARDWARE)
        rcf_hw = results["rcf"].rate(Outcome.DETECTED_HARDWARE)
        assert abs(none_hw - rcf_hw) < 0.15

    def test_model_cross_validation(self, gap, results):
        model = compute_error_model(gap)
        benign = results["none"].rate(Outcome.BENIGN)
        assert abs(benign - model.probability(Category.NO_ERROR)) < 0.25
