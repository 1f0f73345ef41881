"""Campaign machinery: golden runs, outcome classification, the
paper's coverage claims end-to-end."""

import pytest

from repro.checking import Policy
from repro.faults import (Category, DirectionFault, Outcome,
                          Pipeline, PipelineConfig, RedirectFault,
                          generate_category_faults, run_campaign)
from repro.workloads import suite as workload_suite


@pytest.fixture(scope="module")
def gap():
    return workload_suite.load("254.gap", "test")


@pytest.fixture(scope="module")
def gap_faults(gap):
    return generate_category_faults(gap, per_category=6, seed=11)


class TestPipeline:
    def test_golden_run_benign(self, gap):
        pipeline = Pipeline(gap, PipelineConfig("native"))
        assert pipeline.golden.icount > 0
        record = pipeline.run(None)
        assert record.outcome is Outcome.BENIGN

    def test_pipelines_agree_on_golden_output(self, gap):
        outputs = set()
        for config in (PipelineConfig("native"),
                       PipelineConfig("dbt", "edgcf"),
                       PipelineConfig("static", "edgcf")):
            pipeline = Pipeline(gap, config)
            outputs.add(pipeline.golden.outputs)
        assert len(outputs) == 1

    def test_labels(self):
        assert PipelineConfig("dbt", "rcf").label() == "dbt/rcf/allbb"
        assert PipelineConfig(
            "dbt", "rcf", Policy.END).label() == "dbt/rcf/end"


class TestFaultGeneration:
    def test_all_categories_populated(self, gap_faults):
        for category in (Category.A, Category.B, Category.C, Category.D,
                         Category.E, Category.F):
            assert gap_faults.by_category[category]

    def test_deterministic(self, gap):
        first = generate_category_faults(gap, per_category=4, seed=3)
        second = generate_category_faults(gap, per_category=4, seed=3)
        assert first.by_category == second.by_category

    def test_a_faults_are_direction_inversions(self, gap_faults):
        for spec in gap_faults.by_category[Category.A]:
            assert isinstance(spec.fault, DirectionFault)

    def test_f_faults_land_outside_code(self, gap, gap_faults):
        for spec in gap_faults.by_category[Category.F]:
            assert isinstance(spec.fault, RedirectFault)
            assert not gap.contains_code(spec.fault.target)


class TestCoverageClaims:
    """The paper's Section-3 comparison, as executable assertions."""

    @pytest.fixture(scope="class")
    def results(self, gap, gap_faults):
        configs = {
            "none": PipelineConfig("dbt", None),
            "ecf": PipelineConfig("dbt", "ecf"),
            "edgcf": PipelineConfig("dbt", "edgcf"),
            "rcf": PipelineConfig("dbt", "rcf"),
            "cfcss": PipelineConfig("static", "cfcss"),
            "ecca": PipelineConfig("static", "ecca"),
        }
        return {name: run_campaign(gap, config, gap_faults)
                for name, config in configs.items()}

    def test_unprotected_run_suffers_sdc(self, results):
        total_sdc = sum(results["none"].count(Outcome.SDC, category=c)
                        for c in Category if c is not Category.NO_ERROR)
        assert total_sdc > 0

    def test_category_f_hardware_detected_everywhere(self, results):
        for name, result in results.items():
            bucket = result.outcomes[Category.F]
            assert bucket[Outcome.SDC] == 0, name
            assert bucket[Outcome.DETECTED_HARDWARE] > 0, name

    @pytest.mark.parametrize("tech", ["edgcf", "rcf"])
    def test_new_techniques_cover_all_categories(self, results, tech):
        """The paper's headline: EdgCF and RCF detect every category."""
        for category in (Category.A, Category.B, Category.C, Category.D,
                         Category.E):
            assert results[tech].covers(category), (tech, category)

    def test_ecf_misses_category_c(self, results):
        assert not results["ecf"].covers(Category.C)
        for category in (Category.A, Category.B, Category.D):
            assert results["ecf"].covers(category)

    def test_cfcss_misses_category_a(self, results):
        assert not results["cfcss"].covers(Category.A)

    def test_cfcss_misses_category_c(self, results):
        assert not results["cfcss"].covers(Category.C)

    def test_ecca_misses_category_a(self, results):
        assert not results["ecca"].covers(Category.A)

    def test_ecca_misses_category_c(self, results):
        assert not results["ecca"].covers(Category.C)

    def test_signature_detection_dominates_for_new_techniques(
            self, results):
        for tech in ("edgcf", "rcf"):
            for category in (Category.A, Category.B, Category.C,
                             Category.D):
                bucket = results[tech].outcomes[category]
                assert bucket[Outcome.DETECTED_SIGNATURE] > 0


class TestPolicyDetectionTradeoff:
    def test_end_policy_may_miss_hangs(self, gap):
        """RET/END cannot report errors that hang the program — the
        failure mode the paper calls out; ALLBB reports everything."""
        faults = generate_category_faults(gap, per_category=8, seed=5)
        allbb = run_campaign(gap, PipelineConfig(
            "dbt", "rcf", Policy.ALLBB), faults)
        end = run_campaign(gap, PipelineConfig(
            "dbt", "rcf", Policy.END), faults)
        for category in (Category.A, Category.B, Category.C, Category.D,
                         Category.E):
            assert allbb.covers(category)
        # END detects strictly no more than ALLBB
        def total_sig(res):
            return sum(res.outcomes[c][Outcome.DETECTED_SIGNATURE]
                       for c in res.outcomes)
        assert total_sig(end) <= total_sig(allbb)
