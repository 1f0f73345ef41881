"""End-to-end detection stories from the paper, on real suite
workloads."""

import pytest

from repro.faults import (Category, Outcome, PipelineConfig,
                          generate_category_faults, run_cache_campaign,
                          run_campaign)
from repro.workloads import load


@pytest.fixture(scope="module")
def parser_program():
    return load("197.parser", "test")


@pytest.fixture(scope="module")
def parser_faults(parser_program):
    return generate_category_faults(parser_program, per_category=8,
                                    seed=42)


class TestHeadlineClaim:
    """'The RCF technique can cover all the branch-errors, including
    those that occur at the conditional branch instructions inserted to
    update/check the signature' (paper Section 7)."""

    def test_rcf_covers_every_guest_category(self, parser_program,
                                             parser_faults):
        result = run_campaign(parser_program,
                              PipelineConfig("dbt", "rcf"),
                              parser_faults)
        for category in (Category.A, Category.B, Category.C, Category.D,
                         Category.E, Category.F):
            assert result.covers(category), category

    def test_rcf_covers_inserted_branches(self, parser_program):
        result = run_cache_campaign(parser_program,
                                    PipelineConfig("dbt", "rcf"),
                                    max_sites=15, seed=1)
        assert result.undetected == 0

    def test_jcc_unsafety_of_baselines(self, parser_program):
        """Figure 14's shaded cells: ECF/EdgCF with Jcc updates leave
        their inserted branches unprotected; RCF does not."""
        undetected = {}
        for technique in ("ecf", "edgcf", "rcf"):
            result = run_cache_campaign(
                parser_program, PipelineConfig("dbt", technique),
                max_sites=15, seed=1)
            undetected[technique] = result.undetected
        assert undetected["rcf"] == 0
        assert undetected["ecf"] > 0
        assert undetected["edgcf"] > 0


class TestDetectionLatency:
    def test_allbb_detects_before_end(self, parser_program,
                                      parser_faults):
        """With ALLBB the error report happens well before the program
        would have finished (bounded detection latency)."""
        from repro.faults import Pipeline
        pipeline = Pipeline(parser_program,
                            PipelineConfig("dbt", "edgcf"))
        golden_icount = pipeline.golden.icount
        detections = []
        for spec in parser_faults.by_category[Category.D]:
            record = pipeline.run(spec)
            if record.outcome is Outcome.DETECTED_SIGNATURE:
                detections.append(record.icount)
        assert detections
        assert all(icount <= golden_icount * 1.1
                   for icount in detections)


class TestAssumption2Residual:
    def test_exit_block_middles_are_undetectable(self):
        """Landing directly on the program-exit code escapes every
        signature technique — the boundary the paper's Assumption 2
        draws around the problem."""
        program = load("254.gap", "test")
        faults = generate_category_faults(
            program, per_category=20, seed=1,
            exclude_exit_block_middles=False)
        result = run_campaign(program, PipelineConfig("dbt", "rcf"),
                              faults)
        # with the exit-block landings included, E may contain escapes…
        total_sdc = sum(result.count(Outcome.SDC, category=c)
                        for c in Category if c is not Category.NO_ERROR)
        # …but the default generator excludes them:
        clean = generate_category_faults(program, per_category=20,
                                         seed=1)
        clean_result = run_campaign(program,
                                    PipelineConfig("dbt", "rcf"), clean)
        clean_sdc = sum(clean_result.count(Outcome.SDC, category=c)
                        for c in Category if c is not Category.NO_ERROR)
        assert clean_sdc == 0
        assert total_sdc >= clean_sdc
