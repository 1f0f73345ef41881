"""Detection latency: the fail-stop discussion of Section 6.

"The signature checking policies presentation is sorted by the
signature checking frequency.  Notice that the less frequently we check
the signature, the more delay it can take to report the error."
"""

import statistics

import pytest

from repro.checking import Policy
from repro.faults import (Category, Outcome, Pipeline, PipelineConfig,
                          generate_category_faults)
from repro.workloads import load


@pytest.fixture(scope="module")
def program():
    return load("254.gap", "test")


@pytest.fixture(scope="module")
def faults(program):
    return generate_category_faults(program, per_category=10, seed=77)


def latencies(program, faults, policy):
    pipeline = Pipeline(program, PipelineConfig("dbt", "rcf", policy))
    values = []
    for category in (Category.D, Category.E):
        for spec in faults.by_category[category]:
            record = pipeline.run(spec)
            if record.outcome is Outcome.DETECTED_SIGNATURE:
                assert record.detection_latency is not None
                values.append(record.detection_latency)
    return values


class TestDetectionLatency:
    def test_latency_recorded_on_detection(self, program, faults):
        values = latencies(program, faults, Policy.ALLBB)
        assert values
        assert all(v >= 0 for v in values)

    def test_allbb_latency_is_short(self, program, faults):
        """With checks in every block, detection happens within a few
        blocks of the error."""
        values = latencies(program, faults, Policy.ALLBB)
        assert statistics.median(values) < 200

    def test_sparser_checks_mean_longer_latency(self, program, faults):
        allbb = latencies(program, faults, Policy.ALLBB)
        end = latencies(program, faults, Policy.END)
        if allbb and end:
            assert statistics.median(end) >= statistics.median(allbb)

    def test_store_policy_detects_before_observable_output(
            self, program, faults):
        """The STORE policy (Reis et al.'s placement, cited in §6)
        checks wherever data can leave the sphere of replication."""
        pipeline = Pipeline(program,
                            PipelineConfig("dbt", "rcf", Policy.STORE))
        for category in (Category.D, Category.E):
            for spec in faults.by_category[category]:
                record = pipeline.run(spec)
                assert record.outcome is not Outcome.SDC, (category,
                                                           spec)


class TestCacheFaultLatency:
    def test_cache_level_detection_records_latency(self, program):
        """Regression: CacheFaultSpec runs must carry detection_latency
        just like guest-level injections — CacheLevelInjector plumbs
        fired_icount through Pipeline.execute."""
        from repro.faults import (CacheFaultSpec,
                                  enumerate_instrumentation_branch_sites)
        config = PipelineConfig("dbt", "rcf")
        sites = enumerate_instrumentation_branch_sites(program, config)
        assert sites
        pipeline = Pipeline(program, config)
        detected = []
        for site in sites[:12]:
            for bit in (0, 1, 2, 4, 9):
                record = pipeline.run(CacheFaultSpec(
                    cache_addr=site, occurrence=1, bit=bit,
                    force_taken=True))
                if record.outcome is Outcome.DETECTED_SIGNATURE:
                    detected.append(record)
        assert detected, "no cache-level fault was signature-detected"
        for record in detected:
            assert record.detection_latency is not None
            assert record.detection_latency >= 0


class TestStorePolicy:
    def test_store_policy_checks_store_blocks(self, program):
        from repro.cfg import build_cfg
        from repro.checking.policies import block_has_store
        cfg = build_cfg(program)
        checked = [b for b in cfg if Policy.STORE.should_check(b)]
        assert checked
        for block in checked:
            from repro.cfg.basic_block import ExitKind
            assert (block_has_store(block)
                    or block.exit_kind in (ExitKind.HALT, ExitKind.EXIT))

    def test_store_policy_cheaper_than_allbb(self, program):
        from repro.dbt import Dbt
        from repro.checking import make_technique
        costs = {}
        for policy in (Policy.ALLBB, Policy.STORE):
            dbt = Dbt(program, technique=make_technique("rcf"),
                      policy=policy)
            result = dbt.run()
            assert result.ok
            costs[policy] = dbt.cpu.cycles
        assert costs[Policy.STORE] <= costs[Policy.ALLBB]
