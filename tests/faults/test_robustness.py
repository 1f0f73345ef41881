"""Fault tolerance of the campaign runtime itself: per-spec
quarantine, worker supervision (crashes, timeouts, degradation), and
clear initializer errors.  Chaos specs from ``repro.faults.chaos``
stand in for segfaulting, raising, and wall-clock-pathological runs."""

import pytest

from repro.isa import assemble
from repro.faults import (CampaignExecutor, MapError, Outcome,
                          PipelineConfig, PoolSupervisor, SupervisedTask,
                          WorkerInitError, generate_category_faults,
                          parallel_map)
from repro.faults.chaos import CrashSpec, RaisingSpec, SleepSpec
from repro.faults.executor import (_mp_context, _quarantined_run,
                                   _worker_init_state, _worker_run_specs)
from repro.workloads import suite as workload_suite

CONFIG = PipelineConfig("dbt", "rcf")


@pytest.fixture(scope="module")
def gap():
    return workload_suite.load("254.gap", "test")


@pytest.fixture(scope="module")
def clean_specs(gap):
    faults = generate_category_faults(gap, per_category=4, seed=11)
    return [spec for specs in faults.by_category.values()
            for spec in specs]


@pytest.fixture(scope="module")
def serial_records(gap, clean_specs):
    """Ground truth: the clean campaign run serially."""
    return CampaignExecutor(gap, CONFIG, jobs=1).run_specs(clean_specs)


def others(records, skip_positions):
    return [record for index, record in enumerate(records)
            if index not in skip_positions]


class TestQuarantine:
    """A raising spec yields one INFRA_ERROR; neighbours unaffected."""

    def test_raising_spec_serial(self, gap, clean_specs, serial_records):
        specs = clean_specs[:3] + [RaisingSpec("kaboom")] + clean_specs[3:]
        records = CampaignExecutor(gap, CONFIG, jobs=1).run_specs(specs)
        assert records[3].outcome is Outcome.INFRA_ERROR
        assert "RuntimeError" in records[3].error
        assert "kaboom" in records[3].error
        assert "RaisingSpec" in records[3].error
        assert others(records, {3}) == serial_records

    def test_raising_spec_parallel(self, gap, clean_specs,
                                   serial_records):
        specs = clean_specs[:3] + [RaisingSpec()] + clean_specs[3:]
        records = CampaignExecutor(gap, CONFIG, jobs=2).run_specs(specs)
        assert records[3].outcome is Outcome.INFRA_ERROR
        assert others(records, {3}) == serial_records

    def test_infra_errors_outside_detection_denominator(self, gap,
                                                        clean_specs):
        from repro.faults import CategoryFaults, Category
        faults = CategoryFaults(by_category={
            Category.A: clean_specs[:2] + [RaisingSpec()]})
        result = CampaignExecutor(gap, CONFIG, jobs=1).run_campaign(
            faults)
        assert result.count(Outcome.INFRA_ERROR,
                            category=Category.A) == 1
        assert result.infra == 1
        bucket = result.outcomes[Category.A]
        harmful = (bucket[Outcome.DETECTED_SIGNATURE]
                   + bucket[Outcome.DETECTED_HARDWARE]
                   + bucket[Outcome.SDC] + bucket[Outcome.HANG])
        assert harmful == 2    # the infra error is not counted


class TestWorkerSupervision:
    def test_worker_crash_isolated(self, gap, clean_specs,
                                   serial_records):
        """os._exit in a worker costs exactly the crashing spec."""
        specs = clean_specs[:5] + [CrashSpec()] + clean_specs[5:]
        records = CampaignExecutor(gap, CONFIG, jobs=2,
                                   retries=1).run_specs(specs)
        assert len(records) == len(specs)
        assert records[5].outcome is Outcome.INFRA_ERROR
        assert "worker died" in records[5].error
        assert others(records, {5}) == serial_records

    def test_timeout_isolates_slow_spec(self, gap, clean_specs,
                                        serial_records):
        specs = clean_specs[:5] + [SleepSpec(60)] + clean_specs[5:]
        records = CampaignExecutor(gap, CONFIG, jobs=2, retries=0,
                                   timeout=2.0).run_specs(specs)
        assert records[5].outcome is Outcome.INFRA_ERROR
        assert "timed out" in records[5].error
        assert others(records, {5}) == serial_records

    def test_chaos_campaign(self, gap, clean_specs, serial_records):
        """The acceptance chaos test: one crash, one raise, one hang —
        the campaign completes, flags exactly those three specs as
        INFRA_ERROR, and every other record is byte-identical to the
        clean serial run."""
        specs = list(clean_specs)
        specs.insert(2, RaisingSpec())         # chunk 0
        specs.insert(10, CrashSpec())          # chunk 2
        specs.insert(20, SleepSpec(60))        # chunk 5
        chaos_at = {2, 10, 20}
        records = CampaignExecutor(gap, CONFIG, jobs=2, chunk_size=4,
                                   retries=0,
                                   timeout=3.0).run_specs(specs)
        assert len(records) == len(specs)
        infra = {index for index, record in enumerate(records)
                 if record.outcome is Outcome.INFRA_ERROR}
        assert infra == chaos_at
        assert others(records, chaos_at) == serial_records

    def test_degrades_to_serial_after_repeated_failures(self, gap,
                                                        clean_specs):
        """With a failure budget of one, the first worker death flips
        the supervisor into in-process serial mode; remaining clean
        tasks still complete, and the crasher is never re-run
        in-process."""
        pipeline = CampaignExecutor(gap, CONFIG, jobs=1).pipeline
        serial = [_quarantined_run(pipeline, spec)
                  for spec in clean_specs[:6]]
        tasks = [
            SupervisedTask(key=("crash",), payload=[CrashSpec()],
                           fail=lambda reason: ("failed", reason)),
            SupervisedTask(key=("clean",), payload=clean_specs[:6],
                           fail=lambda reason: ("failed", reason)),
        ]
        supervisor = PoolSupervisor(
            jobs=1, mp_context=_mp_context(),
            init_fn=_worker_init_state, init_args=(gap, CONFIG),
            task_fn=_worker_run_specs,
            serial_fn=lambda specs: _worker_run_specs(pipeline, specs),
            retries=0, max_pool_failures=1)
        results = supervisor.run(tasks)
        assert supervisor.degraded
        assert results[("crash",)][0] == "failed"
        assert results[("clean",)] == serial


class TestInitializerFailure:
    def test_parent_preflight_names_config(self, clean_specs):
        """A config whose golden run fails aborts the campaign with an
        error naming the config label, before any worker spawns."""
        bad = assemble(".entry main\nmain:\n    movi r1, 1\n"
                       "    syscall 0\n", name="bad_exit")
        with pytest.raises(RuntimeError, match=r"dbt/rcf/allbb"):
            CampaignExecutor(bad, CONFIG, jobs=2).run_specs(
                clean_specs[:4])

    def test_worker_init_error_names_config(self, gap, clean_specs):
        """A worker-side initializer failure surfaces as
        WorkerInitError carrying the config label, not an opaque
        broken-pool error."""
        bad = assemble(".entry main\nmain:\n    movi r1, 1\n"
                       "    syscall 0\n", name="bad_exit")
        supervisor = PoolSupervisor(
            jobs=1, mp_context=_mp_context(),
            init_fn=_worker_init_state, init_args=(bad, CONFIG),
            task_fn=_worker_run_specs,
            serial_fn=lambda specs: specs)
        task = SupervisedTask(key=(0,), payload=clean_specs[:1],
                              fail=lambda reason: reason)
        with pytest.raises(WorkerInitError, match=r"dbt/rcf/allbb"):
            supervisor.run([task])


def _double_or_raise(value):
    if value == 3:
        raise ValueError("item three is broken")
    return value * 2


class TestParallelMapQuarantine:
    def test_failure_marks_only_its_item(self):
        for jobs in (1, 4):
            out = parallel_map(_double_or_raise, range(6), jobs=jobs)
            assert out[:3] == [0, 2, 4]
            assert out[4:] == [8, 10]
            assert isinstance(out[3], MapError)
            assert out[3].item == 3
            assert "ValueError" in out[3].error

    def test_all_results_survive_one_failure(self):
        out = parallel_map(_double_or_raise, range(23), jobs=3)
        assert len(out) == 23
        assert sum(isinstance(r, MapError) for r in out) == 1
