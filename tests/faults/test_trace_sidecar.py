"""Executor trace sidecar: deterministic spans across worker counts,
journal byte-identity preserved, resume continues the original trace."""

import pytest

from repro.faults import (CampaignExecutor, PipelineConfig,
                          generate_category_faults)
from repro.obs.spans import (TraceContext, read_entries,
                             to_chrome_trace, trace_sidecar_path,
                             validate_chrome_trace)
from repro.workloads import suite as workload_suite


@pytest.fixture(scope="module")
def gap():
    return workload_suite.load("254.gap", "test")


@pytest.fixture(scope="module")
def specs(gap):
    faults = generate_category_faults(gap, per_category=6, seed=11)
    return [spec for chunk in faults.by_category.values()
            for spec in chunk]


def _run(gap, specs, tmp_path, jobs, trace, name="j"):
    journal = str(tmp_path / f"{name}.jsonl")
    executor = CampaignExecutor(gap, PipelineConfig("dbt", "rcf"),
                                jobs=jobs, chunk_size=5,
                                journal=journal, trace=trace)
    records = executor.run_specs(specs)
    return journal, records


def _span_ids(sidecar):
    entries = read_entries(sidecar)
    chunks = {e["span_id"] for e in entries if e["cat"] == "chunk"}
    runs = {e["span_id"] for e in entries if e["cat"] == "run"}
    return chunks, runs


def _chunks(entries):
    return [e for e in entries if e["cat"] == "chunk"]


class TestSidecar:
    def test_serial_equals_parallel_span_ids(self, gap, specs,
                                             tmp_path):
        trace = TraceContext.root("trace-x")
        serial_journal, serial_records = _run(
            gap, specs, tmp_path, jobs=1, trace=trace, name="s")
        parallel_journal, parallel_records = _run(
            gap, specs, tmp_path, jobs=3, trace=trace, name="p")
        assert serial_records == parallel_records
        assert _span_ids(trace_sidecar_path(serial_journal)) == \
            _span_ids(trace_sidecar_path(parallel_journal))

    def test_sidecar_entries_form_valid_trace(self, gap, specs,
                                              tmp_path):
        trace = TraceContext.root("trace-v")
        journal, _ = _run(gap, specs, tmp_path, jobs=2, trace=trace)
        entries = read_entries(trace_sidecar_path(journal))
        chunks = _chunks(entries)
        assert chunks, "chunks must be traced"
        assert {e["cat"] for e in entries} == {"chunk", "run"}
        assert all(e["parent_span"] == trace.span_id for e in chunks)
        chunk_ids = {e["span_id"] for e in chunks}
        runs = [e for e in entries if e["cat"] == "run"]
        assert all(e["parent_span"] in chunk_ids for e in runs)
        # run count across chunks covers every spec exactly once
        indices = sorted(e["attrs"]["index"] for e in runs)
        assert indices == list(range(len(specs)))
        trace_dict = to_chrome_trace(entries)
        assert validate_chrome_trace(trace_dict) == []

    def test_journal_bytes_unaffected_by_tracing(self, gap, specs,
                                                 tmp_path):
        plain, _ = _run(gap, specs, tmp_path, jobs=1, trace=None,
                        name="plain")
        traced, _ = _run(gap, specs, tmp_path, jobs=1,
                         trace=TraceContext.root("t"), name="traced")
        with open(plain, "rb") as a, open(traced, "rb") as b:
            assert a.read() == b.read()

    def test_no_trace_no_sidecar(self, gap, specs, tmp_path):
        journal, _ = _run(gap, specs, tmp_path, jobs=1, trace=None,
                          name="quiet")
        import os
        assert not os.path.exists(trace_sidecar_path(journal))

    def test_resume_continues_original_trace(self, gap, specs,
                                             tmp_path):
        trace = TraceContext.root("trace-r")
        journal = str(tmp_path / "r.jsonl")
        # First leg: only the first chunk's worth of specs.
        first = CampaignExecutor(gap, PipelineConfig("dbt", "rcf"),
                                 jobs=1, chunk_size=5,
                                 journal=journal, trace=trace)
        first.run_specs(specs[:5])
        sidecar = trace_sidecar_path(journal)
        leg_one = _chunks(read_entries(sidecar))
        assert [e["attrs"]["index"] for e in leg_one] == [0]
        # Second leg: the full spec list, resuming; chunk 0 replays
        # from the journal and must NOT be re-traced.
        second = CampaignExecutor(gap, PipelineConfig("dbt", "rcf"),
                                  jobs=1, chunk_size=5,
                                  journal=journal, resume=True,
                                  trace=trace)
        records = second.run_specs(specs)
        assert len(records) == len(specs)
        entries = read_entries(sidecar)
        chunks = _chunks(entries)
        assert sorted(e["attrs"]["index"] for e in chunks) == \
            sorted(range((len(specs) + 4) // 5))
        assert len(chunks) == len({e["attrs"]["index"] for e in chunks})
        assert all(e["trace_id"] == trace.trace_id for e in entries)
        trace_dict = to_chrome_trace(entries)
        assert validate_chrome_trace(trace_dict) == []
