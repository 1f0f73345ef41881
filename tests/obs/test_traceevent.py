"""Trace contexts, span files, and Chrome trace-event export."""

import json
import os

import pytest

from repro.obs.spans import (TraceContext, append_entries,
                             append_job_span, derive_span_id,
                             export_chrome_trace, read_entries,
                             to_chrome_trace, trace_sidecar_path,
                             validate_chrome_trace)


class TestTraceContext:
    def test_span_ids_are_deterministic(self):
        a = derive_span_id("t", "p", "chunk", 3)
        b = derive_span_id("t", "p", "chunk", 3)
        assert a == b and len(a) == 16

    def test_distinct_inputs_distinct_ids(self):
        ids = {derive_span_id("t", "p", "chunk", i) for i in range(8)}
        assert len(ids) == 8

    def test_child_links_parent(self):
        root = TraceContext.root("abc")
        child = root.child("chunk", 0)
        assert child.trace_id == "abc"
        assert child.parent_span == root.span_id
        assert child.span_id != root.span_id

    def test_for_campaign_is_stable(self):
        a = TraceContext.for_campaign("digest", "key")
        b = TraceContext.for_campaign("digest", "key")
        assert a == b
        assert TraceContext.for_campaign("digest", "other") != a

    def test_json_round_trip(self):
        ctx = TraceContext.root("t").child("run", 5)
        assert TraceContext.from_json(ctx.to_json()) == ctx


class TestSidecar:
    def test_suffix(self):
        assert trace_sidecar_path("/x/journal.jsonl").endswith(
            "journal.jsonl.trace.jsonl")

    def test_append_and_read(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        job = TraceContext.root("t")
        append_entries(path, [job.entry("a", "job", 1.0, 2.0, 7, {})])
        append_entries(path, [
            job.child("chunk", 0).entry("chunk 0", "chunk", 1.5, 0.5,
                                        7, {"index": 0})])
        assert [e["cat"] for e in read_entries(path)] == \
            ["job", "chunk"]

    def test_read_skips_torn_tail(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        append_entries(path, [TraceContext.root("t").entry(
            "a", "job", 1.0, 2.0, 7, {})])
        with open(path, "a") as handle:
            handle.write('{"name": "chunk 0", "ca')  # killed mid-append
        entries = read_entries(path)
        assert len(entries) == 1 and entries[0]["cat"] == "job"

    def test_old_format_refused_naming_file(self, tmp_path):
        path = str(tmp_path / "old.jsonl")
        with open(path, "w") as handle:
            handle.write(json.dumps({"type": "job", "name": "a",
                                     "t0": 1.0, "t1": 2.0,
                                     "trace_id": "t", "span_id": "s",
                                     "parent_span": None}) + "\n")
        with pytest.raises(ValueError, match="old.jsonl:1: not a span"):
            read_entries(path)

    def test_job_span_lands_in_sidecar(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        job = TraceContext.root("t")
        append_job_span(journal, job, "prog.s", 10.0, 10.5,
                        kind="inject")
        (entry,) = read_entries(trace_sidecar_path(journal))
        assert entry["cat"] == "job" and entry["span_id"] == job.span_id
        assert entry["dur"] == pytest.approx(0.5)
        assert entry["attrs"] == {"kind": "inject"}


def _chunk(job, index, t0, t1, pid, runs):
    """A chunk entry plus its runs' entries, as the executor writes
    them."""
    chunk = job.child("chunk", index)
    entries = [chunk.entry(f"chunk {index}", "chunk", t0, t1 - t0, pid,
                           {"index": index})]
    for run in runs:
        attrs = {"index": run["i"]}
        if "outcome" in run:
            attrs["outcome"] = run["outcome"]
        entries.append(chunk.child("run", run["i"]).entry(
            f"run {run['i']}", "run", run["t0"], run["dur"], pid, attrs))
    return entries


def _job(job, t0, t1, **attrs):
    return job.entry("prog.s", "job", t0, t1 - t0, os.getpid(), attrs)


def _entries():
    job = TraceContext.root("trace1")
    runs0 = [{"i": 0, "t0": 10.001, "dur": 0.002, "outcome": "benign"},
             {"i": 1, "t0": 10.004, "dur": 0.001}]
    runs1 = [{"i": 2, "t0": 10.010, "dur": 0.003}]
    return [
        _job(job, 10.0, 10.02, kind="inject"),
        *_chunk(job, 0, 10.0005, 10.006, pid=111, runs=runs0),
        *_chunk(job, 1, 10.009, 10.014, pid=222, runs=runs1),
    ]


class TestChromeExport:
    def test_valid_trace(self):
        trace = to_chrome_trace(_entries())
        assert validate_chrome_trace(trace) == []

    def test_span_counts_and_processes(self):
        trace = to_chrome_trace(_entries())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(spans) == 6  # 1 job + 2 chunks + 3 runs
        assert {e["pid"] for e in meta} == {__import__("os").getpid(),
                                            111, 222}

    def test_runs_nest_under_their_chunk(self):
        trace = to_chrome_trace(_entries())
        spans = {e["args"]["span_id"]: e
                 for e in trace["traceEvents"] if e["ph"] == "X"}
        chunks = [e for e in spans.values() if e["cat"] == "chunk"]
        runs = [e for e in spans.values() if e["cat"] == "run"]
        assert len(runs) == 3
        for run in runs:
            parent = spans[run["args"]["parent_span"]]
            assert parent["cat"] == "chunk"
            assert parent["pid"] == run["pid"]
        job = next(e for e in spans.values() if e["cat"] == "job")
        for chunk in chunks:
            assert chunk["args"]["parent_span"] == \
                job["args"]["span_id"]

    def test_integer_microseconds(self):
        trace = to_chrome_trace(_entries())
        for event in trace["traceEvents"]:
            if event["ph"] != "X":
                continue
            assert isinstance(event["ts"], int)
            assert isinstance(event["dur"], int) and event["dur"] >= 1

    def test_dedupe_keeps_last_attempt(self):
        # A requeued job appends a second line under the same span id.
        entries = _entries()
        job = TraceContext.root("trace1")
        entries.append(_job(job, 10.0, 10.05, kind="inject",
                            status="done"))
        trace = to_chrome_trace(entries)
        assert validate_chrome_trace(trace) == []
        jobs = [e for e in trace["traceEvents"]
                if e["ph"] == "X" and e["cat"] == "job"]
        assert len(jobs) == 1
        assert jobs[0]["args"]["status"] == "done"

    def test_parents_widened_over_children(self):
        # The surviving job line only covers the final attempt; the
        # first attempt's chunks must still fit inside it.
        entries = _entries()
        job = TraceContext.root("trace1")
        entries.append(_job(job, 10.012, 10.02, kind="inject"))
        trace = to_chrome_trace(entries)
        assert validate_chrome_trace(trace) == []
        jobs = [e for e in trace["traceEvents"]
                if e["ph"] == "X" and e["cat"] == "job"]
        assert jobs[0]["ts"] <= 10_000_500  # stretched to chunk 0

    def test_validate_catches_escaping_child(self):
        trace = to_chrome_trace(_entries())
        run = next(e for e in trace["traceEvents"]
                   if e["ph"] == "X" and e["cat"] == "run")
        run["ts"] += 60_000_000  # push it far outside the chunk
        problems = validate_chrome_trace(trace)
        assert any("escapes parent" in p for p in problems)

    def test_validate_catches_duplicate_span(self):
        trace = to_chrome_trace(_entries())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        trace["traceEvents"].append(dict(spans[0]))
        problems = validate_chrome_trace(trace)
        assert any("duplicate span_id" in p for p in problems)

    def test_validate_catches_float_ts(self):
        trace = to_chrome_trace(_entries())
        span = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        span["ts"] = float(span["ts"]) + 0.5
        problems = validate_chrome_trace(trace)
        assert any("integer microseconds" in p for p in problems)

    def test_validate_empty(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents missing or empty"]

    def test_export_writes_loadable_json(self, tmp_path):
        out = tmp_path / "trace.json"
        trace = export_chrome_trace(_entries(), str(out))
        on_disk = json.loads(out.read_text())
        assert on_disk == json.loads(json.dumps(trace))
        assert on_disk["displayTimeUnit"] == "ms"


class TestSerialParallelIdentity:
    def test_span_ids_independent_of_chunk_completion_order(self):
        job = TraceContext.root("t")
        runs = [{"i": 4, "t0": 1.0, "dur": 0.1}]
        early = _chunk(job, 2, 1.0, 2.0, pid=1, runs=runs)
        late = _chunk(job, 2, 5.0, 6.0, pid=9, runs=[
            {"i": 4, "t0": 5.0, "dur": 0.1}])
        assert early[0]["span_id"] == late[0]["span_id"]
        assert early[1]["span_id"] == late[1]["span_id"]
