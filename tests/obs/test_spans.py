"""Span recorder: nesting, aggregates, trace-event sink."""

import pytest

from repro.obs.spans import NULL_SPAN, SpanRecorder, read_entries


def _recorded(tmp_path):
    return SpanRecorder(sink_path=str(tmp_path / "spans.jsonl"))


class TestNesting:
    def test_children_finish_first(self, tmp_path):
        recorder = _recorded(tmp_path)
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        names = [entry["name"]
                 for entry in read_entries(recorder.sink_path)]
        assert names == ["b", "a"]

    def test_attrs_recorded(self, tmp_path):
        recorder = _recorded(tmp_path)
        with recorder.span("translate", block=0x1000):
            pass
        assert read_entries(recorder.sink_path)[0]["attrs"] == \
            {"block": 0x1000}

    def test_durations_nest(self, tmp_path):
        recorder = _recorded(tmp_path)
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        by_name = {entry["name"]: entry
                   for entry in read_entries(recorder.sink_path)}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["dur"] >= inner["dur"]
        assert outer["t0"] <= inner["t0"]
        assert inner["t0"] + inner["dur"] <= outer["t0"] + outer["dur"]


class TestAggregates:
    def test_snapshot_shape_and_order(self):
        recorder = SpanRecorder()
        with recorder.span("zeta"):
            pass
        with recorder.span("alpha"):
            pass
        snap = recorder.snapshot_aggregates()
        assert [entry["name"] for entry in snap] == ["alpha", "zeta"]
        assert snap[0]["count"] == 1
        assert snap[0]["total"] == pytest.approx(snap[0]["max"])

    def test_merge(self):
        first = SpanRecorder()
        with first.span("x"):
            pass
        second = SpanRecorder()
        with second.span("x"):
            pass
        with second.span("y"):
            pass
        first.merge_aggregates(second.snapshot_aggregates())
        assert first.aggregates["x"][0] == 2
        assert first.aggregates["y"][0] == 1

    def test_drain_clears(self):
        recorder = SpanRecorder()
        with recorder.span("x"):
            pass
        entries = recorder.drain_aggregates()
        assert entries and not recorder.aggregates


class TestSink:
    def test_jsonl_sink_streams_finished_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        recorder = SpanRecorder(sink_path=str(path))
        with recorder.span("outer", k="v"):
            with recorder.span("inner"):
                pass
        recorder.close()
        lines = read_entries(str(path))
        assert [line["name"] for line in lines] == ["inner", "outer"]
        assert lines[1]["attrs"] == {"k": "v"}
        assert lines[0]["parent_span"] == lines[1]["span_id"]
        assert lines[1]["parent_span"] == recorder.context.span_id
        assert {line["trace_id"] for line in lines} == \
            {recorder.context.trace_id}

    def test_close_idempotent(self, tmp_path):
        recorder = SpanRecorder(sink_path=str(tmp_path / "t.jsonl"))
        recorder.close()
        recorder.close()

    def test_close_stops_streaming(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = SpanRecorder(sink_path=str(path))
        recorder.close()
        with recorder.span("late"):
            pass
        assert not path.exists()
        assert recorder.aggregates["late"][0] == 1


def test_null_span_is_reusable():
    with NULL_SPAN:
        with NULL_SPAN:
            pass
