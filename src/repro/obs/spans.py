"""Spans: timed regions recorded as trace-event entries.

A span is one timed region of work — ``span("dbt.translate",
guest=addr)`` inside one process, or a campaign job, chunk or fault
run across processes.  Every span, whichever layer records it, is one
flat JSON entry::

    {"name", "cat", "t0", "dur", "pid",
     "trace_id", "span_id", "parent_span", "attrs"}

``t0`` is epoch seconds (so spans from different processes share one
clock), ``dur`` seconds.  Entries are appended to JSONL files by
:func:`append_entries` and rendered by :func:`to_chrome_trace` as
Chrome trace-event JSON that loads directly in Perfetto or
``chrome://tracing``.  Two writers produce them:

* :class:`SpanRecorder` — the in-process ``obs.span(...)`` regions.
  It keeps per-name aggregates (count / total / max seconds) for
  metrics snapshots and worker drains, and with a sink path (the
  CLI's ``--trace PATH``) appends each finished span as it happens.
  Ids come from a per-recorder root context, parents from the
  recorder's stack (the reproduction's processes are single-threaded;
  worker processes each install their own recorder).
* the campaign executor and the service — one span for the job, one
  per chunk and one per run, in a **sidecar** next to the campaign
  journal (``<journal>.trace.jsonl``), never in the journal itself:
  the journal's byte-identity contract (a service job's journal
  equals the CLI run's, byte for byte) must not see wall-clock
  timings.

Campaign span ids are **deterministic**: derived by hashing
``trace_id / parent / kind / index``, so a campaign run serially, in
parallel, or resumed from its journal produces the *same* span ids
for the same chunks and runs — traces can be diffed across executions
just like the journals themselves.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

#: Sidecar suffix, appended to the campaign journal path.
TRACE_SUFFIX = ".trace.jsonl"

#: The fields of every span entry.
SPAN_FIELDS = ("name", "cat", "t0", "dur", "pid", "trace_id",
               "span_id", "parent_span", "attrs")


def trace_sidecar_path(journal_path: str) -> str:
    """The trace sidecar next to a campaign journal."""
    return str(journal_path) + TRACE_SUFFIX


def derive_span_id(trace_id: str, parent: str, kind: str,
                   index) -> str:
    """Deterministic 16-hex span id for one unit of work."""
    text = f"{trace_id}/{parent}/{kind}/{index}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """A span's identity, passed down the job -> chunk -> run chain."""

    trace_id: str
    span_id: str
    parent_span: str | None = None

    @classmethod
    def root(cls, trace_id: str) -> "TraceContext":
        return cls(trace_id=trace_id,
                   span_id=derive_span_id(trace_id, "", "root", 0))

    @classmethod
    def for_campaign(cls, program_digest: str,
                     config_key) -> "TraceContext":
        """Deterministic root context for a CLI campaign: derived from
        the same (program digest, config key) identity the journal
        uses, so a resumed campaign continues its original trace."""
        trace_id = hashlib.sha256(
            f"{program_digest}/{config_key}".encode()).hexdigest()[:16]
        return cls.root(trace_id)

    def child(self, kind: str, index) -> "TraceContext":
        return TraceContext(
            trace_id=self.trace_id,
            span_id=derive_span_id(self.trace_id, self.span_id, kind,
                                   index),
            parent_span=self.span_id)

    def to_json(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_span": self.parent_span}

    @classmethod
    def from_json(cls, data: dict) -> "TraceContext":
        return cls(trace_id=data["trace_id"], span_id=data["span_id"],
                   parent_span=data.get("parent_span"))

    def entry(self, name: str, cat: str, t0: float, dur: float,
              pid: int, attrs: dict) -> dict:
        """This context's span as one trace-event entry."""
        return {"name": name, "cat": cat, "t0": t0, "dur": dur,
                "pid": pid, **self.to_json(), "attrs": attrs}


# -- span files --------------------------------------------------------------


def append_entries(path: str, entries) -> None:
    """Append span entries to a JSONL span file in a single ``write``
    (the journal's discipline: a killed writer leaves at most a torn
    tail)."""
    text = "".join(json.dumps(entry, sort_keys=True) + "\n"
                   for entry in entries)
    with open(path, "a") as handle:
        handle.write(text)


def parse_entries(lines, source: str) -> list[dict]:
    """Span entries from JSONL lines; torn lines are skipped, not
    fatal.  A line that parses but is not a span entry (a sidecar
    written in an older format) raises ``ValueError`` naming
    ``source``."""
    entries = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue  # torn tail (killed mid-append)
        missing = [key for key in SPAN_FIELDS
                   if not isinstance(entry, dict) or key not in entry]
        if missing:
            raise ValueError(
                f"{source}:{number}: not a span entry (missing "
                f"{', '.join(missing)}); it predates the current "
                "span format — rerun the campaign to re-trace it")
        entries.append(entry)
    return entries


def read_entries(path: str) -> list[dict]:
    """All span entries of a sidecar or ``--trace`` log."""
    with open(path) as handle:
        return parse_entries(handle, path)


def append_job_span(journal_path: str, ctx: TraceContext, name: str,
                    t0: float, t1: float, **attrs) -> None:
    """Record a campaign's top-level span (a CLI campaign or a service
    job) in its journal's trace sidecar; the executor's chunk spans
    name ``ctx`` as their parent."""
    append_entries(trace_sidecar_path(journal_path),
                   [ctx.entry(name, "job", t0, t1 - t0, os.getpid(),
                              attrs)])


# -- in-process recorder ------------------------------------------------------


class _ActiveSpan:
    """Context manager for one in-flight span."""

    __slots__ = ("_recorder", "name", "attrs", "_start", "context")

    def __init__(self, recorder: "SpanRecorder", name: str, attrs: dict):
        self._recorder = recorder
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        recorder = self._recorder
        stack = recorder._stack
        if recorder.sink_path is not None:
            parent = stack[-1].context if stack else recorder.context
            recorder._next_id += 1
            self.context = parent.child("span", recorder._next_id)
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self._start
        recorder = self._recorder
        if recorder._stack and recorder._stack[-1] is self:
            recorder._stack.pop()
        recorder._finish(self, duration)


class _NullSpan:
    """Reusable, stateless no-op span (observability off)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Per-name span aggregates, plus an optional span-entry sink."""

    def __init__(self, sink_path: str | None = None):
        self.sink_path = sink_path
        # Entries carry epoch t0 (the sidecar's clock) from monotonic
        # offsets, so nested spans nest exactly.
        self._origin = time.perf_counter()
        self._epoch = time.time()
        self.context = TraceContext.root(
            derive_span_id(str(os.getpid()), "", "recorder",
                           self._epoch))
        #: name -> [count, total_seconds, max_seconds]
        self.aggregates: dict[str, list] = {}
        self._stack: list[_ActiveSpan] = []
        self._next_id = 0

    def span(self, name: str, **attrs) -> _ActiveSpan:
        return _ActiveSpan(self, name, attrs)

    def _finish(self, active: _ActiveSpan, duration: float) -> None:
        stats = self.aggregates.get(active.name)
        if stats is None:
            self.aggregates[active.name] = [1, duration, duration]
        else:
            stats[0] += 1
            stats[1] += duration
            stats[2] = max(stats[2], duration)
        if self.sink_path is not None:
            t0 = self._epoch + (active._start - self._origin)
            append_entries(self.sink_path, [active.context.entry(
                active.name, active.name.partition(".")[0], t0,
                duration, os.getpid(), active.attrs)])

    # -- snapshot / merge ----------------------------------------------------

    def snapshot_aggregates(self) -> list[dict]:
        """Mergeable per-name summary, in deterministic name order."""
        return [{"name": name, "count": stats[0],
                 "total": stats[1], "max": stats[2]}
                for name, stats in sorted(self.aggregates.items())]

    def merge_aggregates(self, entries) -> None:
        for entry in entries:
            stats = self.aggregates.get(entry["name"])
            if stats is None:
                self.aggregates[entry["name"]] = [
                    entry["count"], entry["total"], entry["max"]]
            else:
                stats[0] += entry["count"]
                stats[1] += entry["total"]
                stats[2] = max(stats[2], entry["max"])

    def drain_aggregates(self) -> list[dict]:
        entries = self.snapshot_aggregates()
        self.aggregates.clear()
        return entries

    def close(self) -> None:
        """Stop streaming finished spans to the sink."""
        self.sink_path = None


# -- Chrome trace-event export ----------------------------------------------


def _us(seconds: float) -> int:
    return int(round(seconds * 1e6))


def to_chrome_trace(entries: list[dict]) -> dict:
    """Span entries -> Chrome trace-event JSON (dict form).

    Each process gets its own ``pid`` track, named after the span
    categories it ran; spans nest by ``ts``/``dur`` containment within
    a track, which holds because a process runs its work sequentially.
    """
    # A requeued job (or a resumed CLI campaign) appends a fresh span
    # line per execution attempt under the same deterministic id; the
    # last one wins so the trace carries each span exactly once.
    deduped = {entry["span_id"]: entry for entry in entries}
    events: list[dict] = []
    cats: dict[int, set] = {}
    for entry in deduped.values():
        cats.setdefault(entry["pid"], set()).add(entry["cat"])
        events.append({
            "name": entry["name"], "cat": entry["cat"], "ph": "X",
            "ts": _us(entry["t0"]), "dur": max(1, _us(entry["dur"])),
            "pid": entry["pid"], "tid": 0,
            "args": {**entry["attrs"], "trace_id": entry["trace_id"],
                     "span_id": entry["span_id"],
                     "parent_span": entry["parent_span"]}})
    # Widen parents over their children: a resumed campaign (or a
    # requeued service job) keeps first-attempt chunk spans in the
    # sidecar while the surviving job line only covers the final
    # attempt's window — the job span must still contain every chunk.
    by_span = {event["args"]["span_id"]: event for event in events}
    for event in events:
        child = event
        parent_id = child["args"].get("parent_span")
        while parent_id:
            parent = by_span.get(parent_id)
            if parent is None:
                break
            t0 = min(parent["ts"], child["ts"])
            t1 = max(parent["ts"] + parent["dur"],
                     child["ts"] + child["dur"])
            if t0 == parent["ts"] and t1 == parent["ts"] + parent["dur"]:
                break
            parent["ts"], parent["dur"] = t0, t1 - t0
            child = parent
            parent_id = child["args"].get("parent_span")
    metadata = [{"name": "process_name", "ph": "M", "pid": pid,
                 "tid": 0,
                 "args": {"name": "repro " + "/".join(sorted(names))}}
                for pid, names in sorted(cats.items())]
    return {"traceEvents": metadata + events,
            "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: dict) -> list[str]:
    """Structural validation; returns a list of problems (empty = ok).

    Checks the trace-event invariants the export promises: required
    fields on every event, ids on every span, and parent/child
    nesting — every span naming a ``parent_span`` that is present in
    the trace must lie within its parent's ``[ts, ts+dur]`` interval.
    """
    problems: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    spans: dict[str, dict] = {}
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph not in ("X", "M"):
            problems.append(f"event {i}: unexpected ph {ph!r}")
            continue
        for field_name in ("name", "pid", "tid"):
            if field_name not in event:
                problems.append(f"event {i}: missing {field_name}")
        if ph == "M":
            continue
        for field_name in ("ts", "dur"):
            if not isinstance(event.get(field_name), int):
                problems.append(
                    f"event {i}: {field_name} must be integer "
                    "microseconds")
        args = event.get("args", {})
        span_id = args.get("span_id")
        if not span_id or not args.get("trace_id"):
            problems.append(
                f"event {i} ({event.get('name')}): missing "
                "span_id/trace_id")
            continue
        if span_id in spans:
            problems.append(f"duplicate span_id {span_id}")
        spans[span_id] = event
    for span_id, event in spans.items():
        parent_id = event.get("args", {}).get("parent_span")
        if not parent_id or parent_id not in spans:
            continue
        parent = spans[parent_id]
        t0, t1 = event["ts"], event["ts"] + event["dur"]
        p0, p1 = parent["ts"], parent["ts"] + parent["dur"]
        # One-bucket slack: ts values are rounded independently.
        if t0 + 1 < p0 or t1 > p1 + 1:
            problems.append(
                f"span {span_id} ({event['name']}) "
                f"[{t0},{t1}] escapes parent "
                f"{parent_id} ({parent['name']}) [{p0},{p1}]")
    return problems


def export_chrome_trace(entries: list[dict], out_path: str) -> dict:
    """Write Chrome trace JSON; returns the trace dict."""
    trace = to_chrome_trace(entries)
    with open(out_path, "w") as handle:
        json.dump(trace, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return trace
