"""``repro.obs`` — metrics, spans, and campaign telemetry.

The observability subsystem the perf roadmap hangs off: a metrics
registry (:mod:`repro.obs.metrics`), spans recorded as trace-event
entries (:mod:`repro.obs.spans`) and exporters
(:mod:`repro.obs.exporters`), wired through the interpreter, the DBT,
and the campaign engine.

Design rule: **off means free**.  Nothing is recorded — and the
interpreter hot loop takes no extra branch per instruction — unless a
registry has been installed with :func:`install` (usually via the CLI's
``--metrics``/``--trace`` flags or the :func:`session` context
manager).  Instrumentation sites either check ``get_registry() is
None`` or go through the module helpers below, which hand out shared
no-op instruments while observability is off.

Campaign fan-out: each worker process installs a ``worker=True``
registry, drains it after every chunk, and ships the snapshot back on
the existing result pipe; the supervisor's side merges the drains into
the campaign-level registry, so ``coverage --jobs 8 --metrics out.prom``
reports one coherent registry whose totals match a serial run exactly.

Thread scoping: the campaign service (:mod:`repro.service`) runs
several jobs concurrently in one process, each wanting its own
registry.  :func:`scoped` installs a registry for the *calling thread*
only — every instrument helper consults the thread scope first and
falls back to the process-wide installation, so scoped jobs are
isolated from each other and from the global registry without the hot
paths paying more than one extra attribute read.

See ``docs/observability.md`` for the metric catalogue and span names.
"""

from __future__ import annotations

import contextlib
import threading

from repro.obs.metrics import (BUCKET_SHIFT, BUCKETS, Counter, Gauge,
                               Histogram, MetricsRegistry, NULL_COUNTER,
                               NULL_GAUGE, NULL_HISTOGRAM, Timer,
                               bucket_index, bucket_upper_bound)
from repro.obs.spans import (NULL_SPAN, SpanRecorder, TraceContext,
                             trace_sidecar_path)
from repro.obs.timeseries import RollingWindow, TimeSeriesHub

__all__ = [
    "BUCKETS", "BUCKET_SHIFT", "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM",
    "NULL_SPAN", "RollingWindow", "SpanRecorder",
    "TimeSeriesHub", "Timer", "TraceContext", "bucket_index",
    "bucket_upper_bound", "counter", "drain_worker_snapshot", "enabled",
    "gauge", "get_recorder", "get_registry", "histogram", "install",
    "merge_snapshot", "scoped", "session", "snapshot", "span",
    "trace_sidecar_path", "uninstall",
]

#: The installed registry / recorder, or None (observability off).
_registry: MetricsRegistry | None = None
_recorder: SpanRecorder | None = None

#: Per-thread registry/recorder overrides (see :func:`scoped`).
_scope = threading.local()


def install(registry: MetricsRegistry,
            recorder: SpanRecorder | None = None) -> None:
    """Turn observability on (replacing any previous installation).

    Also clears the calling thread's :func:`scoped` override: a
    campaign worker forked from a scoped service thread inherits the
    parent's thread-local scope, and its ``worker=True`` registry must
    win or its telemetry would accrue in a dead copy of the job
    registry instead of riding the result pipe home.
    """
    global _registry, _recorder
    _registry = registry
    _recorder = recorder
    _scope.registry = None
    _scope.recorder = None
    _scope.active = False


def uninstall() -> None:
    """Turn observability off; instruments become no-ops again."""
    global _registry, _recorder
    if _recorder is not None:
        _recorder.close()
    _registry = None
    _recorder = None


@contextlib.contextmanager
def scoped(registry: MetricsRegistry | None,
           recorder: SpanRecorder | None = None):
    """Registry/recorder override for the calling thread only.

    The service orchestrator wraps each job's execution in
    ``with obs.scoped(job_registry):`` so concurrently-running jobs
    record into isolated registries while the process-wide installation
    (if any) keeps serving every other thread.  Passing ``None``
    explicitly shadows the global registry — observability off for the
    region.  Scopes nest; the previous scope is restored on exit.
    """
    previous = (getattr(_scope, "registry", None),
                getattr(_scope, "recorder", None),
                getattr(_scope, "active", False))
    _scope.registry = registry
    _scope.recorder = recorder
    _scope.active = True
    try:
        yield registry
    finally:
        _scope.registry, _scope.recorder, _scope.active = previous


def get_registry() -> MetricsRegistry | None:
    if getattr(_scope, "active", False):
        return _scope.registry
    return _registry


def get_recorder() -> SpanRecorder | None:
    if getattr(_scope, "active", False):
        return _scope.recorder
    return _recorder


def enabled() -> bool:
    return get_registry() is not None


# -- instrument helpers (no-ops while off) ----------------------------------


def counter(name: str, help: str = "", **labels):
    registry = get_registry()
    if registry is None:
        return NULL_COUNTER
    return registry.counter(name, help=help, **labels)


def gauge(name: str, help: str = "", **labels):
    registry = get_registry()
    if registry is None:
        return NULL_GAUGE
    return registry.gauge(name, help=help, **labels)


def histogram(name: str, help: str = "", **labels):
    registry = get_registry()
    if registry is None:
        return NULL_HISTOGRAM
    return registry.histogram(name, help=help, **labels)


def span(name: str, **attrs):
    """A timed region: ``with obs.span("dbt.translate", guest=pc): ...``.

    Returns a shared no-op context manager while no recorder is
    installed, so call sites never need their own guard.
    """
    recorder = get_recorder()
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, **attrs)


# -- snapshots across the process boundary ----------------------------------


def snapshot() -> dict:
    """Snapshot the effective registry plus span aggregates."""
    registry, recorder = get_registry(), get_recorder()
    if registry is None:
        return {}
    snap = registry.snapshot()
    snap["spans"] = (recorder.snapshot_aggregates()
                     if recorder is not None else [])
    return snap


def drain_worker_snapshot() -> dict | None:
    """Snapshot-and-reset a *worker* registry; None in the parent.

    Campaign workers call this after each chunk so their telemetry
    rides the result pipe exactly once.  The parent's own registry is
    never drained — its metrics are already in the right place.
    """
    registry, recorder = get_registry(), get_recorder()
    if registry is None or not registry.worker:
        return None
    snap = registry.drain()
    snap["spans"] = (recorder.drain_aggregates()
                     if recorder is not None else [])
    return snap


def merge_snapshot(snap: dict | None) -> None:
    """Fold a worker drain into the effective registry (no-op if off)."""
    registry, recorder = get_registry(), get_recorder()
    if snap is None or registry is None:
        return
    registry.merge_snapshot(snap)
    if recorder is not None:
        recorder.merge_aggregates(snap.get("spans", ()))


@contextlib.contextmanager
def session(metrics_path: str | None = None,
            trace_path: str | None = None):
    """Observability for one command: install, run, export, uninstall.

    ``metrics_path`` picks the export format by suffix (``.prom``
    Prometheus text, ``.jsonl`` JSONL events, else the JSON snapshot
    ``repro stats`` reads); ``trace_path`` streams finished spans to a
    JSONL span log (trace-event entries, see :mod:`repro.obs.spans`)
    as they happen.  With neither path set this is a no-op —
    observability stays off.
    """
    if metrics_path is None and trace_path is None:
        yield None
        return
    registry = MetricsRegistry()
    recorder = SpanRecorder(sink_path=trace_path)
    install(registry, recorder)
    try:
        yield registry
    finally:
        snap = snapshot()
        uninstall()
        if metrics_path is not None:
            from repro.obs.exporters import write_metrics
            write_metrics(metrics_path, snap)
