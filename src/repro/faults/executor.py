"""Parallel campaign execution with a fault-tolerant runtime.

Fault-injection campaigns are embarrassingly parallel: every run is an
independent, deterministic function of ``(program, config, spec)``.
:class:`CampaignExecutor` exploits that by fanning fault specs out over
supervised worker processes while keeping the results **byte-identical
to the serial order**:

* each worker builds its :class:`~repro.faults.campaign.Pipeline`
  exactly once (program load, static rewrite, golden run) when it
  starts, then serves fault runs from it;
* specs are dispatched in fixed-size chunks cut from the serial order,
  and chunk results are merged back by chunk index — so the merged
  record list (and therefore every tally derived from it) is the same
  for any worker count;
* ``jobs=1`` bypasses the pool entirely: no processes, no pickling,
  exactly the code path the serial campaign always ran.

The campaign engine is also the reproduction's hot path, and at the
scale the literature runs (tens of thousands of injections per
configuration) it must survive its own failures, not just classify the
guest's.  Three layers provide that (see :mod:`repro.faults.supervisor`
and :mod:`repro.faults.journal` for the details):

* **per-spec quarantine** — a run that raises yields an
  ``Outcome.INFRA_ERROR`` record carrying the exception and spec,
  instead of killing its chunk;
* **worker supervision** — a killed worker (segfault, OOM, timeout)
  costs only its own chunk a retry: the chunk is split into singletons
  to isolate the culprit, retried up to ``retries`` times, and the
  survivors' results are unaffected.  Repeated no-progress failures
  degrade the engine to in-process serial execution;
* **journaled checkpoint/resume** — with ``journal=PATH`` every
  completed chunk is appended to a JSONL journal; ``resume=True``
  replays matching chunks and runs only the remainder, byte-identical
  to an uninterrupted campaign.

The ``fork`` start method is preferred where available (workers inherit
the warm golden-run cache of :mod:`repro.faults.cache` for free);
``spawn`` is the fallback, under which workers rebuild their state from
the pickled ``(program, config)`` initializer arguments.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass

from repro import obs
from repro.isa.program import Program
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (SpanRecorder, TraceContext, append_entries,
                             trace_sidecar_path)
from repro.faults import cache as run_cache
from repro.faults.campaign import (CampaignResult, CategoryFaults,
                                   Outcome, Pipeline, PipelineConfig,
                                   RunRecord, infra_error_record)
from repro.faults.supervisor import (DEFAULT_RETRIES, PoolSupervisor,
                                     SupervisedTask)

#: Specs per work unit.  Small enough to load-balance across workers,
#: large enough to amortize the per-task round trip.
DEFAULT_CHUNK_SIZE = 8


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a --jobs value; 0/None means one per CPU."""
    if not jobs:
        return os.cpu_count() or 1
    return max(1, jobs)


class CampaignStopped(RuntimeError):
    """A campaign was interrupted cooperatively (``stop_check``).

    Raised *after* every completed chunk has been journaled, so a
    stopped campaign resumes from its journal exactly like one killed
    by the OS — the service's cancel/drain path rides the existing
    ``--resume`` machinery.  ``completed``/``total`` count specs.
    """

    def __init__(self, completed: int, total: int):
        super().__init__(f"campaign stopped after {completed}/{total} "
                         "spec(s); completed chunks are journaled")
        self.completed = completed
        self.total = total


#: Outcomes the forensics layer treats as escapes worth replaying.
#: A failed recovery is not a *silent* escape, but it is exactly the
#: kind of run worth a golden-divergence replay, so it is bundled too.
_ESCAPE_OUTCOMES = (Outcome.SDC, Outcome.HANG, Outcome.RECOVERY_FAILED)


@dataclass
class WorkerResult:
    """A worker task's payload result plus its drained telemetry.

    Wrapping (rather than sniffing tuples out of arbitrary task
    results) keeps the result-pipe protocol unambiguous: user task
    functions may legitimately return lists or tuples of their own.

    ``escapes`` carries the chunk's escape (SDC/HANG) specs home as
    ``(sub_index, spec)`` pairs so a ``--forensics`` campaign can
    replay a sample of them in the parent without re-running anything.

    ``timings`` (traced campaigns only) carries the chunk's wall-clock
    span and one ``{"t0", "dur", "outcome"}`` entry per run, plus the
    worker's pid — the raw material the parent turns into chunk/run
    spans in the trace sidecar (see :mod:`repro.obs.spans`).
    """

    value: object
    obs_snapshot: dict | None = None
    escapes: list | None = None
    timings: dict | None = None


def _escapes_of(records: list[RunRecord], specs: list) -> list:
    """``(sub_index, spec)`` for every escape outcome in a chunk."""
    return [(sub, spec)
            for sub, (spec, record) in enumerate(zip(specs, records))
            if record.outcome in _ESCAPE_OUTCOMES]


def _unwrap(result):
    """Fold a worker's telemetry drain into the parent registry and
    return the wrapped payload (pass-through for plain results)."""
    if isinstance(result, WorkerResult):
        obs.merge_snapshot(result.obs_snapshot)
        return result.value
    return result


def _install_worker_obs(obs_enabled: bool) -> None:
    """Give a worker process its own drainable registry.

    Under ``fork`` the child inherits the parent's installed registry
    object; replacing it with a ``worker=True`` registry keeps the
    child's tallies separate so they travel home on the result pipe
    instead of silently accruing in a dead copy.
    """
    if obs_enabled:
        obs.install(MetricsRegistry(worker=True), SpanRecorder())


#: The trace context handed to this process's campaign runs, if any.
#: Module-level because the supervisor's task protocol passes only
#: (state, payload) to the task function; set via worker init in
#: pooled mode and around the serial loop in-process.
_worker_trace: TraceContext | None = None


def _install_worker_trace(trace: TraceContext | None) -> None:
    global _worker_trace
    _worker_trace = trace


def _quarantined_run(pipeline: Pipeline, spec) -> RunRecord:
    """One run, with harness exceptions converted to INFRA_ERROR."""
    try:
        return pipeline.run(spec)
    except Exception as exc:
        return infra_error_record(spec,
                                  f"{type(exc).__name__}: {exc}")


def _worker_init_state(program: Program, config: PipelineConfig,
                       obs_enabled: bool = False,
                       trace: TraceContext | None = None) -> Pipeline:
    """Worker initializer: build the worker's pipeline exactly once.

    Failures (e.g. the golden run raising) are re-raised with the
    config label attached, so the supervisor's WorkerInitError names
    the configuration instead of surfacing an opaque pool breakage.
    """
    _install_worker_obs(obs_enabled)
    _install_worker_trace(trace)
    try:
        return Pipeline(program, config)
    except Exception as exc:
        raise RuntimeError(
            f"worker pipeline initialization failed for config "
            f"{config.label()!r}: {type(exc).__name__}: {exc}") from exc


def _worker_run_specs(pipeline: Pipeline, specs: list):
    """Run one chunk of fault specs, quarantining each spec.

    In a worker process with observability on, the records come back
    wrapped in :class:`WorkerResult` together with the registry drain;
    in-process callers (jobs=1 and the degraded serial path) get the
    plain record list — their metrics are already in the parent
    registry.  With a trace context installed, per-run wall-clock
    timings ride home in ``WorkerResult.timings`` (epoch seconds, so
    spans from different processes share one clock).
    """
    traced = _worker_trace is not None
    if traced:
        chunk_t0 = time.time()
    records, runs = [], []
    for spec in specs:
        if traced:
            run_t0 = time.time()
        record = _quarantined_run(pipeline, spec)
        records.append(record)
        if traced:
            runs.append({"t0": run_t0, "dur": time.time() - run_t0,
                         "outcome": record.outcome.value})
    timings = ({"t0": chunk_t0, "t1": time.time(), "pid": os.getpid(),
                "runs": runs} if traced else None)
    escapes = _escapes_of(records, specs)
    snap = obs.drain_worker_snapshot()
    if snap is not None or escapes or timings is not None:
        return WorkerResult(records, snap, escapes, timings)
    return records


class CampaignExecutor:
    """Runs fault specs for one (program, config), serially or fanned
    out over supervised worker processes, with order-stable results.

    ``retries`` bounds re-dispatches of a failing singleton (default
    2); ``timeout`` is a per-chunk host wall-clock deadline in seconds
    (enforced only in pooled mode — a single process cannot preempt
    itself); ``journal`` appends completed chunks to a JSONL file and
    ``resume`` replays them.  A pre-built ``pipeline`` may be supplied
    to avoid rebuilding reference state the caller already has.

    Job-scoped hooks (the campaign service's attachment points):
    ``on_progress(completed_specs, total_specs)`` fires after every
    completed (or replayed) chunk; ``stop_check`` is a ``() -> bool``
    polled between chunks — returning True abandons the remaining work
    and raises :class:`CampaignStopped` *after* the completed chunks
    have been journaled, so the campaign later resumes via ``resume``.

    ``trace`` (a :class:`~repro.obs.spans.TraceContext`) turns on
    cross-process trace correlation: workers time each run, the parent
    derives deterministic chunk/run span ids under the given context
    and appends them to the ``<journal>.trace.jsonl`` sidecar (never
    the journal itself — its byte-identity contract stays intact).
    Requires ``journal``; ``repro trace export`` renders the sidecar
    as Chrome trace-event JSON.
    """

    def __init__(self, program: Program, config: PipelineConfig,
                 jobs: int = 1, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 retries: int | None = None,
                 timeout: float | None = None,
                 journal: str | None = None,
                 resume: bool = False,
                 pipeline: Pipeline | None = None,
                 on_progress=None,
                 stop_check=None,
                 trace: TraceContext | None = None):
        self.program = program
        self.config = config
        self.jobs = resolve_jobs(jobs)
        self.chunk_size = max(1, chunk_size)
        self.retries = DEFAULT_RETRIES if retries is None else retries
        self.timeout = timeout
        self.journal = journal
        self.resume = resume
        self.on_progress = on_progress
        self.stop_check = stop_check
        self.trace = trace if journal else None
        self._pipeline = pipeline
        #: global spec index -> escape spec, from the last run_specs
        self._escapes: dict[int, object] = {}
        #: chunk index -> absorbed timing pieces awaiting checkpoint
        self._trace_pieces: dict[int, list[dict]] = {}

    @property
    def pipeline(self) -> Pipeline:
        """The in-process pipeline (built lazily; used for jobs=1, the
        degraded serial path, and to warm the fork-shared caches)."""
        if self._pipeline is None:
            self._pipeline = Pipeline(self.program, self.config)
        return self._pipeline

    def run_specs(self, specs) -> list[RunRecord]:
        """Run every spec; records come back in input order regardless
        of worker count, retries, or resume."""
        from repro.faults.journal import CampaignJournal, spec_digest
        specs = list(specs)
        chunks = [specs[start:start + self.chunk_size]
                  for start in range(0, len(specs), self.chunk_size)]
        digests = [[spec_digest(spec) for spec in chunk]
                   for chunk in chunks]
        journal = (CampaignJournal(self.journal)
                   if self.journal else None)
        program_digest = run_cache.program_digest(self.program)
        config_key = run_cache.config_key(self.config)

        self._escapes = {}
        self._trace_pieces = {}
        total = len(specs)
        completed = [0]                 # specs finished (or replayed)
        done: dict[int, list[RunRecord]] = {}

        def progressed(count: int) -> None:
            completed[0] += count
            if self.on_progress is not None:
                self.on_progress(completed[0], total)

        if journal is not None and self.resume:
            replayed = journal.replay(program_digest, config_key)
            for index in range(len(chunks)):
                records = replayed.get((index, tuple(digests[index])))
                if records is not None:
                    done[index] = records
                    # Replayed chunks never cross a worker pipe; their
                    # escapes are recovered here so a resumed campaign
                    # yields the same forensics sample as a fresh one.
                    self._note_escapes(
                        _escapes_of(records, chunks[index]),
                        index * self.chunk_size)
            if done:
                obs.counter("campaign_chunks_total",
                            help="chunks by completion source",
                            source="replayed").inc(len(done))
                progressed(sum(len(done[i]) for i in done))

        todo = [index for index in range(len(chunks))
                if index not in done]

        def checkpoint(index: int, records: list[RunRecord]) -> None:
            done[index] = records
            obs.counter("campaign_chunks_total",
                        help="chunks by completion source",
                        source="executed").inc()
            if journal is not None:
                journal.append_chunk(program_digest, config_key, index,
                                     digests[index], records)
            self._trace_checkpoint(index)
            progressed(len(records))

        def stopped() -> bool:
            return (self.stop_check is not None and self.stop_check())

        # The serial loop and the supervisor's degraded serial path run
        # _worker_run_specs in-process; installing the trace context
        # here (and restoring it after) makes them time runs exactly
        # like a pooled worker would.
        previous_trace = _worker_trace
        _install_worker_trace(self.trace)
        try:
            if todo and (self.jobs == 1 or len(specs) <= 1):
                with obs.span("campaign.scheduler", mode="serial",
                              chunks=len(todo)):
                    pipeline = self.pipeline
                    for index in todo:
                        if stopped():
                            raise CampaignStopped(completed[0], total)
                        checkpoint(index, self._absorb(
                            _worker_run_specs(pipeline, chunks[index]),
                            index * self.chunk_size))
            elif todo:
                with obs.span("campaign.scheduler", mode="pool",
                              jobs=self.jobs, chunks=len(todo)):
                    # Build the reference state in the parent first: a
                    # broken configuration fails fast with its label,
                    # and forked workers inherit the warm golden-run
                    # cache.
                    self.pipeline
                    self._run_supervised(chunks, todo, checkpoint)
                if any(index not in done for index in todo):
                    # The supervisor stopped early (stop_check);
                    # completed chunks are already journaled above.
                    raise CampaignStopped(completed[0], total)
        finally:
            _install_worker_trace(previous_trace)

        records: list[RunRecord] = []
        for index in range(len(chunks)):
            records.extend(done[index])
        return records

    def _note_escapes(self, escapes, base: int) -> None:
        for sub, spec in escapes:
            self._escapes[base + sub] = spec

    def _absorb(self, result, base: int):
        """Unwrap a task result, folding telemetry *and* escapes (at
        their global spec indices) into the parent-side state."""
        if isinstance(result, WorkerResult):
            obs.merge_snapshot(result.obs_snapshot)
            if result.escapes:
                self._note_escapes(result.escapes, base)
            if result.timings is not None and self.trace is not None:
                timings = dict(result.timings)
                timings["runs"] = [
                    {**run, "i": base + sub}
                    for sub, run in enumerate(timings["runs"])]
                self._trace_pieces.setdefault(
                    base // self.chunk_size, []).append(timings)
            return result.value
        return result

    def _trace_checkpoint(self, index: int) -> None:
        """Write the chunk's span and its runs' spans to the trace
        sidecar.  A split chunk arrives as several timed pieces — the
        chunk span covers all of them; replayed chunks have no pieces
        and no span (their work happened in an earlier trace)."""
        pieces = self._trace_pieces.pop(index, None)
        if not pieces or self.trace is None or self.journal is None:
            return
        chunk_ctx = self.trace.child("chunk", index)
        t0 = min(piece["t0"] for piece in pieces)
        entries = [chunk_ctx.entry(
            f"chunk {index}", "chunk", t0,
            max(piece["t1"] for piece in pieces) - t0,
            pieces[0]["pid"], {"index": index})]
        for piece in pieces:
            for run in piece["runs"]:
                entries.append(chunk_ctx.child("run", run["i"]).entry(
                    f"run {run['i']}", "run", run["t0"], run["dur"],
                    piece["pid"],
                    {"index": run["i"], "outcome": run["outcome"]}))
        append_entries(trace_sidecar_path(self.journal), entries)

    def escape_specs(self) -> list[tuple[int, object]]:
        """Escape (SDC/HANG) specs of the last ``run_specs`` call, as
        ``(global_index, spec)`` pairs in campaign order — identical
        for any job count and for journal-resumed executions."""
        return sorted(self._escapes.items())

    def _run_supervised(self, chunks, todo, checkpoint) -> None:
        tasks = [self._chunk_task(index, chunks[index])
                 for index in todo]
        supervisor = PoolSupervisor(
            jobs=min(self.jobs, len(tasks)),
            mp_context=_mp_context(),
            init_fn=_worker_init_state,
            init_args=(self.program, self.config, obs.enabled(),
                       self.trace),
            task_fn=_worker_run_specs,
            serial_fn=lambda specs: _worker_run_specs(self.pipeline,
                                                      specs),
            retries=self.retries, timeout=self.timeout,
            stop_check=self.stop_check)

        # Chunks that were split into singletons check back in once
        # every piece has arrived, so the journal stays chunk-grained.
        partial: dict[int, dict[int, list[RunRecord]]] = {}

        def on_result(task: SupervisedTask, records) -> None:
            if task.key[0] == "chunk":
                index = task.key[1]
                checkpoint(index, self._absorb(
                    records, index * self.chunk_size))
                return
            _, index, sub = task.key
            records = self._absorb(records,
                                   index * self.chunk_size + sub)
            pieces = partial.setdefault(index, {})
            pieces[sub] = records
            if len(pieces) == len(chunks[index]):
                checkpoint(index, [record
                                   for sub in range(len(chunks[index]))
                                   for record in pieces[sub]])

        supervisor.run(tasks, on_result=on_result)

    def _chunk_task(self, index: int, specs: list) -> SupervisedTask:
        def fail(reason: str) -> list[RunRecord]:
            return [infra_error_record(spec, reason) for spec in specs]

        def split() -> list[SupervisedTask] | None:
            if len(specs) <= 1:
                return None
            return [SupervisedTask(
                        key=("spec", index, sub), payload=[spec],
                        fail=(lambda reason, spec=spec:
                              [infra_error_record(spec, reason)]))
                    for sub, spec in enumerate(specs)]

        return SupervisedTask(key=("chunk", index), payload=list(specs),
                              fail=fail, split=split)

    def run_campaign(self, faults: CategoryFaults) -> CampaignResult:
        """Per-category campaign with order-stable tallies."""
        flat: list = []
        labels: list = []
        for category, specs in faults.by_category.items():
            for spec in specs:
                flat.append(spec)
                labels.append(category)
        result = CampaignResult(config_label=self.config.label())
        for category, record in zip(labels, self.run_specs(flat)):
            result.record(category, record.outcome)
        return result


@dataclass(frozen=True)
class MapError:
    """Per-item failure marker returned by :func:`parallel_map`."""

    item: object
    error: str


def _apply_quarantined(payload):
    func, item = payload
    try:
        return func(item)
    except Exception as exc:
        return MapError(item=item, error=f"{type(exc).__name__}: {exc}")


def _map_worker_init(obs_enabled: bool = False):
    _install_worker_obs(obs_enabled)
    return None


def _map_task_fn(_state, payload):
    result = _apply_quarantined(payload)
    snap = obs.drain_worker_snapshot()
    if snap is not None:
        return WorkerResult(result, snap)
    return result


def parallel_map(func, items, jobs: int = 1,
                 retries: int | None = None,
                 timeout: float | None = None,
                 on_progress=None,
                 stop_check=None) -> list:
    """Order-preserving process-parallel map for picklable tasks.

    Utility used by the CLI for independent heavyweight jobs (e.g.
    verifying several techniques); falls back to a plain loop for
    ``jobs=1`` or single-item inputs.  Each item is quarantined: an
    item whose call raises — or whose worker dies, or which exceeds
    ``timeout`` seconds even after ``retries`` re-dispatches — yields a
    :class:`MapError` in its slot instead of discarding every other
    result.

    ``on_progress(completed, total)`` fires as items finish (completion
    order, not input order); ``stop_check`` polled True abandons the
    remaining items and raises :class:`CampaignStopped`.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    finished = [0]

    def progressed() -> None:
        finished[0] += 1
        if on_progress is not None:
            on_progress(finished[0], len(items))

    if jobs == 1 or len(items) <= 1:
        results = []
        for item in items:
            if stop_check is not None and stop_check():
                raise CampaignStopped(finished[0], len(items))
            results.append(_apply_quarantined((func, item)))
            progressed()
        return results
    tasks = [SupervisedTask(
                 key=(index,), payload=(func, item),
                 fail=(lambda reason, item=item:
                       MapError(item=item, error=reason)))
             for index, item in enumerate(items)]
    supervisor = PoolSupervisor(
        jobs=min(jobs, len(items)), mp_context=_mp_context(),
        init_fn=_map_worker_init, init_args=(obs.enabled(),),
        task_fn=_map_task_fn, serial_fn=_apply_quarantined,
        retries=DEFAULT_RETRIES if retries is None else retries,
        timeout=timeout, stop_check=stop_check)
    results = supervisor.run(tasks,
                             on_result=lambda task, result:
                             progressed())
    if len(results) < len(items):
        raise CampaignStopped(finished[0], len(items))
    return [_unwrap(results[(index,)]) for index in range(len(items))]
