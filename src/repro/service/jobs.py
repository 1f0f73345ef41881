"""Job model: submission validation, runtime state, and runners.

A job is a campaign the CLI could run — inject, coverage, fuzz or
verify — wrapped in service bookkeeping.  ``validate_spec`` turns a
JSON payload into a :class:`JobSpec` *eagerly*: the program is
assembled, fault tokens are parsed and the pipeline/fuzz config is
constructed at submit time, so a bad request fails with HTTP 400
instead of a queued job that dies minutes later.

The runners reuse the exact code paths the CLI commands use — same
journal header helpers, same :class:`CampaignExecutor` parameters —
so a service job's journal is byte-identical to the same campaign run
via ``python -m repro``.  Each job owns a workspace directory holding
``job.json`` (persisted state, the restart-resume source of truth),
``journal.jsonl`` and any corpus/forensics artifacts.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.checking import TECHNIQUES

KINDS = ("inject", "coverage", "fuzz", "verify", "profile")


class JobStatus(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: drained by a shutting-down server; resumes on restart
    REQUEUED = "requeued"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.FAILED,
                        JobStatus.CANCELLED)


@dataclass(frozen=True)
class JobSpec:
    """Validated, immutable description of what to run."""

    kind: str
    tenant: str = "default"
    priority: int = 0
    #: assembly source text (inject/coverage/verify; fuzz generates)
    program: str | None = None
    #: display name; doubles as the assembler's source name
    name: str = "submitted.s"
    #: kind-specific knobs, already validated
    params: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> JobSpec:
        return cls(kind=data["kind"], tenant=data.get("tenant", "default"),
                   priority=data.get("priority", 0),
                   program=data.get("program"),
                   name=data.get("name", "submitted.s"),
                   params=data.get("params", {}))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _assemble(spec_program: str, name: str):
    from repro.isa import assemble
    try:
        return assemble(spec_program, name=name)
    except Exception as exc:
        raise ValueError(f"program does not assemble: {exc}") from exc


def build_fuzz_config(params: dict):
    """FuzzConfig from job params (mirrors ``repro fuzz`` flags)."""
    from repro.checking import Policy
    from repro.fuzz import FuzzConfig
    from repro.fuzz.generator import FuzzKnobs
    knobs = FuzzKnobs().scaled(
        statements=int(params.get("statements", 24)),
        max_loop_depth=int(params.get("loop_depth", 2)),
        mem_words=int(params.get("mem_words", 16)))
    config = FuzzConfig(
        seed=int(params.get("seed", 2006)),
        count=int(params.get("count", 50)),
        knobs=knobs,
        detect_every=int(params.get("detect_every", 8)),
        max_sites=int(params.get("detect_sites", 12)),
        minimize=not params.get("no_minimize", False),
        backend=params.get("backend", "interp"),
        recover=params.get("recover", False),
        mt_every=int(params.get("mt_every", 0)))
    techniques = params.get("techniques")
    if techniques:
        for technique in techniques:
            _require(technique in TECHNIQUES,
                     f"unknown technique {technique!r}")
        config = dataclasses.replace(
            config, techniques=tuple(techniques),
            detect_techniques=tuple(
                t for t in config.detect_techniques
                if t in techniques))
    policies = params.get("policies")
    if policies:
        try:
            config = dataclasses.replace(
                config, policies=tuple(Policy(p) for p in policies))
        except ValueError as exc:
            raise ValueError(str(exc)) from exc
    return config


def validate_spec(payload) -> JobSpec:
    """JSON payload -> JobSpec, or ValueError with a client message."""
    _require(isinstance(payload, dict), "payload must be a JSON object")
    kind = payload.get("kind")
    _require(kind in KINDS,
             f"kind must be one of {', '.join(KINDS)} (got {kind!r})")
    tenant = payload.get("tenant", "default")
    _require(isinstance(tenant, str) and 0 < len(tenant) <= 64
             and tenant.replace("-", "").replace("_", "").isalnum(),
             "tenant must be a short alphanumeric(-_) string")
    priority = payload.get("priority", 0)
    _require(isinstance(priority, int) and -100 <= priority <= 100,
             "priority must be an integer in [-100, 100]")
    params = payload.get("params", {})
    _require(isinstance(params, dict), "params must be a JSON object")
    name = payload.get("name", "submitted.s")
    _require(isinstance(name, str) and 0 < len(name) <= 200
             and "/" not in name and "\x00" not in name,
             "name must be a short string without '/'")
    jobs = params.get("jobs", 1)
    _require(isinstance(jobs, int) and 0 <= jobs <= 64,
             "params.jobs must be an integer in [0, 64]")
    from repro.exec import BACKEND_NAMES
    from repro.faults import PipelineConfig
    from repro.faults.campaign import check_int
    backend = params.get("backend", "interp")
    _require(backend in BACKEND_NAMES,
             f"unknown backend {backend!r}")

    program = payload.get("program")
    if kind in ("inject", "coverage", "verify", "profile"):
        _require(isinstance(program, str) and program.strip(),
                 f"{kind} jobs need 'program' (assembly source text)")
        assembled = _assemble(program, name)
    else:
        _require(program is None,
                 "fuzz jobs generate their own programs; drop 'program'")
        assembled = None

    if kind == "inject":
        faults = params.get("faults")
        _require(isinstance(faults, list) and faults
                 and all(isinstance(f, str) for f in faults),
                 "inject jobs need params.faults: a non-empty list of "
                 "fault tokens (offset:BIT | flag:BIT | direction | "
                 "redirect:ADDR | register:REG,BIT,ICOUNT)")
        _require("pipeline" not in params,
                 "inject jobs run the DBT pipeline (the native or "
                 "static one with threads); drop params.pipeline")
        PipelineConfig.from_params(params)
        from repro.cli import check_fault_target, parse_fault_token
        occurrence, _ = check_fault_target(params)
        for token in faults:
            try:
                parse_fault_token(assembled, token,
                                  branch=str(params.get("branch", "0")),
                                  occurrence=occurrence)
            except (ValueError, KeyError) as exc:
                raise ValueError(
                    f"bad fault token {token!r}: {exc}") from exc
    elif kind == "coverage":
        check_int("per_category", params.get("per_category", 8), 1)
        _require(isinstance(params.get("seed", 2006), int),
                 "params.seed must be an integer")
        PipelineConfig.from_params({"backend": backend})
    elif kind == "fuzz":
        build_fuzz_config(params)
    elif kind == "profile":
        top = params.get("top", 10)
        _require(isinstance(top, int) and 1 <= top <= 200,
                 "params.top must be an integer in [1, 200]")
        max_steps = params.get("max_steps", 50_000_000)
        _require(isinstance(max_steps, int) and max_steps > 0,
                 "params.max_steps must be a positive integer")
        _require(isinstance(params.get("dbt", False), bool),
                 "params.dbt must be a boolean")
    elif kind == "verify":
        techniques = params.get("techniques", ["edgcf"])
        _require(isinstance(techniques, list) and techniques
                 and all(t in TECHNIQUES and t != "edgcf-naive"
                         for t in techniques),
                 "params.techniques must be a non-empty list drawn "
                 "from ecf, edgcf, rcf, cfcss, ecca")
        PipelineConfig.from_params({"policy": params.get("policy"),
                                    "backend": backend})
    return JobSpec(kind=kind, tenant=tenant, priority=priority,
                   program=program, name=name, params=params)


class Job:
    """Runtime state of one submitted campaign.

    Thread-safe: the orchestrator's worker mutates it while API
    threads read it and SSE streams block in :meth:`wait_events`.
    """

    def __init__(self, job_id: str, spec: JobSpec, workspace: str,
                 created: float | None = None):
        self.id = job_id
        self.spec = spec
        self.workspace = workspace
        self.created = time.time() if created is None else created
        self.started: float | None = None
        self.finished: float | None = None
        self.status = JobStatus.QUEUED
        self.error: str | None = None
        self.result: dict | None = None
        self.completed = 0
        self.total = 0
        self._stop = False
        self._cancelled = False
        self._cond = threading.Condition()
        self._events: list[dict] = []

    # -- events / progress ----------------------------------------------

    def emit(self, event: str, **data) -> None:
        with self._cond:
            entry = {"seq": len(self._events), "event": event,
                     "job": self.id, **data}
            self._events.append(entry)
            self._cond.notify_all()

    def events_since(self, seq: int) -> list[dict]:
        with self._cond:
            return list(self._events[seq:])

    def wait_events(self, seq: int, timeout: float = 10.0) -> list[dict]:
        """Block until events past ``seq`` exist (or timeout); return
        them.  SSE streaming loops over this."""
        with self._cond:
            if len(self._events) <= seq:
                self._cond.wait(timeout)
            return list(self._events[seq:])

    def on_progress(self, completed: int, total: int) -> None:
        if completed == self.completed and total == self.total:
            return
        self.completed, self.total = completed, total
        self.emit("progress", completed=completed, total=total)

    # -- cooperative stop ------------------------------------------------

    def request_stop(self, cancel: bool) -> None:
        """Ask the runner to stop between chunks.

        ``cancel=True`` marks a user cancellation (terminal);
        ``cancel=False`` is a shutdown drain (job will be requeued).
        """
        self._stop = True
        if cancel:
            self._cancelled = True

    def stop_requested(self) -> bool:
        return self._stop

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    # -- paths / persistence ---------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.workspace, "journal.jsonl")

    @property
    def corpus_dir(self) -> str:
        return os.path.join(self.workspace, "corpus")

    @property
    def state_path(self) -> str:
        return os.path.join(self.workspace, "job.json")

    def to_json(self, include_events: bool = False) -> dict:
        data = {
            "id": self.id,
            "spec": self.spec.to_json(),
            "status": self.status.value,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "completed": self.completed,
            "total": self.total,
            "error": self.error,
            "result": self.result,
        }
        if include_events:
            data["events"] = self.events_since(0)
        return data

    def save(self) -> None:
        self._write(self.to_json())

    def publish(self, status: JobStatus) -> None:
        """Move to ``status``: on disk first, then in memory, so a
        poller that sees the new status can load it from job.json."""
        data = self.to_json()
        data["status"] = status.value
        self._write(data)
        self.status = status

    def _write(self, data: dict) -> None:
        os.makedirs(self.workspace, exist_ok=True)
        tmp = self.state_path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(data, handle, indent=1)
        os.replace(tmp, self.state_path)

    @classmethod
    def load(cls, workspace: str) -> Job:
        with open(os.path.join(workspace, "job.json")) as handle:
            data = json.load(handle)
        job = cls(data["id"], JobSpec.from_json(data["spec"]),
                  workspace, created=data.get("created"))
        job.status = JobStatus(data["status"])
        job.started = data.get("started")
        job.finished = data.get("finished")
        job.completed = data.get("completed", 0)
        job.total = data.get("total", 0)
        job.error = data.get("error")
        job.result = data.get("result")
        return job


# -- runners ----------------------------------------------------------------


def run_job(job: Job) -> dict:
    """Execute a job's campaign; returns the JSON result summary.

    Raises :class:`repro.faults.executor.CampaignStopped` when the
    job's stop flag interrupted it (orchestrator turns that into
    CANCELLED or REQUEUED) and any other exception on infra failure.
    """
    runner = {"inject": _run_inject, "coverage": _run_coverage,
              "fuzz": _run_fuzz, "verify": _run_verify,
              "profile": _run_profile}[job.spec.kind]
    return runner(job)


def _resume_flag(job: Job) -> bool:
    """A requeued job with a journal resumes; fresh jobs start clean."""
    return os.path.exists(job.journal_path)


def _run_inject(job: Job) -> dict:
    from repro.cli import check_fault_target, parse_fault_token
    from repro.faults import CampaignExecutor, PipelineConfig
    from repro.faults.journal import CampaignJournal, inject_header
    params = job.spec.params
    program = _assemble(job.spec.program, job.spec.name)
    occurrence, thread = check_fault_target(params)
    specs = [parse_fault_token(program, token,
                               branch=str(params.get("branch", "0")),
                               occurrence=occurrence, thread=thread)
             for token in params["faults"]]
    config = PipelineConfig.from_params(params)
    resume = _resume_flag(job)
    CampaignJournal(job.journal_path).start(inject_header(config), resume)
    from repro.obs.spans import TraceContext
    executor = CampaignExecutor(
        program, config, jobs=params.get("jobs", 1),
        retries=params.get("retries"), timeout=params.get("timeout"),
        journal=job.journal_path, resume=resume,
        on_progress=job.on_progress, stop_check=job.stop_requested,
        trace=TraceContext.root(job.id))
    records = executor.run_specs(specs)
    outcomes: dict[str, int] = {}
    details = []
    for spec, record in zip(specs, records):
        outcomes[record.outcome.value] = \
            outcomes.get(record.outcome.value, 0) + 1
        details.append({"fault": spec.describe(),
                        "outcome": record.outcome.value,
                        "stop_reason": record.stop_reason,
                        "detection_latency": record.detection_latency})
    return {"config": config.label(), "outcomes": outcomes,
            "records": details}


def _run_coverage(job: Job) -> dict:
    from repro.analysis import compute_coverage_matrix
    from repro.faults.journal import CampaignJournal, coverage_header
    params = job.spec.params
    program = _assemble(job.spec.program, job.spec.name)
    seed = int(params.get("seed", 2006))
    per_category = int(params.get("per_category", 8))
    backend = params.get("backend", "interp")
    resume = _resume_flag(job)
    CampaignJournal(job.journal_path).start(
        coverage_header(seed, per_category, backend), resume)
    forensics = params.get("forensics")
    forensics_path = None
    if forensics is not None:
        from repro.forensics import bundle_path_for
        forensics_path = bundle_path_for(job.journal_path)
    matrix = compute_coverage_matrix(
        program, per_category=per_category, seed=seed,
        include_cache_level=not params.get("no_cache_level", False),
        jobs=params.get("jobs", 1), retries=params.get("retries"),
        timeout=params.get("timeout"), journal=job.journal_path,
        resume=resume, forensics=forensics,
        forensics_path=forensics_path, backend=backend,
        on_progress=job.on_progress, stop_check=job.stop_requested)
    configs = {}
    for label, result in matrix.results.items():
        configs[label] = {
            category.value: {outcome.value: count
                             for outcome, count in bucket.items()}
            for category, bucket in result.outcomes.items()}
    return {"table": matrix.table(), "configs": configs,
            "infra": sum(result.infra
                         for result in matrix.results.values())}


def _run_fuzz(job: Job) -> dict:
    from repro.fuzz import run_fuzz
    params = job.spec.params
    config = build_fuzz_config(params)
    # Fuzzing is rerun-deterministic: a requeued job reruns from
    # scratch, so drop the torn journal (and its trace sidecar)
    # instead of resuming it (run_fuzz appends its own header).
    from repro.obs.spans import trace_sidecar_path
    for stale in (job.journal_path,
                  trace_sidecar_path(job.journal_path)):
        if os.path.exists(stale):
            os.unlink(stale)
    report = run_fuzz(config, jobs=params.get("jobs", 1),
                      retries=params.get("retries"),
                      timeout=params.get("timeout"),
                      journal=job.journal_path,
                      corpus=job.corpus_dir,
                      on_progress=job.on_progress,
                      stop_check=job.stop_requested)
    return {"summary": report.summary_line(),
            "passed": report.passed,
            "programs": report.programs,
            "ok": report.ok,
            "infra_errors": report.infra_errors,
            "failures": [{"index": failure.index,
                          "kind": failure.kind,
                          "detail": failure.detail,
                          "corpus_dir": failure.corpus_dir}
                         for failure in report.failures]}


def _run_verify(job: Job) -> dict:
    from repro.cli import _verify_task
    from repro.faults import MapError, parallel_map
    params = job.spec.params
    program = _assemble(job.spec.program, job.spec.name)
    techniques = params.get("techniques", ["edgcf"])
    tasks = [(program, technique, params.get("policy", "allbb"))
             for technique in techniques]
    results = parallel_map(_verify_task, tasks,
                           jobs=params.get("jobs", 1),
                           retries=params.get("retries"),
                           timeout=params.get("timeout"),
                           on_progress=job.on_progress,
                           stop_check=job.stop_requested)
    out = {}
    clean = True
    for task, result in zip(tasks, results):
        if isinstance(result, MapError):
            out[task[1]] = {"error": result.error}
            clean = False
            continue
        technique, report = result
        out[technique] = {"summary": report.summary(),
                          "violations": len(report.violations),
                          "unproven": len(report.unproven)}
        if report.violations:
            clean = False
    return {"techniques": out, "clean": clean}


def _run_profile(job: Job) -> dict:
    """Hot-block profile of one run; the annotated report lands in the
    workspace as ``profile.txt``, the block table in the job result
    (which the dashboard's hot-block panel renders)."""
    from repro.exec.profiler import profile_dbt, profile_native
    params = job.spec.params
    program = _assemble(job.spec.program, job.spec.name)
    max_steps = int(params.get("max_steps", 50_000_000))
    job.on_progress(0, 1)
    if params.get("dbt"):
        _, result, profiler = profile_dbt(program, max_steps=max_steps)
        stop = result.stop
        mode = "dbt"
    else:
        _, stop, profiler = profile_native(
            program, backend=params.get("backend", "interp"),
            max_steps=max_steps)
        mode = params.get("backend", "interp")
    top = int(params.get("top", 10))
    report = profiler.render_report(program, top=top)
    os.makedirs(job.workspace, exist_ok=True)
    with open(os.path.join(job.workspace, "profile.txt"), "w") as out:
        out.write(report + "\n")
    job.on_progress(1, 1)
    summary = profiler.as_json(program, top=top)
    summary.update({"mode": mode, "stop": stop.reason.name,
                    "program": job.spec.name})
    return summary
