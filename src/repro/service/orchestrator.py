"""Job orchestrator: persistent queue, quotas, workers, drain/resume.

Scheduling is priority-then-FIFO: the runnable job with the highest
``priority`` wins, ties broken by submission order — which also makes
the queue FIFO *within* a tenant.  A tenant is bounded two ways:
``max_active_per_tenant`` caps queued+running jobs (submission beyond
it is a :class:`QuotaError`, HTTP 429), and
``max_running_per_tenant`` caps concurrency (excess jobs simply wait,
so one tenant cannot monopolise the worker pool).

Jobs run on plain worker threads; the *campaign* parallelism stays in
the existing supervised process pool (``params.jobs``), so the
orchestrator never re-implements retries, timeouts or quarantine.
Each job executes under :func:`repro.obs.scoped` with its own metrics
registry — per-job telemetry is queryable while the job runs and is
folded into the server-wide registry when it finishes.

Shutdown is a drain: queued jobs flip to REQUEUED, running jobs get
their cooperative stop flag and end REQUEUED after journaling the
chunks they completed.  ``recover()`` on the next start re-queues
them; the runners resume from the journal, so no completed work is
re-run (and the journal stays byte-identical to an uninterrupted
campaign).
"""

from __future__ import annotations

import logging
import os
import threading
import time
import traceback
import uuid

from repro import obs
from repro.faults import cache as run_cache
from repro.faults.executor import CampaignStopped
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesHub
from repro.obs.spans import TraceContext, append_job_span
from repro.service.jobs import Job, JobSpec, JobStatus, run_job
from repro.service.store import ArtifactStore

log = logging.getLogger("repro.service")


class QuotaError(Exception):
    """Submission rejected by a per-tenant quota (HTTP 429)."""


class Orchestrator:
    """Owns the job table, the queue, and the worker threads."""

    def __init__(self, root: str, workers: int = 2,
                 max_active_per_tenant: int = 16,
                 max_running_per_tenant: int = 2,
                 store: ArtifactStore | None = None):
        self.root = root
        self.jobs_root = os.path.join(root, "jobs")
        os.makedirs(self.jobs_root, exist_ok=True)
        self.store = store if store is not None else ArtifactStore(
            os.path.join(root, "store"))
        run_cache.set_disk_tier(self.store)
        self.max_active_per_tenant = max_active_per_tenant
        self.max_running_per_tenant = max_running_per_tenant
        self.registry = MetricsRegistry()
        self.timeseries = TimeSeriesHub()
        self._cond = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._queue: list[str] = []      # job ids, submission order
        self._seq = 0
        self._stopping = False
        self._threads = [
            threading.Thread(target=self._worker, name=f"job-worker-{i}",
                             daemon=True)
            for i in range(max(1, workers))]
        self.recover()
        for thread in self._threads:
            thread.start()
        self._sampler_stop = threading.Event()
        self._sampler = threading.Thread(
            target=self._sample_loop, name="obs-sampler", daemon=True)
        self._sampler.start()

    # -- lifecycle --------------------------------------------------------

    def recover(self) -> None:
        """Reload persisted jobs; re-queue interrupted ones.

        Jobs that were QUEUED, RUNNING or REQUEUED when the previous
        server died go back on the queue (oldest first); their
        runners resume from the journal.  Terminal jobs are loaded
        for inspection only.
        """
        recovered = []
        for name in sorted(os.listdir(self.jobs_root)):
            workspace = os.path.join(self.jobs_root, name)
            if not os.path.isfile(os.path.join(workspace, "job.json")):
                continue
            try:
                job = Job.load(workspace)
            except (OSError, ValueError, KeyError) as exc:
                log.warning("skipping unreadable job state %s: %s",
                            workspace, exc)
                continue
            self._jobs[job.id] = job
            if job.status in (JobStatus.QUEUED, JobStatus.RUNNING,
                              JobStatus.REQUEUED):
                recovered.append(job)
        recovered.sort(key=lambda job: job.created)
        with self._cond:
            for job in recovered:
                job.status = JobStatus.QUEUED
                job.save()
                self._queue.append(job.id)
            if recovered:
                log.info("recovered %d interrupted job(s)",
                         len(recovered))
                self._cond.notify_all()

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop scheduling, requeue, wait."""
        with self._cond:
            self._stopping = True
            for job_id in self._queue:
                job = self._jobs[job_id]
                job.publish(JobStatus.REQUEUED)
                job.emit("status", status=job.status.value)
            self._queue.clear()
            running = [job for job in self._jobs.values()
                       if job.status is JobStatus.RUNNING]
            for job in running:
                job.request_stop(cancel=False)
            self._cond.notify_all()
        self._sampler_stop.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            thread.join(max(0.1, deadline - time.monotonic()))
        self._sampler.join(1.0)
        log.info("drained: %d job(s) requeued",
                 sum(1 for job in self._jobs.values()
                     if job.status is JobStatus.REQUEUED))

    # -- submission / queries ---------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        with self._cond:
            if self._stopping:
                raise QuotaError("server is draining; resubmit later")
            active = sum(
                1 for job in self._jobs.values()
                if job.spec.tenant == spec.tenant
                and job.status in (JobStatus.QUEUED, JobStatus.RUNNING))
            if active >= self.max_active_per_tenant:
                raise QuotaError(
                    f"tenant {spec.tenant!r} already has {active} "
                    f"active job(s) (quota "
                    f"{self.max_active_per_tenant})")
            job_id = uuid.uuid4().hex[:12]
            job = Job(job_id, spec,
                      os.path.join(self.jobs_root, job_id))
            job.seq = self._seq = self._seq + 1
            self._jobs[job_id] = job
            job.save()
            job.emit("status", status=job.status.value)
            self._queue.append(job_id)
            self._cond.notify_all()
        obs_registry = self.registry
        obs_registry.counter("service_jobs_total",
                             help="jobs submitted",
                             kind=spec.kind,
                             tenant=spec.tenant).inc()
        return job

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def list_jobs(self, tenant: str | None = None) -> list[Job]:
        jobs = sorted(self._jobs.values(), key=lambda job: job.created)
        if tenant is not None:
            jobs = [job for job in jobs if job.spec.tenant == tenant]
        return jobs

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued (immediate) or running (cooperative) job."""
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            if job.status is JobStatus.QUEUED:
                self._queue.remove(job_id)
                job.finished = time.time()
                job.publish(JobStatus.CANCELLED)
                job.emit("status", status=job.status.value)
                return True
            if job.status is JobStatus.RUNNING:
                job.request_stop(cancel=True)
                return True
            return False

    # -- metrics ----------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Server-wide view: finished jobs' folded registry plus the
        live registries of running jobs."""
        aggregate = MetricsRegistry()
        aggregate.merge_snapshot(self.registry.snapshot())
        for job in list(self._jobs.values()):
            registry = getattr(job, "registry", None)
            if registry is not None and job.status is JobStatus.RUNNING:
                aggregate.merge_snapshot(registry.snapshot())
        return aggregate.snapshot()

    def sample_timeseries(self, now: float | None = None) -> None:
        """One sampler tick: diff the server-wide snapshot into the
        rolling windows and record the queue-depth gauges.

        Driven by the sampler thread about once a second; callable
        directly from tests (with an explicit ``now``) so time-series
        behaviour is testable without sleeping.
        """
        snapshot = self.metrics_snapshot()
        with self._cond:
            queued = len(self._queue)
            running = sum(1 for job in self._jobs.values()
                          if job.status is JobStatus.RUNNING)
        snapshot.setdefault("gauges", []).extend((
            {"name": "service_queue_depth", "labels": {},
             "value": queued},
            {"name": "service_jobs_running", "labels": {},
             "value": running},
        ))
        self.timeseries.sample(snapshot, now=now)

    def _sample_loop(self) -> None:
        while not self._sampler_stop.wait(1.0):
            try:
                self.sample_timeseries()
            except Exception:
                log.exception("timeseries sampler tick failed")

    # -- worker loop ------------------------------------------------------

    def _claim(self) -> Job | None:
        """Highest-priority runnable job (call with the lock held)."""
        running_per_tenant: dict[str, int] = {}
        for job in self._jobs.values():
            if job.status is JobStatus.RUNNING:
                tenant = job.spec.tenant
                running_per_tenant[tenant] = \
                    running_per_tenant.get(tenant, 0) + 1
        best_index = None
        best_key = None
        for index, job_id in enumerate(self._queue):
            job = self._jobs[job_id]
            tenant = job.spec.tenant
            if running_per_tenant.get(tenant, 0) >= \
                    self.max_running_per_tenant:
                continue
            key = (-job.spec.priority, index)
            if best_key is None or key < best_key:
                best_key, best_index = key, index
        if best_index is None:
            return None
        job = self._jobs[self._queue.pop(best_index)]
        job.status = JobStatus.RUNNING
        job.started = time.time()
        return job

    def _worker(self) -> None:
        while True:
            with self._cond:
                job = self._claim()
                while job is None:
                    if self._stopping:
                        return
                    self._cond.wait(0.5)
                    if self._stopping:
                        return
                    job = self._claim()
            self._execute(job)

    def _execute(self, job: Job) -> None:
        job.save()
        job.emit("status", status=job.status.value)
        registry = MetricsRegistry()
        job.registry = registry
        started = time.monotonic()
        try:
            with obs.scoped(registry):
                result = run_job(job)
        except CampaignStopped as exc:
            job.completed = exc.completed
            job.total = exc.total
            status = (JobStatus.CANCELLED if job.cancelled
                      else JobStatus.REQUEUED)
        except Exception as exc:
            status = JobStatus.FAILED
            job.error = f"{type(exc).__name__}: {exc}"
            log.warning("job %s failed:\n%s", job.id,
                        traceback.format_exc())
        else:
            status = JobStatus.DONE
            job.result = result
        job.finished = time.time()
        # The job span and then the terminal state reach disk before
        # pollers can see that state.
        self._append_job_span(job, status)
        job.publish(status)
        self.registry.merge_snapshot(registry.snapshot())
        self.registry.counter(
            "service_jobs_finished_total", help="jobs finished",
            kind=job.spec.kind, status=job.status.value).inc()
        self.registry.histogram(
            "service_job_seconds", help="job wall-clock",
            kind=job.spec.kind).observe(time.monotonic() - started)
        job.emit("status", status=job.status.value,
                 error=job.error)
        job.emit("end", status=job.status.value)
        with self._cond:
            self._cond.notify_all()

    def _append_job_span(self, job: Job, status: JobStatus) -> None:
        """Record the job-level span in the workspace trace sidecar.

        The job's trace id *is* its job id; inject runners hand the
        same root context to their :class:`CampaignExecutor`, whose
        workers append the chunk/run spans — this line is the parent
        that nests them.  A re-executed (requeued) job appends another
        line under the same span id; the exporter keeps the last.
        """
        if job.started is None or job.finished is None:
            return
        try:
            append_job_span(job.journal_path, TraceContext.root(job.id),
                            job.spec.name, job.started, job.finished,
                            kind=job.spec.kind, status=status.value,
                            job=job.id)
        except OSError:
            log.warning("could not append trace span for job %s",
                        job.id, exc_info=True)
