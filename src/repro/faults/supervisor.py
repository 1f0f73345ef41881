"""Fault-tolerant supervision of campaign worker processes.

The parallel campaign engine must survive the harness's own failure
modes, not just the guest's: a worker segfaulting or ``os._exit``-ing
mid-chunk, a task that raises, and a task that never finishes in
host wall-clock time.  :class:`PoolSupervisor` owns a small pool of
worker processes it spawns itself (one duplex pipe each), so — unlike
``concurrent.futures.ProcessPoolExecutor``, whose pool breaks wholesale
and loses track of which future was running where — it always knows
*exactly* which task a dead or overdue worker was holding:

* **death** (non-zero exit, kill, OOM): the held task is penalized, the
  worker is replaced after a bounded backoff, every other worker keeps
  running;
* **timeout**: when a task exceeds the per-task wall-clock deadline the
  worker is killed and only that task is penalized (the deadline clock
  starts once the worker has finished initializing, so a slow golden
  run is never billed to the first chunk);
* **task error**: a worker that reports an exception from the task
  function stays alive and the task alone is penalized.

Penalty policy: a splittable task (a multi-spec chunk) is first split
into singleton tasks to isolate the pathological spec; a singleton is
retried up to ``retries`` times and then converted to its permanent
failure result (an ``INFRA_ERROR`` record for campaign chunks).  After
``max_pool_failures`` consecutive worker deaths with no completed task
in between, the supervisor degrades to in-process serial execution for
the remaining tasks — tasks that already caused a failure are condemned
rather than re-run in-process, so a crasher can never take down the
supervising process itself.

Worker-initializer failures (e.g. a golden run raising inside the
worker) abort the run with :class:`WorkerInitError` carrying the
initializer's own message, never an opaque broken-pool error.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection

from repro import obs

log = logging.getLogger(__name__)

#: Seconds between supervision sweeps while work is outstanding.
_TICK = 0.05

#: Default retry budget for a failing singleton task.
DEFAULT_RETRIES = 2

#: Consecutive no-progress worker deaths before serial degradation.
DEFAULT_MAX_POOL_FAILURES = 5


class WorkerInitError(RuntimeError):
    """A worker's initializer failed; the message names the cause."""


@dataclass
class SupervisedTask:
    """One unit of pool work plus its retry/split/failure policy.

    ``key`` orders and identifies results; ``payload`` is what crosses
    the process boundary.  ``split`` (optional) returns finer-grained
    subtasks used to isolate a failure inside a batch; ``fail`` builds
    the result recorded when the task permanently fails.
    """

    key: tuple
    payload: object
    fail: object                      #: (reason: str) -> result
    split: object = None              #: () -> list[SupervisedTask] | None
    attempts: int = field(default=0, compare=False)
    #: monotonic stamp of the latest queue append (telemetry only)
    enqueued_at: float | None = field(default=None, compare=False)


def _safe_send(conn, message) -> None:
    try:
        conn.send(message)
    except Exception:
        pass


def _worker_main(conn, init_fn, init_args, task_fn) -> None:
    """Worker process body: init once, then serve tasks off the pipe
    until told to stop, the pipe closes, or the supervisor dies.

    A worker forked from the supervisor holds copies of the pool's
    pipe ends, so a supervisor killed outright never closes them for
    it: the worker watches the parent's sentinel as well.
    """
    try:
        state = init_fn(*init_args) if init_fn is not None else None
    except BaseException as exc:
        _safe_send(conn, ("init_error", f"{type(exc).__name__}: {exc}"))
        return
    _safe_send(conn, ("ready",))
    parent = multiprocessing.parent_process()
    watched = [conn] if parent is None else [conn, parent.sentinel]
    while True:
        try:
            if conn not in connection.wait(watched):
                return                  # the supervisor is gone
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, key, payload = message
        try:
            result = task_fn(state, payload)
        except BaseException as exc:
            _safe_send(conn, ("error", key,
                              f"{type(exc).__name__}: {exc}"))
            continue
        _safe_send(conn, ("ok", key, result))


class _Worker:
    __slots__ = ("process", "conn", "task", "ready", "started")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.task: SupervisedTask | None = None
        self.ready = False              # initializer finished
        self.started: float | None = None  # deadline clock for the task


class PoolSupervisor:
    """Runs :class:`SupervisedTask` items on supervised workers.

    Results come back as a ``{task.key: result}`` dict, so merging is
    independent of scheduling — the caller's merge order alone decides
    the output order, preserving the campaign engine's byte-identical-
    for-any-job-count guarantee.
    """

    def __init__(self, jobs: int, mp_context, task_fn, serial_fn,
                 init_fn=None, init_args: tuple = (),
                 retries: int = DEFAULT_RETRIES,
                 timeout: float | None = None,
                 backoff: float = 0.1,
                 max_pool_failures: int = DEFAULT_MAX_POOL_FAILURES,
                 stop_check=None):
        self.jobs = max(1, jobs)
        self.mp_context = mp_context
        self.task_fn = task_fn
        self.serial_fn = serial_fn
        self.init_fn = init_fn
        self.init_args = init_args
        self.retries = max(0, retries)
        self.timeout = timeout
        self.backoff = backoff
        self.max_pool_failures = max(1, max_pool_failures)
        #: optional () -> bool polled between supervision sweeps; True
        #: stops dispatching, kills the pool, and returns the results
        #: collected so far (cooperative cancellation/drain — the
        #: campaign service's shutdown path)
        self.stop_check = stop_check
        self.stopped = False
        self.degraded = False
        self._workers: list[_Worker] = []
        self._queue: deque[SupervisedTask] = deque()
        self._results: dict = {}
        self._on_result = None
        self._failures = 0   # consecutive deaths without progress

    # -- public API ----------------------------------------------------------

    def run(self, tasks, on_result=None) -> dict:
        """Run every task; returns ``{key: result}`` (every key of the
        input tasks, or of their split descendants, is present)."""
        self._queue = deque(tasks)
        now = time.monotonic()
        for task in self._queue:
            task.enqueued_at = now
        self._results = {}
        self._on_result = on_result
        self._failures = 0
        self.stopped = False
        try:
            self._loop()
        finally:
            self._stop_workers()
        return self._results

    # -- event loop ----------------------------------------------------------

    def _loop(self) -> None:
        while True:
            if self.stop_check is not None and self.stop_check():
                self.stopped = True
                log.info("stop requested; abandoning %d queued and "
                         "in-flight task(s)", len(self._queue)
                         + sum(1 for w in self._workers
                               if w.task is not None))
                return
            if self.degraded:
                self._drain_serial()
                return
            busy = sum(1 for w in self._workers if w.task is not None)
            if not self._queue and not busy:
                return
            self._top_up(busy)
            self._dispatch()
            self._sweep()
            self._check_timeouts()

    def _top_up(self, busy: int) -> None:
        want = min(self.jobs, busy + len(self._queue))
        while len(self._workers) < want:
            self._workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.mp_context.Pipe()
        process = self.mp_context.Process(
            target=_worker_main,
            args=(child_conn, self.init_fn, self.init_args, self.task_fn),
            daemon=True)
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _dispatch(self) -> None:
        for worker in list(self._workers):
            if worker.task is not None or not self._queue:
                continue
            task = self._queue.popleft()
            if task.enqueued_at is not None:
                obs.histogram(
                    "campaign_queue_wait_seconds",
                    help="time tasks spent queued before dispatch"
                ).observe(time.monotonic() - task.enqueued_at)
            worker.task = task
            worker.started = time.monotonic() if worker.ready else None
            try:
                worker.conn.send(("task", task.key, task.payload))
            except Exception:
                self._worker_died(worker)

    def _sweep(self) -> None:
        objects = []
        owner = {}
        for worker in self._workers:
            objects.append(worker.conn)
            owner[worker.conn] = worker
            objects.append(worker.process.sentinel)
            owner[worker.process.sentinel] = worker
        if not objects:
            return
        flagged = []
        for obj in connection.wait(objects, timeout=_TICK):
            worker = owner[obj]
            if worker not in flagged:
                flagged.append(worker)
        for worker in flagged:
            if worker not in self._workers:
                continue
            alive_pipe = self._drain_conn(worker)
            if not alive_pipe or not worker.process.is_alive():
                self._worker_died(worker)

    def _drain_conn(self, worker: _Worker) -> bool:
        """Deliver pending messages; False once the pipe is dead."""
        try:
            while worker.conn.poll(0):
                self._handle_message(worker, worker.conn.recv())
        except (EOFError, OSError):
            return False
        return True

    def _handle_message(self, worker: _Worker, message) -> None:
        kind = message[0]
        if kind == "ready":
            worker.ready = True
            if worker.task is not None and worker.started is None:
                worker.started = time.monotonic()
        elif kind == "init_error":
            raise WorkerInitError(message[1])
        elif kind == "ok":
            task, started = worker.task, worker.started
            worker.task, worker.started = None, None
            if task is not None:
                self._failures = 0
                if started is not None:
                    obs.histogram(
                        "campaign_chunk_seconds",
                        help="wall time of one dispatched task"
                    ).observe(time.monotonic() - started)
                self._record(task, message[2])
        elif kind == "error":
            task, worker.task, worker.started = worker.task, None, None
            if task is not None:
                self._penalize(task, message[2])

    def _check_timeouts(self) -> None:
        if self.timeout is None:
            return
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.task is None or worker.started is None:
                continue
            if now - worker.started <= self.timeout:
                continue
            task, worker.task = worker.task, None
            self._workers.remove(worker)
            log.warning("task %s exceeded the %.3gs deadline; killing "
                        "its worker", task.key, self.timeout)
            self._kill_worker(worker)
            obs.counter("campaign_timeouts_total",
                        help="tasks killed at the wall-clock deadline"
                        ).inc()
            # A slow task is not a sick pool: no _failures increment.
            self._penalize(task, f"timed out after {self.timeout:g}s")

    # -- failure policy ------------------------------------------------------

    def _worker_died(self, worker: _Worker) -> None:
        if worker not in self._workers:
            return
        self._workers.remove(worker)
        exitcode = worker.process.exitcode
        self._kill_worker(worker)
        task, worker.task = worker.task, None
        obs.counter("campaign_worker_deaths_total",
                    help="worker processes that died mid-run").inc()
        if task is not None:
            self._penalize(task, f"worker died (exit code {exitcode})")
        self._failures += 1
        if self._failures >= self.max_pool_failures:
            self.degraded = True
            log.warning("%d consecutive worker failures; degrading to "
                        "in-process serial execution for the remaining "
                        "tasks", self._failures)
        else:
            time.sleep(min(self.backoff * (2 ** (self._failures - 1)),
                           2.0))

    def _penalize(self, task: SupervisedTask, reason: str) -> None:
        parts = task.split() if task.split is not None else None
        if parts:
            log.warning("splitting task %s into %d singletons to "
                        "isolate a failure (%s)",
                        task.key, len(parts), reason)
            obs.counter("campaign_task_splits_total",
                        help="batch tasks split into singletons").inc()
            now = time.monotonic()
            for part in parts:
                part.enqueued_at = now
            self._queue.extend(parts)
            return
        task.attempts += 1
        if task.attempts > self.retries:
            log.warning("task %s permanently failed after %d attempt(s)"
                        ": %s", task.key, task.attempts, reason)
            obs.counter("campaign_task_failures_total",
                        help="tasks converted to permanent failure"
                        ).inc()
            self._record(task, task.fail(reason))
        else:
            obs.counter("campaign_retries_total",
                        help="task re-dispatches after a failure").inc()
            task.enqueued_at = time.monotonic()
            self._queue.append(task)

    def _record(self, task: SupervisedTask, result) -> None:
        self._results[task.key] = result
        if self._on_result is not None:
            self._on_result(task, result)

    # -- degraded mode -------------------------------------------------------

    def _drain_serial(self) -> None:
        self._stop_workers(requeue=True)
        while self._queue:
            if self.stop_check is not None and self.stop_check():
                self.stopped = True
                return
            task = self._queue.popleft()
            if task.key in self._results:
                continue
            if task.attempts:
                # Already took a worker down once; never re-run it in
                # the supervising process.
                self._record(task, task.fail(
                    "skipped in degraded serial mode after worker "
                    "failures"))
                continue
            try:
                result = self.serial_fn(task.payload)
            except Exception as exc:
                result = task.fail(f"{type(exc).__name__}: {exc}")
            self._record(task, result)

    # -- teardown ------------------------------------------------------------

    def _kill_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except Exception:
            pass
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=1.0)

    def _stop_workers(self, requeue: bool = False) -> None:
        for worker in self._workers:
            if requeue and worker.task is not None:
                worker.task.enqueued_at = time.monotonic()
                self._queue.append(worker.task)
                worker.task = None
            _safe_send(worker.conn, ("stop",))
        for worker in self._workers:
            worker.process.join(timeout=0.25)
            self._kill_worker(worker)
        self._workers = []
