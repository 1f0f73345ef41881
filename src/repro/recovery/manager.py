"""The recovery loop: segmented execution, rollback, re-execution.

:class:`RecoveryManager` owns one protected run.  It slices execution
into checkpoint intervals (both backends honour ``max_steps`` exactly,
so the block tier's batched icount/cycle accounting is always settled
at a segment boundary — rollback never lands inside an in-flight
closure), captures a :class:`~repro.recovery.checkpoint.Checkpoint`
after each clean segment, and when the pipeline classifies a stop as a
detection — or the watchdog trips on an exhausted step budget — rolls
back to the newest consistent checkpoint and re-executes with a fresh
budget.  A re-detection after a rollback escalates to a clean restart
from the entry checkpoint; the retry budget bounds total attempts, and
the checkpoint interval adapts exponentially (halving after a rollback,
doubling after a streak of clean segments).

The manager is pipeline-agnostic: the caller supplies ``step`` (run up
to N instructions, return the backend's stop object), ``classify``
(map that stop object to ``"detected"`` / ``"limit"`` / ``"done"``),
and — under the DBT — ``epoch`` / ``entry_restart`` hooks so
checkpoints whose PC points into a flushed translation cache are never
restored, and an entry restart re-primes translation from scratch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.recovery.checkpoint import (capture_checkpoint,
                                       prune_checkpoints,
                                       restore_checkpoint,
                                       RECOVERABLE_BOUND)

DEFAULT_CHECKPOINT_INTERVAL = 4096
DEFAULT_MAX_RETRIES = 3

#: Interval adaptation: never checkpoint more often than this ...
MIN_INTERVAL = 64
#: ... grow again after this many consecutive clean segments ...
GROW_AFTER = 4
#: ... up to this multiple of the configured interval.
MAX_GROWTH = 8

#: Live checkpoints kept (entry + most recent); older ones are merged.
MAX_LIVE_CHECKPOINTS = 8


@dataclass
class RecoveryReport:
    """What recovery did during one run (journalled and explained)."""

    interval: int
    #: Detections + watchdog trips that triggered a recovery action.
    triggers: int = 0
    #: Rollbacks/restarts actually performed (bounded by max_retries).
    attempts: int = 0
    #: Of which, clean restarts from the entry checkpoint.
    restarts: int = 0
    #: Checkpoints captured (excluding the entry checkpoint).
    checkpoints: int = 0
    #: Instructions discarded across all rollbacks (stop - target).
    rollback_icount: int = 0
    #: Cycles discarded across all rollbacks (re-execution cost).
    reexec_cycles: int = 0
    #: True when a trigger fired with the retry budget exhausted.
    gave_up: bool = False
    #: Ordered event log for ``repro explain`` timelines.
    events: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "interval": self.interval,
            "triggers": self.triggers,
            "attempts": self.attempts,
            "restarts": self.restarts,
            "checkpoints": self.checkpoints,
            "rollback_icount": self.rollback_icount,
            "reexec_cycles": self.reexec_cycles,
            "gave_up": self.gave_up,
            "events": list(self.events),
        }


@dataclass(frozen=True)
class ResumePoint:
    """A protected run at one of its checkpoint boundaries: what the
    manager holds there, so a run rewound to that boundary by other
    means (:mod:`repro.faults.fork`) resumes as if it had run from the
    start."""

    #: the live checkpoints, entry first (each run takes copies)
    checkpoints: tuple
    #: the current checkpoint interval
    segment: int
    #: clean segments since the interval last changed
    clean_streak: int
    #: checkpoints captured so far, the entry excluded
    captured: int


class RecoveryManager:
    """Checkpoint/rollback harness around one protected run."""

    def __init__(self, cpu, *, step, classify, budget,
                 interval: int = DEFAULT_CHECKPOINT_INTERVAL,
                 max_retries: int = DEFAULT_MAX_RETRIES,
                 injector=None, reinstall=None, persistent: bool = False,
                 epoch=None, entry_restart=None, components=(),
                 max_live: int = MAX_LIVE_CHECKPOINTS):
        self.cpu = cpu
        self.step = step
        self.classify = classify
        self.budget = budget
        self.interval = max(1, interval)
        self.max_retries = max_retries
        self.injector = injector
        self.reinstall = reinstall
        self.persistent = persistent
        self.epoch = epoch if epoch is not None else (lambda: 0)
        self.entry_restart = entry_restart
        #: state outside the CPU every checkpoint captures and every
        #: rollback restores (the multithreaded machine's saved
        #: contexts and ready queue), as ``MachineState`` components;
        #: never the DBT, whose flush epoch guards stale PCs instead
        self.components = components
        self.max_live = max_live
        self.checkpoints: list = []
        self.report = RecoveryReport(interval=self.interval)
        #: the current checkpoint interval (halved after a rollback,
        #: doubled after GROW_AFTER clean segments in a row)
        self.segment = self.interval
        self.clean_streak = 0
        #: icount the current attempt's step budget counts from
        self.attempt_base = 0
        #: pages the run wrote or rolled back, as of the last capture or
        #: rollback (the open interval is ``Memory.cow``)
        self.touched: set = set()

    # -- injector occurrence state ------------------------------------

    def _injector_mark(self):
        inj = self.injector
        if inj is None or not hasattr(inj, "fired"):
            return None
        return (inj.count, inj.fired, inj.fired_icount, inj.fired_cycles)

    def _injector_restore(self, mark) -> None:
        inj = self.injector
        if inj is None or mark is None:
            return
        inj.count, inj.fired, inj.fired_icount, inj.fired_cycles = mark

    # -- the loop ------------------------------------------------------

    def execute(self, resume: ResumePoint | None = None, visits=None):
        """Run to completion (or give up); returns the final stop.

        ``resume`` continues a run the machine was rewound to at one of
        its checkpoint boundaries instead of starting at the entry;
        ``visits(icount)`` then tells how often the injector's site ran
        before ``icount``, the occurrence count each resumed checkpoint
        records."""
        mem = self.cpu.memory
        mem.cow = {}
        mem.cow_bound = RECOVERABLE_BOUND
        try:
            return self._execute(resume, visits)
        finally:
            self.touched.update(mem.cow or ())
            mem.cow = None

    def begin(self) -> None:
        """Capture the entry checkpoint (ordinal 0, not counted)."""
        self._capture()
        self.report.checkpoints = 0
        self.attempt_base = self.cpu.icount

    def checkpoint(self) -> None:
        """A clean segment ended with budget left: capture a checkpoint,
        and double the interval after a streak of them."""
        self._capture()
        self.report.checkpoints += 1
        self.clean_streak += 1
        if self.clean_streak >= GROW_AFTER:
            self.segment = min(self.segment * 2,
                               self.interval * MAX_GROWTH)
            self.clean_streak = 0

    def resume_point(self) -> ResumePoint:
        """The manager as it stands, for :meth:`execute` to resume."""
        return ResumePoint(
            checkpoints=tuple(replace(cp) for cp in self.checkpoints),
            segment=self.segment, clean_streak=self.clean_streak,
            captured=self.report.checkpoints)

    def _resume(self, point: ResumePoint, visits) -> None:
        unfired = self._injector_mark() is not None
        self.checkpoints = [
            replace(cp, injector_state=((visits(cp.state.icount), False,
                                         None, None) if unfired else None))
            for cp in point.checkpoints]
        self.segment = point.segment
        self.clean_streak = point.clean_streak
        self.report.checkpoints = point.captured
        self.attempt_base = self.checkpoints[0].state.icount

    def attempt_end(self) -> int:
        """The icount at which the current attempt's budget runs out."""
        return self.attempt_base + self.budget

    def dirtied(self) -> set:
        """Every page the run has written or rolled back so far."""
        cow = self.cpu.memory.cow
        return self.touched.union(cow) if cow else set(self.touched)

    def _capture(self) -> None:
        registry = obs.get_registry()
        cow = self.cpu.memory.cow
        pages = len(cow)
        self.touched.update(cow)
        start = time.perf_counter() if registry is not None else 0.0
        self.checkpoints.append(capture_checkpoint(
            self.cpu, ordinal=len(self.checkpoints), epoch=self.epoch(),
            injector_state=self._injector_mark(),
            components=self.components))
        prune_checkpoints(self.checkpoints, self.max_live)
        if registry is not None:
            obs.counter("recovery_checkpoints_total",
                        help="Checkpoints captured").inc()
            obs.counter("recovery_pages_preserved_total",
                        help="Pre-image pages drained into "
                             "checkpoints").inc(pages)
            obs.counter("recovery_capture_seconds_total",
                        help="Wall time spent capturing "
                             "checkpoints").inc(
                time.perf_counter() - start)

    def _pick_target(self) -> int:
        """Newest consistent checkpoint; entry once we are retrying."""
        if self.report.attempts > 0:
            return 0  # re-detected after a rollback: escalate
        current = self.epoch()
        for index in range(len(self.checkpoints) - 1, 0, -1):
            if self.checkpoints[index].epoch == current:
                return index
        return 0

    def _rollback(self, trigger: str) -> None:
        cpu = self.cpu
        index = self._pick_target()
        cp = self.checkpoints[index]
        distance = cpu.icount - cp.state.icount
        discarded = cpu.cycles - cp.state.cycles
        self.touched.update(cpu.memory.cow)
        for later in self.checkpoints[index + 1:]:
            self.touched.update(later.pages)
        restore_checkpoint(cpu, self.checkpoints, index, self.components)
        if index == 0:
            self.report.restarts += 1
            obs.counter("recovery_restarts_total",
                        help="Clean restarts from the entry "
                             "checkpoint").inc()
            if self.entry_restart is not None and cp.epoch != self.epoch():
                # The translation cache was flushed since entry: the
                # saved PC points at a dead stub.  Re-prime and refresh
                # the checkpoint so later restarts stay consistent.
                self.entry_restart()
                cp.state = replace(cp.state, pc=cpu.pc)
                cp.epoch = self.epoch()
        else:
            obs.counter("recovery_rollbacks_total",
                        help="Rollbacks to a mid-run checkpoint").inc()
        if self.persistent:
            # The spec models a stuck-at error: restore the occurrence
            # counters to their checkpoint-time values and re-arm.
            self._injector_restore(cp.injector_state)
            if self.reinstall is not None:
                self.reinstall()
        self.report.attempts += 1
        self.report.rollback_icount += distance
        self.report.reexec_cycles += discarded
        self.report.events.append({
            "event": "restart" if index == 0 else "rollback",
            "trigger": trigger,
            "target": cp.ordinal,
            "target_icount": cp.state.icount,
            "distance_icount": distance,
            "discarded_cycles": discarded,
        })

    def _execute(self, resume, visits):
        cpu = self.cpu
        if resume is None:
            self.begin()
        else:
            self._resume(resume, visits)
        stopish = None
        while True:
            remaining = self.attempt_end() - cpu.icount
            trigger = None
            if remaining <= 0:
                trigger = "watchdog"
            else:
                stopish = self.step(min(self.segment, remaining))
                kind = self.classify(stopish)
                if kind == "done":
                    return stopish
                if kind == "detected":
                    trigger = "detected"
                elif self.attempt_end() - cpu.icount > 0:
                    # Segment boundary with budget left: checkpoint.
                    self.checkpoint()
                    continue
                else:
                    trigger = "watchdog"
            if stopish is None:
                # Degenerate budget: materialize a STEP_LIMIT stop so
                # the caller always gets a real stop object back.
                stopish = self.step(0)
            self.report.triggers += 1
            self.report.events.append({
                "event": trigger,
                "icount": cpu.icount,
                "cycles": cpu.cycles,
            })
            if self.report.attempts >= self.max_retries:
                self.report.gave_up = True
                self.report.events.append({
                    "event": "gave-up",
                    "attempts": self.report.attempts,
                })
                return stopish
            self._rollback(trigger)
            self.segment = max(MIN_INTERVAL, self.segment // 2)
            self.clean_streak = 0
            self.attempt_base = cpu.icount
