"""Fault-injection campaigns and outcome classification.

A campaign takes a guest program, a set of single-fault specs, and an
execution configuration (native / statically instrumented / DBT with a
checking technique), runs one experiment per fault, and classifies each
outcome:

==================  =====================================================
outcome             meaning
==================  =====================================================
DETECTED_SIGNATURE  a CHECK_SIG fired (or ECCA's assertion div trapped)
DETECTED_HARDWARE   a protection mechanism caught it (NX bit, alignment,
                    illegal instruction, memory protection) — the
                    paper's category-F detection path
SDC                 run completed with wrong output: silent data
                    corruption, the failure mode the techniques exist
                    to kill
BENIGN              run completed with correct output (fault masked)
HANG                exceeded the step budget (the paper: "a branch-error
                    may lead the program to an infinite loop", which
                    RET/END policies may never report)
INFRA_ERROR         the *harness* failed, not the guest: the run raised,
                    its worker died, or it blew the wall-clock deadline.
                    Infra errors are quarantined per spec, reported
                    separately, and excluded from the harmful
                    denominator of ``detection_rate`` — they say nothing
                    about the technique under test
RECOVERED           (``recover=True``) a detection triggered checkpoint
                    rollback and the re-executed run completed with
                    correct output — the fault was survived
RECOVERY_FAILED     (``recover=True``) recovery was attempted but the
                    run still ended detected/hanging/wrong: retry
                    budget exhausted, or re-execution went bad anyway
==================  =====================================================

A fresh run takes one path, :meth:`Pipeline.execute`: the
per-pipeline part makes the machine (a :class:`Run` with its CPU, step
function, detection predicate and optional DBT session or threaded
machine), then one skeleton attaches the fault, binds the probe and
steps — under the :class:`~repro.recovery.RecoveryManager` when
recovery is on and there is a fault.  :meth:`Pipeline.run` classifies
the result and then unlinks the machine (:meth:`Run.close`), so
reference counting frees it.

:meth:`Pipeline.run` *forks* branch, cache-level and register fault
runs instead, and on the multithreaded machine scheduler fault runs
too (:mod:`repro.faults.fork`): one machine kept on the pipeline is
rewound to the last golden-run rung before the fault fires, with the
scheduler when threads are on, and the run steps from there with the
rest of its step budget.  A recovery run is rewound to the last
checkpoint boundary of the golden run before the fault fires, where
its manager resumes with the golden run's checkpoints, and stops as
soon as it has converged with the golden run, taking the rest of the
golden run instead of executing it.  The record is the one a fresh run
gives.  Golden runs, probed runs, oracle captures, DBT and threaded
recovery and chaos specs stay on the fresh path.  Detection latency is
set only on runs without recovery; a recovered run reports its
attempts and rollback distance instead.
"""

from __future__ import annotations

import bisect
import enum
import random
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.isa.program import Program
from repro.machine import Cpu, StopReason
from repro.machine.faults import FaultKind, StopInfo
from repro.cfg import build_cfg
from repro.checking import Policy, UpdateStyle, make_technique
from repro.dbt import Dbt
from repro.dbt.translator import DF_ERROR_TRAP, ERROR_TRAP
from repro.instrument import InstrumentedProgram, StaticRewriter
from repro.machine.profile import BranchProfiler
from repro.faults.classify import Category
from repro.faults import cache as run_cache
from repro.faults.injector import (CacheFaultSpec, CacheLevelInjector,
                                   DbtInjector, DirectionFault, FaultSpec,
                                   NativeInjector, RedirectFault,
                                   RegisterFaultSpec, SchedFaultSpec,
                                   SchedInjector,
                                   enumerate_cache_branch_sites)


class Outcome(enum.Enum):
    DETECTED_SIGNATURE = "detected_signature"
    DETECTED_HARDWARE = "detected_hardware"
    SDC = "sdc"
    BENIGN = "benign"
    HANG = "hang"
    INFRA_ERROR = "infra_error"
    #: detection triggered checkpoint rollback (repro.recovery) and the
    #: re-executed run completed with correct output — the fault was
    #: survived, not just reported
    RECOVERED = "recovered"
    #: recovery was attempted but the run still ended wrong: the retry
    #: budget ran out, or re-execution produced bad output anyway
    RECOVERY_FAILED = "recovery_failed"


@dataclass
class RunRecord:
    """Result of one (possibly fault-injected) run."""

    outcome: Outcome
    stop_reason: str
    outputs: tuple
    cycles: int
    icount: int
    #: instructions executed between fault application and the error
    #: report (None when not detected or not measurable) — the
    #: detection-latency metric of the fail-stop discussion (Section 6)
    detection_latency: int | None = None
    #: same latency in model cycles (None when not detected, or for
    #: scheduled data faults, which carry no cycle stamp)
    detection_latency_cycles: int | None = None
    #: harness failure detail for INFRA_ERROR records (exception type,
    #: message, and the spec's repr); None for real outcomes
    error: str | None = None
    #: rollbacks/restarts performed by the recovery manager (0 when
    #: recovery is off or never triggered)
    attempts: int = 0
    #: total instructions discarded across rollbacks (stop - target
    #: checkpoint); None when recovery never triggered
    rollback_distance_icount: int | None = None
    #: total cycles of discarded work re-executed after rollbacks;
    #: None when recovery never triggered
    reexec_cycles: int | None = None


def infra_error_record(spec, reason: str) -> RunRecord:
    """A quarantined harness failure standing in for a real run."""
    return RunRecord(outcome=Outcome.INFRA_ERROR,
                     stop_reason=f"infra-error: {reason}",
                     outputs=((), ()), cycles=0, icount=0,
                     error=f"{reason} [spec {spec!r}]")


@dataclass
class Golden:
    """Reference (fault-free) behaviour of a configuration."""

    outputs: tuple
    exit_code: int
    icount: int
    cycles: int

    @property
    def step_budget(self) -> int:
        return self.icount * 3 + 20_000


def check_bool(key: str, value):
    """``value``, when it is a boolean; else ValueError naming ``key``.
    Flag-style input (CLI flags, service params) is checked with this
    and :func:`check_int`, so both refuse a value in the same words."""
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be a boolean, not {value!r}")
    return value


def check_int(key: str, value, least: int | None = None):
    """``value``, when it is an integer of at least ``least``; else
    ValueError naming ``key``."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{key} must be an integer{bound}, "
                         f"not {value!r}")
    return value


@dataclass
class PipelineConfig:
    """How the program runs: which pipeline, technique and policy."""

    pipeline: str = "dbt"                 #: "native" | "static" | "dbt"
    technique: str | None = None          #: None = no checking
    policy: Policy = Policy.ALLBB
    update_style: UpdateStyle = UpdateStyle.JCC
    dataflow: bool = False                #: SWIFT-style duplication
    backend: str = "interp"               #: execution backend (repro.exec)
    #: checkpoint/rollback recovery (repro.recovery): detections roll
    #: the run back and re-execute instead of ending it
    recover: bool = False
    checkpoint_interval: int = 4096       #: instructions between checkpoints
    max_retries: int = 3                  #: rollbacks before giving up
    #: multithreaded guest machine (repro.threads): run under the
    #: deterministic preemptive scheduler; requires the native or
    #: static pipeline
    threads: bool = False
    quantum: int = 500                    #: retired instructions per turn
    sched_policy: str = "rr"              #: "rr" | "priority"
    sched_seed: int = 0                   #: tie-break seed
    #: context switches swap signature registers (the correct MT mode);
    #: False models a runtime without per-thread checker state and
    #: reproduces the cross-context escapes (docs/threads.md)
    sig_swap: bool = True

    def label(self) -> str:
        tech = self.technique or "none"
        label = f"{self.pipeline}/{tech}/{self.policy.value}"
        if self.dataflow:
            label += "+df"
        if self.backend != "interp":
            label += f"@{self.backend}"
        if self.recover:
            label += "+rec"
        if self.threads:
            label += f"+mt:{self.sched_policy}q{self.quantum}"
            if self.sched_seed:
                label += f"s{self.sched_seed}"
            if not self.sig_swap:
                label += "-sigswap"
        return label

    @classmethod
    def from_params(cls, params: dict) -> PipelineConfig:
        """The config that flag-style input asks for: a CLI namespace
        (``vars(args)``) or a service job's JSON params.

        Keys are the CLI flag names; an absent or ``None`` value takes
        the default and keys that are no config input are ignored.  The
        recovery and scheduler knobs only count while ``recover`` or
        ``threads`` is on, but they are validated either way.  Raises
        ValueError naming the first bad value.
        """
        from repro.checking import TECHNIQUES
        from repro.exec import BACKEND_NAMES
        from repro.threads import POLICIES

        def get(key, default):
            value = params.get(key)
            return default if value is None else value

        def choice(key, default, allowed):
            value = get(key, default)
            if value not in allowed:
                raise ValueError(f"unknown {key} {value!r}; expected one "
                                 f"of {', '.join(map(str, allowed))}")
            return value

        def flag(key):
            return check_bool(key, get(key, False))

        def integer(key, default, least=None):
            return check_int(key, get(key, default), least)

        technique = choice("technique", None, (None, *TECHNIQUES))
        pipeline = choice("pipeline", cls.pipeline,
                          ("native", "static", "dbt"))
        fields = {}
        recovery = {"checkpoint_interval": integer(
                        "checkpoint_interval", cls.checkpoint_interval, 1),
                    "max_retries": integer("max_retries",
                                           cls.max_retries, 0)}
        if flag("recover"):
            fields.update(recover=True, **recovery)
        scheduler = {"quantum": integer("quantum", cls.quantum, 1),
                     "sched_policy": choice("sched_policy",
                                            cls.sched_policy, POLICIES),
                     "sched_seed": integer("sched_seed", cls.sched_seed),
                     "sig_swap": not flag("no_sig_swap")}
        if flag("threads"):
            fields.update(threads=True, **scheduler)
            # The DBT does not context-switch translated state, so the
            # multithreaded machine runs the program natively or
            # statically rewritten.
            if pipeline == "dbt":
                pipeline = "static" if technique else "native"
        return cls(pipeline, technique,
                   Policy(choice("policy", cls.policy.value,
                                 [p.value for p in Policy])),
                   UpdateStyle(choice("update", cls.update_style.value,
                                      [u.value for u in UpdateStyle])),
                   flag("dataflow"),
                   choice("backend", cls.backend, BACKEND_NAMES),
                   **fields)


@dataclass
class Run:
    """One run as :meth:`Pipeline.execute` built and stepped it: the
    pipeline's machine (``step(n)`` runs up to ``n`` instructions,
    ``detected(stop)`` tells whether the technique reported an error),
    then the fault's injector, the final stop and the recovery report.
    """

    cpu: Cpu
    step: Callable[[int], StopInfo]
    detected: Callable[[StopInfo], bool]
    dbt: Dbt | None = None
    machine: object = None
    injector: object = None
    stop: StopInfo | None = None
    report: object = None

    def close(self) -> None:
        """Unlink the machine's parts so reference counting frees it as
        soon as the run is dropped (:meth:`Cpu.unlink`, plus the DBT
        session's hooks); the final state stays readable, but the
        machine must not be stepped again."""
        self.cpu.unlink()
        if self.dbt is not None:
            self.dbt.translation_listener = None
            self.dbt.inject_redirect = None


def _never_detected(stop: StopInfo) -> bool:
    # A native run is never signature-detected: nothing checks it.
    return False


def _dbt_detected(stop: StopInfo) -> bool:
    # A DBT run is detected when a signature check (or, with duplication
    # on, a data-flow check) trapped to the error handler.
    return (stop.reason is StopReason.TRAP
            and stop.trap_no in (ERROR_TRAP, DF_ERROR_TRAP))


class Pipeline:
    """Runs a program (optionally fault-injected) per a configuration."""

    def __init__(self, program: Program, config: PipelineConfig,
                 technique_factory=None):
        self._prepare(program, config, technique_factory)
        if technique_factory is not None:
            # Custom techniques must not seed (or read) the shared
            # golden-run cache keyed only on (program, config).
            self.golden = self._golden_run()
            return
        # Golden runs are deterministic per (program image, config), so
        # identical pipelines share one cached reference execution.
        digest = run_cache.program_digest(program)
        key = run_cache.config_key(config)
        golden = run_cache.get_golden(digest, key)
        obs.counter("campaign_golden_cache_total",
                    help="golden-run cache lookups",
                    result="miss" if golden is None else "hit").inc()
        if golden is None:
            golden = self._golden_run()
            run_cache.put_golden(digest, key, golden)
        self.golden = golden

    @classmethod
    def without_golden(cls, program: Program, config: PipelineConfig,
                       technique_factory=None) -> Pipeline:
        """A pipeline that never runs (or looks up) a golden run.

        For callers that only :meth:`execute`, like the fuzz oracle: a
        broken technique's false positive must come back as a divergent
        run, not as a golden-run error raised at construction.
        """
        pipe = cls.__new__(cls)
        pipe._prepare(program, config, technique_factory)
        return pipe

    def _prepare(self, program: Program, config: PipelineConfig,
                 technique_factory) -> None:
        self.program = program
        self.config = config
        #: optional override producing the checking technique instance;
        #: lets the fuzzing oracle run deliberately-broken techniques
        #: (e.g. one skipped GEN_SIG update) through the stock pipeline.
        self.technique_factory = technique_factory
        #: reference run; None while the golden run itself executes
        self.golden: Golden | None = None
        if config.threads and config.pipeline == "dbt":
            raise ValueError(
                "the multithreaded machine requires the native or "
                "static pipeline (the DBT tier does not context-switch "
                "translated state)")
        self._instrumented: InstrumentedProgram | None = None
        #: golden-run rungs on the machine forked runs use; built by
        #: the first forked run (see :meth:`_fork`)
        self._ladder = None
        self._mt_spawn_table: dict | None = None
        self._mt_resync: dict | None = None
        self._mt_sig_regs: tuple = ()
        if config.pipeline == "static" and config.technique:
            cfg = build_cfg(program)
            technique = self._make_technique(cfg=cfg)
            self._instrumented = StaticRewriter(
                technique, config.policy).rewrite(program)
            if config.threads:
                self._prepare_mt(technique)

    def _make_technique(self, cfg=None):
        config = self.config
        if not config.technique:
            return None
        if self.technique_factory is not None:
            return self.technique_factory(config, cfg)
        return make_technique(config.technique,
                              update_style=config.update_style, cfg=cfg)

    # -- execution -----------------------------------------------------------

    def _golden_run(self) -> Golden:
        record = self.run(None, max_steps=50_000_000)
        if record.outcome is not Outcome.BENIGN:
            raise RuntimeError(
                f"golden run failed under {self.config.label()}: "
                f"{record.outcome} ({record.stop_reason})")
        return Golden(outputs=record.outputs, exit_code=0,
                      icount=record.icount, cycles=record.cycles)

    def run(self, fault: FaultSpec | CacheFaultSpec | None,
            max_steps: int | None = None, probe=None) -> RunRecord:
        """One run; ``fault=None`` is the golden/reference run.

        ``probe`` is an optional deep-observability attachment (a
        :class:`repro.forensics.divergence.RunProbe`): the pipeline
        binds it to the run's CPU and deposits the run internals on it.
        The campaign hot path always passes None, which costs nothing.
        """
        registry = obs.get_registry()
        if registry is None:
            return self._run(fault, max_steps, probe)
        with registry.histogram(
                "campaign_run_seconds",
                help="wall time of one pipeline run",
                pipeline=self.config.pipeline).time():
            record = self._run(fault, max_steps, probe)
        registry.counter("campaign_runs_total",
                         help="pipeline runs by classified outcome",
                         outcome=record.outcome.value).inc()
        policy = self.config.policy.value
        if record.detection_latency is not None:
            registry.histogram(
                "campaign_detection_latency_instructions",
                help="instructions from fault application to detection",
                policy=policy).observe(record.detection_latency)
            if record.detection_latency_cycles is not None:
                registry.histogram(
                    "campaign_detection_latency_cycles",
                    help="cycles from fault application to detection",
                    policy=policy).observe(
                        record.detection_latency_cycles)
        if record.outcome in (Outcome.RECOVERED, Outcome.RECOVERY_FAILED):
            registry.counter(
                "campaign_recovery_total",
                help="recovery-triggering runs by final result",
                technique=self.config.technique or "none",
                policy=policy,
                result=("recovered"
                        if record.outcome is Outcome.RECOVERED
                        else "failed")).inc()
            if record.rollback_distance_icount is not None:
                registry.histogram(
                    "campaign_rollback_distance_instructions",
                    help="instructions discarded by rollbacks per run",
                    policy=policy).observe(
                        record.rollback_distance_icount)
            if record.reexec_cycles is not None:
                registry.histogram(
                    "campaign_reexec_cycles",
                    help="cycles of discarded work re-executed per run",
                    policy=policy).observe(record.reexec_cycles)
        return record

    def _run(self, fault: FaultSpec | CacheFaultSpec | None,
             max_steps: int | None = None, probe=None) -> RunRecord:
        if fault is not None and hasattr(fault, "chaos_run"):
            # Harness-testing specs (repro.faults.chaos) bypass real
            # injection and misbehave on purpose.
            return fault.chaos_run(self)
        if max_steps is None:
            max_steps = self.golden.step_budget
        if probe is None and self._forks(fault):
            return self.classify(self._fork(fault, max_steps))
        run = self.execute(fault, max_steps, probe)
        try:
            return self.classify(run)
        finally:
            run.close()

    def classify(self, run: Run) -> RunRecord:
        """The record of a stepped run: outcome, stop, outputs and
        counters, plus detection latency or the recovery report."""
        detected = run.detected(run.stop)
        record = self._finish(run.cpu, run.stop, detected)
        if run.report is not None:
            # Detection latency is set only on runs without recovery:
            # a recovered run reports its attempts and rollback
            # distance instead (the static-recover benchmark digest
            # hashes detection_latency=None).
            return self._apply_recovery(record, run.report)
        injector = run.injector
        if (detected and injector is not None
                and injector.fired_icount is not None):
            record.detection_latency = run.cpu.icount - injector.fired_icount
            if injector.fired_cycles is not None:
                record.detection_latency_cycles = (
                    run.cpu.cycles - injector.fired_cycles)
        return record

    # -- forked fault runs (repro.faults.fork) -------------------------------

    def _forks(self, fault) -> bool:
        """Does this fault run fork from the golden ladder?  Branch and
        register faults do, cache-level faults on the DBT and scheduler
        faults on the multithreaded machine, except under recovery on
        the DBT or the multithreaded machine; everything else runs
        fresh through :meth:`execute`."""
        config = self.config
        if self.golden is None:
            return False
        if isinstance(fault, CacheFaultSpec):
            return config.pipeline == "dbt" and not config.recover
        if config.recover and (config.pipeline == "dbt" or config.threads):
            return False
        if isinstance(fault, SchedFaultSpec):
            return config.threads
        return isinstance(fault, (FaultSpec, RegisterFaultSpec))

    def _fork(self, fault, max_steps: int) -> Run:
        """Run ``fault`` on the pipeline's forked-run machine, from the
        last golden-run rung before the fault fires (under recovery,
        the last checkpoint boundary).  A native or static run stops
        once it rejoins the golden run (:meth:`GoldenLadder.stepper`);
        a DBT run steps its budget in one go."""
        from repro.faults.fork import GoldenLadder
        config = self.config
        ladder = self._ladder
        try:
            if ladder is None:
                # Built by the first forked run, never counted: metrics
                # see only the guest work fault runs execute.
                with obs.scoped(None):
                    ladder = GoldenLadder(
                        self._build(), self.golden,
                        config.checkpoint_interval if config.recover
                        else None)
                self._ladder = ladder
            hits = None
            if isinstance(fault, SchedFaultSpec):
                index, fires = ladder.switch_point(fault.switch, max_steps)
            else:
                if isinstance(fault, RegisterFaultSpec):
                    strikes = fires = fault.icount
                else:
                    hits = self._visits(ladder, fault)
                    strikes, fires = ladder.fire_point(hits,
                                                       fault.occurrence)
                index = ladder.fork_rung(strikes, max_steps, config.recover)
            run = ladder.rewind(index)
            run.injector = self._attach_fault(run, fault)
            if hits is not None:
                run.injector.count = bisect.bisect_left(hits,
                                                        run.cpu.icount)
            manager = (self._recovery_manager(run, fault, max_steps)
                       if config.recover else None)
            step = run.step
            if run.dbt is None:
                step = ladder.stepper(run, fires, max_steps, manager)
            if manager is None:
                run.stop = step(max_steps - run.cpu.icount)
            else:
                manager.step = step
                run.stop = manager.execute(
                    ladder.rungs[index].resume,
                    visits=lambda icount: bisect.bisect_left(hits, icount))
                run.report = manager.report
                ladder.dirtied = manager.dirtied()
                # The stepper refers back to the manager: unlink it so
                # reference counting frees the checkpoints.
                manager.step = None
        except BaseException:
            # The machine may be left mid-run: the next fork builds a
            # new one.
            self._ladder = None
            raise
        return run

    def _visits(self, ladder, fault) -> list:
        """Icounts of the walk's visits of the site the injector of
        ``fault`` (a branch or cache-level fault) counts."""
        if isinstance(fault, CacheFaultSpec):
            return ladder.pc_hits.get(fault.cache_addr, [])
        if self.config.pipeline == "dbt":
            return ladder.guest_hits.get(fault.branch_pc, [])
        site = self._site(fault.branch_pc)
        if fault.thread is not None and self.config.threads:
            return ladder.tid_hits.get((site, fault.thread), [])
        return ladder.pc_hits.get(site, [])

    def _site(self, branch_pc: int) -> int:
        """Run-image address of a guest branch (native/static)."""
        ip = self._instrumented
        return branch_pc if ip is None else ip.instr_map.get(branch_pc,
                                                             -1)

    def execute(self, fault: FaultSpec | CacheFaultSpec | None,
                max_steps: int, probe=None) -> Run:
        """Build, arm and step one run; returns it unclassified.

        The one run path: build the machine, attach the fault, bind the
        probe, then step it — under the :class:`RecoveryManager` when
        recovery is on and there is a fault.  :meth:`run` classifies
        the result; the fuzz oracle digests the machine state instead.
        """
        run = self._build()
        run.injector = self._attach_fault(run, fault)
        if probe is not None:
            probe.bind(run.cpu, injector=run.injector, dbt=run.dbt,
                       instrumented=self._instrumented)
            probe.machine = run.machine
        if self.config.recover and fault is not None:
            manager = self._recovery_manager(run, fault, max_steps)
            run.stop = manager.execute()
            run.report = manager.report
            if probe is not None:
                probe.recovery = manager.report
        else:
            run.stop = run.step(max_steps)
        return run

    def _build(self) -> Run:
        """The per-pipeline part of a run: machine, step and detector."""
        config = self.config
        if config.pipeline == "dbt":
            dbt = Dbt(self.program, technique=self._make_technique(),
                      policy=config.policy, dataflow=config.dataflow)
            self._install_backend(dbt.cpu)
            return Run(dbt.cpu, step=lambda n: dbt.run(max_steps=n).stop,
                       detected=_dbt_detected, dbt=dbt)
        ip = self._instrumented
        cpu = Cpu()
        self._install_backend(cpu)
        cpu.load_program(self.program if ip is None else ip.program)
        machine = self._make_machine(cpu) if config.threads else None
        stepper = cpu if machine is None else machine
        detected = _never_detected
        if ip is not None:
            def detected(stop: StopInfo) -> bool:
                # A static run is detected when the technique's error
                # handler ran (CFC_ERROR), or when it trapped on
                # DIV_BY_ZERO at a check address (ECCA's assertion).
                return cpu.cfc_error or (
                    stop.reason is StopReason.FAULT
                    and stop.fault is FaultKind.DIV_BY_ZERO
                    and stop.pc in ip.check_addresses)
        return Run(cpu, step=lambda n: stepper.run(max_steps=n),
                   detected=detected, machine=machine)

    def _finish(self, cpu: Cpu, stop, detected: bool) -> RunRecord:
        golden = self.golden
        outputs = (tuple(cpu.output), tuple(cpu.output_values))
        if detected:
            outcome = Outcome.DETECTED_SIGNATURE
        elif stop.reason is StopReason.FAULT:
            outcome = Outcome.DETECTED_HARDWARE
        elif stop.reason in (StopReason.STEP_LIMIT,
                             StopReason.CYCLE_LIMIT):
            outcome = Outcome.HANG
        elif golden is None:
            # golden run itself: HALTED with exit 0 counts as benign
            outcome = (Outcome.BENIGN if stop.exit_code == 0
                       else Outcome.SDC)
        elif outputs == golden.outputs and stop.exit_code == 0:
            outcome = Outcome.BENIGN
        else:
            outcome = Outcome.SDC
        return RunRecord(outcome=outcome, stop_reason=str(stop),
                         outputs=outputs, cycles=cpu.cycles,
                         icount=cpu.icount)

    def _install_backend(self, cpu: Cpu) -> None:
        if self.config.backend != "interp":
            from repro.exec import install_backend
            install_backend(cpu, self.config.backend)

    # -- multithreaded machine (repro.threads) -------------------------------

    def _prepare_mt(self, technique) -> None:
        """Static-pipeline MT support, built once per Pipeline:
        spawn-time signature initialization (a fresh thread must enter
        its worker with the technique's prologue invariant already
        established) and — without signature swapping — the
        statically-expected resync table the escape mode overwrites
        signature registers from at every switch-in."""
        from repro.threads import build_resync_table, build_spawn_sig_table
        ip = self._instrumented
        self._mt_sig_regs = tuple(technique.signature_registers)
        self._mt_spawn_table = build_spawn_sig_table(ip, technique)
        if not self.config.sig_swap:
            # Worker functions have no CFG predecessors: seed the
            # traversal with the spawn-time values at each potential
            # entry, mapped to instrumented addresses.
            entry_states = {ip.block_map[old]: regs
                            for old, regs in self._mt_spawn_table.items()
                            if old in ip.block_map}
            self._mt_resync = build_resync_table(
                ip, self._mt_sig_regs, entry_states=entry_states)

    def _make_machine(self, cpu: Cpu):
        from repro.threads import ThreadedMachine
        config = self.config
        ip = self._instrumented
        entry_map = None
        if ip is not None:
            # SPAWN entry immediates hold original addresses; the
            # rewriter relocated the code, so the machine plays loader.
            def entry_map(old, _ip=ip):
                return _ip.block_map.get(old, _ip.instr_map.get(old, old))
        return ThreadedMachine(
            cpu, quantum=config.quantum, policy=config.sched_policy,
            seed=config.sched_seed, sig_swap=config.sig_swap,
            sig_regs=self._mt_sig_regs,
            resync_table=self._mt_resync,
            entry_map=entry_map,
            spawn_sig_init=self._mt_spawn_table)

    # -- checkpoint/rollback recovery (repro.recovery) -----------------------

    def _recovery_manager(self, run: Run, fault, max_steps: int):
        from repro.recovery import RecoveryManager
        config = self.config
        step = run.step
        epoch = entry_restart = None
        machine = run.machine
        # Checkpoints must capture every thread, not just the one
        # occupying the CPU: saved contexts, the ready queue and its
        # RNG, mutexes, the quantum in flight.
        components = () if machine is None else (machine,)
        dbt = run.dbt
        if dbt is not None:
            # The entry stub is primed eagerly so the entry checkpoint's
            # PC already points into the translation cache; checkpoints
            # record the DBT's flush epoch, and an entry restart after a
            # flush re-primes translation from scratch (stale-
            # translation hazard: the DBT's raw-write watcher
            # deliberately ignores cache writes, so a rollback that
            # rewrites SMC-dirtied guest pages relies on the epoch
            # guard, not on write monitoring).
            if dbt._entry_stub is None:
                dbt._entry_stub = dbt._emit_entry_stub()
                dbt.cpu.pc = dbt._entry_stub

            def entry_restart():
                dbt._flush_translations()
                dbt._entry_stub = dbt._emit_entry_stub()
                dbt.cpu.pc = dbt._entry_stub

            epoch = lambda: dbt.flushes                    # noqa: E731
            # Segments step the DBT loop itself: no dbt.run span per
            # checkpoint interval.
            step = lambda n: dbt._run(n, None).stop       # noqa: E731

        def classify(stop):
            if machine is not None and machine.deadlocked:
                # A starved machine returns STEP_LIMIT *without
                # consuming budget*, so treating it as "limit" would
                # spin the watchdog forever.  A deadlock is final for
                # this schedule: roll back immediately.
                machine.deadlocked = False
                return "detected"
            # A detection or a hardware fault rolls back; step/cycle
            # limits feed the watchdog.
            if run.detected(stop) or stop.reason is StopReason.FAULT:
                return "detected"
            if stop.reason in (StopReason.STEP_LIMIT,
                               StopReason.CYCLE_LIMIT):
                return "limit"
            return "done"

        injector = run.injector
        reinstall = None
        if hasattr(injector, "install"):
            reinstall = lambda: injector.install(run.cpu)  # noqa: E731
        return RecoveryManager(
            run.cpu, step=step, classify=classify, budget=max_steps,
            interval=config.checkpoint_interval,
            max_retries=config.max_retries,
            injector=injector, reinstall=reinstall,
            persistent=getattr(fault, "persistent", False),
            epoch=epoch, entry_restart=entry_restart,
            components=components)

    def _apply_recovery(self, record: RunRecord, report) -> RunRecord:
        """Fold a RecoveryReport into the run's record and outcome.

        A run whose detections (or watchdog trips) were all absorbed by
        rollback ends BENIGN at classification time — that is a
        successful recovery.  Anything else that still triggered
        recovery machinery ends RECOVERY_FAILED: the retry budget ran
        out, or re-execution still produced wrong output.  Runs where
        recovery never triggered keep their ordinary outcome.
        """
        record.attempts = report.attempts
        if report.triggers == 0:
            return record
        record.rollback_distance_icount = report.rollback_icount
        record.reexec_cycles = report.reexec_cycles
        record.outcome = (Outcome.RECOVERED
                          if record.outcome is Outcome.BENIGN
                          else Outcome.RECOVERY_FAILED)
        return record

    def _attach_fault(self, run: Run, fault):
        """Bind one fault spec to the run; returns the injector-ish
        object holding fired/occurrence state (or None)."""
        if fault is None:
            return None
        if isinstance(fault, SchedFaultSpec):
            if run.machine is None:
                raise ValueError(
                    "scheduler-state faults require threads=True")
            injector = SchedInjector(fault)
            run.machine.sched_fault = injector
            return injector
        if isinstance(fault, RegisterFaultSpec):
            fault.install(run.cpu)
            return None
        if run.dbt is not None:
            injector_cls = (CacheLevelInjector
                            if isinstance(fault, CacheFaultSpec)
                            else DbtInjector)
            injector = injector_cls(fault, run.dbt)
        elif self._instrumented is not None:
            ip = self._instrumented
            injector = NativeInjector(
                fault, ip.program, site_map=self._site,
                landing_map=lambda addr: ip.block_map.get(
                    addr, ip.instr_map.get(addr)),
                noncode_target=ip.program.data_base + 0x40)
        else:
            injector = NativeInjector(fault, self.program)
        injector.install(run.cpu)
        return injector


# -- campaign fault generation ---------------------------------------------------


@dataclass
class CategoryFaults:
    """Fault specs bucketed by intended branch-error category (one
    ``None`` bucket for data-fault and cache-level campaigns)."""

    by_category: dict[Category | None, list] = field(
        default_factory=dict)

    def total(self) -> int:
        return sum(len(v) for v in self.by_category.values())


def _profile_program(program: Program, max_steps: int, mt=None):
    """Profiled reference run feeding fault generation (cached).

    ``mt`` (a :class:`PipelineConfig` with ``threads=True``, or None)
    selects a *threaded* profiling run: on an MT program the worker
    bodies only execute under the multithreaded machine, so a plain
    native profile would never see their branches and every generated
    fault would land in the main thread.  Threaded profiles are cached
    under a composite key so they never collide with the single-
    threaded profile of the same image.
    """
    from repro.machine import run_native
    digest = run_cache.program_digest(program)
    profile_key: object = max_steps
    threaded = mt is not None and getattr(mt, "threads", False)
    if threaded:
        profile_key = (max_steps, "mt", mt.quantum, mt.sched_policy,
                       mt.sched_seed)
    profiler = run_cache.get_profile(digest, profile_key)
    if profiler is not None:
        return profiler
    profiler = BranchProfiler()
    if threaded:
        from repro.threads import ThreadedMachine
        cpu = Cpu()
        cpu.load_program(program, executable_text=True)
        cpu.branch_profiler = profiler
        machine = ThreadedMachine(cpu, quantum=mt.quantum,
                                  policy=mt.sched_policy,
                                  seed=mt.sched_seed)
        stop = machine.run(max_steps=max_steps)
    else:
        cpu, stop = run_native(program, max_steps=max_steps,
                               profiler=profiler)
    cpu.unlink()
    if stop.reason is not StopReason.HALTED:
        raise RuntimeError(f"profiling run failed: {stop}")
    run_cache.put_profile(digest, profile_key, profiler)
    return profiler


def generate_category_faults(program: Program, per_category: int = 20,
                             seed: int = 2006,
                             max_steps: int = 50_000_000,
                             exclude_exit_block_middles: bool = True,
                             mt=None) -> CategoryFaults:
    """Build per-category fault specs from a profiled native run.

    Category A uses direction-inversion faults at executed conditional
    branches; B..F use forced landings chosen so the classifier agrees
    with the intended category.

    ``exclude_exit_block_middles`` (default on) keeps C/E landings out
    of the *middle of program-exit blocks*: control that lands directly
    on the exit syscall terminates before reaching any CHECK_SIG, which
    the paper's Assumption 2 ("any control-flow error must finally
    reach at least one CHECK_SIG function") explicitly excludes from
    the checkable universe.  Pass False to measure that residual.

    ``mt`` (a threaded :class:`PipelineConfig`, or None) profiles the
    program under the multithreaded machine instead, so worker-only
    branches enter the fault universe.
    """
    profiler = _profile_program(program, max_steps, mt=mt)
    cfg = build_cfg(program)
    rng = random.Random(seed)

    executed = [stats for stats in profiler.branches.values()
                if stats.executions > 0]
    if not executed:
        # a straight-line program executes no direct branches: there is
        # no branch-error universe to draw from
        return CategoryFaults()
    conditionals = [s for s in executed if s.instr.meta.cond is not None
                    or s.instr.meta.kind.value == "branch_reg"]
    blocks = [b for b in cfg.in_order()]

    def pick_occurrence(stats) -> int:
        return rng.randint(1, min(stats.executions, 40))

    result = CategoryFaults()

    # A: mistaken branches.
    specs: list[FaultSpec] = []
    for _ in range(per_category * 3):
        if not conditionals or len(specs) >= per_category:
            break
        stats = rng.choice(conditionals)
        specs.append(FaultSpec(stats.pc, pick_occurrence(stats),
                               DirectionFault(taken=None)))
    result.by_category[Category.A] = specs

    def landing_candidates(stats, want_same: bool, want_start: bool):
        own = cfg.block_containing(stats.pc)
        intended = (stats.instr.branch_target(stats.pc)
                    if stats.instr.meta.is_direct_branch else None)
        fallthrough = stats.pc + 4
        out = []
        from repro.cfg.basic_block import ExitKind
        for block in blocks:
            same = own is not None and block.start == own.start
            if same != want_same:
                continue
            if (not want_start and exclude_exit_block_middles
                    and block.exit_kind in (ExitKind.HALT, ExitKind.EXIT)):
                continue
            addrs = ([block.start] if want_start
                     else block.body_addresses()[1:])
            for addr in addrs:
                if addr in (intended, fallthrough):
                    continue
                out.append(addr)
        return out

    for category, want_same, want_start in (
            (Category.B, True, True), (Category.C, True, False),
            (Category.D, False, True), (Category.E, False, False)):
        specs = []
        attempts = 0
        while len(specs) < per_category and attempts < per_category * 20:
            attempts += 1
            stats = rng.choice(executed)
            candidates = landing_candidates(stats, want_same, want_start)
            if not candidates:
                continue
            landing = rng.choice(candidates)
            specs.append(FaultSpec(stats.pc, pick_occurrence(stats),
                                   RedirectFault(landing)))
        result.by_category[category] = specs

    # F: land outside code.
    specs = []
    noncode = [program.data_base + 0x10, program.text_end + 0x2000,
               0x100, program.text_base - 0x200]
    for index in range(per_category):
        stats = rng.choice(executed)
        specs.append(FaultSpec(stats.pc, pick_occurrence(stats),
                               RedirectFault(noncode[index % len(noncode)])))
    result.by_category[Category.F] = specs
    return result


def generate_thread_faults(program: Program, mt, tids,
                           per_thread: int = 6, seed: int = 2006,
                           max_steps: int = 50_000_000
                           ) -> list[FaultSpec]:
    """Thread-targeted direction faults, one independent seed stream
    per victim tid.

    Each tid's stream is ``derive_seed(seed, "thread", tid)``, so the
    spec list for tid t is a pure function of (program, seed, t): a
    campaign over any subset or ordering of threads — serial or fanned
    out over worker processes — draws byte-identical per-thread faults.
    The specs carry ``thread=tid``, so occurrence counting only ticks
    while the victim runs (see :class:`FaultSpec`).

    ``mt`` is the threaded :class:`PipelineConfig` the campaign will
    run under; the profiling run uses its scheduler parameters.
    """
    from repro.faults.sampling import derive_seed
    profiler = _profile_program(program, max_steps, mt=mt)
    conditionals = sorted(
        (stats for stats in profiler.branches.values()
         if stats.executions > 0
         and (stats.instr.meta.cond is not None
              or stats.instr.meta.kind.value == "branch_reg")),
        key=lambda stats: stats.pc)
    if not conditionals:
        return []
    specs: list[FaultSpec] = []
    for tid in sorted(set(tids)):
        rng = random.Random(derive_seed(seed, "thread", tid))
        for _ in range(per_thread):
            stats = rng.choice(conditionals)
            # Per-thread occurrences: the profile counts all threads,
            # so keep the index small enough that the victim plausibly
            # reaches it; a never-reached occurrence is a benign run.
            occurrence = rng.randint(1, 4)
            specs.append(FaultSpec(stats.pc, occurrence,
                                   DirectionFault(taken=None),
                                   thread=tid))
    return specs


def generate_sched_faults(count: int = 12, seed: int = 2006,
                          max_switch: int = 40, threads: int = 4,
                          sig_regs: tuple[int, ...] = ()) -> list:
    """Scheduler-state fault specs (see :class:`SchedFaultSpec`).

    Half the strikes flip a bit in a saved thread context — targeting
    the technique's signature registers when ``sig_regs`` is given,
    guest computation registers otherwise — and the rest rotate the
    ready queue.  The stream is seeded through ``derive_seed`` so it is
    independent of every other sampling stream in the campaign.
    """
    from repro.faults.sampling import derive_seed
    rng = random.Random(derive_seed(seed, "sched"))
    specs = []
    regs = tuple(sig_regs) or tuple(range(14))
    for index in range(count):
        switch = rng.randint(2, max_switch)
        if index % 2:
            specs.append(SchedFaultSpec(switch=switch,
                                        kind="queue-rotate"))
        else:
            specs.append(SchedFaultSpec(
                switch=switch, kind="ctx-bit",
                tid=rng.randint(0, threads),
                reg=rng.choice(regs), bit=rng.randint(0, 31)))
    return specs


#: Outcomes that count as a detection.  A recovery run (successful or
#: not) started with one, so it counts towards coverage either way.
DETECTED_OUTCOMES = (Outcome.DETECTED_SIGNATURE, Outcome.DETECTED_HARDWARE,
                     Outcome.RECOVERED, Outcome.RECOVERY_FAILED)


@dataclass
class CampaignResult:
    """Outcome tallies for one configuration's campaign.

    Branch-error campaigns bucket runs by intended category; data-fault
    and cache-level campaigns put every run in the ``None`` bucket.
    """

    config_label: str
    outcomes: dict[Category | None, dict[Outcome, int]] = field(
        default_factory=dict)
    #: cache-level campaigns: inserted branch sites sampled
    sites_tested: int = 0

    def record(self, category: Category | None, outcome: Outcome) -> None:
        bucket = self.outcomes.setdefault(
            category, {out: 0 for out in Outcome})
        bucket[outcome] += 1

    def count(self, *outcomes: Outcome,
              category: Category | None = None) -> int:
        """Runs ending in any of ``outcomes``: in one category's bucket,
        or across every bucket when no category is given."""
        buckets = (self.outcomes.values() if category is None
                   else [self.outcomes.get(category, {})])
        return sum(bucket.get(outcome, 0)
                   for bucket in buckets for outcome in outcomes)

    @property
    def detected(self) -> int:
        return self.count(*DETECTED_OUTCOMES)

    @property
    def sdc(self) -> int:
        return self.count(Outcome.SDC)

    @property
    def undetected(self) -> int:
        """Harmful runs nothing reported: silent corruption or hangs."""
        return self.count(Outcome.SDC, Outcome.HANG)

    @property
    def infra(self) -> int:
        """Quarantined harness failures (see :data:`Outcome`)."""
        return self.count(Outcome.INFRA_ERROR)

    def total(self) -> int:
        return self.count(*Outcome)

    def rate(self, *outcomes: Outcome) -> float:
        """Share of all runs that ended in any of ``outcomes``."""
        total = self.total()
        return self.count(*outcomes) / total if total else 0.0

    def detection_rate(self, category: Category) -> float:
        """Detected / (all non-benign *guest* outcomes) for a category.

        ``INFRA_ERROR`` runs are harness failures, not guest outcomes:
        they are excluded from the harmful denominator and reported
        separately (:attr:`infra`).
        """
        if category not in self.outcomes:
            return 0.0
        detected = self.count(*DETECTED_OUTCOMES, category=category)
        harmful = detected + self.count(Outcome.SDC, Outcome.HANG,
                                        category=category)
        return detected / harmful if harmful else 1.0

    def covers(self, category: Category) -> bool:
        """No silent corruption and no unreported hang in the bucket."""
        return self.count(Outcome.SDC, Outcome.HANG,
                          category=category) == 0


def run_campaign(program: Program, config: PipelineConfig,
                 faults: CategoryFaults, jobs: int = 1,
                 retries: int | None = None,
                 timeout: float | None = None,
                 journal: str | None = None,
                 resume: bool = False) -> CampaignResult:
    """Run every fault spec under one configuration.

    ``jobs > 1`` fans the independent runs out over worker processes
    (see :mod:`repro.faults.executor`); results are merged in the exact
    serial order, so tallies are identical for every job count.
    ``retries``/``timeout`` tune the supervisor's failure policy;
    ``journal``/``resume`` checkpoint completed chunks to a JSONL file
    and replay them (see :mod:`repro.faults.journal`).
    """
    from repro.faults.executor import CampaignExecutor
    return CampaignExecutor(
        program, config, jobs=jobs, retries=retries, timeout=timeout,
        journal=journal, resume=resume).run_campaign(faults)


# -- data-fault campaigns (the future-work extension) --------------------------


def generate_register_faults(pipeline: Pipeline, count: int = 50,
                             seed: int = 2006) -> list:
    """Random register-bit strikes across the run's dynamic length.

    Strikes are uniform in (dynamic instruction index, guest register,
    bit) — the paper's temporal soft-error model applied to data state
    instead of branch state.
    """
    rng = random.Random(seed)
    horizon = max(pipeline.golden.icount - 2, 1)
    faults = []
    for _ in range(count):
        faults.append(RegisterFaultSpec(
            icount=rng.randint(1, horizon),
            reg=rng.randint(0, 13),      # guest computation registers
            bit=rng.randint(0, 31)))
    return faults


def run_data_fault_campaign(program: Program, config: PipelineConfig,
                            count: int = 50, seed: int = 2006,
                            jobs: int = 1,
                            retries: int | None = None,
                            timeout: float | None = None,
                            journal: str | None = None,
                            resume: bool = False
                            ) -> CampaignResult:
    """Inject random register faults under one configuration."""
    from repro.faults.executor import CampaignExecutor
    # The fault generator needs the golden run's dynamic length; hand
    # the same pipeline to the executor so the program load, rewrite
    # and golden run aren't done twice on a cold cache.
    pipeline = Pipeline(program, config)
    faults = generate_register_faults(pipeline, count=count, seed=seed)
    executor = CampaignExecutor(program, config, jobs=jobs,
                                retries=retries, timeout=timeout,
                                journal=journal, resume=resume,
                                pipeline=pipeline)
    return executor.run_campaign(CategoryFaults({None: faults}))


# -- cache-level campaigns (the Figure-14 safety experiment) -------------------


def enumerate_instrumentation_branch_sites(program: Program,
                                           config: PipelineConfig
                                           ) -> list[int]:
    """Cache addresses of inserted branch instructions after a warm run.

    Cache layout is deterministic for a given (program, config), so
    addresses remain valid across the fresh DBT instances the campaign
    runs use.
    """
    run = Pipeline.without_golden(program, config).execute(None,
                                                           50_000_000)
    run.close()
    if run.stop.reason is not StopReason.HALTED or run.detected(run.stop):
        raise RuntimeError(f"warm run failed: {run.stop}")
    dbt = run.dbt
    blocks = list(dbt.blocks.values())
    sites = []
    for addr, instr in enumerate_cache_branch_sites(dbt):
        for tb in blocks:
            if tb.cache_start <= addr < tb.cache_end:
                if tb.is_instrumentation(addr):
                    sites.append(addr)
                break
    return sites


def run_cache_campaign(program: Program, config: PipelineConfig,
                       bits: tuple[int, ...] = (0, 1, 2, 3, 4, 6, 9),
                       max_sites: int = 40, seed: int = 2006,
                       force_taken: bool = True,
                       jobs: int = 1,
                       retries: int | None = None,
                       timeout: float | None = None,
                       journal: str | None = None,
                       resume: bool = False,
                       stop_check=None) -> CampaignResult:
    """Flip offset bits of inserted branches, one fault per run.

    This measures the unsafety the paper shades in Figure 14: ECF and
    EdgCF leave their inserted Jcc branches unprotected; RCF's regions
    cover them.

    With ``force_taken`` (default) each fault is the paper's "branch to
    a random address" event at the inserted branch — the corrupted
    branch transfers.  Without it, faults on normally-not-taken check
    branches are mostly masked.
    """
    from repro.faults.executor import CampaignExecutor
    rng = random.Random(seed)
    sites = enumerate_instrumentation_branch_sites(program, config)
    if len(sites) > max_sites:
        sites = rng.sample(sites, max_sites)
    specs = [CacheFaultSpec(cache_addr=site, occurrence=1, bit=bit,
                            force_taken=force_taken)
             for site in sites for bit in bits]
    executor = CampaignExecutor(program, config, jobs=jobs,
                                retries=retries, timeout=timeout,
                                journal=journal, resume=resume,
                                stop_check=stop_check)
    result = executor.run_campaign(CategoryFaults({None: specs}))
    result.sites_tested = len(sites)
    return result
