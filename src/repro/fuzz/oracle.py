"""N-way differential oracles over one guest program.

Two oracles, two paper claims:

**Transparency** (Section 3): every (technique x policy) instrumentation
— statically rewritten and run on the interpreter, and translated by
the DBT — must behave exactly like the uninstrumented golden run.  The
oracle diffs exit state, printed output, emitted words, a digest of the
guest data segment, and the syscall trace; any difference (including a
false-positive error report on a fault-free run) is a transparency bug.

**Detection** (Section 4): on small programs, every single-bit
branch-offset error whose category the technique *claims* to cover must
not end in silent data corruption or an unreported hang.  What a
technique claims is cross-checked against the exhaustive formal model
(:mod:`repro.formal.conditions`): a technique whose sufficient
condition fails there (CFCSS, ECCA on fan-in CFGs) only claims the
hardware-detected category F.

Per the paper's Assumption 2 ("any control-flow error must finally
reach at least one CHECK_SIG function"), faults landing in the middle
of a program-exit block are excluded: control exits before any check
could run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache

from repro.cfg import build_cfg
from repro.cfg.basic_block import ExitKind
from repro.checking import Policy
from repro.faults.campaign import (Outcome, Pipeline, PipelineConfig,
                                   generate_thread_faults)
from repro.faults.classify import (Category, classify_offset_fault,
                                   corrupted_target)
from repro.faults.injector import (FaultSpec, OffsetBitFault,
                                   RegisterFaultSpec, SchedFaultSpec)
from repro.formal import FORMAL_TECHNIQUES
from repro.formal.conditions import check_conditions
from repro.formal.model import diamond_cfg, fanin_cfg, loop_cfg
from repro.isa.encoding import BRANCH_OFFSET_BITS
from repro.isa.opcodes import Kind
from repro.isa.program import Program
from repro.machine import Cpu, StopReason, run_native
from repro.threads.machine import MAX_THREADS

#: Techniques the DBT instruments on the fly (local signature state).
DBT_TECHNIQUES = ("edgcf", "rcf", "ecf")
#: Whole-CFG baselines: static rewriting only.
STATIC_TECHNIQUES = ("cfcss", "ecca")
DEFAULT_TECHNIQUES = DBT_TECHNIQUES + STATIC_TECHNIQUES

_MAX_STEPS = 2_000_000


class OracleError(RuntimeError):
    """The oracle could not establish a reference behaviour."""


# -- run capture -------------------------------------------------------------


@dataclass(frozen=True)
class RunDigest:
    """Everything we diff between two executions of one program."""

    stop: str
    exit_code: int
    output: str
    output_values: tuple
    mem_digest: str
    syscalls: tuple
    detected: bool
    #: schedule-trace digest of a multithreaded run ("-" when
    #: single-threaded); two MT runs of the same image are only equal
    #: when every context switch landed on the same (icount, tid).
    schedule: str = "-"

    def diff(self, other: "RunDigest", ignore=()) -> list[str]:
        """Names of the fields where ``other`` diverges from ``self``.

        ``ignore`` drops fields that legitimately differ between the
        compared runs (e.g. the schedule trace when diffing an
        instrumented MT run against its uninstrumented golden — the
        quantum counts retired instructions, so instrumentation
        overhead shifts every switch point).
        """
        fields = ("stop", "exit_code", "output", "output_values",
                  "mem_digest", "syscalls", "detected", "schedule")
        return [name for name in fields
                if name not in ignore
                and getattr(self, name) != getattr(other, name)]


def _digest_state(cpu: Cpu, stop_value: str, detected: bool,
                  program: Program, schedule: str = "-") -> RunDigest:
    if program.data:
        blob = cpu.memory.read_raw(program.data_base, len(program.data))
        mem_digest = hashlib.sha256(blob).hexdigest()[:16]
    else:
        mem_digest = "-"
    return RunDigest(stop=stop_value,
                     exit_code=cpu.exit_code,
                     output="".join(cpu.output),
                     output_values=tuple(cpu.output_values),
                     mem_digest=mem_digest,
                     syscalls=tuple(cpu.syscall_trace or ()),
                     detected=detected,
                     schedule=schedule)


class _Probe:
    """Run probe keeping the run's CPU, with syscall tracing turned on
    as the pipeline binds it, so the final state can be digested."""

    cpu = None

    def bind(self, cpu, **_kwargs) -> None:
        self.cpu = cpu
        cpu.syscall_trace = []


def capture(program: Program, config: PipelineConfig,
            max_steps: int = _MAX_STEPS,
            technique_factory=None) -> RunDigest:
    """One clean run of ``program`` under ``config``, digested.

    The run goes through :meth:`Pipeline.execute`, the path every
    campaign run takes.  The pipeline is built without a golden run: a
    technique that misbehaves on a fault-free run must show up as a
    divergent digest here, not as a golden-run error.  Multithreaded
    configs also digest the schedule trace.
    """
    pipe = Pipeline.without_golden(program, config, technique_factory)
    run = pipe.execute(None, max_steps, _Probe())
    try:
        schedule = (run.machine.trace_digest()
                    if run.machine is not None else "-")
        return _digest_state(run.cpu, run.stop.reason.value,
                             run.detected(run.stop), program,
                             schedule=schedule)
    finally:
        run.close()


def _crash_digest(exc: Exception) -> RunDigest:
    """Stand-in digest for an instrumentation that raised outright."""
    return RunDigest(stop=f"error: {exc}", exit_code=-1, output="",
                     output_values=(), mem_digest="-", syscalls=(),
                     detected=False)


def capture_threaded(program: Program, technique: str | None = None,
                     policy: Policy = Policy.ALLBB,
                     max_steps: int = _MAX_STEPS,
                     backend: str = "interp",
                     quantum: int | None = None,
                     sched_policy: str = "rr", sched_seed: int = 0,
                     sig_swap: bool = True) -> RunDigest:
    """One multithreaded run (uninstrumented or statically rewritten)
    under the deterministic preemptive scheduler.

    The digest additionally carries the schedule-trace digest, so two
    captures only compare equal when every preemption landed on the
    same (icount, tid) — the cross-backend MT parity claim.
    """
    config = PipelineConfig.from_params(
        {"technique": technique, "policy": policy.value,
         "backend": backend, "threads": True, "quantum": quantum,
         "sched_policy": sched_policy, "sched_seed": sched_seed,
         "no_sig_swap": not sig_swap})
    return capture(program, config, max_steps)


#: Fields that legitimately differ between an instrumented MT run and
#: its uninstrumented golden: the quantum counts retired instructions,
#: so instrumentation overhead shifts every switch point — and with it
#: the interleaving of traced thread syscalls (yield retries, mutex
#: wake order).  The committed result fields must still match exactly.
MT_INSTRUMENTED_IGNORE = ("schedule", "syscalls")


def check_mt_transparency(program: Program,
                          techniques=("ecf",),
                          policy: Policy = Policy.ALLBB,
                          quantum: int | None = None,
                          sched_policy: str = "rr",
                          sched_seed: int = 0,
                          max_steps: int = _MAX_STEPS
                          ) -> list[TransparencyFailure]:
    """The multithreaded differential oracle for one program.

    Three claims, all against the interpreter's uninstrumented MT run:

    * **cross-backend parity** — the block-compiling backend must
      reproduce the run *byte-identically including the schedule
      trace* (same image, same retirement counts, same preemptions);
    * **MT transparency** — each statically rewritten image (with
      signature swapping on and off) must commit the same results
      (exit, output, memory) with no false-positive detection; the
      schedule and syscall interleaving may shift (see
      :data:`MT_INSTRUMENTED_IGNORE`);
    * **instrumented parity** — each instrumented image must itself be
      schedule-identical across both execution backends.
    """
    kwargs = dict(policy=policy, max_steps=max_steps, quantum=quantum,
                  sched_policy=sched_policy, sched_seed=sched_seed)
    golden = capture_threaded(program, **kwargs)
    if golden.stop != StopReason.HALTED.value or golden.exit_code != 0:
        raise OracleError(f"MT golden run failed: {golden.stop} "
                          f"exit={golden.exit_code}")
    failures: list[TransparencyFailure] = []

    def check(label: str, reference: RunDigest, ignore=(),
              **extra) -> RunDigest | None:
        """Capture one lane and diff it; None when it crashed."""
        try:
            observed = capture_threaded(program, **kwargs, **extra)
        except Exception as exc:   # instrumentation crashed outright
            failures.append(TransparencyFailure(
                label=label, fields=("stop",), golden=golden,
                observed=_crash_digest(exc)))
            return None
        diverged = reference.diff(observed, ignore=ignore)
        if diverged:
            failures.append(TransparencyFailure(
                label=label, fields=tuple(diverged),
                golden=reference, observed=observed))
        return observed

    check("native-mt@block", golden, backend="block")
    for technique in techniques:
        for sig_swap in (True, False):
            tag = "" if sig_swap else "-sigswap"
            label = f"static-mt/{technique}{tag}"
            interp = check(f"{label}@interp", golden,
                           MT_INSTRUMENTED_IGNORE, technique=technique,
                           sig_swap=sig_swap)
            if interp is not None:
                check(f"{label}@block", interp, technique=technique,
                      sig_swap=sig_swap, backend="block")
    return failures


def uses_indirect_branches(program: Program) -> bool:
    """True when static rewriting would reject the program."""
    return any(instr.meta.kind is Kind.BRANCH_IND
               for _, instr in program.instructions())


def uses_dynamic_exits(program: Program) -> bool:
    """True when the whole-CFG baselines would reject the program.

    CFCSS/ECCA are intra-procedural: the static rewriter refuses to
    instrument ``ret`` (dynamic branch targets) under them.
    """
    return any(instr.meta.kind is Kind.RET
               for _, instr in program.instructions())


# -- transparency oracle -----------------------------------------------------


@dataclass(frozen=True)
class TransparencyFailure:
    """One instrumented run that diverged from the golden run."""

    label: str              #: pipeline/technique/policy
    fields: tuple           #: RunDigest field names that differ
    golden: RunDigest
    observed: RunDigest

    @property
    def is_crash(self) -> bool:
        """The instrumentation raised instead of producing a run."""
        return self.observed.stop.startswith("error:")

    def describe(self) -> str:
        return f"{self.label}: {', '.join(self.fields)} diverged"


def transparency_configs(program: Program,
                         techniques=DEFAULT_TECHNIQUES,
                         policies=(Policy.ALLBB, Policy.RET_BE,
                                   Policy.END),
                         backend: str = "interp"
                         ) -> list[PipelineConfig]:
    """The (pipeline, technique, policy) matrix for one program.

    Static rewriting rejects register-indirect branches, so programs
    using them only get the DBT side; the whole-CFG baselines (CFCSS,
    ECCA) only exist statically *and* only for intra-procedural
    programs (no ``ret``) — capability limits the suite documents, not
    transparency bugs.

    A non-default ``backend`` adds a bare native lane (no technique):
    the uninstrumented program on that execution backend must match
    the interpreter's golden run byte for byte — the cross-backend
    differential oracle for :mod:`repro.exec`.
    """
    indirect = uses_indirect_branches(program)
    dynamic = uses_dynamic_exits(program)
    configs = []
    if backend != "interp":
        configs.append(PipelineConfig("native", None, Policy.ALLBB,
                                      backend=backend))
    for technique in techniques:
        for policy in policies:
            if technique in DBT_TECHNIQUES:
                configs.append(PipelineConfig("dbt", technique, policy,
                                              backend=backend))
                if not indirect:
                    configs.append(
                        PipelineConfig("static", technique, policy,
                                       backend=backend))
            elif not indirect and not dynamic:
                configs.append(
                    PipelineConfig("static", technique, policy,
                                   backend=backend))
    return configs


def check_transparency(program: Program,
                       configs=None,
                       techniques=DEFAULT_TECHNIQUES,
                       policies=(Policy.ALLBB, Policy.RET_BE,
                                 Policy.END),
                       technique_factory=None,
                       max_steps: int = _MAX_STEPS
                       ) -> list[TransparencyFailure]:
    """Diff every instrumented clean run against the golden run."""
    golden = capture(program, PipelineConfig("native"), max_steps)
    if golden.stop != StopReason.HALTED.value or golden.exit_code != 0:
        raise OracleError(f"golden run failed: {golden.stop} "
                          f"exit={golden.exit_code}")
    if configs is None:
        configs = transparency_configs(program, techniques, policies)
    failures = []
    for config in configs:
        try:
            observed = capture(program, config, max_steps,
                               technique_factory)
        except Exception as exc:   # instrumentation crashed outright
            observed = _crash_digest(exc)
        diverged = golden.diff(observed)
        if diverged:
            failures.append(TransparencyFailure(
                label=config.label(), fields=tuple(diverged),
                golden=golden, observed=observed))
    return failures


# -- detection oracle --------------------------------------------------------


@lru_cache(maxsize=None)
def claimed_categories(technique: str) -> frozenset:
    """Branch-error categories ``technique`` claims to detect.

    Cross-checked against the exhaustive formal model: only when the
    sufficient condition holds on all three model CFGs does the
    technique claim the checkable categories B..E.  Category F is
    hardware-detected (execute-disable) regardless of technique.
    """
    formal_cls = FORMAL_TECHNIQUES[technique.lower()]
    for build in (diamond_cfg, loop_cfg, fanin_cfg):
        report = check_conditions(formal_cls(build()))
        if not report.sufficient_holds:
            return frozenset({Category.F})
    return frozenset({Category.B, Category.C, Category.D, Category.E,
                      Category.F})


class _SiteTrace:
    """Per-site first execution (and first *taken* execution) record.

    The aggregate :class:`~repro.machine.profile.BranchProfiler` loses
    which dynamic occurrence had which direction; the detection oracle
    needs a concrete (occurrence, taken, flags) triple per fault spec.
    """

    def __init__(self) -> None:
        self.sites: dict[int, list] = {}

    def record(self, pc: int, instr, taken: bool, flags: int) -> None:
        entry = self.sites.get(pc)
        if entry is None:
            self.sites[pc] = [instr, 0, (1, taken, flags), None]
            entry = self.sites[pc]
        entry[1] += 1
        if taken and entry[3] is None:
            entry[3] = (entry[1], True, flags)


@dataclass(frozen=True)
class DetectionEscape:
    """A claimed-coverage branch error that went unreported."""

    label: str
    spec: FaultSpec
    category: str
    outcome: str

    def describe(self) -> str:
        return (f"{self.label}: {self.spec.describe()} "
                f"category {self.category} -> {self.outcome}")


def enumerate_detection_specs(program: Program, claimed,
                              max_sites: int | None = None
                              ) -> list[tuple[FaultSpec, Category]]:
    """All single-bit offset faults in claimed categories.

    One spec per (executed branch site, occurrence shape, offset bit),
    pre-classified; NO_ERROR, mistaken-branch (A) and Assumption-2
    landings are excluded.
    """
    trace = _SiteTrace()
    cpu, stop = run_native(program, max_steps=_MAX_STEPS, profiler=trace)
    cpu.unlink()
    if stop.reason is not StopReason.HALTED or cpu.exit_code != 0:
        raise OracleError(f"profiling run failed: {stop}")
    cfg = build_cfg(program)
    specs: list[tuple[FaultSpec, Category]] = []
    sites = sorted(trace.sites.items())
    if max_sites is not None:
        sites = sites[:max_sites]
    for pc, (instr, _count, first, first_taken) in sites:
        occurrences = [first]
        if first_taken is not None and first_taken != first:
            occurrences.append(first_taken)
        for occurrence, taken, _flags in occurrences:
            for bit in range(BRANCH_OFFSET_BITS):
                category = classify_offset_fault(cfg, pc, instr, bit,
                                                 taken)
                if category in (Category.NO_ERROR, Category.A):
                    continue
                if category not in claimed:
                    continue
                if category in (Category.C, Category.E):
                    landing = corrupted_target(pc, instr, bit)
                    block = cfg.block_containing(landing)
                    if block is not None and block.exit_kind in (
                            ExitKind.HALT, ExitKind.EXIT):
                        continue   # Assumption 2: exits before a check
                specs.append((FaultSpec(pc, occurrence,
                                        OffsetBitFault(bit)), category))
    return specs


def _fault_suite(program: Program, technique: str, policy: Policy,
                 pipeline: str | None, technique_factory, max_sites,
                 claimed, **config_fields):
    """(config, specs, pipeline) of one technique's exhaustive
    single-bit fault suite; the pipeline defaults to static for the
    whole-CFG baselines and to the DBT otherwise."""
    if pipeline is None:
        pipeline = ("static" if technique in STATIC_TECHNIQUES
                    else "dbt")
    if claimed is None:
        claimed = claimed_categories(technique)
    config = PipelineConfig(pipeline, technique, policy, **config_fields)
    specs = enumerate_detection_specs(program, claimed,
                                      max_sites=max_sites)
    return config, specs, Pipeline(program, config,
                                   technique_factory=technique_factory)


def check_detection(program: Program, technique: str,
                    policy: Policy = Policy.ALLBB,
                    pipeline: str | None = None,
                    technique_factory=None,
                    max_sites: int | None = None,
                    claimed=None,
                    backend: str = "interp"
                    ) -> tuple[list[DetectionEscape], int]:
    """Exhaust single-bit branch faults; return (escapes, runs).

    An escape is a fault in a claimed category whose run ended in
    silent data corruption or an unreported hang.
    """
    config, specs, pipe = _fault_suite(
        program, technique, policy, pipeline, technique_factory,
        max_sites, claimed, backend=backend)
    escapes = []
    for spec, category in specs:
        record = pipe.run(spec)
        if record.outcome in (Outcome.SDC, Outcome.HANG):
            escapes.append(DetectionEscape(
                label=config.label(), spec=spec,
                category=category.value,
                outcome=record.outcome.value))
    return escapes, len(specs)


# -- recovery oracle ---------------------------------------------------------


@dataclass(frozen=True)
class RecoveryFailure:
    """A detected fault whose recovery did not reproduce the golden run.

    Either the run under ``recover=True`` did not end ``RECOVERED``
    (the rollback machinery mis-handled a detection), or it did but the
    recovered final state diverged from the uninstrumented golden
    RunDigest — duplicated side effects, stale memory, wrong exit.
    """

    label: str
    spec: FaultSpec
    category: str
    outcome: str
    fields: tuple = ()

    def describe(self) -> str:
        detail = f" [{', '.join(self.fields)}]" if self.fields else ""
        return (f"{self.label}: {self.spec.describe()} "
                f"category {self.category} -> {self.outcome}{detail}")


def check_recovery(program: Program, technique: str,
                   policy: Policy = Policy.ALLBB,
                   pipeline: str | None = None,
                   technique_factory=None,
                   max_sites: int | None = None,
                   claimed=None,
                   backend: str = "interp",
                   checkpoint_interval: int = 256,
                   max_retries: int = 3
                   ) -> tuple[list[RecoveryFailure], int]:
    """Re-run the detection suite under ``recover=True``.

    For every detected single-bit branch-offset fault, the recovered
    run must end ``RECOVERED`` with a RunDigest byte-identical to the
    uninstrumented golden run (exit, output, output_values, memory
    sha256, syscall trace — the truncate-on-rollback protocol must not
    duplicate externally visible effects).  Faults the technique never
    detects (masked or escaped) are the detection oracle's business and
    are skipped here.
    """
    golden = capture(program, PipelineConfig("native"))
    config, specs, pipe = _fault_suite(
        program, technique, policy, pipeline, technique_factory,
        max_sites, claimed, backend=backend, recover=True,
        checkpoint_interval=checkpoint_interval, max_retries=max_retries)
    failures = []
    for spec, category in specs:
        probe = _Probe()
        record = pipe.run(spec, probe=probe)
        if record.outcome in (Outcome.BENIGN, Outcome.SDC,
                              Outcome.HANG):
            continue   # never detected: not recovery's to answer for
        if record.outcome is not Outcome.RECOVERED:
            failures.append(RecoveryFailure(
                label=config.label(), spec=spec,
                category=category.value,
                outcome=record.outcome.value))
            continue
        digest = _digest_state(probe.cpu, StopReason.HALTED.value,
                               False, program)
        fields = golden.diff(digest)
        if fields:
            failures.append(RecoveryFailure(
                label=config.label(), spec=spec,
                category=category.value, outcome="digest-mismatch",
                fields=tuple(fields)))
    return failures, len(specs)


# -- fork oracle -------------------------------------------------------------


@dataclass(frozen=True)
class ForkDivergence:
    """A fault whose forked run's record differs from a fresh run's:
    ``fields`` names the :class:`RunRecord` fields that differ."""

    label: str
    spec: object
    fields: tuple

    def describe(self) -> str:
        return (f"{self.label}: {self.spec.describe()} "
                f"[{', '.join(self.fields)}]")


#: Register bit flips :func:`check_fork` adds to the branch faults.
FORK_REGISTER_FAULTS = 4
#: On the multithreaded machine: the victims of its thread faults (the
#: main thread and up to four workers), the faults per victim, and its
#: scheduler faults, drawn at switch ordinals up to FORK_MAX_SWITCH
FORK_TIDS = range(5)
FORK_THREAD_FAULTS = 2
FORK_SCHED_FAULTS = 8
FORK_MAX_SWITCH = 60
#: A context-switch ordinal no fuzzed kernel reaches
NEVER_SWITCH = 1_000_000


def check_fork(program: Program, config: PipelineConfig, seed: int = 0
               ) -> tuple[list[ForkDivergence], int]:
    """Run faults forked and fresh on one pipeline; return
    (divergences, runs).

    The faults are the detection suite's single-bit offset faults in
    every category it keeps — on the multithreaded machine, thread and
    scheduler faults instead (:func:`_threaded_fork_faults`) — plus
    ``FORK_REGISTER_FAULTS`` register bit flips drawn from ``seed``, in
    an order shuffled by ``seed``, so each forked run rewinds from what
    another run left.  Each runs through the campaign path
    (``pipe.run``: forked from the golden ladder, stopping where it
    rejoins the golden run) and the fresh path (``pipe.execute`` on a
    new machine); the two records must be equal field for field.
    """
    pipe = Pipeline(program, config)
    rng = random.Random(seed)
    if config.threads:
        specs = _threaded_fork_faults(program, config, rng, seed)
    else:
        specs = [spec for spec, _ in enumerate_detection_specs(
            program, frozenset(Category))]
    specs += [RegisterFaultSpec(icount=rng.randrange(pipe.golden.icount),
                                reg=rng.randrange(1, 16),
                                bit=rng.randrange(32))
              for _ in range(FORK_REGISTER_FAULTS)]
    rng.shuffle(specs)
    budget = pipe.golden.step_budget
    divergences = []
    for spec in specs:
        forked = pipe.run(spec)
        run = pipe.execute(spec, budget)
        try:
            fresh = pipe.classify(run)
        finally:
            run.close()
        if forked != fresh:
            divergences.append(ForkDivergence(
                label=config.label(), spec=spec,
                fields=tuple(name for name in vars(fresh)
                             if getattr(forked, name)
                             != getattr(fresh, name))))
    return divergences, len(specs)


def _threaded_fork_faults(program: Program, config: PipelineConfig,
                          rng: random.Random, seed: int) -> list:
    """Direction faults on the conditional branches for each tid of
    ``FORK_TIDS`` (:func:`generate_thread_faults`), one more on a tid
    no kernel spawns, whose victim never visits its site, and scheduler
    faults of both kinds, one of each at a switch the golden run never
    makes."""
    specs = generate_thread_faults(program, config, FORK_TIDS,
                                   per_thread=FORK_THREAD_FAULTS,
                                   seed=seed)
    if specs:
        specs.append(replace(specs[0], thread=MAX_THREADS))
    for _ in range(FORK_SCHED_FAULTS):
        switch = rng.randint(1, FORK_MAX_SWITCH)
        if rng.random() < 0.5:
            specs.append(SchedFaultSpec(switch, "queue-rotate"))
        else:
            # r16 and up hold the checking technique's signatures.
            specs.append(SchedFaultSpec(
                switch, "ctx-bit", tid=rng.choice(FORK_TIDS),
                reg=rng.randrange(20), bit=rng.randrange(32)))
    specs += [SchedFaultSpec(NEVER_SWITCH, "queue-rotate"),
              SchedFaultSpec(NEVER_SWITCH, "ctx-bit", tid=1, reg=1)]
    return specs


# -- combined verdict --------------------------------------------------------


@dataclass
class OracleReport:
    """Everything the oracles concluded about one program."""

    seed: int | None = None
    transparency: list = field(default_factory=list)
    escapes: list = field(default_factory=list)
    recovery: list = field(default_factory=list)
    transparency_configs: int = 0
    detection_runs: int = 0
    recovery_runs: int = 0

    @property
    def ok(self) -> bool:
        return (not self.transparency and not self.escapes
                and not self.recovery)


def run_oracles(program: Program,
                techniques=DEFAULT_TECHNIQUES,
                policies=(Policy.ALLBB, Policy.RET_BE, Policy.END),
                detect: bool = False,
                detect_techniques=DBT_TECHNIQUES,
                max_sites: int | None = None,
                seed: int | None = None,
                backend: str = "interp",
                recover: bool = False) -> OracleReport:
    """Run the transparency (always) and detection (opt-in) oracles.

    ``recover`` additionally holds every detected fault of the
    detection suite to the recovery contract (:func:`check_recovery`).
    """
    report = OracleReport(seed=seed)
    configs = transparency_configs(program, techniques, policies,
                                   backend=backend)
    report.transparency_configs = len(configs)
    report.transparency = check_transparency(program, configs=configs)
    if detect:
        for technique in detect_techniques:
            escapes, runs = check_detection(program, technique,
                                            max_sites=max_sites,
                                            backend=backend)
            report.escapes.extend(escapes)
            report.detection_runs += runs
            if recover:
                failures, rruns = check_recovery(program, technique,
                                                 max_sites=max_sites,
                                                 backend=backend)
                report.recovery.extend(failures)
                report.recovery_runs += rruns
    return report
