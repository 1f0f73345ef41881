"""Transient-fault injection.

A fault is specified at *guest level* — "at the k-th execution of the
branch at guest address P, this single-bit event happens" — and applied
to whichever execution pipeline is under test:

* native run (uninstrumented ground truth),
* statically instrumented binary (sites mapped through the rewriter's
  address maps),
* DBT run (sites resolved to the translated transfer instruction;
  landings resolved through the translation maps, so a "jump into the
  middle of a block" really does skip the entry check code).

Additionally the DBT pipeline supports *cache-level* faults: flip an
offset bit of any branch word in the code cache — including the
branches the instrumentation itself inserted.  This is the experiment
behind the paper's Figure 14 safety discussion: the Jcc-style update
branches are unprotected under ECF/EdgCF but covered by RCF's regions.

All faults are transient: they affect exactly one execution of the
site, mirroring the paper's single-error model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.encoding import decode
from repro.isa.flags import evaluate_cond
from repro.isa.instruction import WORD_SIZE, Instruction
from repro.isa.opcodes import Kind, Op
from repro.isa.program import Program
from repro.machine.cpu import Cpu
from repro.faults.classify import corrupted_target


# -- fault event types -------------------------------------------------------


@dataclass(frozen=True)
class OffsetBitFault:
    """Flip bit ``bit`` (0..15) of the branch's address offset."""

    bit: int


@dataclass(frozen=True)
class FlagBitFault:
    """Flip FLAGS bit ``bit`` as the branch reads the flags."""

    bit: int


@dataclass(frozen=True)
class DirectionFault:
    """Force the branch direction (the distilled category-A event).

    ``taken=None`` inverts whatever direction the branch would
    naturally take — guaranteeing a genuine mistaken-branch error.
    """

    taken: bool | None = None


@dataclass(frozen=True)
class RedirectFault:
    """Force the transfer to land at guest address ``target`` (the
    distilled category-B/C/D/E/F event for campaign targeting)."""

    target: int


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: guest branch site + dynamic occurrence."""

    branch_pc: int        #: guest address of the direct branch
    occurrence: int       #: 1-based dynamic execution index of the site
    fault: object         #: one of the fault event types above
    #: a stuck-at error instead of the default one-shot transient: under
    #: checkpoint/rollback recovery (repro.recovery) the injector is
    #: re-armed after every rollback, so the fault strikes again on
    #: re-execution.  Transient faults (the paper's single-error model)
    #: never re-fire.
    persistent: bool = False
    #: thread-targeted injection (multithreaded machine): the site only
    #: counts (and the fault only fires) while this guest tid is
    #: running.  None — the default — counts every execution, which is
    #: also the single-threaded behaviour (tid 0 is the only thread).
    thread: int | None = None

    def describe(self) -> str:
        stuck = "!persistent" if self.persistent else ""
        tied = f"@t{self.thread}" if self.thread is not None else ""
        return (f"{type(self.fault).__name__}@{self.branch_pc:#x}"
                f"#{self.occurrence}{stuck}{tied}")

    def __repr__(self) -> str:
        # Matches the generated dataclass repr byte-for-byte for the
        # default transient case: journal spec digests predating the
        # ``persistent`` and ``thread`` fields must keep resolving.
        base = (f"FaultSpec(branch_pc={self.branch_pc!r}, "
                f"occurrence={self.occurrence!r}, fault={self.fault!r}")
        if self.persistent:
            base += f", persistent={self.persistent!r}"
        if self.thread is not None:
            base += f", thread={self.thread!r}"
        return base + ")"


_NOP = Instruction(op=Op.NOP)


class _HookBase:
    """Shared occurrence counting for branch hooks armed per site."""

    def __init__(self, spec: FaultSpec):
        self.spec = spec
        self.count = 0
        self.fired = False
        #: cpu.icount / cpu.cycles at the moment the fault applied
        #: (for detection latency in instructions and cycles)
        self.fired_icount: int | None = None
        self.fired_cycles: int | None = None
        #: guest tid that was running when the fault applied
        self.fired_tid: int | None = None
        #: run-image addresses this hook is armed at
        self.sites: set[int] = set()

    def _thread_ok(self, cpu: Cpu) -> bool:
        """Thread-targeted specs only count the victim tid's visits."""
        thread = self.spec.thread
        return (thread is None
                or getattr(cpu, "current_tid", 0) == thread)

    def _hit(self, pc: int) -> bool:
        if self.fired or pc not in self.sites:
            return False
        self.count += 1
        return self.count == self.spec.occurrence

    def _fire(self, cpu: Cpu) -> None:
        """Record the firing point and retire: a fired hook is a
        permanent no-op, so its sites go back to full speed."""
        self.fired = True
        self.fired_icount = cpu.icount
        self.fired_cycles = cpu.cycles
        self.fired_tid = getattr(cpu, "current_tid", 0)
        self._retire(cpu)

    def _retire(self, cpu: Cpu) -> None:
        """Disarm this injector's sites.  Only slots still holding this
        hook are popped: a hook armed later at the same pc replaced it
        and stays.  (Profilers, the flight recorder included, ride
        ``cpu.branch_profiler`` and are never affected.)"""
        hooks = cpu.branch_hooks
        for site in self.sites:
            if hooks.get(site) == self.hook:
                del hooks[site]


class NativeInjector(_HookBase):
    """Injects into a native (or statically rewritten) run.

    ``site_map`` translates the guest branch address to the run image's
    address (identity for native); ``landing_map`` translates guest
    landing addresses for RedirectFaults (identity for native).
    ``noncode_target`` is where category-F landings are sent in a
    rewritten image whose layout differs from the original.
    """

    def __init__(self, spec: FaultSpec, program: Program,
                 site_map=None, landing_map=None,
                 noncode_target: int | None = None):
        super().__init__(spec)
        self.program = program
        self.landing_map = landing_map
        self.noncode_target = noncode_target
        site = spec.branch_pc if site_map is None else site_map(
            spec.branch_pc)
        self.sites = {site}

    def install(self, cpu: Cpu) -> None:
        for site in self.sites:
            cpu.branch_hooks[site] = self.hook

    @staticmethod
    def _natural_direction(cpu: Cpu, instr: Instruction) -> bool:
        meta = instr.meta
        if meta.cond is not None:
            return evaluate_cond(meta.cond, cpu.flags)
        if instr.op is Op.JRZ:
            return cpu.regs[instr.rd] == 0
        if instr.op is Op.JRNZ:
            return cpu.regs[instr.rd] != 0
        return True

    def hook(self, cpu: Cpu, pc: int, instr: Instruction
             ) -> Instruction | None:
        if not self._thread_ok(cpu) or not self._hit(pc):
            return None
        self._fire(cpu)
        fault = self.spec.fault
        meta = instr.meta
        if isinstance(fault, OffsetBitFault):
            # The corrupted word is what the frontend fetches: just hand
            # back the decoded corrupted instruction.
            if not meta.is_direct_branch:
                return None
            new_imm = ((instr.imm & 0xFFFF) ^ (1 << fault.bit))
            if new_imm & 0x8000:
                new_imm -= 0x10000
            return Instruction(op=instr.op, rd=instr.rd, rs=instr.rs,
                               rt=instr.rt, imm=new_imm)
        if isinstance(fault, FlagBitFault):
            cond = meta.cond
            if cond is None:
                return None
            before = evaluate_cond(cond, cpu.flags)
            after = evaluate_cond(cond, cpu.flags ^ (1 << fault.bit))
            if before == after:
                return None
            return (Instruction(op=Op.JMP, imm=instr.imm) if after
                    else _NOP)
        if isinstance(fault, DirectionFault):
            if not meta.is_direct_branch:
                return None
            taken = fault.taken
            if taken is None:
                taken = not self._natural_direction(cpu, instr)
            return (Instruction(op=Op.JMP, imm=instr.imm)
                    if taken else _NOP)
        if isinstance(fault, RedirectFault):
            landing = fault.target
            if self.landing_map is not None:
                mapped = self.landing_map(landing)
                if mapped is None:
                    landing = (self.noncode_target
                               if self.noncode_target is not None
                               else landing)
                else:
                    landing = mapped
            if landing % 4 == 0:
                offset = (landing - (pc + WORD_SIZE)) // WORD_SIZE
                if -0x8000 <= offset <= 0x7FFF:
                    return Instruction(op=Op.JMP, imm=offset)
            # Out of jump range or unaligned: transfer through a
            # host-only scratch register (guests never touch r16+).
            from repro.isa.registers import T2
            cpu.regs[T2] = landing & 0xFFFFFFFF
            return Instruction(op=Op.JMPR, rd=T2)
        raise TypeError(f"unknown fault {fault!r}")


class DbtInjector(_HookBase):
    """Injects into a DBT run at guest level.

    The hook arms itself lazily: the site is the translated transfer
    instruction of the branch's block, which only exists once the block
    has been translated.  The DBT's translation listener arms each new
    translation of the branch and disarms them all on a cache flush
    (the flushed cache addresses are reused by new code).
    """

    def __init__(self, spec: FaultSpec, dbt):
        super().__init__(spec)
        self.dbt = dbt
        self._redirect_target: int | None = None
        dbt.inject_redirect = self._redirect
        dbt.translation_listener = self._on_translation

    def install(self, cpu: Cpu) -> None:
        """(Re-)arm every current translation of the branch on ``cpu``
        (the DBT's own CPU)."""
        self._retire(cpu)
        self.sites.clear()
        for translations in (self.dbt.blocks, self.dbt._suffixes):
            for tb in translations.values():
                self._arm(cpu, tb)

    def _arm(self, cpu: Cpu, tb) -> None:
        # Every cache site standing in for the guest branch counts: one
        # guest branch can be translated several times (overlapping
        # blocks, suffix translations).
        if (tb.guest_terminator == self.spec.branch_pc
                and tb.terminator_site is not None):
            self.sites.add(tb.terminator_site)
            cpu.branch_hooks[tb.terminator_site] = self.hook

    def _on_translation(self, tb) -> None:
        cpu = self.dbt.cpu
        if tb is None:
            self._retire(cpu)
            self.sites.clear()
        elif not self.fired:
            self._arm(cpu, tb)

    def _redirect(self) -> int:
        assert self._redirect_target is not None
        return self._redirect_target

    def hook(self, cpu: Cpu, pc: int, instr: Instruction
             ) -> Instruction | None:
        if not self._thread_ok(cpu) or not self._hit(pc):
            return None
        fault = self.spec.fault
        guest_instr = self.dbt.program.instruction_at(self.spec.branch_pc)
        will_take, can_fall = self._direction(cpu, instr)
        self._fire(cpu)

        if isinstance(fault, OffsetBitFault):
            if not will_take:
                return None   # corrupted target unused: harmless
            landing = corrupted_target(self.spec.branch_pc, guest_instr,
                                       fault.bit)
            return self._fire_redirect(landing)
        if isinstance(fault, FlagBitFault):
            cond = guest_instr.meta.cond
            if cond is None:
                return None
            before = evaluate_cond(cond, cpu.flags)
            after = evaluate_cond(cond, cpu.flags ^ (1 << fault.bit))
            if before == after:
                return None
            return self._force_direction(instr, after)
        if isinstance(fault, DirectionFault):
            taken = fault.taken
            if taken is None:
                taken = not will_take
            return self._force_direction(instr, taken)
        if isinstance(fault, RedirectFault):
            return self._fire_redirect(fault.target)
        raise TypeError(f"unknown fault {fault!r}")

    def _direction(self, cpu: Cpu, site_instr: Instruction
                   ) -> tuple[bool, bool]:
        """(will this execution transfer?, is there a fallthrough?)"""
        meta = site_instr.meta
        if meta.kind is Kind.BRANCH_COND:
            return evaluate_cond(meta.cond, cpu.flags), True
        if site_instr.op is Op.JRZ:
            return cpu.regs[site_instr.rd] == 0, True
        if site_instr.op is Op.JRNZ:
            return cpu.regs[site_instr.rd] != 0, True
        # trap stubs / patched jmps: unconditional transfer
        return True, False

    def _force_direction(self, site_instr: Instruction,
                         taken: bool) -> Instruction:
        if taken:
            return Instruction(op=Op.JMP, imm=site_instr.imm)
        return _NOP

    def _fire_redirect(self, guest_landing: int) -> Instruction:
        self._redirect_target = guest_landing
        from repro.dbt.translator import INJECT_TRAP
        return Instruction(op=Op.TRAP, imm=INJECT_TRAP)


@dataclass(frozen=True)
class RegisterFaultSpec:
    """Data fault: flip bit ``bit`` of guest register ``reg`` just
    before the ``icount``-th dynamic instruction executes.

    This is the fault class the *data-flow* checking extension (SWIFT-
    style duplication) exists to catch; control-flow signatures alone
    are blind to it unless the corrupted value happens to change a
    branch.
    """

    icount: int
    reg: int
    bit: int

    def describe(self) -> str:
        return f"reg r{self.reg}b{self.bit}@i{self.icount}"

    def install(self, cpu: Cpu) -> None:
        def strike(target_cpu: Cpu) -> None:
            target_cpu.regs[self.reg] ^= (1 << self.bit)
            target_cpu.regs[self.reg] &= 0xFFFFFFFF
        cpu.scheduled_fault = (self.icount, strike)


@dataclass(frozen=True)
class SchedFaultSpec:
    """Scheduler-state fault, applied at an exact context-switch
    ordinal of the multithreaded machine (repro.threads).

    ``kind="ctx-bit"`` flips bit ``bit`` of register ``reg`` in thread
    ``tid``'s context — the *saved* register file when the victim is
    switched out, the live CPU register when it is the thread being
    switched in.  Striking a saved signature register (r16+) is the
    cross-context experiment: with ``sig_swap=True`` the corruption is
    restored and detected at the victim's next check; with
    ``sig_swap=False`` the switch-in resync silently repairs it.

    ``kind="queue-rotate"`` perturbs the ready queue instead — a
    control-flow error in the scheduler itself.  Under a deterministic
    scheduler this changes the schedule trace but must never corrupt
    guest output (threads are preemption-safe by construction), so its
    expected outcome is BENIGN with a divergent trace digest.
    """

    switch: int            #: 1-based context-switch ordinal
    kind: str = "ctx-bit"  #: "ctx-bit" | "queue-rotate"
    tid: int = 0           #: victim thread (ctx-bit only)
    reg: int = 0
    bit: int = 0

    def describe(self) -> str:
        if self.kind == "queue-rotate":
            return f"sched rotate@sw{self.switch}"
        return (f"sched ctx t{self.tid} r{self.reg}b{self.bit}"
                f"@sw{self.switch}")


class SchedInjector:
    """Applies one :class:`SchedFaultSpec` via the machine's
    ``sched_fault`` switch hook.

    Mirrors the ``_HookBase`` runtime surface (``count``/``fired``/
    ``fired_icount``/``fired_cycles``) so detection-latency accounting
    and the recovery manager's occurrence snapshotting work unchanged.
    """

    def __init__(self, spec: SchedFaultSpec):
        self.spec = spec
        self.count = 0
        self.fired = False
        self.fired_icount: int | None = None
        self.fired_cycles: int | None = None
        self.fired_tid: int | None = None

    def on_switch(self, machine) -> None:
        if self.fired or machine.switches != self.spec.switch:
            return
        self.fired = True
        cpu = machine.cpu
        self.fired_icount = cpu.icount
        self.fired_cycles = cpu.cycles
        self.fired_tid = machine.current
        spec = self.spec
        if spec.kind == "queue-rotate":
            machine.scheduler.rotate()
            return
        mask = 1 << spec.bit
        if spec.tid == machine.current:
            # The victim is the thread being switched in: its registers
            # were just restored into the CPU, so strike them live.
            cpu.regs[spec.reg] = (cpu.regs[spec.reg] ^ mask) & 0xFFFFFFFF
            return
        ctx = machine.contexts.get(spec.tid)
        if ctx is not None:
            ctx.regs[spec.reg] = (ctx.regs[spec.reg] ^ mask) & 0xFFFFFFFF


@dataclass(frozen=True)
class CacheFaultSpec:
    """Cache-level fault: flip an offset bit of the branch word at
    ``cache_addr`` for its ``occurrence``-th execution.

    ``force_taken`` models the paper's "branch to a random address"
    event at an inserted branch: the corrupted branch transfers
    unconditionally to its (flipped) target.  Without it, a fault on a
    normally-not-taken branch (e.g. a signature check that passes) is
    trivially harmless.
    """

    cache_addr: int
    occurrence: int
    bit: int
    force_taken: bool = False

    def describe(self) -> str:
        forced = "!" if self.force_taken else ""
        return (f"cache@{self.cache_addr:#x}#{self.occurrence}"
                f"b{self.bit}{forced}")


class CacheLevelInjector:
    """Flips an encoded offset bit of a branch in the code cache.

    This is the honest "soft error strikes the translated code" model:
    the corrupted branch goes wherever the flipped offset points —
    possibly into instrumentation code, another block's middle, or
    unmapped cache territory (hardware-detected).
    """

    def __init__(self, spec: CacheFaultSpec, dbt):
        self.spec = spec
        self.dbt = dbt
        self.count = 0
        self.fired = False
        #: cpu.icount / cpu.cycles at the moment the fault applied
        #: (for detection latency in instructions and cycles)
        self.fired_icount: int | None = None
        self.fired_cycles: int | None = None

    def install(self, cpu: Cpu) -> None:
        """Arm the cache site on ``cpu`` (the DBT's own CPU)."""
        cpu.branch_hooks[self.spec.cache_addr] = self.hook

    def hook(self, cpu: Cpu, pc: int, instr: Instruction
             ) -> Instruction | None:
        if self.fired or pc != self.spec.cache_addr:
            return None
        self.count += 1
        if self.count != self.spec.occurrence:
            return None
        self.fired = True
        self.fired_icount = cpu.icount
        self.fired_cycles = cpu.cycles
        # Same retirement rule as _HookBase._retire.
        if cpu.branch_hooks.get(pc) == self.hook:
            del cpu.branch_hooks[pc]
        word = self.dbt.cpu.memory.read_word_raw(pc)
        corrupted = decode(word ^ (1 << self.spec.bit))
        if corrupted.op is Op.TRAP:
            # Unpatched exit stub: not a real branch; skip.
            return None
        if self.spec.force_taken and corrupted.meta.is_direct_branch:
            return Instruction(op=Op.JMP, imm=corrupted.imm)
        return corrupted


def enumerate_cache_branch_sites(dbt) -> list[tuple[int, Instruction]]:
    """All direct-branch instructions in the translated code, including
    those inserted by the checking technique (check branches, mirror
    update branches, chained jumps)."""
    sites: list[tuple[int, Instruction]] = []
    blocks = list(dbt.blocks.values()) + list(dbt._suffixes.values())
    for tb in blocks:
        for addr in range(tb.cache_start, tb.cache_end, WORD_SIZE):
            word = dbt.cpu.memory.read_word_raw(addr)
            try:
                instr = decode(word)
            except Exception:
                continue
            if instr.meta.is_direct_branch:
                sites.append((addr, instr))
    return sites
