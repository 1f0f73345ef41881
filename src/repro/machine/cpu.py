"""The R32 interpreter.

A deterministic, cycle-accounting interpreter with:

* per-page execute permission on every fetch (execute-disable bit),
* a decode cache invalidated on stores (so self-modifying code works),
* optional per-branch hooks used by the fault injector and the branch
  profiler (both gated behind ``is None`` checks so the common path
  stays fast),
* a precomputed per-opcode handler dispatch table: the fetch loop jumps
  straight to the semantics of each instruction instead of scanning an
  if/elif chain over every opcode.

Determinism is the point: the paper's performance results become exact,
reproducible cycle counts instead of noisy wall-clock measurements.
The dispatch table changes *nothing* about the cycle model — every
handler charges exactly the cycles the old chain charged.
"""

from __future__ import annotations

from repro import obs
from repro.isa.encoding import DecodeError, decode
from repro.isa.flags import (evaluate_cond, flags_from_add, flags_from_logic,
                             flags_from_sub)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_TABLE, Kind, Op
from repro.isa.program import MEMORY_SIZE, STACK_TOP
from repro.machine import syscalls
from repro.machine.faults import FaultKind, StopInfo, StopReason
from repro.machine.memory import (PERM_RW, PERM_RX, PERM_X, Memory,
                                  AccessFault)

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000

#: Extra cycles charged when a branch is taken (front-end redirect).
TAKEN_BRANCH_PENALTY = 1


# -- opcode handlers ----------------------------------------------------------
#
# One module-level function per opcode, signature
# ``handler(cpu, instr, pc, regs) -> StopInfo | None``.  Each handler is
# responsible for setting ``cpu.pc``; fault returns leave ``cpu.pc``
# untouched (matching the old chain, which skipped the final pc update
# on every early return).  The table below is built once at import.


def _h_add(cpu, instr, pc, regs):
    a, b = regs[instr.rs], regs[instr.rt]
    regs[instr.rd] = (a + b) & _MASK
    cpu.flags = flags_from_add(a, b)
    cpu.pc = pc + 4


def _h_sub(cpu, instr, pc, regs):
    a, b = regs[instr.rs], regs[instr.rt]
    regs[instr.rd] = (a - b) & _MASK
    cpu.flags = flags_from_sub(a, b)
    cpu.pc = pc + 4


def _h_and(cpu, instr, pc, regs):
    result = regs[instr.rs] & regs[instr.rt]
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_or(cpu, instr, pc, regs):
    result = regs[instr.rs] | regs[instr.rt]
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_xor(cpu, instr, pc, regs):
    result = regs[instr.rs] ^ regs[instr.rt]
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_shl(cpu, instr, pc, regs):
    result = (regs[instr.rs] << (regs[instr.rt] & 31)) & _MASK
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_shr(cpu, instr, pc, regs):
    result = regs[instr.rs] >> (regs[instr.rt] & 31)
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_sar(cpu, instr, pc, regs):
    value = regs[instr.rs]
    if value & _SIGN:
        value -= 0x100000000
    result = (value >> (regs[instr.rt] & 31)) & _MASK
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_mul(cpu, instr, pc, regs):
    result = (regs[instr.rs] * regs[instr.rt]) & _MASK
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_div(cpu, instr, pc, regs):
    divisor = regs[instr.rt]
    if divisor == 0:
        return StopInfo(StopReason.FAULT, pc,
                        fault=FaultKind.DIV_BY_ZERO, fault_addr=pc)
    result = regs[instr.rs] // divisor
    regs[instr.rd] = result & _MASK
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_mod(cpu, instr, pc, regs):
    divisor = regs[instr.rt]
    if divisor == 0:
        return StopInfo(StopReason.FAULT, pc,
                        fault=FaultKind.DIV_BY_ZERO, fault_addr=pc)
    result = regs[instr.rs] % divisor
    regs[instr.rd] = result & _MASK
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_cmp(cpu, instr, pc, regs):
    cpu.flags = flags_from_sub(regs[instr.rs], regs[instr.rt])
    cpu.pc = pc + 4


def _h_test(cpu, instr, pc, regs):
    cpu.flags = flags_from_logic(regs[instr.rs] & regs[instr.rt])
    cpu.pc = pc + 4


def _h_neg(cpu, instr, pc, regs):
    a = regs[instr.rs]
    regs[instr.rd] = (-a) & _MASK
    cpu.flags = flags_from_sub(0, a)
    cpu.pc = pc + 4


def _h_not(cpu, instr, pc, regs):
    result = (~regs[instr.rs]) & _MASK
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_addi(cpu, instr, pc, regs):
    a = regs[instr.rs]
    regs[instr.rd] = (a + instr.imm) & _MASK
    cpu.flags = flags_from_add(a, instr.imm & _MASK)
    cpu.pc = pc + 4


def _h_subi(cpu, instr, pc, regs):
    a = regs[instr.rs]
    regs[instr.rd] = (a - instr.imm) & _MASK
    cpu.flags = flags_from_sub(a, instr.imm & _MASK)
    cpu.pc = pc + 4


def _h_andi(cpu, instr, pc, regs):
    result = regs[instr.rs] & (instr.imm & _MASK)
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_ori(cpu, instr, pc, regs):
    result = regs[instr.rs] | (instr.imm & _MASK)
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_xori(cpu, instr, pc, regs):
    result = regs[instr.rs] ^ (instr.imm & _MASK)
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_cmpi(cpu, instr, pc, regs):
    cpu.flags = flags_from_sub(regs[instr.rs], instr.imm & _MASK)
    cpu.pc = pc + 4


def _h_shli(cpu, instr, pc, regs):
    result = (regs[instr.rs] << (instr.imm & 31)) & _MASK
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_shri(cpu, instr, pc, regs):
    result = regs[instr.rs] >> (instr.imm & 31)
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_muli(cpu, instr, pc, regs):
    result = (regs[instr.rs] * instr.imm) & _MASK
    regs[instr.rd] = result
    cpu.flags = flags_from_logic(result)
    cpu.pc = pc + 4


def _h_mov(cpu, instr, pc, regs):
    regs[instr.rd] = regs[instr.rs]
    cpu.pc = pc + 4


def _h_movi(cpu, instr, pc, regs):
    regs[instr.rd] = instr.imm & _MASK
    cpu.pc = pc + 4


def _h_movhi(cpu, instr, pc, regs):
    regs[instr.rd] = (instr.imm & 0xFFFF) << 16
    cpu.pc = pc + 4


def _h_movlo(cpu, instr, pc, regs):
    regs[instr.rd] = (regs[instr.rd] & 0xFFFF0000) | (instr.imm & 0xFFFF)
    cpu.pc = pc + 4


def _h_lea(cpu, instr, pc, regs):
    regs[instr.rd] = (regs[instr.rs] + instr.imm) & _MASK
    cpu.pc = pc + 4


def _h_lea3(cpu, instr, pc, regs):
    regs[instr.rd] = (regs[instr.rs] + regs[instr.rt]) & _MASK
    cpu.pc = pc + 4


def _h_lsub(cpu, instr, pc, regs):
    regs[instr.rd] = (regs[instr.rs] - regs[instr.rt]) & _MASK
    cpu.pc = pc + 4


def _h_fadd(cpu, instr, pc, regs):
    regs[instr.rd] = (regs[instr.rs] + regs[instr.rt]) & _MASK
    cpu.pc = pc + 4


def _h_fsub(cpu, instr, pc, regs):
    regs[instr.rd] = (regs[instr.rs] - regs[instr.rt]) & _MASK
    cpu.pc = pc + 4


def _h_fmul(cpu, instr, pc, regs):
    regs[instr.rd] = (regs[instr.rs] * regs[instr.rt]) & _MASK
    cpu.pc = pc + 4


def _h_fdiv(cpu, instr, pc, regs):
    divisor = regs[instr.rt]
    if divisor == 0:
        return StopInfo(StopReason.FAULT, pc,
                        fault=FaultKind.DIV_BY_ZERO, fault_addr=pc)
    regs[instr.rd] = (regs[instr.rs] // divisor) & _MASK
    cpu.pc = pc + 4


def _h_ld(cpu, instr, pc, regs):
    regs[instr.rd] = cpu.memory.load_word(
        (regs[instr.rs] + instr.imm) & _MASK)
    cpu.pc = pc + 4


def _h_st(cpu, instr, pc, regs):
    cpu.memory.store_word((regs[instr.rs] + instr.imm) & _MASK,
                          regs[instr.rd])
    cpu.pc = pc + 4


def _h_ldb(cpu, instr, pc, regs):
    regs[instr.rd] = cpu.memory.load_byte(
        (regs[instr.rs] + instr.imm) & _MASK)
    cpu.pc = pc + 4


def _h_stb(cpu, instr, pc, regs):
    cpu.memory.store_byte((regs[instr.rs] + instr.imm) & _MASK,
                          regs[instr.rd])
    cpu.pc = pc + 4


def _h_push(cpu, instr, pc, regs):
    sp = (regs[15] - 4) & _MASK
    cpu.memory.store_word(sp, regs[instr.rd])
    regs[15] = sp
    cpu.pc = pc + 4


def _h_pop(cpu, instr, pc, regs):
    sp = regs[15]
    regs[instr.rd] = cpu.memory.load_word(sp)
    regs[15] = (sp + 4) & _MASK
    cpu.pc = pc + 4


def _h_jmp(cpu, instr, pc, regs):
    if cpu.branch_profiler is not None:
        cpu.branch_profiler.record(pc, instr, True, cpu.flags)
    cpu.cycles += TAKEN_BRANCH_PENALTY
    cpu.pc = pc + 4 + instr.imm * 4


def _make_cond_branch(cond):
    def handler(cpu, instr, pc, regs):
        taken = evaluate_cond(cond, cpu.flags)
        if cpu.branch_profiler is not None:
            cpu.branch_profiler.record(pc, instr, taken, cpu.flags)
        if taken:
            cpu.cycles += TAKEN_BRANCH_PENALTY
            cpu.pc = pc + 4 + instr.imm * 4
        else:
            cpu.pc = pc + 4
    return handler


def _h_jrz(cpu, instr, pc, regs):
    taken = regs[instr.rd] == 0
    if cpu.branch_profiler is not None:
        cpu.branch_profiler.record(pc, instr, taken, cpu.flags)
    if taken:
        cpu.cycles += TAKEN_BRANCH_PENALTY
        cpu.pc = pc + 4 + instr.imm * 4
    else:
        cpu.pc = pc + 4


def _h_jrnz(cpu, instr, pc, regs):
    taken = regs[instr.rd] != 0
    if cpu.branch_profiler is not None:
        cpu.branch_profiler.record(pc, instr, taken, cpu.flags)
    if taken:
        cpu.cycles += TAKEN_BRANCH_PENALTY
        cpu.pc = pc + 4 + instr.imm * 4
    else:
        cpu.pc = pc + 4


def _h_call(cpu, instr, pc, regs):
    sp = (regs[15] - 4) & _MASK
    cpu.memory.store_word(sp, pc + 4)
    regs[15] = sp
    if cpu.branch_profiler is not None:
        cpu.branch_profiler.record(pc, instr, True, cpu.flags)
    cpu.cycles += TAKEN_BRANCH_PENALTY
    cpu.pc = pc + 4 + instr.imm * 4


def _h_jmpr(cpu, instr, pc, regs):
    cpu.cycles += TAKEN_BRANCH_PENALTY
    cpu.pc = regs[instr.rd]


def _h_callr(cpu, instr, pc, regs):
    sp = (regs[15] - 4) & _MASK
    cpu.memory.store_word(sp, pc + 4)
    regs[15] = sp
    cpu.cycles += TAKEN_BRANCH_PENALTY
    cpu.pc = regs[instr.rd]


def _h_ret(cpu, instr, pc, regs):
    sp = regs[15]
    target = cpu.memory.load_word(sp)
    regs[15] = (sp + 4) & _MASK
    cpu.cycles += TAKEN_BRANCH_PENALTY
    cpu.pc = target


def _make_cmov(cond):
    def handler(cpu, instr, pc, regs):
        if evaluate_cond(cond, cpu.flags):
            regs[instr.rd] = regs[instr.rs]
        cpu.pc = pc + 4
    return handler


def _h_syscall(cpu, instr, pc, regs):
    if syscalls.handle_syscall(cpu, instr.imm):
        cpu.pc = pc + 4
        return StopInfo(StopReason.HALTED, pc, exit_code=cpu.exit_code)
    cpu.pc = pc + 4


def _h_halt(cpu, instr, pc, regs):
    cpu.pc = pc + 4
    return StopInfo(StopReason.HALTED, pc, exit_code=0)


def _h_nop(cpu, instr, pc, regs):
    cpu.pc = pc + 4


def _h_trap(cpu, instr, pc, regs):
    cpu.pc = pc + 4
    return StopInfo(StopReason.TRAP, pc, trap_no=instr.imm)


def _h_illegal(cpu, instr, pc, regs):  # pragma: no cover - decode rejects
    return StopInfo(StopReason.FAULT, pc,
                    fault=FaultKind.ILLEGAL_INSTRUCTION, fault_addr=pc)


def _build_dispatch() -> list:
    table = [_h_illegal] * 256
    fixed = {
        Op.ADD: _h_add, Op.SUB: _h_sub, Op.AND: _h_and, Op.OR: _h_or,
        Op.XOR: _h_xor, Op.SHL: _h_shl, Op.SHR: _h_shr, Op.SAR: _h_sar,
        Op.MUL: _h_mul, Op.DIV: _h_div, Op.MOD: _h_mod, Op.CMP: _h_cmp,
        Op.TEST: _h_test, Op.NEG: _h_neg, Op.NOT: _h_not,
        Op.ADDI: _h_addi, Op.SUBI: _h_subi, Op.ANDI: _h_andi,
        Op.ORI: _h_ori, Op.XORI: _h_xori, Op.CMPI: _h_cmpi,
        Op.SHLI: _h_shli, Op.SHRI: _h_shri, Op.MULI: _h_muli,
        Op.MOV: _h_mov, Op.MOVI: _h_movi, Op.MOVHI: _h_movhi,
        Op.MOVLO: _h_movlo, Op.LEA: _h_lea, Op.LEA3: _h_lea3,
        Op.LSUB: _h_lsub,
        Op.FADD: _h_fadd, Op.FSUB: _h_fsub, Op.FMUL: _h_fmul,
        Op.FDIV: _h_fdiv,
        Op.LD: _h_ld, Op.ST: _h_st, Op.LDB: _h_ldb, Op.STB: _h_stb,
        Op.PUSH: _h_push, Op.POP: _h_pop,
        Op.JMP: _h_jmp, Op.JRZ: _h_jrz, Op.JRNZ: _h_jrnz,
        Op.CALL: _h_call, Op.JMPR: _h_jmpr, Op.CALLR: _h_callr,
        Op.RET: _h_ret,
        Op.SYSCALL: _h_syscall, Op.HALT: _h_halt, Op.NOP: _h_nop,
        Op.TRAP: _h_trap,
    }
    for op, handler in fixed.items():
        table[op] = handler
    # Jcc and CMOVcc get per-condition specialized handlers, so the
    # condition is bound at table-build time instead of re-read per step.
    for op, info in OP_TABLE.items():
        if info.kind is Kind.BRANCH_COND:
            table[op] = _make_cond_branch(info.cond)
        elif info.cond is not None:  # CMOVcc (R2 format)
            table[op] = _make_cmov(info.cond)
    return table


#: Per-opcode handler table, indexed by the 8-bit opcode value.
DISPATCH: list = _build_dispatch()


class _ObsBranchCounter:
    """Branch-mix tally installed in the profiler slot while a metrics
    registry is active and the slot is otherwise free.  ``check_sites``
    (the DBT's set of emitted CHECK_SIG branch addresses) additionally
    counts signature checks actually executed."""

    __slots__ = ("taken", "not_taken", "checks", "check_sites")

    def __init__(self, check_sites: set | None):
        self.taken = 0
        self.not_taken = 0
        self.checks = 0
        self.check_sites = check_sites

    def record(self, pc, instr, taken, flags) -> None:
        if taken:
            self.taken += 1
        else:
            self.not_taken += 1
        sites = self.check_sites
        if sites is not None and pc in sites:
            self.checks += 1


class Cpu:
    """One R32 hardware thread plus its memory."""

    def __init__(self, memory: Memory | None = None):
        self.memory = memory if memory is not None else Memory(MEMORY_SIZE)
        self.regs: list[int] = [0] * 32
        self.flags: int = 0
        self.pc: int = 0
        self.cycles: int = 0
        self.icount: int = 0
        self.output: list[str] = []
        self.output_values: list[int] = []
        self.exit_code: int | None = None
        #: optional syscall trace: set to a list to capture every
        #: executed service as ``(number, r1)`` — the differential
        #: fuzzing oracle diffs this against the golden run.  None
        #: (the default) records nothing.
        self.syscall_trace: list | None = None
        #: set by the CFC_ERROR syscall when an instrumented check fires
        self.cfc_error: bool = False
        #: fault-injection hooks armed per site: pc -> hook, called as
        #: hook(cpu, pc, instr) before the branch at that pc executes;
        #: may return a replacement Instruction.  Branches at unarmed
        #: pcs run at full speed on every backend.
        self.branch_hooks: dict = {}
        #: profiling hook: called as profiler.record(pc, instr, taken,
        #: flags) after every direct branch resolves.
        self.branch_profiler = None
        #: chained external write watcher (the DBT's SMC detector)
        self._external_write_watch = None
        #: execution backend (repro.exec); None means the reference
        #: interpreter loop runs directly with zero added overhead.
        self.backend = None
        #: backend's write watcher (block invalidation on SMC stores)
        self._backend_write_watch = None
        #: set by the DBT: cache addresses of emitted CHECK_SIG branch
        #: instructions, so the observability branch counter can report
        #: signature checks *executed* (only consulted when a metrics
        #: registry is installed).
        self.obs_check_sites: set[int] | None = None
        #: one-shot scheduled event: (icount, callable) applied just
        #: before the instruction with that dynamic index executes —
        #: the data-fault injection primitive.
        self.scheduled_fault: tuple[int, object] | None = None
        #: guest-thread support (repro.threads): set to the owning
        #: ThreadedMachine to activate syscalls 16..22.  None (the
        #: default) keeps those services no-ops — single-threaded runs
        #: behave exactly as before the threads subsystem existed.
        self.thread_api = None
        #: pending thread-service request: ``(service_number,)`` set by
        #: handle_syscall when a thread syscall traps to the scheduler.
        #: The run loop stops (HALTED) with the pc already past the
        #: syscall; the machine consumes the request and resumes.
        self.thread_request: int | None = None
        #: guest thread id currently executing (0 outside MT runs) —
        #: read by thread-targeted fault injectors and forensics.
        self.current_tid: int = 0
        #: pc -> (instr, meta, handler, is_branch)
        self._dcache: dict[int, tuple] = {}
        self.memory.write_watch = self._on_write

    # -- setup -------------------------------------------------------------

    def load_program(self, program, executable_text: bool = True) -> None:
        """Load a :class:`~repro.isa.program.Program` image.

        ``executable_text=False`` is the DBT configuration: guest code is
        data to the translator and only the code cache is executable.
        """
        mem = self.memory
        mem.write_raw(program.text_base, program.text)
        if program.data:
            mem.write_raw(program.data_base, program.data)
        text_perm = PERM_RX if executable_text else PERM_RW
        mem.set_perms(program.text_base, max(len(program.text), 1),
                      text_perm)
        data_len = max(len(program.data), 1)
        mem.set_perms(program.data_base, max(data_len, 0x8000), PERM_RW)
        # Stack: grows down from STACK_TOP.
        mem.set_perms(STACK_TOP - 0x10000, 0x10000, PERM_RW)
        self.pc = program.entry
        self.regs[15] = STACK_TOP - 16  # sp
        self._dcache.clear()

    def unlink(self) -> None:
        """Unlink the machine's parts so reference counting frees it as
        soon as the last reference to the CPU goes: the memory's
        watchers, the backend and its compiled blocks, the hooks, the
        profiler and the threaded machine all point back at the CPU.
        The final state stays readable, but the CPU must not run
        again."""
        memory = self.memory
        memory.write_watch = memory.perm_watch = None
        self._backend_write_watch = self._external_write_watch = None
        self.branch_hooks = {}
        self.branch_profiler = None
        self.scheduled_fault = None
        self.thread_api = None
        backend = self.backend
        if backend is not None:
            # Compiled blocks link to each other and to the backend.
            backend.flush()
            backend.cpu = None
            self.backend = None

    def set_external_write_watch(self, watch) -> None:
        """Chain a second write watcher (used by the DBT for SMC)."""
        self._external_write_watch = watch

    def _on_write(self, addr: int, length: int) -> None:
        if self._dcache:
            for word_addr in range(addr & ~3, addr + length, 4):
                self._dcache.pop(word_addr, None)
        if self._backend_write_watch is not None:
            self._backend_write_watch(addr, length)
        if self._external_write_watch is not None:
            self._external_write_watch(addr, length)

    # -- helpers -----------------------------------------------------------

    def signed(self, reg: int) -> int:
        value = self.regs[reg]
        return value - 0x100000000 if value & _SIGN else value

    @staticmethod
    def _cache_entry(instr: Instruction) -> tuple:
        meta = instr.meta
        return (instr, meta, DISPATCH[instr.op], meta.is_branch)

    def _decode_at(self, pc: int) -> Instruction:
        cached = self._dcache.get(pc)
        if cached is None:
            word = int.from_bytes(self.memory.data[pc:pc + 4], "little")
            instr = decode(word)  # may raise DecodeError
            self._dcache[pc] = self._cache_entry(instr)
            return instr
        return cached[0]

    # -- main loop -----------------------------------------------------------

    def run(self, max_steps: int = 50_000_000,
            max_cycles: int | None = None) -> StopInfo:
        """Execute until halt, trap, fault, or a budget limit.

        When a metrics registry is installed this delegates to the
        observed wrapper; otherwise it enters the hot loop directly —
        the disabled cost of observability is this one ``None`` check
        per ``run`` call, never anything per instruction.
        """
        registry = obs.get_registry()
        if registry is None:
            if self.backend is None:
                return self._run_loop(max_steps, max_cycles)
            return self.backend.run(self, max_steps, max_cycles)
        return self._run_observed(registry, max_steps, max_cycles)

    def _run_observed(self, registry, max_steps: int,
                      max_cycles: int | None) -> StopInfo:
        """Hot loop plus instruction/cycle/branch-mix accounting."""
        branch_counter = None
        if self.branch_profiler is None:
            branch_counter = _ObsBranchCounter(self.obs_check_sites)
            self.branch_profiler = branch_counter
        icount_before = self.icount
        cycles_before = self.cycles
        try:
            if self.backend is None:
                return self._run_loop(max_steps, max_cycles)
            return self.backend.run(self, max_steps, max_cycles)
        finally:
            registry.counter(
                "interp_instructions_total",
                help="guest instructions retired").inc(
                self.icount - icount_before)
            registry.counter(
                "interp_cycles_total",
                help="model cycles charged").inc(
                self.cycles - cycles_before)
            if branch_counter is not None:
                self.branch_profiler = None
                if branch_counter.taken:
                    registry.counter(
                        "interp_branches_total",
                        help="direct branches executed",
                        direction="taken").inc(branch_counter.taken)
                if branch_counter.not_taken:
                    registry.counter(
                        "interp_branches_total",
                        help="direct branches executed",
                        direction="not_taken").inc(
                        branch_counter.not_taken)
                if branch_counter.checks:
                    registry.counter(
                        "dbt_checks_executed_total",
                        help="signature-check branches executed").inc(
                        branch_counter.checks)

    def _run_loop(self, max_steps: int,
                  max_cycles: int | None) -> StopInfo:
        regs = self.regs
        mem = self.memory
        perms = mem.perms
        data = mem.data
        dcache = self._dcache
        size = mem.size
        dispatch = DISPATCH
        steps = 0
        cycle_cap = max_cycles if max_cycles is not None else None
        try:
            while True:
                if steps >= max_steps:
                    return StopInfo(StopReason.STEP_LIMIT, self.pc)
                if cycle_cap is not None and self.cycles >= cycle_cap:
                    return StopInfo(StopReason.CYCLE_LIMIT, self.pc)
                steps += 1
                pc = self.pc
                if pc & 3:
                    return StopInfo(StopReason.FAULT, pc,
                                    fault=FaultKind.UNALIGNED,
                                    fault_addr=pc)
                if not 0 <= pc < size or not (perms[pc >> 12] & PERM_X):
                    return StopInfo(StopReason.FAULT, pc,
                                    fault=FaultKind.NX_VIOLATION,
                                    fault_addr=pc)
                cached = dcache.get(pc)
                if cached is None:
                    word = int.from_bytes(data[pc:pc + 4], "little")
                    try:
                        instr = decode(word)
                    except DecodeError:
                        return StopInfo(
                            StopReason.FAULT, pc,
                            fault=FaultKind.ILLEGAL_INSTRUCTION,
                            fault_addr=pc)
                    meta = instr.meta
                    handler = dispatch[instr.op]
                    is_branch = meta.is_branch
                    dcache[pc] = (instr, meta, handler, is_branch)
                else:
                    instr, meta, handler, is_branch = cached
                if is_branch and self.branch_hooks:
                    hook = self.branch_hooks.get(pc)
                    if hook is not None:
                        replacement = hook(self, pc, instr)
                        if replacement is not None:
                            instr = replacement
                            meta = instr.meta
                            handler = dispatch[instr.op]
                if (self.scheduled_fault is not None
                        and self.icount >= self.scheduled_fault[0]):
                    apply_fault = self.scheduled_fault[1]
                    self.scheduled_fault = None
                    apply_fault(self)
                self.icount += 1
                self.cycles += meta.cycles
                stop = handler(self, instr, pc, regs)
                if stop is not None:
                    return stop
        except AccessFault as fault:
            return StopInfo(StopReason.FAULT, self.pc, fault=fault.kind,
                            fault_addr=fault.addr)

    def step(self) -> StopInfo | None:
        """Execute exactly one instruction; None means 'keep going'."""
        result = self.run(max_steps=1)
        return None if result.reason is StopReason.STEP_LIMIT else result

    # -- execution ------------------------------------------------------------

    def _execute(self, instr: Instruction, pc: int,
                 regs: list[int]) -> StopInfo | None:
        """Execute one decoded instruction (dispatch-table lookup).

        Kept as the single-instruction entry point for tests and tools;
        the hot loop in :meth:`run` inlines the same dispatch.
        """
        return DISPATCH[instr.op](self, instr, pc, regs)
