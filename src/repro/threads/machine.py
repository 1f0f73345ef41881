"""The multithreaded guest machine: one CPU, many thread contexts.

:class:`ThreadedMachine` multiplexes guest threads over the single
shared :class:`~repro.machine.cpu.Cpu` by context switching — saving
and restoring the full architectural register file (guest r0..r15 plus
the host-only r16+ bank the checking techniques use for signature
state), FLAGS and the pc.  Threads are created and synchronized by
guest syscalls (services 16..22, see
:class:`~repro.machine.syscalls.Service`), which trap out of the run
loop on *both* execution backends: a syscall always ends a compiled
trace too, so the machine regains control at exactly the same retired
instruction on the interpreter and the block-compiling tier.

Everything is deterministic: preemption is a fixed quantum in retired
instructions, policy tie-breaks are seeded, and the machine records a
**schedule trace** — ``(icount, tid, event)`` triples — that the fuzz
digest oracle hashes alongside outputs to prove interp/block parity on
threaded programs.

Signature swapping
------------------

With ``sig_swap=True`` (the default) the context switch is a full
32-register swap, so every checker's signature registers (ECF's PCP
and call-stack shadow RTS, CFCSS/ECCA's G/D) are thread-private:
Technique x Policy verification is correct across switches, exactly as
Khoshavi et al. (arXiv:1607.07727) prescribe for multithreaded
signature monitoring.

With ``sig_swap=False`` the machine models a runtime that does *not*
treat checker state as part of the thread context: at every switch-in
the signature registers are instead **resynchronized** to the
statically-expected fault-free values at the resume pc (an abstract
interpretation over the instrumented program; see
:mod:`repro.threads.resync`).  Fault-free runs are unaffected — the
resync writes the same values a swap would have restored — but a fault
whose only evidence is a *corrupted signature register pending its
next check* has that evidence wiped by the first preemption, turning a
would-be detection into a silent cross-context escape.  This is the
escape class the multithreaded-CFE literature predicts, made
reproducible on demand.

The machine also exposes the scheduler's own state to the fault
injector (:class:`SchedFaultSpec` in :mod:`repro.faults.injector`):
bit flips in a saved (switched-out) context and ready-queue
perturbations, applied at an exact context-switch ordinal.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.machine.faults import StopInfo, StopReason
from repro.isa.program import STACK_TOP
from repro.threads.context import (BLOCKED, EXITED, READY, RUNNING,
                                   ThreadContext)
from repro.threads.scheduler import DEFAULT_QUANTUM, DeterministicScheduler

#: Hard cap on live + exited threads per run (stacks are carved from
#: the program's RW stack region: tid i's stack top sits STACK_SLOT
#: bytes below tid i-1's).
MAX_THREADS = 16

#: Per-thread stack slot in bytes.
STACK_SLOT = 0x1000

#: SPAWN/JOIN error result (guest-visible).
INVALID_TID = 0xFFFFFFFF


class SchedState(NamedTuple):
    """:meth:`ThreadedMachine.snapshot`: everything of the machine
    outside the CPU and memory.  The trace length comes last, so
    ``state[:-1]`` is the part a run's future depends on."""

    current: int
    next_tid: int
    quantum_left: int
    #: context switches made so far (``SchedFaultSpec`` ordinals)
    switches: int
    #: sorted (tid, ``ThreadContext.snapshot()``) pairs
    contexts: tuple
    #: ``DeterministicScheduler.snapshot()``: ready queue and RNG
    scheduler: tuple
    mutex_owner: tuple
    mutex_waiters: tuple
    deadlocked: bool
    trace_len: int


class ThreadedMachine:
    """Deterministic preemptive multithreading over one shared Cpu."""

    def __init__(self, cpu, *, quantum: int = DEFAULT_QUANTUM,
                 policy: str = "rr", seed: int = 0,
                 sig_swap: bool = True,
                 sig_regs: tuple[int, ...] = (),
                 resync_table: dict | None = None,
                 entry_map=None,
                 spawn_sig_init: dict | None = None):
        self.cpu = cpu
        self.scheduler = DeterministicScheduler(quantum=quantum,
                                                policy=policy, seed=seed)
        self.sig_swap = sig_swap
        self.sig_regs = tuple(sig_regs)
        self.resync_table = resync_table or {}
        #: optional old->instrumented address map applied to SPAWN
        #: entry points (the static rewriter relocates code, but the
        #: guest's ``const rX, fn`` immediates still hold original
        #: addresses — the machine plays loader)
        self.entry_map = entry_map
        #: ``old entry -> {reg: value}``: signature-register values a
        #: spawned thread starts with (the technique's prologue
        #: invariant re-established for the worker entry — a fresh
        #: thread has no control-flow history, so without this the
        #: worker's first CHECK_SIG would fire on a clean run).  Built
        #: by :func:`repro.threads.resync.build_spawn_sig_table`; None
        #: for uninstrumented programs.
        self.spawn_sig_init = spawn_sig_init
        #: (icount, tid, event) triples; hashed into the run digest
        self.trace: list[tuple[int, int, str]] = []
        #: context switches performed (SchedFaultSpec ordinals)
        self.switches = 0
        #: scheduler-state fault to apply (set by the pipeline)
        self.sched_fault = None
        self.deadlocked = False
        self.mutex_owner: dict[int, int | None] = {}
        self.mutex_waiters: dict[int, list[int]] = {}
        # Thread 0 adopts the CPU state load_program set up.
        main = ThreadContext(tid=0, pc=cpu.pc, regs=list(cpu.regs),
                             flags=cpu.flags, state=RUNNING)
        self.contexts: dict[int, ThreadContext] = {0: main}
        self.current = 0
        self._next_tid = 1
        self._quantum_left = self.scheduler.quantum
        cpu.thread_api = self
        cpu.current_tid = 0
        self._event("start", 0)

    # -- bookkeeping ---------------------------------------------------

    def _event(self, event: str, tid: int) -> None:
        self.trace.append((self.cpu.icount, tid, event))

    def live_threads(self) -> int:
        return sum(1 for ctx in self.contexts.values()
                   if ctx.state != EXITED)

    def thread_count(self) -> int:
        return len(self.contexts)

    # -- context switching ---------------------------------------------

    def _save_current(self) -> ThreadContext:
        cpu = self.cpu
        ctx = self.contexts[self.current]
        ctx.regs = list(cpu.regs)
        ctx.flags = cpu.flags
        ctx.pc = cpu.pc
        return ctx

    def _resync_signatures(self) -> None:
        """Overwrite signature registers with their statically-expected
        fault-free values at the resume pc (``sig_swap=False`` only).

        A register whose expected value is unknown at this pc (TOP in
        the abstract interpretation, e.g. ECF's call-stack shadow deep
        in an unbounded call chain) keeps its restored value — the
        resync only wipes evidence where the static model is sure."""
        expected = self.resync_table.get(self.cpu.pc)
        if not expected:
            return
        regs = self.cpu.regs
        for reg in self.sig_regs:
            value = expected.get(reg)
            if value is not None:
                regs[reg] = value

    def _switch_in(self, tid: int) -> None:
        cpu = self.cpu
        ctx = self.contexts[tid]
        cpu.regs[:] = ctx.regs
        cpu.flags = ctx.flags
        cpu.pc = ctx.pc
        ctx.state = RUNNING
        self.current = tid
        cpu.current_tid = tid
        self.switches += 1
        self._quantum_left = self.scheduler.quantum
        if not self.sig_swap:
            self._resync_signatures()
        fault = self.sched_fault
        if fault is not None and not fault.fired:
            fault.on_switch(self)
        self._event("switch", tid)

    def _end_turn(self, outgoing_ready: bool) -> bool:
        """Save the current context and run the next ready thread.

        Returns False when no thread can run (all exited, or
        deadlock).  ``outgoing_ready`` re-queues the current thread
        (preempt/yield) rather than leaving it blocked/exited.
        """
        ctx = self._save_current()
        if outgoing_ready:
            ctx.state = READY
            self.scheduler.enqueue(ctx.tid)
        nxt = self.scheduler.pick(
            lambda tid: self.contexts[tid].priority)
        if nxt is None:
            return False
        self._switch_in(nxt)
        return True

    # -- guest thread services (trap targets) --------------------------

    def _service(self, number: int) -> bool:
        """Handle one thread syscall.  Returns True while the machine
        still has a runnable thread (the current one or a switched-in
        successor); False means nothing can run."""
        from repro.machine.syscalls import Service
        cpu = self.cpu
        regs = cpu.regs
        if number == Service.SPAWN:
            regs[0] = self._spawn(regs[1], regs[2], regs[3])
            return True
        if number == Service.JOIN:
            return self._join(regs[1] & 0xFFFFFFFF)
        if number == Service.YIELD:
            self._event("yield", self.current)
            return self._end_turn(outgoing_ready=True)
        if number == Service.MUTEX_LOCK:
            return self._mutex_lock(regs[1] & 0xFFFFFFFF)
        if number == Service.MUTEX_UNLOCK:
            self._mutex_unlock(regs[1] & 0xFFFFFFFF)
            return True
        if number == Service.TID:
            regs[0] = self.current
            return True
        if number == Service.THREAD_EXIT:
            return self._thread_exit(regs[1] & 0xFFFFFFFF)
        return True  # unreachable: handle_syscall gates 16..22

    def _spawn(self, entry: int, arg: int, priority: int) -> int:
        if self._next_tid >= MAX_THREADS:
            return INVALID_TID
        tid = self._next_tid
        self._next_tid += 1
        sig_init = None
        if self.spawn_sig_init is not None:
            sig_init = self.spawn_sig_init.get(entry)
        if self.entry_map is not None:
            entry = self.entry_map(entry)
        ctx = ThreadContext(tid=tid, pc=entry, state=READY,
                            priority=priority
                            if priority < 0x80000000
                            else priority - 0x100000000)
        ctx.regs[1] = arg & 0xFFFFFFFF
        if sig_init:
            for reg, value in sig_init.items():
                ctx.regs[reg] = value
        ctx.regs[15] = STACK_TOP - tid * STACK_SLOT - 16
        self.contexts[tid] = ctx
        self.scheduler.enqueue(tid)
        self._event("spawn", tid)
        return tid

    def _join(self, target_tid: int) -> bool:
        cpu = self.cpu
        target = self.contexts.get(target_tid)
        if target is None or target_tid == self.current:
            cpu.regs[0] = INVALID_TID
            return True
        if target.state == EXITED:
            cpu.regs[0] = target.retval
            return True
        target.joiners.append(self.current)
        ctx = self.contexts[self.current]
        ctx.waiting_on = ("join", target_tid)
        self._event("block-join", self.current)
        ctx_saved = self._end_turn(outgoing_ready=False)
        ctx.state = BLOCKED if ctx.state == RUNNING else ctx.state
        return ctx_saved

    def _mutex_lock(self, mid: int) -> bool:
        owner = self.mutex_owner.get(mid)
        if owner is None or owner == self.current:
            self.mutex_owner[mid] = self.current
            return True
        self.mutex_waiters.setdefault(mid, []).append(self.current)
        ctx = self.contexts[self.current]
        ctx.waiting_on = ("mutex", mid)
        self._event("block-mutex", self.current)
        switched = self._end_turn(outgoing_ready=False)
        ctx.state = BLOCKED if ctx.state == RUNNING else ctx.state
        return switched

    def _mutex_unlock(self, mid: int) -> None:
        if self.mutex_owner.get(mid) != self.current:
            return  # unlocking an unheld mutex: deterministic no-op
        waiters = self.mutex_waiters.get(mid)
        if waiters:
            nxt = waiters.pop(0)
            self.mutex_owner[mid] = nxt
            self._wake(nxt)
        else:
            self.mutex_owner[mid] = None

    def _wake(self, tid: int) -> None:
        ctx = self.contexts[tid]
        ctx.state = READY
        ctx.waiting_on = None
        self.scheduler.enqueue(tid)
        self._event("wake", tid)

    def _thread_exit(self, retval: int) -> bool:
        ctx = self.contexts[self.current]
        ctx.retval = retval
        self._event("exit", self.current)
        for joiner_tid in ctx.joiners:
            joiner = self.contexts[joiner_tid]
            joiner.regs[0] = retval
            self._wake(joiner_tid)
        ctx.joiners = []
        switched = self._end_turn(outgoing_ready=False)
        ctx.state = EXITED
        return switched

    # -- the run loop --------------------------------------------------

    def run(self, max_steps: int) -> StopInfo:
        """Run until the machine halts, faults, or exhausts the budget.

        Semantics of the returned stop, mirroring ``Cpu.run``:

        * HALTED — a thread executed EXIT (whole-machine exit, like a
          process ``exit()``), a CHECK reported CFC_ERROR (fail-stop
          detection), or every thread ran to THREAD_EXIT;
        * FAULT — a hardware protection mechanism fired in some thread
          (the machine fail-stops: category-F detection);
        * STEP_LIMIT — the budget ran out, or every live thread is
          blocked (``self.deadlocked`` distinguishes the two).
        """
        cpu = self.cpu
        budget = max_steps
        while True:
            if budget <= 0:
                return StopInfo(StopReason.STEP_LIMIT, cpu.pc)
            # Solo fast path: with an empty ready queue there is no
            # preemption target — a quantum expiry would save and
            # restore the *same* thread.  Under signature swapping that
            # self-switch is a pure no-op, and blocked threads can only
            # be woken by the current thread's own syscalls (which trap
            # out of cpu.run regardless), so the whole remaining budget
            # can run as one chunk — sparing the block backend the
            # per-chunk trampoline re-entry and interpreter tail.
            # Without swapping a self-switch *resynchronizes* signature
            # registers — observable behaviour the escape mode depends
            # on — so the chunked path is kept there.
            solo = self.sig_swap and self.scheduler.ready_count() == 0
            chunk = budget if solo else min(self._quantum_left, budget)
            before = cpu.icount
            stop = cpu.run(max_steps=chunk)
            executed = cpu.icount - before
            budget -= executed
            if not solo:
                self._quantum_left -= executed
            request = cpu.thread_request
            if request is not None:
                cpu.thread_request = None
                if not self._service(request):
                    return self._starved()
                if self._quantum_left <= 0:
                    # The service consumed the turn's last instruction:
                    # preempt before resuming whoever is current.
                    self._event("preempt", self.current)
                    if not self._end_turn(outgoing_ready=True):
                        return self._starved()
                continue
            if stop.reason in (StopReason.STEP_LIMIT,
                               StopReason.CYCLE_LIMIT):
                if budget <= 0:
                    return stop
                # Quantum expiry: preempt.  The outgoing thread goes to
                # the queue tail and the scheduler picks the successor
                # (possibly the same thread — the save/restore still
                # happens, so --no-sig-swap semantics stay uniform).
                self._event("preempt", self.current)
                if not self._end_turn(outgoing_ready=True):
                    return self._starved()
                continue
            # HALTED (EXIT / CFC_ERROR), FAULT, TRAP: machine-wide stop.
            self._event("halt", self.current)
            return stop

    def _starved(self) -> StopInfo:
        """No runnable thread: clean completion or deadlock."""
        cpu = self.cpu
        if self.live_threads() == 0:
            self._event("halt", self.current)
            cpu.exit_code = 0
            return StopInfo(StopReason.HALTED, cpu.pc, exit_code=0)
        self.deadlocked = True
        self._event("deadlock", self.current)
        return StopInfo(StopReason.STEP_LIMIT, cpu.pc)

    # -- schedule-trace digest -----------------------------------------

    def trace_digest(self) -> str:
        """Content hash of the schedule trace (cross-backend oracle)."""
        import hashlib
        hasher = hashlib.sha256()
        for icount, tid, event in self.trace:
            hasher.update(f"{icount}:{tid}:{event};".encode())
        return hasher.hexdigest()[:16]

    # -- checkpoint/rollback support -----------------------------------

    def snapshot(self, previous: SchedState | None = None) -> SchedState:
        """Scheduler-side state, as a ``MachineState`` component.  The
        *current* thread's registers live in the CPU, which the
        ``MachineState`` holds; everything else — other contexts, ready
        queue, mutexes, the quantum in flight and the trace length — is
        captured here.  ``previous`` is unused: snapshots between two
        RNG draws share one RNG state (:meth:`DeterministicScheduler.
        snapshot`), the one large part."""
        return SchedState(
            current=self.current,
            next_tid=self._next_tid,
            quantum_left=self._quantum_left,
            switches=self.switches,
            contexts=tuple(sorted((tid, ctx.snapshot())
                                  for tid, ctx in self.contexts.items())),
            scheduler=self.scheduler.snapshot(),
            mutex_owner=tuple(sorted(self.mutex_owner.items())),
            mutex_waiters=tuple(sorted(
                (mid, tuple(waiters))
                for mid, waiters in self.mutex_waiters.items())),
            deadlocked=self.deadlocked,
            trace_len=len(self.trace))

    def restore(self, snap: SchedState) -> None:
        self.current = snap.current
        self.cpu.current_tid = snap.current
        self._next_tid = snap.next_tid
        self._quantum_left = snap.quantum_left
        self.switches = snap.switches
        self.contexts = {tid: ThreadContext.from_snapshot(ctx_snap)
                         for tid, ctx_snap in snap.contexts}
        self.scheduler.restore(snap.scheduler)
        self.mutex_owner = dict(snap.mutex_owner)
        self.mutex_waiters = {mid: list(waiters)
                              for mid, waiters in snap.mutex_waiters}
        del self.trace[snap.trace_len:]
        self.deadlocked = snap.deadlocked

    def in_state(self, snap: SchedState) -> bool:
        """Is the machine in ``snap``, whatever its trace length?"""
        return self.snapshot()[:-1] == snap[:-1]
