"""Forked fault runs: rewind one machine to a rung of the golden run.

A single-fault run is the golden run until its fault fires, so
everything it does before that point — building a CPU (and a DBT
session), translating and compiling the blocks on the way, executing
the prefix — repeats work the golden run already did.  A
:class:`GoldenLadder` walks the golden run once, on the one machine a
:class:`~repro.faults.campaign.Pipeline` keeps for forked runs, and
stops every :func:`rung_spacing` instructions to record a *rung*:

* a :class:`~repro.machine.state.MachineState`: the CPU's registers,
  counters, latches and output lengths and, under the DBT, the
  translation state and page permissions (:meth:`Dbt.snapshot`), or on
  the multithreaded machine the scheduler side: saved contexts, ready
  queue and RNG, mutexes, the quantum in flight and the switch count
  (:meth:`ThreadedMachine.snapshot`);
* an image of every page the walk has dirtied so far (pages are
  journalled through ``Memory.cow`` with its bound raised to the whole
  memory, so DBT code-cache pages count like any other; an image is
  shared by every rung until its page is dirtied again).

Under recovery the walk also stops at every checkpoint boundary a
:class:`~repro.recovery.RecoveryManager` reaches on the golden run, and
that rung holds the manager's state there (:class:`~repro.recovery.
ResumePoint`): the checkpoints, whose page pre-images are the rung
images, and the interval schedule.

During the walk every branch pc carries one counting hook, so the
ladder knows at which instruction each branch site executed — the
same visits the fault injectors count; on the multithreaded machine
it also records each thread's visits, which a thread-targeted fault
counts alone.  A fault run then forks from the last rung before its
fault fires (a recovery run from the last checkpoint boundary; a
scheduler fault from the last rung that had made fewer context
switches than its ordinal, :meth:`GoldenLadder.switch_point`):
:meth:`GoldenLadder.rewind` restores that rung, the caller installs
the injector with its occurrence count seeded from the rung, and
steps the machine with the fresh run's step budget minus the rung's
icount.  Pages the previous run dirtied come back through
``Memory.restore_page``, one span of changed bytes per page, as in a
recovery rollback, so decode caches and compiled blocks invalidate
exactly as they do there, and blocks on untouched code stay compiled.  A
native or static run on the block backend also goes back to the blocks
the walk compiled: blocks the previous run compiled off the golden
path are dropped (:meth:`BlockCompileBackend.retain`).

A native or static run, with or without recovery, also stops early
(:meth:`GoldenLadder.stepper`): once nothing is armed, it looks for a
golden rung's state, at any icount offset.  The walk keys every rung
by its pc, flags and registers; around each check rung the run single-
steps a window of ``2 * WINDOW + 1`` instructions and looks its key up
among all rungs, so a run that rejoined the golden path any number of
instructions early or late is caught whenever that offset, modulo the
rung spacing, lies within the window.  A recovery run and a threaded
run check at the rungs alone, with no window.  When the run agrees with the rung on
everything the rest of the run depends on, and its budget covers the
rest of the golden run from there, it takes the golden run's
remaining instructions, cycles, outputs and stop instead of executing
them.  DBT runs step their budget in one go: their translation state
is not in the key.

Rung positions depend only on the golden run (and the configured
checkpoint interval), and the rung a spec forks from only on the spec:
a run's record, the guest work it executes and the blocks it compiles
are the same whichever runs came before it on the machine.
"""

from __future__ import annotations

import bisect
import math
import struct
from dataclasses import dataclass, replace

from repro.isa.opcodes import Op
from repro.machine import StopReason
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, PERM_W, PERM_X
from repro.machine.state import MachineState
from repro.machine.syscalls import Service

#: Rungs per golden run: the spacing is the golden run's length over
#: this, but never below MIN_SPACING instructions.
RUNGS = 256
MIN_SPACING = 64
#: Visits of one branch site the walk records.  A spec asking for a
#: later occurrence forks from the rung before the last recorded visit.
HIT_CAP = 64
#: Half-width, in instructions, of the window of single steps around a
#: check rung in which a run looks for a golden rung's state.
WINDOW = 32


def rung_spacing(golden_icount: int) -> int:
    """Instructions between consecutive rungs of a golden run."""
    return max(MIN_SPACING, -(-golden_icount // RUNGS))


class _EveryBranch(dict):
    """``Cpu.branch_hooks`` for the ladder walk: one hook armed at every
    branch pc.  Both backends look hooks up with ``in`` and ``get``."""

    def __init__(self, hook):
        super().__init__()
        self.hook = hook

    def __bool__(self) -> bool:
        return True

    def __contains__(self, pc) -> bool:
        return True

    def get(self, pc, default=None):
        return self.hook


@dataclass
class Rung:
    """The machine at one instruction boundary of the golden run."""

    state: MachineState
    #: page -> content, for every page the walk had dirtied by here
    images: dict
    #: the recovery manager's state, at a checkpoint boundary
    resume: object = None


class GoldenLadder:
    """The golden run's rungs on one machine, and the means to rewind
    that machine to any of them.

    ``run`` is a freshly built :class:`~repro.faults.campaign.Run`; the
    walk steps it to the end of the golden run, which must match
    ``golden``.  With a ``checkpoint_interval`` the walk also records
    the checkpoint boundaries of a recovery run with that interval.
    """

    def __init__(self, run, golden, checkpoint_interval=None):
        self.run = run
        self.golden = golden
        #: the multithreaded machine of a threaded run, else None
        self.machine = run.machine
        #: the machine's ``MachineState`` components: the DBT or the
        #: multithreaded machine, if any
        self.components = tuple(part for part in (run.dbt, run.machine)
                                if part is not None)
        self.spacing = rung_spacing(golden.icount)
        self.rungs: list[Rung] = []
        #: page -> content before the walk, for every page the walk
        #: dirtied and, outside the DBT, every writable page
        self.base: dict[int, bytes] = {}
        #: pc -> icounts of the first HIT_CAP visits of that branch pc
        self.pc_hits: dict[int, list[int]] = {}
        #: guest branch -> icounts of its first HIT_CAP visits at any
        #: translated terminator site (DBT only)
        self.guest_hits: dict[int, list[int]] = {}
        #: (pc, tid) -> icounts of the first HIT_CAP visits of that
        #: branch pc by that thread (threaded runs only)
        self.tid_hits: dict[tuple, list[int]] = {}
        #: rung the machine's memory was last put at
        self.at = 0
        #: (pc, flags, registers) -> indices of the rungs in that state
        self.states: dict[tuple, list[int]] = {}
        #: can the code read the cycle counter?  Then a run rejoins the
        #: golden run only with the rung's cycle count
        self.reads_cycles = False
        self._walk(golden, checkpoint_interval)
        self.icounts = [rung.state.icount for rung in self.rungs]
        #: the rungs at checkpoint boundaries, and their icounts
        self.boundaries = [index for index, rung in enumerate(self.rungs)
                           if rung.resume is not None]
        self.boundary_icounts = [self.icounts[index]
                                 for index in self.boundaries]
        #: pages the last forked run wrote that its journal
        #: (``Memory.cow``) does not show: a recovery run's manager
        #: drains the journal into its checkpoints
        self.dirtied: set = set()

    # -- the walk ----------------------------------------------------------

    def _walk(self, golden, checkpoint_interval) -> None:
        run = self.run
        cpu, dbt = run.cpu, run.dbt
        mem = cpu.memory
        terminators: dict[int, int] = {}
        pc_hits, guest_hits = self.pc_hits, self.guest_hits
        tid_hits = self.tid_hits

        def visit(cpu, pc, instr):
            hits = pc_hits.setdefault(pc, [])
            if len(hits) < HIT_CAP:
                hits.append(cpu.icount)
            guest = terminators.get(pc)
            if guest is not None:
                hits = guest_hits.setdefault(guest, [])
                if len(hits) < HIT_CAP:
                    hits.append(cpu.icount)

        def visit_thread(cpu, pc, instr):
            # A thread-targeted fault counts its victim's visits alone.
            hits = pc_hits.setdefault(pc, [])
            if len(hits) < HIT_CAP:
                hits.append(cpu.icount)
            hits = tid_hits.setdefault((pc, cpu.current_tid), [])
            if len(hits) < HIT_CAP:
                hits.append(cpu.icount)

        def on_translation(tb):
            # The sites a DbtInjector arms for a guest branch.
            if tb is None:
                terminators.clear()
            elif tb.terminator_site is not None:
                terminators[tb.terminator_site] = tb.guest_terminator

        cpu.branch_hooks = _EveryBranch(
            visit if self.machine is None else visit_thread)
        if dbt is not None:
            dbt.translation_listener = on_translation
        else:
            # A native or static run only stores to pages writable at
            # load, so this is the golden content of every page it
            # writes that the walk never dirties.
            for page, perms in enumerate(mem.perms):
                if perms & PERM_W:
                    self.base[page] = mem.read_raw(page << PAGE_SHIFT,
                                                   PAGE_SIZE)
            self.reads_cycles = _reads_cycles(mem)
        mem.cow = {}
        mem.cow_bound = mem.size
        manager = boundary = None
        if checkpoint_interval is not None:
            from repro.recovery import RecoveryManager
            manager = RecoveryManager(cpu, step=None, classify=None,
                                      budget=None,
                                      interval=checkpoint_interval)
            manager.begin()
            boundary = manager.segment
        images: dict[int, bytes] = {}
        self.rungs.append(self._rung(
            images, manager.resume_point() if manager else None))
        checkpointed = self.rungs[0]
        next_rung = self.spacing
        while True:
            stop = run.step(min(next_rung, boundary or next_rung)
                            - cpu.icount)
            if stop.reason is not StopReason.STEP_LIMIT:
                break
            dirtied, mem.cow = mem.cow, {}
            for page, before in dirtied.items():
                self.base.setdefault(page, before)
            images = dict(images)
            for page in dirtied:
                images[page] = mem.read_raw(page << PAGE_SHIFT, PAGE_SIZE)
            resume = None
            if cpu.icount == boundary:
                # The interval's checkpoint holds the pre-image of every
                # page written since the last boundary.
                mem.cow = {page: self._image(checkpointed, page)
                           for page in _moved(checkpointed.images, images)}
                manager.checkpoint()
                boundary = cpu.icount + manager.segment
                resume = manager.resume_point()
            self.rungs.append(self._rung(images, resume))
            if resume is not None:
                checkpointed = self.rungs[-1]
            if cpu.icount == next_rung:
                next_rung += self.spacing
        cpu.branch_hooks = {}
        if dbt is not None:
            dbt.translation_listener = None
        outputs = (tuple(cpu.output), tuple(cpu.output_values))
        if (stop.reason is not StopReason.HALTED
                or cpu.icount != golden.icount
                or cpu.cycles != golden.cycles
                or outputs != golden.outputs):
            raise RuntimeError(
                f"golden walk diverged from the golden run: {stop}, "
                f"icount {cpu.icount} != {golden.icount}")
        self.stop = stop
        #: starts of the blocks the walk compiled (native and static
        #: runs on the block backend): each rewind drops the others
        self.blocks = (frozenset(cpu.backend.blocks)
                       if dbt is None and cpu.backend is not None else None)
        self.exit_code = cpu.exit_code
        self.output = list(cpu.output)
        self.output_values = list(cpu.output_values)
        if self.machine is not None:
            #: the walk's schedule trace, and the icount of each of its
            #: context switches, in order
            self.trace = list(self.machine.trace)
            self.switch_icounts = [icount for icount, _tid, event
                                   in self.trace if event == "switch"]
            #: context switches made by each rung
            self.switches = [rung.state.components[0].switches
                             for rung in self.rungs]
        # The walk's last stretch stays journalled in mem.cow, like a
        # fault run forked from the last rung.
        self.at = len(self.rungs) - 1
        for index, rung in enumerate(self.rungs):
            key = (rung.state.pc, rung.state.flags, rung.state.regs)
            self.states.setdefault(key, []).append(index)

    def _rung(self, images: dict, resume) -> Rung:
        previous = self.rungs[-1].state if self.rungs else None
        return Rung(MachineState.capture(self.run.cpu, self.components,
                                         previous),
                    images, resume)

    def _image(self, rung: Rung, page: int, journal=None) -> bytes:
        """``page`` as the golden run held it at ``rung``.  A page the
        walk never dirtied holds what it held when the run's journal
        first saw it written (DBT only: elsewhere ``base`` has it)."""
        image = rung.images.get(page)
        if image is None:
            image = self.base.get(page)
        if image is None:
            image = journal[page]
        return image

    # -- choosing a rung -----------------------------------------------------

    def fire_point(self, hits: list, occurrence: int
                   ) -> tuple[int, int | None]:
        """``(strikes, fires)`` for a fault at the ``occurrence``-th
        visit of a site the walk saw at ``hits``: the run forks at or
        before instruction ``strikes``, and the fault fires at
        instruction ``fires`` — None when it never fires or the walk
        did not record that visit."""
        if occurrence <= len(hits):
            fires = hits[occurrence - 1]
            return fires, fires
        if len(hits) < HIT_CAP:
            return self.icounts[-1], None     # never fires
        return hits[-1], None                 # beyond the recorded visits

    def switch_point(self, switch: int, budget: int
                     ) -> tuple[int, int | None]:
        """``(rung index, fires)`` for a scheduler fault at context
        switch ``switch``: the last rung before that switch (a switch
        at a rung's icount may come before or after the rung), and the
        icount of the walk's switch — None when the golden run never
        makes it, and the run forks from the last rung."""
        last = self.fork_rung(budget, budget)
        if not 0 < switch <= len(self.switch_icounts):
            return last, None
        index = bisect.bisect_left(self.switches, switch) - 1
        return min(index, last), self.switch_icounts[switch - 1]

    def fork_rung(self, strikes: int, budget: int,
                  recovery: bool = False) -> int:
        """Index of the rung a run forks from when its fault strikes at
        instruction ``strikes``: the last rung at or before it that a
        run with ``budget`` steps reaches.  A recovery run forks from a
        checkpoint boundary its budget does not end at (the manager
        captures no checkpoint where the budget runs out)."""
        if not recovery:
            return bisect.bisect_right(self.icounts,
                                       min(strikes, budget)) - 1
        position = bisect.bisect_right(self.boundary_icounts,
                                       min(strikes, budget - 1)) - 1
        return self.boundaries[max(position, 0)]

    # -- rewinding -----------------------------------------------------------

    def rewind(self, index: int):
        """Put the machine back at rung ``index``; returns a fresh
        :class:`Run` record over it, with nothing armed."""
        run = self.run
        cpu, dbt = run.cpu, run.dbt
        mem = cpu.memory
        target = self.rungs[index]
        journal = mem.cow or {}
        pages = self.dirtied.union(journal)
        if index != self.at:
            pages.update(_moved(self.rungs[self.at].images, target.images))
        mem.cow = None
        for page in pages:
            mem.restore_page(page, self._image(target, page, journal))
        mem.cow = {}
        mem.cow_bound = mem.size
        self.at = index
        self.dirtied = set()
        state = target.state
        state.restore(cpu, self.components)
        # Not truncated: the previous run may have printed otherwise.
        cpu.output[:] = self.output[:state.output_len]
        cpu.output_values[:] = self.output_values[:state.output_values_len]
        cpu.branch_hooks.clear()
        cpu.scheduled_fault = None
        machine = self.machine
        if machine is not None:
            # Nor is the schedule: the previous run may have switched
            # otherwise.
            machine.trace[:] = self.trace[:state.components[0].trace_len]
            machine.sched_fault = None
        if self.blocks is not None:
            cpu.backend.retain(self.blocks)
        if dbt is not None:
            dbt.translation_listener = None
            dbt.inject_redirect = None
        return replace(run)

    # -- stopping at convergence ---------------------------------------------

    def stepper(self, run, fires: int | None, max_steps: int,
                manager=None):
        """``step(n)`` for a native or static run forked from this
        ladder, with ``max_steps`` and, under recovery, ``manager``:
        ``run.step(n)``, except that once nothing is armed the run
        looks for a golden rung's state (:meth:`_rejoin`), and when it
        finds one it takes the golden run's end instead of executing
        it.

        Every split costs the block backend an interpreted tail, so
        while the fault is armed the run steps in one go to the first
        rung after ``fires``, where it has fired (or, when None, to the
        end of ``n``).  The first check is at that rung and the
        ``WINDOW`` single steps after it, where a masked fault's run
        usually is; each later window also takes the ``WINDOW`` steps
        before its rung, and each failed window puts the next one twice
        as many rungs away.  A rollback starts over with a first check
        at the first rung at or after the checkpoint it went back to.

        A recovery run's windows are the rungs alone: it checks at
        rung icounts, so it rejoins only when its offset is a whole
        number of rungs (usually zero), and a run that rejoined the
        golden path an instruction late executes on, checkpointing,
        to its end.  So does a threaded run: the quantum in flight is
        part of its state, so off the rungs' icounts it matches no
        rung while its threads still switch."""
        cpu = run.cpu
        step = run.step
        icounts = self.icounts
        if manager is None:
            memory = cpu.memory
            attempt_end = lambda: max_steps              # noqa: E731
            written = lambda: set(memory.cow)            # noqa: E731
            width = WINDOW if self.machine is None else 0
        else:
            attempt_end, written = manager.attempt_end, manager.dirtied
            width = 0
        machine = run.machine
        #: a scheduler fault, armed until the machine makes its switch
        sched = None if machine is None else machine.sched_fault
        #: (first icount, last icount, rung index) of the check window
        window = None
        gap = 1
        last = cpu.icount

        def next_window(index: int, below: int):
            if index >= len(icounts):
                return _NO_WINDOW
            return (icounts[index] - below, icounts[index] + width, index)

        def converging(n: int):
            nonlocal window, gap, last
            if cpu.icount < last:
                window, gap = None, 1
            end = cpu.icount + n
            stop = None
            while stop is None or (stop.reason is StopReason.STEP_LIMIT
                                   and cpu.icount < end
                                   and not (machine is not None
                                            and machine.deadlocked)):
                now = cpu.icount
                if (cpu.branch_hooks or cpu.scheduled_fault is not None
                        or (sched is not None and not sched.fired)):
                    window = None
                    after = end
                    if fires is not None and fires >= now:
                        window = next_window(
                            bisect.bisect_right(icounts, fires), 0)
                        after = window[0]
                else:
                    if window is None:
                        window = next_window(
                            bisect.bisect_left(icounts, now), 0)
                    low, high, index = window
                    if now < low:
                        after = low
                    else:
                        rung = self._rejoin(cpu, attempt_end(), written)
                        if rung is not None:
                            return self._take_rest(cpu, rung)
                        after = now + 1
                        if now >= high:
                            window = next_window(index + gap, width)
                            gap *= 2
                            after = max(after, window[0])
                stop = step(min(after, end) - now)
            last = cpu.icount
            return stop

        return converging

    def _rejoin(self, cpu, budget: int, written) -> int | None:
        """The rung whose state the machine is in, at any icount, when
        the run's ``budget`` (the icount its attempt ends at) covers
        the rest of the golden run from there; else None."""
        for index in self.states.get((cpu.pc, cpu.flags, tuple(cpu.regs)),
                                     ()):
            if (cpu.icount + self.golden.icount - self.icounts[index]
                    <= budget and self._converged(cpu, index, written)):
                return index
        return None

    def _converged(self, cpu, index: int, written) -> bool:
        """Is the machine, already at rung ``index``'s pc, flags and
        registers, in the rest of that rung's state: the same latches,
        outputs, scheduler state (threaded runs; all of it but the
        trace length) and content of every page either run has dirtied
        since the rung it forked from (``written()``: a new set of the
        pages the run wrote), and, when the code reads the cycle
        counter, the same cycle count?  (Outside the DBT nothing
        changes page permissions after load.)"""
        rung = self.rungs[index]
        state = rung.state
        if (cpu.exit_code != state.exit_code
                or cpu.cfc_error != state.cfc_error
                or (self.reads_cycles and cpu.cycles != state.cycles)
                or cpu.output != self.output[:state.output_len]
                or cpu.output_values
                != self.output_values[:state.output_values_len]
                or (self.machine is not None
                    and not self.machine.in_state(state.components[0]))):
            return False
        pages = written()
        if index != self.at:
            pages.update(_moved(self.rungs[self.at].images, rung.images))
        data = cpu.memory.data
        for page in pages:
            start = page << PAGE_SHIFT
            if data[start:start + PAGE_SIZE] != self._image(rung, page):
                return False
        return True

    def _take_rest(self, cpu, index: int):
        """Finish a run in rung ``index``'s state as the golden run
        finishes from that rung; the memory stays at the rung."""
        state = self.rungs[index].state
        golden = self.golden
        cpu.icount += golden.icount - state.icount
        cpu.cycles += golden.cycles - state.cycles
        cpu.output[:] = self.output
        cpu.output_values[:] = self.output_values
        cpu.exit_code = self.exit_code
        cpu.pc = self.stop.pc
        self.at = index
        return self.stop


#: The window after the last rung: none.
_NO_WINDOW = (math.inf, math.inf, None)


def _reads_cycles(mem) -> bool:
    """Does an executable page hold a ``syscall`` reading the cycle
    counter?  The service number is the word's low 16 bits, and the
    eight bits above it are ignored."""
    want = int(Op.SYSCALL) << 24 | Service.CYCLES_LO
    for page, perms in enumerate(mem.perms):
        if perms & PERM_X:
            start = page << PAGE_SHIFT
            for (word,) in struct.iter_unpack(
                    "<I", mem.data[start:start + PAGE_SIZE]):
                if word & 0xFF00FFFF == want:
                    return True
    return False


def _moved(now: dict, then: dict) -> set:
    """Pages whose walk image differs between two rungs' images."""
    wider = now if len(now) >= len(then) else then
    return {page for page in wider if now.get(page) is not then.get(page)}

