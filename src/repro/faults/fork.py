"""Forked fault runs: rewind one machine to a rung of the golden run.

A single-fault run is the golden run until its fault fires, so
everything it does before that point — building a CPU (and a DBT
session), translating and compiling the blocks on the way, executing
the prefix — repeats work the golden run already did.  A
:class:`GoldenLadder` walks the golden run once, on the one machine a
:class:`~repro.faults.campaign.Pipeline` keeps for forked runs, and
stops every :func:`rung_spacing` instructions to record a *rung*:

* the CPU's registers, counters, latches and output lengths;
* the memory: the page permissions, plus an image of every page the
  walk has dirtied so far (pages are journalled through
  ``Memory.cow`` with its bound raised to the whole memory, so DBT
  code-cache pages count like any other; an image is shared by every
  rung until its page is dirtied again);
* under the DBT, the translation state (:meth:`Dbt.snapshot`).

During the walk every branch pc carries one counting hook, so the
ladder knows at which instruction each branch site executed — the
same visits the fault injectors count.  A fault run then forks from
the last rung before its fault fires: :meth:`GoldenLadder.rewind`
restores that rung, the caller installs the injector with its
occurrence count seeded from the rung, and steps the machine with the
fresh run's step budget minus what the golden run had spent by the
rung.  Pages the previous run dirtied come back through
``Memory.write_raw``, one span of changed bytes per page, so decode
caches and compiled blocks invalidate exactly as they do after a
recovery rollback, and blocks on untouched code stay compiled.

Rung positions depend only on the golden run's length, and the rung a
spec forks from only on the spec: a run's record and the guest work
it executes are the same whichever runs came before it on the
machine.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace

from repro.machine import StopReason
from repro.machine.memory import PAGE_SHIFT, PAGE_SIZE, PERM_X

#: Rungs per golden run: the spacing is the golden run's length over
#: this, but never below MIN_SPACING instructions.
RUNGS = 256
MIN_SPACING = 64
#: Visits of one branch site the walk records.  A spec asking for a
#: later occurrence forks from the rung before the last recorded visit.
HIT_CAP = 64


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

    #: step budget the golden run had spent by here.  Under the DBT
    #: this can trail ``icount``: the store that triggers a self-
    #: modifying-code flush is re-executed outside the budget.
    steps: int
    icount: int
    pc: int
    cycles: int
    regs: tuple
    flags: int
    exit_code: int | None
    cfc_error: bool
    output_len: int
    output_values_len: int
    perms: bytes
    #: page -> content, for every page the walk had dirtied by here
    images: dict
    #: the DBT's translation state (None outside the DBT pipeline)
    translation: object = None


class GoldenLadder:
    """The golden run's rungs on one machine, and the means to rewind
    that machine to any of them.

    ``run`` is a freshly built :class:`~repro.faults.campaign.Run`; the
    walk steps it to the end of the golden run, which must match
    ``golden``.
    """

    def __init__(self, run, golden):
        self.run = run
        self.spacing = rung_spacing(golden.icount)
        self.rungs: list[Rung] = []
        #: page -> content before the walk first dirtied it
        self.base: dict[int, bytes] = {}
        #: pc -> icounts of the first HIT_CAP visits of that branch pc
        self.pc_hits: dict[int, list[int]] = {}
        #: guest branch -> icounts of its first HIT_CAP visits at any
        #: translated terminator site (DBT only)
        self.guest_hits: dict[int, list[int]] = {}
        #: rung the machine was last rewound to
        self.at = 0
        self._walk(golden)
        self.icounts = [rung.icount for rung in self.rungs]

    # -- the walk ----------------------------------------------------------

    def _walk(self, golden) -> None:
        run = self.run
        cpu, dbt = run.cpu, run.dbt
        mem = cpu.memory
        terminators: dict[int, int] = {}
        pc_hits, guest_hits = self.pc_hits, self.guest_hits

        def visit(cpu, pc, instr):
            hits = pc_hits.setdefault(pc, [])
            if len(hits) < HIT_CAP:
                hits.append(cpu.icount)
            guest = terminators.get(pc)
            if guest is not None:
                hits = guest_hits.setdefault(guest, [])
                if len(hits) < HIT_CAP:
                    hits.append(cpu.icount)

        def on_translation(tb):
            # The sites a DbtInjector arms for a guest branch.
            if tb is None:
                terminators.clear()
            elif tb.terminator_site is not None:
                terminators[tb.terminator_site] = tb.guest_terminator

        cpu.branch_hooks = _EveryBranch(visit)
        if dbt is not None:
            dbt.translation_listener = on_translation
        mem.cow = {}
        mem.cow_bound = mem.size
        images: dict[int, bytes] = {}
        self.rungs.append(self._rung(images))
        while True:
            stop = run.step(self.spacing)
            if stop.reason is not StopReason.STEP_LIMIT:
                break
            dirtied, mem.cow = mem.cow, {}
            for page, before in dirtied.items():
                self.base.setdefault(page, before)
            images = dict(images)
            for page in dirtied:
                images[page] = mem.read_raw(page << PAGE_SHIFT, PAGE_SIZE)
            self.rungs.append(self._rung(images))
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
        self.output = list(cpu.output)
        self.output_values = list(cpu.output_values)
        # The walk's last stretch stays journalled in mem.cow, like a
        # fault run forked from the last rung.
        self.at = len(self.rungs) - 1

    def _rung(self, images: dict) -> Rung:
        cpu, dbt = self.run.cpu, self.run.dbt
        previous = self.rungs[-1].translation if self.rungs else None
        return Rung(
            steps=len(self.rungs) * self.spacing, icount=cpu.icount,
            pc=cpu.pc, cycles=cpu.cycles,
            regs=tuple(cpu.regs), flags=cpu.flags,
            exit_code=cpu.exit_code, cfc_error=cpu.cfc_error,
            output_len=len(cpu.output),
            output_values_len=len(cpu.output_values),
            perms=bytes(cpu.memory.perms), images=images,
            translation=(dbt.snapshot(previous)
                         if dbt is not None else None))

    # -- choosing a rung -----------------------------------------------------

    def rung_for_icount(self, icount: int, budget: int) -> int:
        """Index of the last rung at or before instruction ``icount``
        that a run with ``budget`` steps reaches: the fork point of a
        fault that strikes at ``icount``."""
        return min(bisect.bisect_right(self.icounts, icount),
                   budget // self.spacing + 1) - 1

    def rung_for_visit(self, hits: list, occurrence: int,
                       budget: int) -> tuple[int, int]:
        """``(rung index, visits before it)`` for a fault firing at the
        ``occurrence``-th visit of a site the walk saw at ``hits``."""
        if occurrence <= len(hits):
            fires = hits[occurrence - 1]
        elif len(hits) < HIT_CAP:
            fires = self.icounts[-1]      # never fires: any rung will do
        else:
            fires = hits[-1]              # beyond the recorded visits
        index = self.rung_for_icount(fires, budget)
        return index, bisect.bisect_left(hits, self.icounts[index])

    # -- rewinding -----------------------------------------------------------

    def rewind(self, index: int):
        """Put the machine back at rung ``index``; returns a fresh
        :class:`Run` record over it, with nothing armed."""
        run = self.run
        cpu, dbt = run.cpu, run.dbt
        mem = cpu.memory
        target = self.rungs[index]
        dirtied, mem.cow = mem.cow, None
        pages = set(dirtied)
        if index != self.at:
            now, then = self.rungs[self.at].images, target.images
            wider = now if len(now) >= len(then) else then
            pages.update(page for page in wider
                         if now.get(page) is not then.get(page))
        for page in pages:
            image = target.images.get(page)
            if image is None:
                image = self.base.get(page)
            if image is None:
                image = dirtied[page]     # never dirtied by the walk
            _restore_page(mem, page, image)
        mem.cow = {}
        self.at = index
        if mem.perms != target.perms:
            _restore_perms(mem, target.perms)
        cpu.pc = target.pc
        cpu.icount = target.icount
        cpu.cycles = target.cycles
        cpu.regs[:] = target.regs
        cpu.flags = target.flags
        cpu.exit_code = target.exit_code
        cpu.cfc_error = target.cfc_error
        cpu.output[:] = self.output[:target.output_len]
        cpu.output_values[:] = \
            self.output_values[:target.output_values_len]
        cpu.branch_hooks.clear()
        cpu.scheduled_fault = None
        if dbt is not None:
            dbt.restore(target.translation)
            dbt.translation_listener = None
            dbt.inject_redirect = None
        return replace(run)


def _restore_page(mem, page: int, image: bytes) -> None:
    """Write back the span of ``page`` that differs from ``image``."""
    start = page << PAGE_SHIFT
    now = mem.data[start:start + PAGE_SIZE]
    if now == image:
        return
    diff = (int.from_bytes(now, "little")
            ^ int.from_bytes(image, "little"))
    low = ((diff & -diff).bit_length() - 1) >> 3
    high = (diff.bit_length() + 7) >> 3
    mem.write_raw(start + low, image[low:high])


def _restore_perms(mem, perms: bytes) -> None:
    """Put the page permissions back; pages whose execute bit changes
    notify the permission watcher, as ``Memory.set_perms`` would."""
    for page, (now, then) in enumerate(zip(mem.perms, perms)):
        if now != then:
            mem.perms[page] = then
            if (now ^ then) & PERM_X and mem.perm_watch is not None:
                mem.perm_watch(page << PAGE_SHIFT, PAGE_SIZE)
