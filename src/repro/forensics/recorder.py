"""The flight recorder: block-entry events + periodic state checkpoints.

The recorder installs itself in the CPU's ``branch_profiler`` slot —
the same free hook the observability branch counter uses — so it sees
every *direct* branch execution: the control-flow skeleton of the run,
at block granularity, with no new conditional anywhere in the
interpreter hot loop.  A run with no recorder attached executes exactly
the code it always did (``cpu.branch_profiler is None``).

Two streams are captured:

* **events** — one :class:`BlockEvent` per direct-branch execution:
  the branch's pc (guest address natively, cache address under the
  DBT), the dynamic instruction count, the model cycle count, and the
  resolved direction.  A bounded ring by default; the divergence
  analyzer runs with ``capacity=None`` for a full trace.
* **checkpoints** — every ``checkpoint_interval`` events, a
  :class:`Checkpoint` of the architectural state: guest registers,
  FLAGS, and the technique's signature register(s) (PC', plus RTS for
  ECF).  Checkpoints let the analyzer report the *state delta* at the
  first divergence without snapshotting 32 registers per branch.

Indirect transfers (``jmpr``/``callr``/``ret``) carry no profiler hook
— exactly like :class:`~repro.machine.profile.BranchProfiler` — so
they appear in the stream implicitly, through the direct branches of
the blocks they land in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.isa.registers import NUM_GUEST_REGISTERS, PCP

#: Default ring capacity (events) for debugging use; the divergence
#: analyzer passes ``capacity=None`` for an unbounded trace.
DEFAULT_CAPACITY = 4096
#: Events between architectural-state checkpoints.
DEFAULT_CHECKPOINT_INTERVAL = 16


@dataclass(frozen=True)
class BlockEvent:
    """One direct-branch execution: a block-entry edge of the run."""

    pc: int         #: address of the branch instruction
    icount: int     #: cpu.icount when the branch executed
    cycles: int     #: cpu.cycles when the branch executed
    taken: bool     #: resolved direction

    def key(self) -> tuple[int, bool]:
        """The identity the divergence comparison uses."""
        return (self.pc, self.taken)


@dataclass(frozen=True)
class Checkpoint:
    """Periodic architectural-state snapshot."""

    ordinal: int                 #: 0-based checkpoint index
    icount: int
    cycles: int
    pc: int
    regs: tuple[int, ...]        #: guest registers r0..r15
    flags: int
    signatures: tuple[int, ...]  #: the technique's signature registers


class FlightRecorder:
    """Ring of block-entry events plus periodic state checkpoints.

    Installs in the ``branch_profiler`` slot; an existing profiler is
    chained (both observe the stream), the same discipline as
    :class:`repro.exec.profiler.HotBlockProfiler`.
    """

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY,
                 checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
                 signature_regs: tuple[int, ...] = (PCP,)):
        self.events: deque[BlockEvent] = deque(maxlen=capacity)
        self.checkpoints: list[Checkpoint] = []
        self.checkpoint_interval = max(1, checkpoint_interval)
        self.signature_regs = signature_regs
        self._cpu = None
        self._chained = None
        self._since_checkpoint = 0

    # -- installation -----------------------------------------------------

    def attach(self, cpu) -> None:
        """Install on ``cpu``; chains any profiler already there."""
        self._cpu = cpu
        self._chained = cpu.branch_profiler
        cpu.branch_profiler = self

    def detach(self) -> None:
        """Restore the chained profiler (if the slot is still ours)."""
        if self._cpu is not None and self._cpu.branch_profiler is self:
            self._cpu.branch_profiler = self._chained
        self._cpu = None
        self._chained = None

    # -- the profiler-slot protocol ---------------------------------------

    def record(self, pc: int, instr, taken: bool, flags: int) -> None:
        cpu = self._cpu
        self.events.append(BlockEvent(pc=pc, icount=cpu.icount,
                                      cycles=cpu.cycles, taken=taken))
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_interval:
            self._since_checkpoint = 0
            self._take_checkpoint(pc)
        if self._chained is not None:
            self._chained.record(pc, instr, taken, flags)

    def _take_checkpoint(self, pc: int) -> None:
        cpu = self._cpu
        regs = cpu.regs
        self.checkpoints.append(Checkpoint(
            ordinal=len(self.checkpoints),
            icount=cpu.icount, cycles=cpu.cycles, pc=pc,
            regs=tuple(regs[:NUM_GUEST_REGISTERS]), flags=cpu.flags,
            signatures=tuple(regs[r] for r in self.signature_regs)))

    # -- inspection --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def event_list(self) -> list[BlockEvent]:
        return list(self.events)
