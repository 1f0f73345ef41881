"""The machine at one instruction boundary, for rollback and rewind.

A recovery checkpoint (:mod:`repro.recovery.checkpoint`) and a golden
-run rung (:mod:`repro.faults.fork`) both hold a :class:`MachineState`.
Memory contents are not part of it: each owner journals the pages it
needs and writes them back through ``Memory.restore_page``.  The state
of a *component* — a part of the machine with state outside the CPU
and memory, such as the DBT or the multithreaded machine's scheduler —
comes from its ``snapshot(previous)``, which may share tables with its
``previous`` state (or None), and goes back through its
``restore(state)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat


@dataclass(frozen=True)
class MachineState:
    """The CPU's fields, log lengths and component states."""

    pc: int
    icount: int
    cycles: int
    regs: tuple
    flags: int
    exit_code: int | None
    cfc_error: bool
    output_len: int
    output_values_len: int
    syscall_len: int
    #: one state per component, in the order they were captured
    components: tuple = ()

    @classmethod
    def capture(cls, cpu, components=(),
                previous: MachineState | None = None) -> MachineState:
        """Save ``cpu`` and ``components``; each component's snapshot
        is handed its state in ``previous``."""
        trace = cpu.syscall_trace
        prior = repeat(None) if previous is None else previous.components
        return cls(
            pc=cpu.pc, icount=cpu.icount, cycles=cpu.cycles,
            regs=tuple(cpu.regs), flags=cpu.flags,
            exit_code=cpu.exit_code, cfc_error=cpu.cfc_error,
            output_len=len(cpu.output),
            output_values_len=len(cpu.output_values),
            syscall_len=len(trace) if trace is not None else 0,
            components=tuple(component.snapshot(saved) for component, saved
                             in zip(components, prior)))

    def restore(self, cpu, components=()) -> None:
        """Put ``cpu`` and ``components`` back; the logs are truncated
        to their saved lengths."""
        cpu.pc = self.pc
        cpu.icount = self.icount
        cpu.cycles = self.cycles
        cpu.regs[:] = self.regs
        cpu.flags = self.flags
        cpu.exit_code = self.exit_code
        cpu.cfc_error = self.cfc_error
        del cpu.output[self.output_len:]
        del cpu.output_values[self.output_values_len:]
        if cpu.syscall_trace is not None:
            del cpu.syscall_trace[self.syscall_len:]
        for component, saved in zip(components, self.components):
            component.restore(saved)
