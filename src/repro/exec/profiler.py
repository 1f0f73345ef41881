"""Guest hot-block profiler: per-block icount/cycle attribution.

Answers "where does this workload spend its guest cycles?" without
touching the interpreter hot loop: the profiler rides the existing
``cpu.branch_profiler`` slot (free when unused, one ``is None`` check
per *branch*, never per instruction) and attributes the instruction
and cycle deltas since the previous branch to the block that the
branch terminates.

Attribution model
-----------------
The interpreter charges ``icount``/``cycles`` *before* dispatching a
handler, and branch handlers call ``branch_profiler.record`` before
adding the taken-branch penalty.  So at ``record(pc, ...)`` time the
counters cover everything up to and including the branch at ``pc`` —
the delta since the last ``record`` is exactly the dynamic trace that
ended with this branch, and it is credited to ``pc``.  The block
backend batches per-trace charges; its compiled code calls ``record``
inline at every direct branch, at the point where the interpreter's
handler calls it, with the batched charges rewound to the
interpreter's values for the call.  So the deltas (and therefore the
attribution) are identical on both backends.

Totals are **exact**: every instruction lands in exactly one delta
(:meth:`HotBlockProfiler.finish` attributes the tail between the last
branch and the stop), so the per-block sums equal the run's final
``cpu.icount``/``cpu.cycles`` to the instruction — the regression
tests assert equality with an uninstrumented run, not approximation.

Traces that fall through one or more branch-target leaders before
branching are credited, whole, to the block containing the
terminating branch — attribution granularity is the dynamic
branch-to-branch trace, mapped onto the static CFG for reporting.

DBT runs record *code-cache* addresses (the guest program executes
translated); :meth:`HotBlockProfiler.mapped` folds them back to guest
addresses via ``Dbt.reverse_addr_map()``, with translator-emitted
words (stubs, signature checks) pooled under an ``(outside text)``
bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cfg.builder import build_cfg
from repro.isa.disassembler import format_instruction
from repro.isa.program import Program
from repro.machine.cpu import TAKEN_BRANCH_PENALTY, Cpu


@dataclass
class BlockProfile:
    """Aggregated cost of one static basic block (reporting form)."""

    start: int
    end: int
    icount: int = 0
    cycles: int = 0
    visits: int = 0
    symbol: str | None = None
    #: (pc, text) disassembly lines, filled for program-resident blocks
    listing: list = field(default_factory=list)


class HotBlockProfiler:
    """Accumulates per-block guest cost during a run.

    Chain discipline (shared with the forensics flight recorder): the
    profiler saves whatever already occupies ``cpu.branch_profiler``
    on :meth:`attach`, forwards every ``record`` to it, and restores
    it on :meth:`finish` — a branch-statistics profiler and the
    hot-block profiler can ride the same run.
    """

    def __init__(self) -> None:
        #: attribution key (branch pc, or stop pc for the tail) ->
        #: [icount, cycles, visits]
        self.samples: dict[int, list] = {}
        self.total_icount = 0
        self.total_cycles = 0
        self._cpu: Cpu | None = None
        self._chained = None
        self._last_icount = 0
        self._last_cycles = 0
        self._base_icount = 0
        self._base_cycles = 0

    def attach(self, cpu: Cpu) -> None:
        if self._cpu is not None:
            raise RuntimeError("profiler already attached")
        self._cpu = cpu
        self._chained = cpu.branch_profiler
        cpu.branch_profiler = self
        self._last_icount = self._base_icount = cpu.icount
        self._last_cycles = self._base_cycles = cpu.cycles

    def record(self, pc: int, instr, taken: bool, flags: int) -> None:
        if self._chained is not None:
            self._chained.record(pc, instr, taken, flags)
        cpu = self._cpu
        icount = cpu.icount
        # The handler adds the taken penalty right after this call;
        # fold it into this block's delta instead of the next one's.
        cycles = cpu.cycles + (TAKEN_BRANCH_PENALTY if taken else 0)
        cell = self.samples.get(pc)
        if cell is None:
            self.samples[pc] = cell = [0, 0, 0]
        cell[0] += icount - self._last_icount
        cell[1] += cycles - self._last_cycles
        cell[2] += 1
        self._last_icount = icount
        self._last_cycles = cycles

    def finish(self) -> None:
        """Attribute the tail (last branch -> stop) and detach."""
        cpu = self._cpu
        if cpu is None:
            return
        delta_i = cpu.icount - self._last_icount
        delta_c = cpu.cycles - self._last_cycles
        if delta_i or delta_c:
            cell = self.samples.setdefault(cpu.pc, [0, 0, 0])
            cell[0] += delta_i
            cell[1] += delta_c
            cell[2] += 1
        self.total_icount = cpu.icount - self._base_icount
        self.total_cycles = cpu.cycles - self._base_cycles
        cpu.branch_profiler = self._chained
        self._cpu = None
        self._chained = None

    def mapped(self, reverse_addr_map: dict[int, int]
               ) -> "HotBlockProfiler":
        """A copy with cache-address keys folded to guest addresses.

        Keys with no guest counterpart (entry stub, exit stubs,
        instrumentation branches) merge under key ``-1`` and are
        reported under the ``(outside text)`` bucket.
        """
        mapped = HotBlockProfiler()
        mapped.total_icount = self.total_icount
        mapped.total_cycles = self.total_cycles
        for pc, (icount, cycles, visits) in self.samples.items():
            guest = reverse_addr_map.get(pc, -1)
            cell = mapped.samples.setdefault(guest, [0, 0, 0])
            cell[0] += icount
            cell[1] += cycles
            cell[2] += visits
        return mapped

    # -- reporting -----------------------------------------------------------

    def block_profiles(self, program: Program) -> list[BlockProfile]:
        """Per-static-block aggregation, hottest (by cycles) first.

        Attribution keys are folded onto the program's CFG: a key
        inside a block credits that block; keys outside the text
        section (DBT leftovers, stop pcs past the image) pool under a
        synthetic block at ``start=-1``.
        """
        cfg = build_cfg(program)
        by_symbol = {addr: name for name, addr in program.symbols.items()
                     if program.contains_code(addr)}
        blocks: dict[int, BlockProfile] = {}
        for pc, (icount, cycles, visits) in self.samples.items():
            block = (cfg.block_containing(pc)
                     if pc >= 0 and program.contains_code(pc) else None)
            if block is None:
                profile = blocks.setdefault(
                    -1, BlockProfile(start=-1, end=-1,
                                     symbol="(outside text)"))
            else:
                profile = blocks.get(block.start)
                if profile is None:
                    profile = BlockProfile(
                        start=block.start, end=block.end,
                        symbol=by_symbol.get(block.start),
                        listing=[
                            (addr, format_instruction(instr, addr,
                                                      by_symbol))
                            for addr, instr in block.instructions])
                    blocks[block.start] = profile
            profile.icount += icount
            profile.cycles += cycles
            profile.visits += visits
        ordered = sorted(blocks.values(),
                         key=lambda b: (-b.cycles, b.start))
        return ordered

    def as_json(self, program: Program, top: int = 10) -> dict:
        """JSON-able summary (service profile jobs, dashboard panel)."""
        profiles = self.block_profiles(program)
        return {
            "total_icount": self.total_icount,
            "total_cycles": self.total_cycles,
            "blocks": [
                {"start": p.start, "end": p.end, "symbol": p.symbol,
                 "icount": p.icount, "cycles": p.cycles,
                 "visits": p.visits,
                 "share": (p.cycles / self.total_cycles
                           if self.total_cycles else 0.0)}
                for p in profiles[:top]],
            "block_count": len(profiles),
        }

    def render_report(self, program: Program, top: int = 10) -> str:
        """Human report: top-N blocks with annotated disassembly."""
        profiles = self.block_profiles(program)
        lines = [
            f"hot blocks for {program.source_name} — "
            f"{self.total_icount} instructions, "
            f"{self.total_cycles} cycles, "
            f"{len(profiles)} block(s) sampled",
        ]
        for rank, profile in enumerate(profiles[:top], start=1):
            share = (profile.cycles / self.total_cycles
                     if self.total_cycles else 0.0)
            where = (profile.symbol or
                     (f"{profile.start:#x}" if profile.start >= 0
                      else "(outside text)"))
            lines.append("")
            lines.append(
                f"#{rank} {where}  cycles={profile.cycles} "
                f"({share:.1%})  instructions={profile.icount}  "
                f"visits={profile.visits}")
            for addr, text in profile.listing:
                marker = "*" if addr in self.samples else " "
                lines.append(f"  {marker} {addr:#07x}: {text}")
        return "\n".join(lines)


def profile_native(program: Program, backend: str = "interp",
                   max_steps: int = 50_000_000):
    """Profile a native run; returns ``(cpu, stop, profiler)``.

    Works on either execution backend: the block backend's compiled
    traces call the profiler inline with the interpreter's
    icount/cycles at each branch, so attribution and totals match the
    reference interpreter exactly.
    """
    from repro.exec import install_backend
    cpu = Cpu()
    install_backend(cpu, backend)
    cpu.load_program(program, executable_text=True)
    profiler = HotBlockProfiler()
    profiler.attach(cpu)
    try:
        stop = cpu.run(max_steps=max_steps)
    finally:
        profiler.finish()
    return cpu, stop, profiler


def profile_dbt(program: Program, max_steps: int = 50_000_000):
    """Profile a run under the (plain) DBT; returns
    ``(dbt, result, profiler)`` with the profiler's keys already
    mapped back to guest addresses via the translation cache's
    reverse address map."""
    from repro.dbt.runtime import Dbt
    dbt = Dbt(program)
    profiler = HotBlockProfiler()
    profiler.attach(dbt.cpu)
    try:
        result = dbt.run(max_steps=max_steps)
    finally:
        profiler.finish()
    return dbt, result, profiler.mapped(dbt.reverse_addr_map())
