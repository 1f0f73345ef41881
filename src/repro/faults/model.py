"""The analytic branch-error probability model (paper Section 2,
Figures 2 and 3).

"The error model assumes a soft-error that results in 1 bit change in
the address offset of the branch instruction or in the flags that
determine the conditional branches direction.  We consider that each
bit in the address offset and in the flags has the same error
probability.  [...] we have to take into account the execution
frequency of each instruction.  The taken and not taken ratio is also
important."

Rather than re-executing the program once per candidate fault, the
model runs the program once under the branch profiler and then
enumerates every single-bit fault analytically:

* the category of an offset-bit fault depends only on the static branch
  and the direction taken — computed once per (branch, direction,
  bit) and weighted by the direction's execution count,
* the category of a flag-bit fault depends on the concrete FLAGS value
  at the execution — the profiler's (flags, taken) histogram has at
  most 32 entries per branch.

Indirect branches are excluded, exactly as the paper excludes them
("the execution frequency of indirect branches represents less than 5%
of the total branches execution frequency").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.encoding import BRANCH_OFFSET_BITS
from repro.isa.flags import NUM_FLAG_BITS
from repro.isa.program import Program
from repro.cfg import build_cfg
from repro.machine import BranchProfiler, run_native
from repro.faults.classify import (Category, SDC_CATEGORIES,
                                   classify_flag_fault,
                                   classify_offset_fault)

#: (taken?, "addr" | "flags") column keys, in the paper's order.
COLUMNS = (
    (True, "addr"), (True, "flags"), (False, "addr"), (False, "flags"),
)


@dataclass
class ErrorModelResult:
    """Fault-mass distribution over categories and columns.

    ``mass[(category, taken, kind)]`` is the number of (dynamic branch
    execution, fault bit) pairs falling in that cell; ``total`` is the
    whole universe, so cell/total is the paper's probability.
    """

    program_name: str
    mass: dict[tuple[Category, bool, str], float] = field(
        default_factory=dict)
    total: float = 0.0
    dynamic_branches: int = 0

    def add(self, category: Category, taken: bool, kind: str,
            weight: float) -> None:
        key = (category, taken, kind)
        self.mass[key] = self.mass.get(key, 0.0) + weight
        self.total += weight

    def probability(self, category: Category, taken: bool | None = None,
                    kind: str | None = None) -> float:
        """Probability of a cell, a row (taken/kind None), or a
        category."""
        if self.total == 0:
            return 0.0
        selected = 0.0
        for (cat, tk, kd), weight in self.mass.items():
            if cat is not category:
                continue
            if taken is not None and tk != taken:
                continue
            if kind is not None and kd != kind:
                continue
            selected += weight
        return selected / self.total

    def category_row(self, category: Category) -> dict[str, float]:
        """The four Figure-2 cells plus the row total, as
        probabilities."""
        row = {}
        for taken, kind in COLUMNS:
            label = f"{'taken' if taken else 'not_taken'}_{kind}"
            row[label] = self.probability(category, taken, kind)
        row["total"] = self.probability(category)
        return row

    def sdc_distribution(self) -> dict[Category, float]:
        """Figure 3: probabilities over categories A..E, renormalized."""
        raw = {cat: self.probability(cat) for cat in SDC_CATEGORIES}
        total = sum(raw.values())
        if total == 0:
            return {cat: 0.0 for cat in SDC_CATEGORIES}
        return {cat: value / total for cat, value in raw.items()}

    def merge(self, other: "ErrorModelResult") -> None:
        """Accumulate another program's mass (suite aggregation)."""
        for key, weight in other.mass.items():
            self.mass[key] = self.mass.get(key, 0.0) + weight
        self.total += other.total
        self.dynamic_branches += other.dynamic_branches


def compute_error_model(program: Program,
                        max_steps: int = 50_000_000,
                        profiler: BranchProfiler | None = None
                        ) -> ErrorModelResult:
    """Run ``program`` natively under the profiler and evaluate the
    single-bit branch-error model."""
    if profiler is None:
        profiler = BranchProfiler()
        cpu, stop = run_native(program, max_steps=max_steps,
                               profiler=profiler)
        cpu.unlink()
        if stop.reason.value != "halted":
            raise RuntimeError(
                f"profiling run did not finish: {stop}")
    cfg = build_cfg(program)
    result = ErrorModelResult(program_name=program.source_name)

    for stats in profiler.branches.values():
        pc, instr = stats.pc, stats.instr
        result.dynamic_branches += stats.executions
        # Address-offset faults: category fixed per (direction, bit).
        for taken, count in ((True, stats.taken),
                             (False, stats.not_taken)):
            if count == 0:
                continue
            for bit in range(BRANCH_OFFSET_BITS):
                category = classify_offset_fault(cfg, pc, instr, bit,
                                                 taken)
                result.add(category, taken, "addr", count)
        # Flag faults: depend on the concrete FLAGS at each execution.
        if instr.meta.cond is not None:
            for (flags, taken), count in stats.flags_hist.items():
                for bit in range(NUM_FLAG_BITS):
                    category = classify_flag_fault(instr, flags, bit)
                    result.add(category, taken, "flags", count)
    return result


def compute_suite_error_model(programs: list[Program],
                              name: str = "suite") -> ErrorModelResult:
    """Aggregate the model across a benchmark suite (the paper reports
    SPEC-Int and SPEC-Fp aggregates)."""
    merged = ErrorModelResult(program_name=name)
    for program in programs:
        merged.merge(compute_error_model(program))
    return merged
