"""Forked recovery runs: a native or static recovery run forked from
the golden ladder gives the record a fresh run gives, field for field,
whether it resumes its manager at a golden checkpoint boundary or takes
the rest of the golden run once it has converged.  Runs without
recovery converge the same way."""

from __future__ import annotations

import bisect
import dataclasses
import random

import pytest

from repro.faults.campaign import Outcome, Pipeline
from repro.faults.injector import (DirectionFault, FaultSpec, FlagBitFault,
                                   OffsetBitFault, RedirectFault,
                                   RegisterFaultSpec)
from repro.isa import assemble
from repro.isa.flags import Flag
from repro.machine import Cpu
from tests.faults.test_fork import HANG, HANG_PROGRAM, fresh_record
from tests.faults.test_run_path import (BACKENDS, BRANCH_FAULTS, PROGRAM,
                                        _config)

#: NESTED_SRC of the run-path table, long enough for several checkpoint
#: boundaries at the default interval of 4096 instructions.
LONG_SRC = """
.entry main
main:
    movi r1, 0
    movi r2, 0
outer:
    movi r3, 0
inner:
    add r1, r1, r3
    addi r3, r3, 1
    cmpi r3, 40
    jl inner
    addi r2, r2, 1
    cmpi r2, 100
    jl outer
    syscall 4
    movi r1, 0
    syscall 0
"""
LONG_PROGRAM = assemble(LONG_SRC, name="fork-recovery-long")
_LONG_INNER = LONG_PROGRAM.symbols["inner"] + 12     # jl inner
_LONG_OUTER = LONG_PROGRAM.symbols["outer"] + 28     # jl outer
_INNER = BRANCH_FAULTS["direction"].branch_pc

#: Faults that fire late in the long program, so recovery runs fork
#: from checkpoint boundaries well past the entry.  The outer branch
#: runs 100 times, the inner one 4,000 times: the ladder records the
#: first HIT_CAP visits of a site, and a later one forks early.
LONG_FAULTS = {
    "direction": FaultSpec(_LONG_OUTER, 40, DirectionFault()),
    "redirect": FaultSpec(_LONG_OUTER, 50,
                          RedirectFault(LONG_PROGRAM.symbols["main"] + 4)),
    "redirect-start": FaultSpec(_LONG_INNER, 50,
                                RedirectFault(LONG_PROGRAM.symbols["outer"])),
    "offset": FaultSpec(_LONG_OUTER, 30, OffsetBitFault(2)),
    "flag": FaultSpec(_LONG_OUTER, 45, FlagBitFault(Flag.SF)),
    "late-visit": FaultSpec(_LONG_INNER, 2500, DirectionFault()),
    "register": RegisterFaultSpec(icount=9000, reg=3, bit=4),
    "persistent": FaultSpec(_LONG_OUTER, 35, DirectionFault(),
                            persistent=True),
}

#: The branch flag ``jl`` does not read: the branch goes its own way.
FLAG_NOOP = FaultSpec(_INNER, 4, FlagBitFault(Flag.ZF))

RECOVERY_LANES = ("native", "static-rcf", "static-ecca")
INTERVALS = (32, 4096)


def _recovery_config(lane: str, backend: str, interval: int):
    return dataclasses.replace(_config(lane, backend, recover=True),
                               checkpoint_interval=interval)


def _nested_faults() -> dict:
    specs = dict(BRANCH_FAULTS)
    specs["flag-noop"] = FLAG_NOOP
    specs["never-fires"] = FaultSpec(_INNER, 10_000, DirectionFault())
    specs["late-register"] = RegisterFaultSpec(icount=420, reg=1, bit=0)
    return specs


#: Fills an array (read-modify-write), stores a mark on a page of its
#: own, then prints running sums of the array and the mark.  Faults here
#: leave the registers as the golden run's while memory or the output
#: differs, so only the page and output comparisons tell the runs apart.
MEMORY_SRC = """
.entry main
main:
    const r5, arr
    movi r4, 0
fill:
    ld r6, r5, 0
    add r6, r6, r4
    st r6, r5, 0
    addi r5, r5, 4
    addi r4, r4, 1
    cmpi r4, 64
    jl fill
marking:
    cmpi r4, 0
    jz skip_mark
    const r8, mark
    jmp store_mark
skip_mark:
    const r8, one
    nop
store_mark:
    movi r7, 1
    st r7, r8, 0
    movi r7, 0
    movi r8, 0
    const r5, arr
    movi r4, 0
    movi r9, 0
sum:
    ld r6, r5, 0
    add r9, r9, r6
    mov r1, r9
    syscall 4
    addi r5, r5, 4
    addi r4, r4, 1
    cmpi r4, 64
    jl sum
    const r8, mark
    ld r1, r8, 0
    syscall 4
    movi r1, 0
    syscall 0
.data
arr:
    .space 256
one:
    .word 1
    .space 4096
mark:
    .space 4
"""
MEMORY_PROGRAM = assemble(MEMORY_SRC, name="fork-memory")


def run_watched(pipe: Pipeline, spec, max_steps: int | None = None):
    """``pipe.run(spec)``, and the icount its machine last executed to.
    A run that took the golden run's end stopped executing below its
    record's icount."""
    ends = []
    real = Cpu.run

    def run(cpu, *args, **kwargs):
        stop = real(cpu, *args, **kwargs)
        ends.append(cpu.icount)
        return stop

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Cpu, "run", run)
        record = pipe.run(spec, max_steps)
    return record, ends[-1]


def _icount_at(program, pc: int, visit: int) -> int:
    """The icount at which a native run executes ``pc`` for the
    ``visit``-th time."""
    cpu = Cpu()
    cpu.load_program(program)
    seen = 0
    while True:
        if cpu.pc == pc:
            seen += 1
            if seen == visit:
                return cpu.icount
        assert cpu.step() is None


_SYMBOLS = MEMORY_PROGRAM.symbols
MEMORY_FAULTS = {
    # r6 is stored, then reloaded only by the summing loop
    "memory-only": RegisterFaultSpec(
        icount=_icount_at(MEMORY_PROGRAM, _SYMBOLS["fill"] + 8, 10),
        reg=6, bit=5),
    # r1 is printed, then overwritten
    "output-only": RegisterFaultSpec(
        icount=_icount_at(MEMORY_PROGRAM, _SYMBOLS["sum"] + 12, 10),
        reg=1, bit=3),
    # the run stores to a word that already holds the value instead of
    # to the mark page, in as many instructions: only the golden run
    # wrote the mark page
    "skipped-store": FaultSpec(_SYMBOLS["marking"] + 4, 1,
                               DirectionFault()),
}


#: A stuck-at fault in the summing loop: recovery escalates to a restart
#: from the entry, which puts back the pages the golden prefix wrote.
RESTART = FaultSpec(_SYMBOLS["sum"] + 28, 30, DirectionFault(),
                    persistent=True)

PROGRAMS = {
    "nested": (PROGRAM, _nested_faults()),
    "long": (LONG_PROGRAM, LONG_FAULTS),
    "hang": (HANG_PROGRAM, {"hang": HANG}),
    "memory": (MEMORY_PROGRAM, {
        **MEMORY_FAULTS, "restart": RESTART,
        "fill": FaultSpec(_SYMBOLS["fill"] + 24, 20, DirectionFault())}),
}


def _cases():
    for lane in RECOVERY_LANES:
        for backend in BACKENDS:
            for interval in INTERVALS:
                for name, (_, specs) in PROGRAMS.items():
                    for spec_name in specs:
                        yield lane, backend, interval, name, spec_name


@pytest.fixture(scope="module")
def differential():
    """case -> (forked record, fresh record, the icount the forked
    run's machine last executed to)."""
    pairs = {}
    for lane in RECOVERY_LANES:
        for backend in BACKENDS:
            for interval in INTERVALS:
                config = _recovery_config(lane, backend, interval)
                for name, (program, specs) in PROGRAMS.items():
                    pipe = Pipeline(program, config)
                    for spec_name, spec in specs.items():
                        forked, executed_to = run_watched(pipe, spec)
                        pairs[lane, backend, interval, name, spec_name] = (
                            forked, fresh_record(pipe, spec), executed_to)
    return pairs


@pytest.mark.parametrize("case", list(_cases()),
                         ids=lambda case: "-".join(map(str, case)))
def test_forked_recovery_run_matches_fresh_run(differential, case):
    forked, fresh, _ = differential[case]
    assert forked == fresh


def test_differential_covers_recovery(differential):
    outcomes = {forked.outcome for forked, _, _ in differential.values()}
    assert {Outcome.RECOVERED, Outcome.RECOVERY_FAILED, Outcome.BENIGN,
            Outcome.SDC} <= outcomes
    converged = [case for case, (forked, _, executed_to)
                 in differential.items() if executed_to < forked.icount]
    assert converged and len(converged) < len(differential)
    assert any(forked.attempts > 1 for forked, _, _ in differential.values())


@pytest.mark.parametrize("interval", INTERVALS)
def test_recovery_runs_fork_past_the_entry(interval):
    """The long program has checkpoint boundaries past the entry, and
    its late faults fork from them."""
    pipe = Pipeline(LONG_PROGRAM, _recovery_config("static-rcf", "block",
                                                   interval))
    pipe.run(LONG_FAULTS["direction"])
    ladder = pipe._ladder
    assert len(ladder.boundaries) > 2
    fires = ladder.fire_point(
        ladder.pc_hits[pipe._site(_LONG_OUTER)], 40)[1]
    index = ladder.fork_rung(fires, pipe.golden.step_budget, True)
    assert ladder.rungs[index].resume is not None
    assert 0 < ladder.rungs[index].state.icount <= fires


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_long_recovery_runs_in_any_order(order, backend):
    config = _recovery_config("static-rcf", backend, 4096)
    pipe = Pipeline(LONG_PROGRAM, config)
    names = list(LONG_FAULTS)
    fresh = {name: fresh_record(pipe, LONG_FAULTS[name]) for name in names}
    if order == "reversed":
        names.reverse()
    else:
        random.Random(20).shuffle(names)
    for name in names:
        assert pipe.run(LONG_FAULTS[name]) == fresh[name], name


# -- convergence edge cases --------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("recover", [False, True], ids=["plain", "recover"])
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_budget_ends_at_the_golden_suffix(backend, recover, delta):
    """A run takes the golden run's end once it has converged, and only
    when its attempt's budget covers it: one step short, the watchdog
    rolls a recovery run back and the next attempt's budget covers it,
    and a run without recovery executes into its budget and hangs."""
    pipe = Pipeline(PROGRAM, _config("native", backend, recover))
    budget = pipe.golden.icount + delta
    forked, executed_to = run_watched(pipe, FLAG_NOOP, budget)
    assert forked == fresh_record(pipe, FLAG_NOOP, budget)
    if not recover:
        assert forked.outcome is (Outcome.HANG if delta < 0
                                  else Outcome.BENIGN)
        if delta < 0:
            assert forked.icount == executed_to == budget
        else:
            assert executed_to < forked.icount == pipe.golden.icount
    else:
        assert forked.outcome is (Outcome.RECOVERED if delta < 0
                                  else Outcome.BENIGN)
        assert executed_to < forked.icount == pipe.golden.icount


@pytest.mark.parametrize("backend", BACKENDS)
def test_persistent_fault_never_converges(backend):
    """A stuck-at fault is re-armed after every rollback, so the run
    never stops early; it runs until recovery gives up."""
    pipe = Pipeline(PROGRAM, _config("static-rcf", backend, True))
    spec = BRANCH_FAULTS["persistent"]
    forked, executed_to = run_watched(pipe, spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.RECOVERY_FAILED
    assert forked.attempts == 3
    assert executed_to == forked.icount


#: ``movi r3, 0`` at the top of the sixth outer iteration of NESTED_SRC
#: (two set-up instructions, 36 per iteration): r3 is dead there.
DEAD_REGISTER = RegisterFaultSpec(icount=2 + 5 * 36, reg=3, bit=4)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("recover", [False, True], ids=["plain", "recover"])
@pytest.mark.parametrize("spec", [DEAD_REGISTER, FLAG_NOOP],
                         ids=["dead-register", "flag-noop"])
def test_masked_fault_converges_at_the_next_rung(backend, recover, spec):
    """With or without recovery, a masked fault's run stops executing at
    the first rung after the fault fires."""
    pipe = Pipeline(PROGRAM, _config("native", backend, recover))
    forked, executed_to = run_watched(pipe, spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.BENIGN
    ladder = pipe._ladder
    if isinstance(spec, RegisterFaultSpec):
        fires = spec.icount
    else:
        fires = ladder.pc_hits[spec.branch_pc][spec.occurrence - 1]
    assert executed_to == ladder.icounts[
        bisect.bisect_right(ladder.icounts, fires)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("recover", [False, True], ids=["plain", "recover"])
@pytest.mark.parametrize("name", list(MEMORY_FAULTS))
def test_registers_converge_but_the_run_does_not(backend, recover, name):
    pipe = Pipeline(MEMORY_PROGRAM, _config("native", backend, recover))
    spec = MEMORY_FAULTS[name]
    forked, executed_to = run_watched(pipe, spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.SDC
    assert executed_to == forked.icount


@pytest.mark.parametrize("backend", BACKENDS)
def test_restart_restores_the_golden_prefix_pages(backend):
    """A stuck-at fault in the summing loop escalates to a restart from
    the entry, which must put back the array the golden prefix filled
    before the fork point: the re-executed fill reads it."""
    pipe = Pipeline(MEMORY_PROGRAM, _config("static-rcf", backend, True))
    forked = pipe.run(RESTART)
    assert forked == fresh_record(pipe, RESTART)
    assert forked.attempts == 3
    # the last attempt's sums: the fill ran on a restored array
    assert forked.outputs[1] == tuple(k * (k + 1) // 2
                                      for k in range(30))
