"""Forked fault runs: a run forked from a golden-run rung must give the
record a fresh run gives, field for field, whatever ran before it on
the pipeline's machine and however a campaign chunks and spreads it.
"""

from __future__ import annotations

import bisect
import random

import pytest

import repro.recovery.manager as recovery_manager
from repro.dbt import Dbt
from repro.faults.campaign import Outcome, Pipeline, PipelineConfig
from repro.faults.executor import CampaignExecutor
from repro.faults.fork import HIT_CAP, GoldenLadder, rung_spacing
from repro.faults.injector import (DirectionFault, FaultSpec,
                                   FlagBitFault, RedirectFault,
                                   RegisterFaultSpec, SchedFaultSpec)
from repro.isa import assemble
from repro.isa.flags import Flag
from repro.machine import Cpu, StopReason
from repro.workloads.kernels import mt
from tests.dbt.test_smc import SMC_LOOP_SRC
from tests.faults.test_run_path import (BACKENDS, BRANCH_FAULTS, EXPECTED,
                                        MT_FAULTS, MT_PROGRAM, PROGRAM,
                                        _cache_faults, _config, _faults,
                                        _record_tuple)

#: Counts to 200; forcing its loop branch taken on the 200th visit
#: skips the exit and runs until the step budget stops it.
HANG_SRC = """
.entry main
main:
    movi r1, 0
loop:
    addi r1, r1, 1
    cmpi r1, 200
    jnz loop
    syscall 4
    movi r1, 0
    syscall 0
"""
HANG_PROGRAM = assemble(HANG_SRC, name="fork-hang")
HANG = FaultSpec(HANG_PROGRAM.symbols["loop"] + 8, 200, DirectionFault())

#: The single-threaded lanes of the pinned table, all of which fork.
FORK_LANES = ("native", "static-rcf", "static-ecca", "dbt-rcf",
              "dbt-ecf-df")


def fresh_record(pipe: Pipeline, spec, max_steps: int | None = None):
    """The reference: a fresh machine built and stepped by execute."""
    run = pipe.execute(spec, max_steps or pipe.golden.step_budget)
    try:
        return pipe.classify(run)
    finally:
        run.close()


def _differential_specs(lane: str) -> dict:
    specs = dict(BRANCH_FAULTS)
    specs["never-fires"] = FaultSpec(BRANCH_FAULTS["direction"].branch_pc,
                                     10_000, DirectionFault())
    specs["late-register"] = RegisterFaultSpec(icount=420, reg=1, bit=0)
    if lane == "dbt-rcf":
        specs.update(_cache_faults())
    return specs


@pytest.fixture(scope="module")
def differential():
    """(lane, backend, program, spec) -> (forked record, fresh record)."""
    pairs = {}
    for lane in FORK_LANES:
        for backend in BACKENDS:
            config = _config(lane, backend, recover=False)
            for name, program, specs in (
                    ("nested", PROGRAM, _differential_specs(lane)),
                    ("hang", HANG_PROGRAM, {"hang": HANG})):
                pipe = Pipeline(program, config)
                for spec_name, spec in specs.items():
                    pairs[lane, backend, name, spec_name] = (
                        pipe.run(spec), fresh_record(pipe, spec))
    return pairs


def _differential_cases():
    for lane in FORK_LANES:
        for backend in BACKENDS:
            for spec_name in _differential_specs(lane):
                yield lane, backend, "nested", spec_name
            yield lane, backend, "hang", "hang"


@pytest.mark.parametrize("case", list(_differential_cases()),
                         ids=lambda case: "-".join(case))
def test_forked_run_matches_fresh_run(differential, case):
    forked, fresh = differential[case]
    assert forked == fresh


def test_differential_covers_every_outcome_kind(differential):
    outcomes = {forked.outcome for forked, _ in differential.values()}
    assert {Outcome.SDC, Outcome.BENIGN, Outcome.DETECTED_SIGNATURE,
            Outcome.DETECTED_HARDWARE, Outcome.HANG} <= outcomes
    latencies = [forked.detection_latency
                 for forked, _ in differential.values()
                 if forked.detection_latency is not None]
    assert latencies


@pytest.mark.parametrize("backend", BACKENDS)
def test_hang_stops_at_the_step_budget(differential, backend):
    forked, fresh = differential["native", backend, "hang", "hang"]
    budget = Pipeline(HANG_PROGRAM, PipelineConfig("native")).golden \
        .step_budget
    assert forked.outcome is Outcome.HANG
    assert forked.stop_reason.startswith(StopReason.STEP_LIMIT.value)
    assert forked.icount == fresh.icount == budget


class TestLadder:
    def test_built_by_the_first_forked_run_only(self):
        config = PipelineConfig("dbt", "rcf")
        pipe = Pipeline(PROGRAM, config)
        assert pipe._ladder is None
        pipe.run(None)
        assert pipe._ladder is None
        pipe.run(BRANCH_FAULTS["direction"])
        assert pipe._ladder is not None

    def test_threaded_runs_fork(self):
        pipe = Pipeline(MT_PROGRAM, _config("mt-static-ecf", "interp",
                                            False))
        for spec in MT_FAULTS.values():
            assert pipe.run(spec) == fresh_record(pipe, spec)
        assert pipe._ladder.machine is pipe._ladder.run.machine
        assert pipe._ladder.components == (pipe._ladder.machine,)

    def test_threaded_recovery_runs_fresh(self):
        pipe = Pipeline(MT_PROGRAM, _config("mt-native", "interp", True))
        for spec in MT_FAULTS.values():
            pipe.run(spec)
        assert pipe._ladder is None

    def test_dbt_recovery_runs_fresh(self):
        pipe = Pipeline(PROGRAM, PipelineConfig("dbt", "rcf", recover=True))
        pipe.run(BRANCH_FAULTS["direction"])
        assert pipe._ladder is None

    def test_rungs_sit_at_the_golden_spacing(self):
        pipe = Pipeline(HANG_PROGRAM, PipelineConfig("native"))
        pipe.run(HANG)
        ladder = pipe._ladder
        spacing = rung_spacing(pipe.golden.icount)
        assert ladder.spacing == spacing
        assert [rung.state.icount for rung in ladder.rungs] == list(
            range(0, pipe.golden.icount, spacing))
        assert len(ladder.rungs) > 5

    @pytest.mark.parametrize("config", [PipelineConfig("native"),
                                        PipelineConfig("dbt", "rcf",
                                                       backend="block")],
                             ids=["native", "dbt-block"])
    def test_forked_runs_build_no_machine(self, monkeypatch, config):
        pipe = Pipeline(HANG_PROGRAM, config)
        pipe.run(HANG)
        built = []
        cpu_init, dbt_init = Cpu.__init__, Dbt.__init__

        def counted_cpu(self, *args, **kwargs):
            built.append("cpu")
            cpu_init(self, *args, **kwargs)

        def counted_dbt(self, *args, **kwargs):
            built.append("dbt")
            dbt_init(self, *args, **kwargs)

        monkeypatch.setattr(Cpu, "__init__", counted_cpu)
        monkeypatch.setattr(Dbt, "__init__", counted_dbt)
        for occurrence in (150, 3, 199, 40):
            pipe.run(FaultSpec(HANG.branch_pc, occurrence,
                               DirectionFault()))
        assert built == []

    @pytest.mark.parametrize("recover", [False, True],
                             ids=["plain", "recover"])
    def test_runs_compile_the_same_blocks_whatever_ran_before(self,
                                                              recover):
        """A rewind drops the blocks the last run compiled off the
        golden path, so a run compiles the same blocks on every
        repeat."""
        pipe = Pipeline(PROGRAM, _config("static-rcf", "block", recover))
        off_path = BRANCH_FAULTS["redirect"]
        pipe.run(off_path)                  # builds the ladder
        backend = pipe._ladder.run.cpu.backend
        compiled = []
        for spec in (off_path, BRANCH_FAULTS["register"], off_path):
            before = backend.blocks_compiled
            assert pipe.run(spec) == fresh_record(pipe, spec)
            compiled.append(backend.blocks_compiled - before)
        assert compiled[0] == compiled[2] > 0

    def test_occurrence_beyond_recorded_visits(self):
        """A visit past the walk's per-site record forks from before
        the last recorded one and still fires at the right visit."""
        assert HIT_CAP < 200
        pipe = Pipeline(HANG_PROGRAM, PipelineConfig("native"))
        for occurrence in (HIT_CAP, HIT_CAP + 1, 200, 201):
            spec = FaultSpec(HANG.branch_pc, occurrence, DirectionFault())
            assert pipe.run(spec) == fresh_record(pipe, spec)


# -- rejoining the golden run at an icount offset -------------------------


#: Each iteration runs two branches whose two directions end in the same
#: state: ``jl plus`` is taken and skips a nop, ``jge minus`` falls
#: through and runs one.  Flipping the first costs a run one more
#: instruction, flipping the second one fewer; the rest is the golden
#: run shifted by that offset.
OFFSET_SRC = """
.entry main
main:
    movi r1, 0
    movi r2, 0
loop:
    addi r1, r1, 1
    cmpi r1, 1000
    jl plus
    nop
plus:
    cmpi r1, 1000
    jge minus
    nop
minus:
    add r2, r2, r1
    cmpi r1, 150
    jl loop
    mov r1, r2
    syscall 4
    movi r1, 0
    syscall 0
"""
OFFSET_PROGRAM = assemble(OFFSET_SRC, name="fork-offset")
OFFSET_FAULTS = {
    1: FaultSpec(OFFSET_PROGRAM.symbols["loop"] + 8, 40, DirectionFault()),
    -1: FaultSpec(OFFSET_PROGRAM.symbols["plus"] + 4, 40,
                  DirectionFault()),
}


def run_traced(monkeypatch, pipe: Pipeline, spec,
               max_steps: int | None = None):
    """``pipe.run(spec)``, the offsets (run icount minus rung icount)
    at which it took the golden run's end, and the verdicts of every
    full-state comparison it made."""
    offsets, verdicts = [], []
    take_rest, converged = GoldenLadder._take_rest, GoldenLadder._converged

    def traced_take_rest(ladder, cpu, index):
        offsets.append(cpu.icount - ladder.rungs[index].state.icount)
        return take_rest(ladder, cpu, index)

    def traced_converged(ladder, cpu, index, written):
        verdicts.append(converged(ladder, cpu, index, written))
        return verdicts[-1]

    with monkeypatch.context() as patch:
        patch.setattr(GoldenLadder, "_take_rest", traced_take_rest)
        patch.setattr(GoldenLadder, "_converged", traced_converged)
        record = pipe.run(spec, max_steps)
    return record, offsets, verdicts


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("offset", [1, -1])
def test_benign_run_rejoins_at_an_offset(monkeypatch, backend, offset):
    pipe = Pipeline(OFFSET_PROGRAM, PipelineConfig("native",
                                                   backend=backend))
    spec = OFFSET_FAULTS[offset]
    forked, offsets, _ = run_traced(monkeypatch, pipe, spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.BENIGN
    assert forked.icount == pipe.golden.icount + offset
    assert offsets == [offset]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("offset", [1, -1])
def test_recovery_run_checks_at_the_rungs_only(monkeypatch, backend,
                                               offset):
    """A recovery run has no window: one instruction off the golden
    run, it executes to its end, capturing checkpoints on the way."""
    pipe = Pipeline(OFFSET_PROGRAM, PipelineConfig(
        "native", backend=backend, recover=True, checkpoint_interval=64))
    spec = OFFSET_FAULTS[offset]
    pipe.run(spec)                      # walks the ladder
    captures = []
    capture = recovery_manager.capture_checkpoint

    def counted(*args, **kwargs):
        captures.append(args)
        return capture(*args, **kwargs)

    monkeypatch.setattr(recovery_manager, "capture_checkpoint", counted)
    forked, offsets, _ = run_traced(monkeypatch, pipe, spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.BENIGN
    assert forked.icount == pipe.golden.icount + offset
    assert offsets == []
    assert captures


#: OFFSET_SRC, printing the cycle counter at the end, with a 3-cycle
#: ``mul`` of a zero register in place of the nop ``jl plus`` skips: the
#: taken branch's penalty is one cycle.
CYCLES_PROGRAM = assemble(OFFSET_SRC.replace(
    "    nop\nplus:", "    mul r9, r9, r9\nplus:").replace(
    "    mov r1, r2\n", "    syscall 5\n    mov r1, r0\n"),
    name="fork-cycles")


@pytest.mark.parametrize("backend", BACKENDS)
def test_code_reading_cycles_rejoins_only_at_equal_cycles(monkeypatch,
                                                          backend):
    """A run one instruction late prints a different cycle count: it
    must not take the golden run's end."""
    pipe = Pipeline(CYCLES_PROGRAM, PipelineConfig("native",
                                                   backend=backend))
    spec = FaultSpec(CYCLES_PROGRAM.symbols["loop"] + 8, 40,
                     DirectionFault())
    forked, offsets, verdicts = run_traced(monkeypatch, pipe, spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.SDC
    assert pipe._ladder.reads_cycles
    assert verdicts and not any(verdicts)
    assert offsets == []


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_budget_edge_of_an_offset_run(monkeypatch, backend, delta):
    """A run one instruction behind the golden run takes its end only
    when the budget covers it: one step short it executes into the
    budget and hangs."""
    pipe = Pipeline(OFFSET_PROGRAM, PipelineConfig("native",
                                                   backend=backend))
    spec = OFFSET_FAULTS[1]
    budget = pipe.golden.icount + 1 + delta
    forked, offsets, _ = run_traced(monkeypatch, pipe, spec, budget)
    assert forked == fresh_record(pipe, spec, budget)
    if delta < 0:
        assert forked.outcome is Outcome.HANG
        assert forked.icount == budget
        assert offsets == []
    else:
        assert forked.outcome is Outcome.BENIGN
        assert offsets == [1]


#: Fills an array through a temporary register cleared after each store,
#: then prints the array's sum.  A flip of the temporary register just
#: before a store changes one word and nothing else: the registers are
#: golden again one instruction later.
PAGE_SRC = """
.entry main
main:
    const r5, arr
    movi r1, 0
fill:
    addi r1, r1, 1
    mov r3, r1
    st r3, r5, 0
    movi r3, 0
    addi r5, r5, 4
    cmpi r1, 100
    jl fill
    const r5, arr
    movi r1, 0
    movi r2, 0
sum:
    ld r3, r5, 0
    add r2, r2, r3
    movi r3, 0
    addi r5, r5, 4
    addi r1, r1, 1
    cmpi r1, 100
    jl sum
    mov r1, r2
    syscall 4
    movi r1, 0
    syscall 0
.data
arr:
    .space 400
"""
PAGE_PROGRAM = assemble(PAGE_SRC, name="fork-page")


def _store_icount(visit: int) -> int:
    """The icount of the ``visit``-th execution of the fill's store."""
    cpu = Cpu()
    cpu.load_program(PAGE_PROGRAM)
    store = PAGE_PROGRAM.symbols["fill"] + 8
    seen = 0
    while True:
        if cpu.pc == store:
            seen += 1
            if seen == visit:
                return cpu.icount
        assert cpu.step() is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_state_key_match_with_a_differing_page(monkeypatch, backend):
    """The run reaches a rung's pc, flags and registers with one array
    word wrong: the page comparison refuses every such match, and the
    run executes to its end."""
    pipe = Pipeline(PAGE_PROGRAM, PipelineConfig("native",
                                                 backend=backend))
    spec = RegisterFaultSpec(icount=_store_icount(40), reg=3, bit=6)
    forked, offsets, verdicts = run_traced(monkeypatch, pipe, spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.SDC
    assert verdicts and not any(verdicts)
    assert offsets == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_persistent_fault_never_converges(monkeypatch, backend):
    """A stuck-at fault is re-armed by every rollback, so no attempt
    rejoins the golden run: the run executes until recovery gives
    up."""
    pipe = Pipeline(PROGRAM, _config("static-rcf", backend, True))
    spec = BRANCH_FAULTS["persistent"]
    forked, offsets, verdicts = run_traced(monkeypatch, pipe, spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.RECOVERY_FAILED
    assert offsets == [] and not any(verdicts)


#: ``jl loop``: a flag it does not read (ZF) flipped there is masked.
FLAG_SITE = OFFSET_PROGRAM.symbols["minus"] + 8


@pytest.mark.parametrize("backend", BACKENDS)
def test_dbt_runs_never_compare_states(monkeypatch, backend):
    """DBT runs step their budget in one go, even when masked."""
    def refuse(*args):
        raise AssertionError("a DBT run compared its state")

    monkeypatch.setattr(GoldenLadder, "_rejoin", refuse)
    monkeypatch.setattr(GoldenLadder, "_converged", refuse)
    pipe = Pipeline(OFFSET_PROGRAM, PipelineConfig("dbt", "rcf",
                                                   backend=backend))
    for spec in (*OFFSET_FAULTS.values(),
                 FaultSpec(FLAG_SITE, 30, FlagBitFault(Flag.ZF))):
        assert pipe.run(spec) == fresh_record(pipe, spec)
    assert pipe._ladder is not None


# -- threaded runs ---------------------------------------------------------


#: Four workers of 40 iterations each: 57 rungs, 69 context switches at
#: quantum 53.
MT_FORK_PROGRAM = assemble(mt.counters(threads=4, iters=40, spin=4),
                           name="fork-mt")
#: ``jl wloop``, which each worker runs once per iteration.
MT_LOOP = MT_FORK_PROGRAM.symbols["spinloop"] + 20


def _mt_pipe(backend: str) -> Pipeline:
    return Pipeline(MT_FORK_PROGRAM, PipelineConfig(
        "native", backend=backend, threads=True, quantum=53))


def _spy(monkeypatch, name: str, seen: list, fields):
    """Wrap ``GoldenLadder.<name>`` to append ``fields(ladder, *args)``
    to ``seen`` on every call."""
    method = getattr(GoldenLadder, name)

    def spied(ladder, *args):
        seen.append(fields(ladder, *args))
        return method(ladder, *args)

    monkeypatch.setattr(GoldenLadder, name, spied)


@pytest.mark.parametrize("backend", BACKENDS)
def test_thread_fault_counts_its_victims_visits(monkeypatch, backend):
    """The injector starts with the victim's visits before the rung,
    not every thread's."""
    pipe = _mt_pipe(backend)
    spec = FaultSpec(MT_LOOP, 30, DirectionFault(), thread=2)
    seen = []
    _spy(monkeypatch, "stepper", seen,
         lambda ladder, run, fires, *rest: (run.cpu.icount,
                                            run.injector.count, fires))
    assert pipe.run(spec) == fresh_record(pipe, spec)
    [(icount, count, fires)] = seen
    ladder = pipe._ladder
    victim = ladder.tid_hits[MT_LOOP, 2]
    assert fires == victim[29]
    assert count == bisect.bisect_left(victim, icount) > 0
    assert count < bisect.bisect_left(ladder.pc_hits[MT_LOOP], icount)


@pytest.mark.parametrize("backend", BACKENDS)
def test_never_visiting_victim_forks_from_the_last_rung(monkeypatch,
                                                        backend):
    """The main thread never runs the workers' loop: its fault never
    fires, and the run forks from the last rung."""
    pipe = _mt_pipe(backend)
    spec = FaultSpec(MT_LOOP, 1, DirectionFault(), thread=0)
    pipe.run(spec)                      # walks the ladder
    assert (MT_LOOP, 0) not in pipe._ladder.tid_hits
    rewound = []
    _spy(monkeypatch, "rewind", rewound, lambda ladder, index: index)
    forked = pipe.run(spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.BENIGN
    assert rewound == [len(pipe._ladder.rungs) - 1]


@pytest.mark.parametrize("backend", BACKENDS)
def test_ctx_bit_converges_at_the_first_rung_after_its_switch(monkeypatch,
                                                              backend):
    """Worker 1's spin counter, flipped at switch 5, is rewritten
    before the next rung: the run compares its state there first and
    takes the golden run's end."""
    pipe = _mt_pipe(backend)
    spec = SchedFaultSpec(switch=5, kind="ctx-bit", tid=1, reg=6, bit=2)
    pipe.run(spec)                      # walks the ladder
    compared, taken = [], []
    _spy(monkeypatch, "_converged", compared,
         lambda ladder, cpu, index, written: cpu.icount)
    _spy(monkeypatch, "_take_rest", taken, lambda ladder, cpu, index: index)
    forked = pipe.run(spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.BENIGN
    ladder = pipe._ladder
    fires = ladder.switch_icounts[4]
    first = bisect.bisect_right(ladder.icounts, fires)
    assert taken == [first]
    assert compared == [ladder.icounts[first]]


#: Two depositors that yield the mutex: the yield of switch 6 retires
#: at rung 2's icount, so the switch comes before that rung.
LEDGER_PROGRAM = assemble(mt.ledger(threads=2, deposits=20),
                          name="fork-ledger")


@pytest.mark.parametrize("backend", BACKENDS)
def test_sched_fault_forks_by_switch_count(backend):
    pipe = Pipeline(LEDGER_PROGRAM, PipelineConfig(
        "native", backend=backend, threads=True, quantum=53))
    spec = SchedFaultSpec(switch=6, kind="ctx-bit", tid=1, reg=4, bit=3)
    forked = pipe.run(spec)
    assert forked == fresh_record(pipe, spec)
    assert forked.outcome is Outcome.SDC
    ladder = pipe._ladder
    fires = ladder.switch_icounts[5]
    assert fires == ladder.icounts[2] and ladder.switches[2] == 6
    budget = pipe.golden.step_budget
    assert ladder.switch_point(6, budget) == (1, fires)
    # An ordinal the golden run never reaches never fires.
    beyond = len(ladder.switch_icounts) + 1
    assert ladder.switch_point(beyond, budget) == (len(ladder.rungs) - 1,
                                                   None)
    spec = SchedFaultSpec(switch=beyond, kind="queue-rotate")
    assert pipe.run(spec) == fresh_record(pipe, spec)


@pytest.mark.parametrize("backend", BACKENDS)
def test_later_runs_end_with_the_fresh_schedule(backend):
    """A queue rotation changes the schedule; a run forked after it
    from a later rung, which never rejoins the golden run, still ends
    with the schedule trace a fresh run gives."""
    pipe = _mt_pipe(backend)
    budget = pipe.golden.step_budget
    golden = pipe.execute(None, budget).machine.trace_digest()
    rotate = SchedFaultSpec(switch=3, kind="queue-rotate")
    assert pipe.run(rotate) == fresh_record(pipe, rotate)
    assert pipe.execute(rotate, budget).machine.trace_digest() != golden
    later = FaultSpec(MT_LOOP, 30, DirectionFault(), thread=3)
    run = pipe._fork(later, budget)
    fresh = pipe.execute(later, budget)
    assert pipe.classify(run) == pipe.classify(fresh)
    assert run.cpu.icount != pipe.golden.icount
    assert run.machine.trace_digest() == fresh.machine.trace_digest()


@pytest.mark.parametrize("backend", BACKENDS)
def test_threaded_runs_check_at_the_rungs_only(monkeypatch, backend):
    pipe = _mt_pipe(backend)
    specs = [SchedFaultSpec(switch=3, kind="queue-rotate"),
             SchedFaultSpec(switch=5, kind="ctx-bit", tid=1, reg=6, bit=2),
             SchedFaultSpec(switch=20, kind="ctx-bit", tid=2, reg=4, bit=0),
             FaultSpec(MT_LOOP, 30, DirectionFault(), thread=3),
             RegisterFaultSpec(icount=1000, reg=6, bit=1)]
    pipe.run(specs[0])                  # walks the ladder
    checked = []
    _spy(monkeypatch, "_rejoin", checked,
         lambda ladder, cpu, budget, written: cpu.icount)
    for spec in specs:
        assert pipe.run(spec) == fresh_record(pipe, spec)
    assert len(checked) > len(specs)
    assert set(checked) <= set(pipe._ladder.icounts)


# -- order and chunk independence over the pinned table -------------------


def _pipelines():
    """Every pipeline of the pinned run-path table: (key, program,
    config, {fault name: spec})."""
    for (lane, backend, recover, _fault) in EXPECTED:
        if _fault != "golden":
            continue
        program = MT_PROGRAM if lane.startswith("mt-") else PROGRAM
        yield ((lane, backend, recover), program,
               _config(lane, backend, recover), _faults(lane))


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_pinned_table_in_any_order(order):
    """One Pipeline per configuration runs its specs out of order; each
    record still matches the pinned table."""
    for key, program, config, faults in _pipelines():
        names = list(faults)
        if order == "reversed":
            names.reverse()
        else:
            random.Random(19).shuffle(names)
        pipe = Pipeline(program, config)
        for name in names:
            assert _record_tuple(pipe.run(faults[name])) == \
                EXPECTED[(*key, name)], (key, name)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("chunk_size", [1, 8, 64])
def test_pinned_table_through_the_executor(jobs, chunk_size):
    for key, program, config, faults in _pipelines():
        names = list(faults)
        records = CampaignExecutor(
            program, config, jobs=jobs,
            chunk_size=chunk_size).run_specs([faults[name]
                                              for name in names])
        for name, record in zip(names, records):
            assert _record_tuple(record) == EXPECTED[(*key, name)], \
                (key, name)


# -- a golden run that flushes the code cache ------------------------------


#: SMC_LOOP_SRC runs its loop long enough for rungs on both sides of
#: the flush its second iteration's self-modifying store triggers.
SMC_PROGRAM = assemble(SMC_LOOP_SRC.replace("cmpi r5, 3", "cmpi r5, 90"),
                       name="fork-smc")


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_prefix_with_a_cache_flush(backend):
    config = PipelineConfig("dbt", "rcf", backend=backend)
    pipe = Pipeline(SMC_PROGRAM, config)
    loop = next(pc for pc in range(SMC_PROGRAM.text_base,
                                   SMC_PROGRAM.text_end, 4)
                if SMC_PROGRAM.instruction_at(pc).op.name == "JL")
    site = SMC_PROGRAM.symbols["site"]
    specs = [FaultSpec(loop, occurrence, DirectionFault())
             for occurrence in (1, 2, 40, 85)]
    specs += [FaultSpec(loop, 60, RedirectFault(site)),
              RegisterFaultSpec(icount=5, reg=2, bit=3),
              # r5 turns negative: the loop runs into the step budget
              RegisterFaultSpec(icount=700, reg=5, bit=31)]
    fresh = [fresh_record(pipe, spec) for spec in specs]
    assert fresh[-1].outcome is Outcome.HANG
    for order in (specs, specs[::-1]):
        forked = {id(spec): pipe.run(spec) for spec in order}
        assert [forked[id(spec)] for spec in specs] == fresh
    flushes = [rung.state.components[0].flushes
               for rung in pipe._ladder.rungs]
    assert flushes[0] == 0 and flushes[-1] >= 1
