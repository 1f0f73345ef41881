"""RecoveryManager behaviour: retry budget, escalation, watchdog,
interval adaptation.  These tests drive the manager directly with a
scripted ``classify`` — the campaign-integration tests cover the real
detection paths."""

import pytest

from repro.exec import install_backend
from repro.isa import assemble
from repro.machine import Cpu
from repro.machine.faults import StopReason
from repro.recovery import MIN_INTERVAL, RecoveryManager

LONG_LOOP_SRC = """
.entry main
main:
    movi r1, 0
    movi r2, 1
loop:
    add r1, r1, r2
    addi r2, r2, 1
    cmpi r2, 2001
    jl loop
    syscall 4
    movi r1, 0
    syscall 0
"""

HANG_SRC = """
.entry main
main:
    movi r1, 0
spin:
    addi r1, r1, 1
    jmp spin
"""


def _cpu(program, backend="interp"):
    cpu = Cpu()
    install_backend(cpu, backend)
    cpu.load_program(program, executable_text=True)
    return cpu


def _classify_scripted(cpu, detect_at, budget_holder):
    """Detect once per icount threshold in ``detect_at`` (consumed in
    order); otherwise halt -> done, budget stops -> limit."""

    def classify(stop):
        if detect_at and cpu.icount >= detect_at[0]:
            detect_at.pop(0)
            return "detected"
        if stop.reason is StopReason.HALTED:
            return "done"
        return "limit"

    return classify


class TestRollbackAndEscalation:
    @pytest.mark.parametrize("backend", ["interp", "block"])
    def test_single_rollback_completes(self, sum_loop, backend):
        golden = _cpu(sum_loop, backend)
        golden.run(max_steps=100_000)

        cpu = _cpu(sum_loop, backend)
        detect_at = [20]
        manager = RecoveryManager(
            cpu, step=lambda n: cpu.run(max_steps=n),
            classify=_classify_scripted(cpu, detect_at, None),
            budget=100_000, interval=8)
        stop = manager.execute()
        assert stop.reason is StopReason.HALTED
        assert cpu.output == golden.output
        assert cpu.icount == golden.icount
        report = manager.report
        assert report.triggers == 1
        assert report.attempts == 1
        assert report.rollback_icount > 0
        assert report.reexec_cycles > 0
        assert not report.gave_up
        # First rollback goes to the newest mid-run checkpoint, not
        # all the way back to entry.
        kinds = [e["event"] for e in report.events]
        assert kinds == ["detected", "rollback"]
        assert cpu.memory.cow is None   # disarmed on exit

    def test_redetection_escalates_to_entry(self, sum_loop):
        cpu = _cpu(sum_loop, "interp")
        detect_at = [20, 20]   # fires again right after the rollback
        manager = RecoveryManager(
            cpu, step=lambda n: cpu.run(max_steps=n),
            classify=_classify_scripted(cpu, detect_at, None),
            budget=100_000, interval=8)
        stop = manager.execute()
        assert stop.reason is StopReason.HALTED
        assert cpu.output_values == [55]
        report = manager.report
        assert report.attempts == 2
        assert report.restarts == 1
        events = [e["event"] for e in report.events]
        assert events == ["detected", "rollback", "detected", "restart"]
        restart = report.events[-1]
        assert restart["target"] == 0
        assert restart["target_icount"] == 0

    def test_retry_budget_gives_up(self, sum_loop):
        cpu = _cpu(sum_loop, "interp")
        detect_at = [20] * 10   # incurable
        manager = RecoveryManager(
            cpu, step=lambda n: cpu.run(max_steps=n),
            classify=_classify_scripted(cpu, detect_at, None),
            budget=100_000, interval=8, max_retries=2)
        stop = manager.execute()
        assert stop is not None
        report = manager.report
        assert report.gave_up
        assert report.attempts == 2       # bounded by max_retries
        assert report.triggers == 3       # the third trigger gave up
        assert report.events[-1]["event"] == "gave-up"


class TestWatchdog:
    def test_hang_trips_watchdog_then_gives_up(self):
        program = assemble(HANG_SRC)
        cpu = _cpu(program, "interp")

        def classify(stop):
            if stop.reason is StopReason.HALTED:
                return "done"
            return "limit"

        manager = RecoveryManager(
            cpu, step=lambda n: cpu.run(max_steps=n),
            classify=classify, budget=200, interval=64, max_retries=2)
        stop = manager.execute()
        assert stop.reason is StopReason.STEP_LIMIT
        report = manager.report
        assert report.gave_up
        triggers = [e for e in report.events
                    if e["event"] == "watchdog"]
        assert len(triggers) == 3
        # Every re-execution got a fresh budget from its rollback
        # target, so the run retired more instructions than one
        # budget's worth in total.
        assert cpu.icount <= 200 * 3


class TestIntervalAdaptation:
    def test_interval_grows_over_clean_run(self):
        program = assemble(LONG_LOOP_SRC)
        cpu = _cpu(program, "interp")

        def classify(stop):
            return ("done" if stop.reason is StopReason.HALTED
                    else "limit")

        manager = RecoveryManager(
            cpu, step=lambda n: cpu.run(max_steps=n),
            classify=classify, budget=1_000_000, interval=MIN_INTERVAL)
        stop = manager.execute()
        assert stop.reason is StopReason.HALTED
        report = manager.report
        assert report.triggers == 0
        # Growth: far fewer checkpoints than icount/MIN_INTERVAL, but
        # the run was still segmented.
        naive = cpu.icount // MIN_INTERVAL
        assert 0 < report.checkpoints < naive // 2

    def test_checkpoint_chain_is_bounded(self):
        program = assemble(LONG_LOOP_SRC)
        cpu = _cpu(program, "interp")
        manager = RecoveryManager(
            cpu, step=lambda n: cpu.run(max_steps=n),
            classify=lambda stop: (
                "done" if stop.reason is StopReason.HALTED else "limit"),
            budget=1_000_000, interval=MIN_INTERVAL, max_live=4)
        manager.execute()
        assert len(manager.checkpoints) <= 4


#: Stores once, to the data page, then only counts.
STORE_THEN_LOOP_SRC = """
.entry main
main:
    const r5, cell
    movi r6, 7
    st r6, r5, 0
    movi r1, 0
loop:
    addi r1, r1, 1
    cmpi r1, 400
    jl loop
    syscall 4
    movi r1, 0
    syscall 0
.data
cell:
    .word 0
"""


class TestResume:
    """A manager resumed at a checkpoint boundary of another run."""

    @staticmethod
    def _boundary(cpu, boundaries: int):
        """Drive a manager over ``cpu`` through clean boundaries, as
        the golden-run walk does; returns its resume point."""
        cpu.memory.cow = {}
        walker = RecoveryManager(cpu, step=None, classify=None,
                                 budget=None, interval=MIN_INTERVAL)
        walker.begin()
        for _ in range(boundaries):
            cpu.run(max_steps=walker.segment)
            walker.checkpoint()
        return walker.resume_point()

    def test_resumed_run_matches_a_run_from_the_entry(self):
        program = assemble(STORE_THEN_LOOP_SRC)
        whole = _cpu(program)
        whole_manager = RecoveryManager(
            whole, step=lambda n: whole.run(max_steps=n),
            classify=_classify_scripted(whole, [500, 600], None),
            budget=100_000, interval=MIN_INTERVAL)
        whole_manager.execute()

        cpu = _cpu(program)
        point = self._boundary(cpu, 3)
        assert point.captured == 3 and cpu.icount == 3 * MIN_INTERVAL
        manager = RecoveryManager(
            cpu, step=lambda n: cpu.run(max_steps=n),
            classify=_classify_scripted(cpu, [500, 600], None),
            budget=100_000, interval=MIN_INTERVAL)
        manager.execute(point)
        assert (cpu.icount, cpu.cycles, cpu.output) == (
            whole.icount, whole.cycles, whole.output)
        assert manager.report.to_json() == whole_manager.report.to_json()

    def test_rollback_past_the_resume_point_counts_its_pages(self):
        """The restart from the entry rewrites the page the run stored
        to before it was resumed: the manager reports it dirtied before
        the re-execution stores to it again."""
        program = assemble(STORE_THEN_LOOP_SRC)
        cpu = _cpu(program)
        point = self._boundary(cpu, 2)
        restarted = []

        def step(n):
            if cpu.icount == 0:
                restarted.append(manager.dirtied())
            return cpu.run(max_steps=n)

        manager = RecoveryManager(
            cpu, step=step,
            classify=_classify_scripted(cpu, [200, 210], None),
            budget=100_000, interval=MIN_INTERVAL)
        manager.execute(point)
        assert manager.report.restarts == 1
        assert program.symbols["cell"] >> 12 in restarted[0]
