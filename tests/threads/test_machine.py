"""ThreadedMachine semantics: syscalls, determinism, backend parity."""

import pytest

from repro.exec import BACKEND_NAMES, install_backend
from repro.isa import assemble
from repro.machine import Cpu
from repro.machine.faults import StopReason
from repro.machine.state import MachineState
from repro.threads import (INVALID_TID, MAX_THREADS, ThreadedMachine)
from repro.workloads import BY_NAME

SPAWN_JOIN_SRC = """
.entry main
main:
    const r1, worker
    movi r2, 21
    movi r3, 0
    syscall 16          ; spawn(worker, 21) -> r0 = tid
    mov r1, r0
    syscall 17          ; join -> r0 = retval
    mov r1, r0
    syscall 4
    movi r1, 0
    syscall 0
worker:
    add r1, r1, r1      ; retval = 2 * arg
    syscall 22
"""

TID_SRC = """
.entry main
main:
    syscall 21          ; r0 = own tid (main == 0)
    mov r1, r0
    syscall 4
    const r1, worker
    movi r2, 0
    movi r3, 0
    syscall 16
    mov r1, r0
    syscall 17
    mov r1, r0
    syscall 4
    movi r1, 0
    syscall 0
worker:
    syscall 21
    mov r1, r0          ; retval = own tid
    syscall 22
"""

CROSS_DEADLOCK_SRC = """
.entry main
main:
    movi r1, 0
    syscall 19          ; main takes mutex 0
    const r1, worker
    movi r2, 0
    movi r3, 0
    syscall 16
    mov r1, r0
    syscall 17          ; join worker: blocks...
    movi r1, 0
    syscall 0
worker:
    movi r1, 0
    syscall 19          ; ...while the worker blocks on mutex 0
    movi r1, 0
    syscall 22
"""

SELF_EDGES_SRC = """
.entry main
main:
    movi r1, 0
    syscall 17          ; join(self) fails fast with INVALID_TID
    mov r1, r0
    syscall 4
    movi r1, 5
    syscall 19          ; lock mutex 5
    movi r1, 5
    syscall 19          ; re-lock by the owner: deterministic no-op
    movi r1, 5
    syscall 20
    movi r1, 0
    syscall 0
"""


def run_machine(source, *, backend="interp", quantum=50, policy="rr",
                seed=0, sig_swap=True, max_steps=2_000_000):
    cpu = Cpu()
    install_backend(cpu, backend)
    cpu.load_program(assemble(source), executable_text=True)
    machine = ThreadedMachine(cpu, quantum=quantum, policy=policy,
                              seed=seed, sig_swap=sig_swap)
    stop = machine.run(max_steps=max_steps)
    return cpu, stop, machine


class TestSyscalls:
    def test_spawn_join_delivers_retval(self):
        cpu, stop, machine = run_machine(SPAWN_JOIN_SRC)
        assert stop.reason is StopReason.HALTED and stop.exit_code == 0
        assert list(cpu.output_values) == [42]
        assert machine.thread_count() == 2

    def test_tid_service(self):
        cpu, stop, _machine = run_machine(TID_SRC)
        assert stop.exit_code == 0
        assert list(cpu.output_values) == [0, 1]

    def test_cross_deadlock_detected(self):
        _cpu, stop, machine = run_machine(CROSS_DEADLOCK_SRC)
        assert stop.reason is StopReason.STEP_LIMIT
        assert machine.deadlocked

    def test_self_join_and_relock_edge_cases(self):
        cpu, stop, machine = run_machine(SELF_EDGES_SRC)
        assert stop.exit_code == 0 and not machine.deadlocked
        assert list(cpu.output_values) == [INVALID_TID]

    def test_spawn_beyond_max_threads_fails(self):
        # MAX_THREADS spawns: the last ones must return INVALID_TID and
        # the program still terminates cleanly (workers spin-exit).
        source = f"""
.entry main
main:
    movi r5, 0
    movi r6, 0          ; INVALID_TID observations
spawnloop:
    const r1, worker
    movi r2, 0
    movi r3, 0
    syscall 16
    addi r7, r0, 1      ; INVALID_TID (0xFFFFFFFF) + 1 wraps to 0
    cmpi r7, 0
    jnz valid
    addi r6, r6, 1
valid:
    addi r5, r5, 1
    cmpi r5, {MAX_THREADS + 2}
    jl spawnloop
    mov r1, r6
    syscall 4
    movi r1, 0
    syscall 0
worker:
    movi r1, 0
    syscall 22
"""
        cpu, stop, machine = run_machine(source, quantum=500)
        assert stop.exit_code == 0
        # main + (MAX_THREADS - 1) workers fit; the rest are refused.
        assert list(cpu.output_values) == [3]
        assert machine.thread_count() == MAX_THREADS
        assert INVALID_TID == 0xFFFFFFFF


class TestDeterminism:
    def test_same_config_same_trace(self):
        program = BY_NAME["mt.ledger"].generator(threads=3, deposits=8)
        first = run_machine(program, quantum=61)
        second = run_machine(program, quantum=61)
        assert first[2].trace == second[2].trace
        assert first[2].trace_digest() == second[2].trace_digest()
        assert list(first[0].output_values) == \
            list(second[0].output_values)

    def test_quantum_changes_schedule_not_result(self):
        program = BY_NAME["mt.counters4"].generator(threads=3, iters=20,
                                                    spin=3)
        a = run_machine(program, quantum=40)
        b = run_machine(program, quantum=97)
        assert a[2].trace_digest() != b[2].trace_digest()
        assert list(a[0].output_values) == list(b[0].output_values)

    def test_priority_seed_changes_schedule_not_result(self):
        program = BY_NAME["mt.ledger"].generator(threads=4, deposits=6)
        a = run_machine(program, policy="priority", seed=1)
        b = run_machine(program, policy="priority", seed=2)
        assert a[2].trace_digest() != b[2].trace_digest()
        assert list(a[0].output_values) == list(b[0].output_values)

    @pytest.mark.parametrize("kernel,params", [
        ("mt.counters4", dict(threads=4, iters=20, spin=3)),
        ("mt.ledger", dict(threads=3, deposits=8)),
        ("mt.relay", dict(stages=3, rounds=6)),
    ])
    def test_cross_backend_schedule_parity(self, kernel, params):
        program = BY_NAME[kernel].generator(**params)
        runs = {backend: run_machine(program, backend=backend,
                                     quantum=83)
                for backend in BACKEND_NAMES}
        digests = {backend: run[2].trace_digest()
                   for backend, run in runs.items()}
        assert len(set(digests.values())) == 1, digests
        icounts = {backend: run[0].icount
                   for backend, run in runs.items()}
        assert len(set(icounts.values())) == 1, icounts
        for _cpu, stop, _machine in runs.values():
            assert stop.exit_code == 0


class TestSoloFastPath:
    SINGLE_SRC = """
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

    def test_single_thread_matches_bare_run(self):
        """A never-spawning program under the machine commits exactly
        the bare run's result and retired-instruction count (the solo
        fast path skips self-switch preemptions entirely)."""
        cpu = Cpu()
        cpu.load_program(assemble(self.SINGLE_SRC),
                         executable_text=True)
        bare_stop = cpu.run(max_steps=2_000_000)
        mt_cpu, stop, machine = run_machine(self.SINGLE_SRC, quantum=50)
        assert stop.reason is bare_stop.reason is StopReason.HALTED
        assert mt_cpu.icount == cpu.icount
        assert list(mt_cpu.output_values) == list(cpu.output_values)
        assert machine.switches == 0
        events = [event for _ic, _tid, event in machine.trace]
        assert "preempt" not in events

    def test_no_sig_swap_keeps_chunked_preemption(self):
        """Without signature swapping a self-switch resynchronizes
        signature registers — observable behaviour — so the solo fast
        path must stay off."""
        _cpu, stop, machine = run_machine(self.SINGLE_SRC, quantum=50,
                                          sig_swap=False)
        assert stop.reason is StopReason.HALTED
        events = [event for _ic, _tid, event in machine.trace]
        assert "preempt" in events


class TestSchedSnapshot:
    def test_round_trip_restores_everything(self):
        program = BY_NAME["mt.relay"].generator(stages=3, rounds=6)
        cpu = Cpu()
        cpu.load_program(assemble(program), executable_text=True)
        machine = ThreadedMachine(cpu, quantum=37)
        machine.run(max_steps=400)              # mid-flight
        snap = machine.snapshot()
        contexts = {tid: ctx.snapshot()
                    for tid, ctx in machine.contexts.items()}
        queue = machine.scheduler.ready_tids()
        trace_len = len(machine.trace)
        machine.run(max_steps=800)              # mutate further
        machine.restore(snap)
        assert {tid: ctx.snapshot()
                for tid, ctx in machine.contexts.items()} == contexts
        assert machine.scheduler.ready_tids() == queue
        assert len(machine.trace) == trace_len

    @staticmethod
    def _relay(**kwargs) -> ThreadedMachine:
        program = BY_NAME["mt.relay"].generator(stages=3, rounds=6)
        cpu = Cpu()
        cpu.load_program(assemble(program), executable_text=True)
        return ThreadedMachine(cpu, quantum=37, **kwargs)

    def test_rr_snapshots_share_one_rng_state(self):
        """Round-robin never draws: every snapshot holds the same RNG
        state object, not a copy of its 625 words."""
        machine = self._relay()
        states = []
        for _ in range(256):
            machine.run(max_steps=5)
            states.append(machine.snapshot())
        assert states[-1].switches > 20
        assert len({id(state.scheduler[1]) for state in states}) == 1

    def test_restoring_a_shared_rng_state_is_exact_under_priority(self):
        """Equal-priority threads tie, so the RNG draws; snapshots
        between draws share its state, and a restore of that state
        replays the same schedule."""
        machine = self._relay(policy="priority", seed=3)
        cpu = machine.cpu
        machine.run(max_steps=300)
        state = MachineState.capture(cpu, (machine,))
        memory = bytes(cpu.memory.data)
        snap = state.components[0]
        assert machine.snapshot().scheduler[1] is snap.scheduler[1]
        runs = []
        for _ in range(3):
            state.restore(cpu, (machine,))
            cpu.memory.data[:] = memory
            machine.run(max_steps=800)
            runs.append((machine.trace_digest(), tuple(machine.cpu.regs)))
            assert machine.snapshot().scheduler[1] is not snap.scheduler[1]
        reference = self._relay(policy="priority", seed=3)
        reference.run(max_steps=300)
        reference.run(max_steps=800)
        assert runs == [(reference.trace_digest(),
                         tuple(reference.cpu.regs))] * 3
