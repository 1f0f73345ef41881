#!/usr/bin/env python
"""Quickstart: protect a program against control-flow errors.

Assembles a small R32 program, runs it natively, runs it transparently
under the dynamic binary translator with the EdgCF checking technique,
then injects a single-bit soft error into a branch and watches the
signature check catch it.

Run:  python examples/quickstart.py
"""

from repro import assemble, run_dbt, run_native
from repro.checking import EdgCF
from repro.dbt import Dbt
from repro.faults import DbtInjector, FaultSpec, OffsetBitFault

SOURCE = """
.entry main
main:
    movi r1, 0              ; checksum
    movi r2, 1              ; i
loop:
    mul r3, r2, r2
    add r1, r1, r3          ; checksum += i*i
    addi r2, r2, 1
    cmpi r2, 20
    jl loop
    syscall 1               ; print the checksum
    movi r1, 0
    syscall 0               ; exit(0)
"""


def main() -> None:
    program = assemble(SOURCE, name="quickstart")

    # 1. Native execution (the unprotected baseline).
    cpu, stop = run_native(program)
    print(f"native:    output={cpu.output}  cycles={cpu.cycles}")

    # 2. Transparent protection: same binary, run under the DBT with
    #    edge control-flow checking woven into every translated block.
    dbt, result = run_dbt(program, technique=EdgCF())
    print(f"edgcf-dbt: output={dbt.cpu.output}  "
          f"cycles={dbt.cpu.cycles}  "
          f"slowdown={dbt.cpu.cycles / cpu.cycles:.2f}x  "
          f"error-detected={result.detected_error}")
    assert dbt.cpu.output == cpu.output

    # 3. Soft error: flip bit 0 of the loop branch's address offset at
    #    its 7th execution — the taken branch lands one instruction
    #    past the loop head, in the *middle* of the loop block
    #    (branch-error category C: invisible to CFCSS/ECCA/ECF).
    branch_pc = program.symbols["loop"] + 16   # the jl instruction
    fault = FaultSpec(branch_pc=branch_pc, occurrence=7,
                      fault=OffsetBitFault(bit=0))

    protected = Dbt(program, technique=EdgCF())
    DbtInjector(fault, protected).install(protected.cpu)
    result = protected.run()
    print(f"injected:  detected={result.detected_error}  "
          f"stop={result.stop.reason.value}")
    assert result.detected_error, "EdgCF must catch this branch error"

    # 4. The same fault without protection silently corrupts the run.
    unprotected = Dbt(program)
    DbtInjector(fault, unprotected).install(unprotected.cpu)
    result = unprotected.run()
    print(f"unguarded: detected={result.detected_error}  "
          f"output={unprotected.cpu.output}  (expected {cpu.output})")


if __name__ == "__main__":
    main()
