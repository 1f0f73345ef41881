"""Opcode table and per-instruction metadata for the R32 ISA.

Every opcode carries the metadata the rest of the system needs:

* ``fmt`` — the encoding format (see :mod:`repro.isa.encoding`),
* ``cycles`` — the deterministic cost charged by the machine simulator
  (this is what makes the performance figures reproducible: the paper's
  slowdown numbers come from instruction count x instruction cost),
* ``sets_flags`` / ``cond`` — flag behaviour.  The distinction between
  flag-setting ops (``xor``, ``add``...) and flagless ops (``lea``,
  ``mov``, ``cmov``, ``jrz``) reproduces the EFLAGS problem of the
  paper's Section 5.1: instrumentation code must only use flagless
  instructions or it corrupts the guest's live condition flags,
* ``kind`` — the coarse classification used by the CFG builder, the
  translator and the fault models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.isa.flags import Cond


class Fmt(enum.Enum):
    """Instruction encoding formats."""

    R3 = "r3"      #: rd, rs, rt
    R2 = "r2"      #: rd, rs
    R1 = "r1"      #: rd (single register operand)
    RI = "ri"      #: rd, rs, imm14 (signed)
    RI16 = "ri16"  #: rd, imm16
    B = "b"        #: branch: offset16 (words), optional rd for jrz/jrnz
    SYS = "sys"    #: imm16 service/trap number
    N = "n"        #: no operands


class Kind(enum.Enum):
    """Coarse instruction classification."""

    ALU = "alu"
    MOVE = "move"
    MEM = "mem"
    STACK = "stack"
    BRANCH_COND = "branch_cond"       #: direct conditional branch
    BRANCH_UNCOND = "branch_uncond"   #: direct unconditional branch
    BRANCH_REG = "branch_reg"         #: flagless register-zero branch
    CALL = "call"                     #: direct call
    BRANCH_IND = "branch_ind"         #: indirect jump / indirect call
    RET = "ret"                       #: return (implicit dynamic branch)
    SYS = "sys"
    NOP = "nop"
    HALT = "halt"
    TRAP = "trap"                     #: DBT exit stub (host-only)


@dataclass(frozen=True)
class OpInfo:
    """Static metadata for one opcode."""

    mnemonic: str
    code: int
    fmt: Fmt
    kind: Kind
    cycles: int
    sets_flags: bool = False
    cond: Cond | None = None  #: condition read by Jcc / CMOVcc

    @cached_property
    def is_branch(self) -> bool:
        """True for anything that can change control flow.

        TRAP counts: in translated code the DBT's exit traps stand in
        for the guest branch they replace, and the fault injector's
        branch hooks must fire on them too.
        """
        return self.kind in (
            Kind.BRANCH_COND,
            Kind.BRANCH_UNCOND,
            Kind.BRANCH_REG,
            Kind.CALL,
            Kind.BRANCH_IND,
            Kind.RET,
            Kind.TRAP,
        )

    @cached_property
    def is_direct_branch(self) -> bool:
        """True when the target is an encoded offset (bit-flippable)."""
        return self.kind in (Kind.BRANCH_COND, Kind.BRANCH_UNCOND,
                             Kind.BRANCH_REG, Kind.CALL)

    @cached_property
    def is_block_terminator(self) -> bool:
        """True when a basic block must end at this instruction."""
        return self.is_branch or self.kind in (Kind.HALT, Kind.TRAP)


class Op(enum.IntEnum):
    """R32 opcodes.  Values are the 8-bit encodings."""

    # ALU, register-register, flag-setting
    ADD = 0x01
    SUB = 0x02
    AND = 0x03
    OR = 0x04
    XOR = 0x05
    SHL = 0x06
    SHR = 0x07
    SAR = 0x08
    MUL = 0x09
    DIV = 0x0A
    MOD = 0x0B
    CMP = 0x0C
    TEST = 0x0D
    NEG = 0x0E
    NOT = 0x0F

    # ALU, register-immediate, flag-setting
    ADDI = 0x10
    SUBI = 0x11
    ANDI = 0x12
    ORI = 0x13
    XORI = 0x14
    CMPI = 0x15
    SHLI = 0x16
    SHRI = 0x17
    MULI = 0x18

    # Flagless moves / address arithmetic (the "lea" family, Section 5.1)
    MOV = 0x20
    MOVI = 0x21
    MOVHI = 0x22
    MOVLO = 0x23
    LEA = 0x24    #: rd = rs + imm14, no flags
    LEA3 = 0x25   #: rd = rs + rt, no flags
    LSUB = 0x26   #: rd = rs - rt, no flags

    # FP-class arithmetic: same integer semantics, higher cost, no flags.
    # These model the "time-consuming instructions (like floating point
    # instructions)" that make the SPEC-Fp overheads smaller (Section 6).
    FADD = 0x28
    FSUB = 0x29
    FMUL = 0x2A
    FDIV = 0x2B

    # Memory
    LD = 0x30
    ST = 0x31
    LDB = 0x32
    STB = 0x33
    PUSH = 0x34
    POP = 0x35

    # Direct control flow
    JMP = 0x40
    JZ = 0x41
    JNZ = 0x42
    JL = 0x43
    JGE = 0x44
    JLE = 0x45
    JG = 0x46
    JB = 0x47
    JAE = 0x48
    JBE = 0x49
    JA = 0x4A
    JS = 0x4B
    JNS = 0x4C
    JO = 0x4D
    JNO = 0x4E
    CALL = 0x4F
    JRZ = 0x50   #: jump if rd == 0, flagless (the paper's jcxz analogue)
    JRNZ = 0x51  #: jump if rd != 0, flagless

    # Indirect control flow
    JMPR = 0x58
    CALLR = 0x59
    RET = 0x5A

    # Conditional moves (flagless destination update, Figure 8/14)
    CMOVZ = 0x60
    CMOVNZ = 0x61
    CMOVL = 0x62
    CMOVGE = 0x63
    CMOVLE = 0x64
    CMOVG = 0x65
    CMOVB = 0x66
    CMOVAE = 0x67
    CMOVBE = 0x68
    CMOVA = 0x69
    CMOVS = 0x6A
    CMOVNS = 0x6B
    CMOVO = 0x6C
    CMOVNO = 0x6D

    # System
    SYSCALL = 0x70
    HALT = 0x71
    NOP = 0x72
    TRAP = 0x73   #: host-only: exit translated code back to the DBT


# Cycle-cost model.  Calibrated so that technique orderings and rough
# magnitudes match the paper (see DESIGN.md "Known deviations").
_ALU_CYCLES = 1
_MUL_CYCLES = 3
_DIV_CYCLES = 20
_MEM_CYCLES = 2
_CMOV_CYCLES = 2
_FADD_CYCLES = 4
_FMUL_CYCLES = 6
_FDIV_CYCLES = 24
_CALL_CYCLES = 2
_SYS_CYCLES = 10


def _build_table() -> dict[Op, OpInfo]:
    def op(mn, code, fmt, kind, cycles, sets_flags=False, cond=None):
        return OpInfo(mn, int(code), fmt, kind, cycles, sets_flags, cond)

    table: dict[Op, OpInfo] = {}

    def add(info: OpInfo) -> None:
        table[Op(info.code)] = info

    # ALU register-register
    for name in ("ADD", "SUB", "AND", "OR", "XOR", "SHL", "SHR", "SAR"):
        add(op(name.lower(), Op[name], Fmt.R3, Kind.ALU, _ALU_CYCLES,
               sets_flags=True))
    add(op("mul", Op.MUL, Fmt.R3, Kind.ALU, _MUL_CYCLES, sets_flags=True))
    add(op("div", Op.DIV, Fmt.R3, Kind.ALU, _DIV_CYCLES, sets_flags=True))
    add(op("mod", Op.MOD, Fmt.R3, Kind.ALU, _DIV_CYCLES, sets_flags=True))
    add(op("cmp", Op.CMP, Fmt.R3, Kind.ALU, _ALU_CYCLES, sets_flags=True))
    add(op("test", Op.TEST, Fmt.R3, Kind.ALU, _ALU_CYCLES, sets_flags=True))
    add(op("neg", Op.NEG, Fmt.R2, Kind.ALU, _ALU_CYCLES, sets_flags=True))
    add(op("not", Op.NOT, Fmt.R2, Kind.ALU, _ALU_CYCLES, sets_flags=True))

    # ALU register-immediate
    for name in ("ADDI", "SUBI", "ANDI", "ORI", "XORI", "SHLI", "SHRI"):
        add(op(name.lower(), Op[name], Fmt.RI, Kind.ALU, _ALU_CYCLES,
               sets_flags=True))
    add(op("cmpi", Op.CMPI, Fmt.RI, Kind.ALU, _ALU_CYCLES, sets_flags=True))
    add(op("muli", Op.MULI, Fmt.RI, Kind.ALU, _MUL_CYCLES, sets_flags=True))

    # Flagless moves / lea family
    add(op("mov", Op.MOV, Fmt.R2, Kind.MOVE, _ALU_CYCLES))
    add(op("movi", Op.MOVI, Fmt.RI16, Kind.MOVE, _ALU_CYCLES))
    add(op("movhi", Op.MOVHI, Fmt.RI16, Kind.MOVE, _ALU_CYCLES))
    add(op("movlo", Op.MOVLO, Fmt.RI16, Kind.MOVE, _ALU_CYCLES))
    add(op("lea", Op.LEA, Fmt.RI, Kind.MOVE, _ALU_CYCLES))
    add(op("lea3", Op.LEA3, Fmt.R3, Kind.MOVE, _ALU_CYCLES))
    add(op("lsub", Op.LSUB, Fmt.R3, Kind.MOVE, _ALU_CYCLES))

    # FP-class
    add(op("fadd", Op.FADD, Fmt.R3, Kind.ALU, _FADD_CYCLES))
    add(op("fsub", Op.FSUB, Fmt.R3, Kind.ALU, _FADD_CYCLES))
    add(op("fmul", Op.FMUL, Fmt.R3, Kind.ALU, _FMUL_CYCLES))
    add(op("fdiv", Op.FDIV, Fmt.R3, Kind.ALU, _FDIV_CYCLES))

    # Memory
    add(op("ld", Op.LD, Fmt.RI, Kind.MEM, _MEM_CYCLES))
    add(op("st", Op.ST, Fmt.RI, Kind.MEM, _MEM_CYCLES))
    add(op("ldb", Op.LDB, Fmt.RI, Kind.MEM, _MEM_CYCLES))
    add(op("stb", Op.STB, Fmt.RI, Kind.MEM, _MEM_CYCLES))
    add(op("push", Op.PUSH, Fmt.R1, Kind.STACK, _MEM_CYCLES))
    add(op("pop", Op.POP, Fmt.R1, Kind.STACK, _MEM_CYCLES))

    # Direct branches
    add(op("jmp", Op.JMP, Fmt.B, Kind.BRANCH_UNCOND, _ALU_CYCLES))
    cond_by_name = {c.value: c for c in Cond}
    for name in ("JZ", "JNZ", "JL", "JGE", "JLE", "JG", "JB", "JAE",
                 "JBE", "JA", "JS", "JNS", "JO", "JNO"):
        cond = cond_by_name[name[1:].lower()]
        add(op(name.lower(), Op[name], Fmt.B, Kind.BRANCH_COND, _ALU_CYCLES,
               cond=cond))
    add(op("call", Op.CALL, Fmt.B, Kind.CALL, _CALL_CYCLES))
    add(op("jrz", Op.JRZ, Fmt.B, Kind.BRANCH_REG, _ALU_CYCLES))
    add(op("jrnz", Op.JRNZ, Fmt.B, Kind.BRANCH_REG, _ALU_CYCLES))

    # Indirect branches
    add(op("jmpr", Op.JMPR, Fmt.R1, Kind.BRANCH_IND, _MEM_CYCLES))
    add(op("callr", Op.CALLR, Fmt.R1, Kind.BRANCH_IND, _CALL_CYCLES))
    add(op("ret", Op.RET, Fmt.N, Kind.RET, _CALL_CYCLES))

    # Conditional moves
    for name in ("CMOVZ", "CMOVNZ", "CMOVL", "CMOVGE", "CMOVLE", "CMOVG",
                 "CMOVB", "CMOVAE", "CMOVBE", "CMOVA", "CMOVS", "CMOVNS",
                 "CMOVO", "CMOVNO"):
        cond = cond_by_name[name[4:].lower()]
        add(op(name.lower(), Op[name], Fmt.R2, Kind.MOVE, _CMOV_CYCLES,
               cond=cond))

    # System
    add(op("syscall", Op.SYSCALL, Fmt.SYS, Kind.SYS, _SYS_CYCLES))
    add(op("halt", Op.HALT, Fmt.N, Kind.HALT, _ALU_CYCLES))
    add(op("nop", Op.NOP, Fmt.N, Kind.NOP, _ALU_CYCLES))
    add(op("trap", Op.TRAP, Fmt.SYS, Kind.TRAP, 0))

    return table


OP_TABLE: dict[Op, OpInfo] = _build_table()

MNEMONIC_TO_OP: dict[str, Op] = {
    info.mnemonic: code for code, info in OP_TABLE.items()
}

#: Opcodes whose condition comes from FLAGS (Jcc + CMOVcc).
CONDITIONAL_OPS: frozenset[Op] = frozenset(
    code for code, info in OP_TABLE.items() if info.cond is not None
)

JCC_BY_COND: dict[Cond, Op] = {
    OP_TABLE[code].cond: code
    for code in OP_TABLE
    if OP_TABLE[code].kind is Kind.BRANCH_COND
}

CMOV_BY_COND: dict[Cond, Op] = {
    OP_TABLE[code].cond: code
    for code in OP_TABLE
    if OP_TABLE[code].fmt is Fmt.R2 and OP_TABLE[code].cond is not None
}


def info(code: Op | int) -> OpInfo:
    """Look up metadata for an opcode; raises KeyError for bad codes."""
    return OP_TABLE[Op(code)]


def is_valid_opcode(code: int) -> bool:
    """True when ``code`` is a defined 8-bit opcode value."""
    try:
        Op(code)
    except ValueError:
        return False
    return True
