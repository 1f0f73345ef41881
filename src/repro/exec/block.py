"""Block-compiling execution backend.

Discovers guest basic blocks at run time and compiles each one, once,
into a specialized Python closure: operand registers, immediates and
memory offsets are bound at compile time, instruction/cycle charges are
batched per block, flag updates are only materialized when a later
instruction (or the world outside the block) can read them, and common
pairs (cmp+Jcc, cmp+CMOVcc) are fused into direct comparisons — the
same superinstruction folds the DBT backend performs on guest machine
code, applied host-side.

Transparency contract: byte-identical architectural state, StopInfo,
icount/cycles, hook and profiler behaviour as the reference
interpreter (``Cpu._run_loop``).  The techniques used to keep it:

* a trampoline that falls back to single-stepping the interpreter for
  anything unusual (uncompilable pc, scheduled fault due inside the
  block, step budget smaller than the block);
* per-block rollback tables so a mid-block memory fault or div-by-zero
  rewinds the batched charges to exactly the interpreter's accounting;
* fault hooks are armed per branch pc (``cpu.branch_hooks``): every
  compiled branch checks the dict at run time, and only an armed pc
  leaves the trace for the interpreter's own handler (the hook may
  replace the branch); a branch profiler is called from the traces
  themselves, with the batched charges rewound to the interpreter's
  values at the branch for the call;
* compiled blocks are invalidated on any store into their words (SMC),
  and an epoch counter makes an in-flight closure bail right after the
  store that invalidated it.  A page whose compiled code has been
  invalidated is code that gets rewritten (a DBT code cache is patched
  on every chain), so traces starting there are compiled one basic
  block at a time, since a folded trace would be rebuilt after every
  patch; a block that turns hot there is recompiled folded.
"""

from __future__ import annotations

import time

from repro import obs
from repro.isa.encoding import DecodeError, decode
from repro.isa.flags import (Cond, flags_from_add, flags_from_logic,
                             flags_from_sub)
from repro.isa.opcodes import Op
from repro.machine import syscalls
from repro.machine.cpu import DISPATCH
from repro.machine.faults import FaultKind, StopInfo, StopReason
from repro.machine.memory import PERM_X, AccessFault

_M = 0xFFFFFFFF

#: Cap on block length; long straight-line runs are split.
MAX_BLOCK_INSTRS = 128

#: Runs after which a single-basic-block trace on a rewritten page is
#: recompiled folded: by then the code around it has usually stopped
#: changing (chain patches come early in a DBT run).
HOT_RUNS = 256

#: Process-level cache of compiled code objects keyed by trace content
#: (start/end layout + the raw instruction bytes).  Fault campaigns run
#: the same image hundreds of times in fresh Cpus; the generated source
#: for a trace depends only on its bytes and layout, so the expensive
#: ``compile()`` step is shared across backend instances while the
#: per-Cpu state (memory, registers, backend) is bound at exec time.
_CODE_CACHE: dict = {}
_CODE_CACHE_MAX = 4096

#: word -> decoded Instruction (or None for undecodable words).
_DECODE_CACHE: dict = {}
_DECODE_CACHE_MAX = 65536
_MISS = object()


def clear_code_cache() -> None:
    """Drop the shared code-object and decode caches (test isolation)."""
    _CODE_CACHE.clear()
    _DECODE_CACHE.clear()

_FAULTABLE = frozenset((Op.LD, Op.ST, Op.LDB, Op.STB, Op.PUSH, Op.POP))
_STORE_OPS = frozenset((Op.ST, Op.STB, Op.PUSH))
#: Ops at which execution may stop (or the guest may observe FLAGS), so
#: a pending flag update cannot be elided across them.
_FLAG_BARRIER = _FAULTABLE | frozenset((Op.DIV, Op.MOD, Op.FDIV,
                                        Op.SYSCALL))

#: cmp+Jcc / cmp+CMOVcc fusion: branch on the compared values directly.
#: Signed conditions use the xor-bias trick to order unsigned words.
_DIRECT_CMP = {
    Cond.Z: "({a}) == ({b})", Cond.NZ: "({a}) != ({b})",
    Cond.B: "({a}) < ({b})", Cond.AE: "({a}) >= ({b})",
    Cond.BE: "({a}) <= ({b})", Cond.A: "({a}) > ({b})",
    Cond.L: "(({a}) ^ 2147483648) < (({b}) ^ 2147483648)",
    Cond.GE: "(({a}) ^ 2147483648) >= (({b}) ^ 2147483648)",
    Cond.LE: "(({a}) ^ 2147483648) <= (({b}) ^ 2147483648)",
    Cond.G: "(({a}) ^ 2147483648) > (({b}) ^ 2147483648)",
}

#: Condition over a FLAGS value {f} (ZF=1, SF=2, CF=4, OF=8).
_COND_FLAG_EXPR = {
    Cond.Z: "{f} & 1", Cond.NZ: "not {f} & 1",
    Cond.L: "({f} >> 1 ^ {f} >> 3) & 1",
    Cond.GE: "not ({f} >> 1 ^ {f} >> 3) & 1",
    Cond.LE: "{f} & 1 or ({f} >> 1 ^ {f} >> 3) & 1",
    Cond.G: "not ({f} & 1 or ({f} >> 1 ^ {f} >> 3) & 1)",
    Cond.B: "{f} & 4", Cond.AE: "not {f} & 4",
    Cond.BE: "{f} & 5", Cond.A: "not {f} & 5",
    Cond.S: "{f} & 2", Cond.NS: "not {f} & 2",
    Cond.O: "{f} & 8", Cond.NO: "not {f} & 8",
}


def _slow_terminator(cpu, regs, pc, instr, tc):
    """Run a branch through the interpreter's own handler.

    Used for a branch whose pc is armed in ``cpu.branch_hooks`` (the
    handler also feeds any branch profiler), and for CALL under a
    branch profiler.  The batched block charge already counted this
    instruction, but the interpreter calls the hook *before* charging —
    so rewind, hook, re-charge (with the replacement's cost, if the
    hook substituted an instruction), then dispatch.
    """
    cpu.pc = pc
    hook = cpu.branch_hooks.get(pc)
    if hook is not None and instr.meta.is_branch:
        cpu.icount -= 1
        cpu.cycles -= tc
        replacement = hook(cpu, pc, instr)
        if replacement is not None:
            instr = replacement
        cpu.icount += 1
        cpu.cycles += instr.meta.cycles
    return DISPATCH[instr.op](cpu, instr, pc, regs)


def _slow_mid_branch(cpu, regs, pc, instr, tc, icount_back,
                     cycles_back):
    """:func:`_slow_terminator` for a branch folded mid-trace: first
    rewind the batched charges of the trace's un-executed suffix."""
    cpu.icount -= icount_back
    cpu.cycles -= cycles_back
    return _slow_terminator(cpu, regs, pc, instr, tc)


def _record_branch(cpu, pc, instr, taken, icount_back=0,
                   cycles_back=0):
    """Call the branch profiler from a compiled trace, as the
    interpreter's handler would at ``pc``.

    A branch folded mid-trace rewinds the batched charges of the
    trace's un-executed suffix for the call, so the profiler reads the
    interpreter's icount/cycles, then re-applies them.  ``taken`` is
    an int for the flag-expression forms of a condition; the handler
    passes a bool.
    """
    cpu.pc = pc
    if icount_back:
        cpu.icount -= icount_back
        cpu.cycles -= cycles_back
        cpu.branch_profiler.record(pc, instr, bool(taken), cpu.flags)
        cpu.icount += icount_back
        cpu.cycles += cycles_back
    else:
        cpu.branch_profiler.record(pc, instr, bool(taken), cpu.flags)


class CompiledBlock:
    __slots__ = ("start", "n", "fn", "words", "links", "alive", "loop",
                 "heat")

    def __init__(self, start, n, fn, words, loop):
        self.start = start
        self.n = n
        self.fn = fn
        self.words = words
        #: successor pc -> CompiledBlock (host-side block chaining)
        self.links = {}
        self.alive = True
        #: self-loop block: fn(cpu, regs, iters) iterates host-side
        self.loop = loop
        #: runs left before an unfolded trace is recompiled folded
        #: (0: never, the trace is folded or would not grow)
        self.heat = 0


class BlockCompileBackend:
    """ExecutionBackend that compiles guest basic blocks to closures."""

    name = "block"

    def __init__(self):
        self.cpu = None
        self.blocks: dict[int, CompiledBlock] = {}
        #: pages (addr >> 12) holding the start of an invalidated block;
        #: traces starting there are compiled as single basic blocks
        self.rewritten_pages: set[int] = set()
        #: word address -> set of block start addresses covering it
        self.word_map: dict[int, set] = {}
        #: bumped on every invalidation; closures bail when it moves
        self.epoch = 0
        self._lo = 1 << 62
        self._hi = 0
        self.blocks_compiled = 0
        self.block_runs = 0
        self.chain_hits = 0
        self.chain_misses = 0
        self.invalidations = 0
        self.flushes = 0
        self.fused_pairs = 0
        self.compile_seconds = 0.0

    # -- wiring ------------------------------------------------------------

    def install(self, cpu) -> "BlockCompileBackend":
        self.cpu = cpu
        cpu.backend = self
        cpu._backend_write_watch = self._on_guest_write
        cpu.memory.perm_watch = self._on_perms_changed
        return self

    def stats(self) -> dict:
        return {
            "blocks_compiled": self.blocks_compiled,
            "block_runs": self.block_runs,
            "chain_hits": self.chain_hits,
            "chain_misses": self.chain_misses,
            "invalidations": self.invalidations,
            "flushes": self.flushes,
            "fused_pairs": self.fused_pairs,
            "compile_seconds": self.compile_seconds,
        }

    # -- invalidation ------------------------------------------------------

    def _on_guest_write(self, addr: int, length: int) -> None:
        if addr >= self._hi or addr + length <= self._lo:
            return
        dead = None
        word_map = self.word_map
        for waddr in range(addr & ~3, addr + length, 4):
            starts = word_map.get(waddr)
            if starts:
                dead = starts if dead is None else dead | starts
        if dead:
            self._kill(frozenset(dead))

    def _kill(self, starts) -> None:
        for start in starts:
            self.rewritten_pages.add(start >> 12)
            self._drop(start)
        # Chained successors bypass the dict lookup, so drop every link.
        for block in self.blocks.values():
            if block.links:
                block.links.clear()
        self.epoch += 1
        self.invalidations += len(starts)

    def _drop(self, start: int) -> None:
        block = self.blocks.pop(start, None)
        if block is None:
            return
        block.alive = False
        word_map = self.word_map
        for waddr in block.words:
            s = word_map.get(waddr)
            if s is not None:
                s.discard(start)
                if not s:
                    del word_map[waddr]

    def retain(self, starts) -> None:
        """Drop every compiled block whose start is not in ``starts``,
        and the chain links into those blocks.  Between runs only: a
        forked fault run's machine goes back to the blocks its golden
        run compiled (:mod:`repro.faults.fork`)."""
        extra = self.blocks.keys() - starts
        if not extra:
            return
        for start in extra:
            self._drop(start)
        for block in self.blocks.values():
            links = block.links
            if links and not extra.isdisjoint(links):
                for pc in extra.intersection(links):
                    del links[pc]

    def _on_perms_changed(self, start: int, length: int) -> None:
        # Permission changes can grant or revoke X on compiled pages;
        # rare enough that a full flush is the simple safe answer.
        if self.blocks:
            self.flush()

    def flush(self) -> None:
        for block in self.blocks.values():
            block.alive = False
            block.links.clear()
        self.blocks.clear()
        self.word_map.clear()
        self._lo = 1 << 62
        self._hi = 0
        self.epoch += 1
        self.flushes += 1

    # -- execution ---------------------------------------------------------

    def run(self, cpu, max_steps: int, max_cycles: int | None) -> StopInfo:
        if max_cycles is not None:
            # Cycle budgets need a per-instruction check; the reference
            # loop is the exact semantics.  No campaign path uses this.
            return cpu._run_loop(max_steps, max_cycles)
        registry = obs.get_registry()
        if registry is None:
            return self._trampoline(cpu, max_steps)
        base = (self.blocks_compiled, self.block_runs, self.chain_hits,
                self.chain_misses, self.invalidations, self.flushes,
                self.fused_pairs, self.compile_seconds)
        try:
            return self._trampoline(cpu, max_steps)
        finally:
            self._flush_obs(registry, base)

    def _flush_obs(self, registry, base) -> None:
        deltas = (
            ("exec_blocks_compiled_total", "guest basic blocks compiled",
             self.blocks_compiled - base[0]),
            ("exec_block_runs_total", "compiled closures executed",
             self.block_runs - base[1]),
            ("exec_chain_hits_total", "block-to-block chain hits",
             self.chain_hits - base[2]),
            ("exec_chain_misses_total", "block lookups outside the chain",
             self.chain_misses - base[3]),
            ("exec_block_invalidations_total",
             "compiled blocks invalidated by guest stores",
             self.invalidations - base[4]),
            ("exec_block_flushes_total", "full block-cache flushes",
             self.flushes - base[5]),
            ("exec_fused_pairs_total", "superinstruction fusions compiled",
             self.fused_pairs - base[6]),
        )
        for name, help_text, delta in deltas:
            if delta:
                registry.counter(name, help=help_text).inc(delta)
        dt = self.compile_seconds - base[7]
        if dt:
            registry.counter("exec_compile_seconds_total",
                             help="wall time spent compiling blocks").inc(dt)

    def _trampoline(self, cpu, max_steps: int) -> StopInfo:
        run_loop = cpu._run_loop
        regs = cpu.regs
        fuel = max_steps
        prev = None
        blocks = self.blocks
        rewritten = self.rewritten_pages
        hits = misses = runs = 0
        try:
            while True:
                if fuel <= 0:
                    return StopInfo(StopReason.STEP_LIMIT, cpu.pc)
                pc = cpu.pc
                block = prev.links.get(pc) if prev is not None else None
                if block is not None:
                    hits += 1
                else:
                    block = blocks.get(pc)
                    if block is None:
                        block = self._compile(pc, pc >> 12 not in rewritten)
                    if block is not None and prev is not None:
                        prev.links[pc] = block
                        misses += 1
                if block is None:
                    # Uncompilable pc (misaligned, non-X, undecodable):
                    # one interpreter step produces the exact outcome.
                    ic0 = cpu.icount
                    stop = run_loop(1, None)
                    fuel -= cpu.icount - ic0
                    if stop.reason is not StopReason.STEP_LIMIT:
                        return stop
                    prev = None
                    continue
                if block.heat:
                    block.heat -= 1
                    if not block.heat:
                        self._refold(block)
                n = block.n
                sf = cpu.scheduled_fault
                if sf is not None and cpu.icount + n > sf[0]:
                    # The scheduled fault lands inside this block:
                    # single-step so it fires at the exact icount.
                    ic0 = cpu.icount
                    stop = run_loop(1, None)
                    fuel -= cpu.icount - ic0
                    if stop.reason is not StopReason.STEP_LIMIT:
                        return stop
                    prev = None
                    continue
                if fuel < n:
                    return run_loop(fuel, None)
                ic0 = cpu.icount
                if block.loop:
                    # Self-loop block: iterate inside the closure, up
                    # to the step budget and the scheduled-fault line.
                    iters = fuel // n
                    if sf is not None:
                        allowed = (sf[0] - ic0) // n
                        if allowed < iters:
                            iters = allowed
                    stop = block.fn(cpu, regs, iters)
                else:
                    stop = block.fn(cpu, regs)
                runs += 1
                fuel -= cpu.icount - ic0
                if stop is not None:
                    return stop
                prev = block if block.alive else None
        except AccessFault as fault:
            return StopInfo(StopReason.FAULT, cpu.pc,
                            fault=fault.kind, fault_addr=fault.addr)
        finally:
            self.chain_hits += hits
            self.chain_misses += misses
            self.block_runs += runs

    # -- trace discovery ---------------------------------------------------

    def _refold(self, block) -> None:
        """Recompile a hot single-basic-block trace folded.  The folded
        walk extends the unfolded one, so the block is updated in place
        and chain links into it stay valid."""
        folded = self._compile(block.start, True)
        block.fn, block.n, block.words, block.loop = (
            folded.fn, folded.n, folded.words, folded.loop)
        self.blocks[block.start] = block

    def _compile(self, pc: int, fold: bool) -> CompiledBlock | None:
        """Decode a trace starting at ``pc`` and compile it.

        The walk follows direct control flow the way the paper's DBT
        lays out traces: unconditional jumps are folded, conditional
        branches continue along the predicted direction (backward =
        taken, forward = not-taken) with a compiled side exit for the
        other way, and a path that cycles back to the trace head
        becomes a host-side loop closure.  With ``fold`` false (a page
        in ``rewritten_pages``) the walk stops at the first terminator
        instead: one basic block, no loop closure.  If that terminator
        could have been folded, the block is recompiled folded once it
        has run ``HOT_RUNS`` times.
        """
        mem = self.cpu.memory
        size = mem.size
        if pc & 3 or not 0 <= pc < size:
            return None
        perms = mem.perms
        data = mem.data
        if not perms[pc >> 12] & PERM_X:
            return None
        t0 = time.perf_counter()
        heat = 0
        instrs = []
        pcs = []
        seen = set()
        addr = pc
        loop = False
        while len(instrs) < MAX_BLOCK_INSTRS:
            if addr in seen:
                loop = addr == pc
                break
            if (addr & 3 or addr + 4 > size
                    or not perms[addr >> 12] & PERM_X):
                break
            word = int.from_bytes(data[addr:addr + 4], "little")
            instr = _DECODE_CACHE.get(word, _MISS)
            if instr is _MISS:
                try:
                    instr = decode(word)
                except DecodeError:
                    instr = None
                if len(_DECODE_CACHE) < _DECODE_CACHE_MAX:
                    _DECODE_CACHE[word] = instr
            if instr is None:
                break
            seen.add(addr)
            instrs.append(instr)
            pcs.append(addr)
            meta = instr.meta
            op = instr.op
            if meta.is_block_terminator:
                if op is Op.JMP:
                    nxt = addr + 4 + instr.imm * 4
                elif meta.cond is not None or op in (Op.JRZ, Op.JRNZ):
                    # the predicted direction: backward taken, forward not
                    nxt = addr + 4 + instr.imm * 4 if instr.imm < 0 \
                        else addr + 4
                else:
                    break  # call/indirect/ret/trap/halt end the trace
                if not fold:
                    heat = HOT_RUNS
                    break
                addr = nxt
                continue
            if op is Op.SYSCALL:
                # SYSCALL ends the trace: it can halt, fault
                # (print-str) or read the cycle counter, so the
                # batched charge must be exact through it.
                break
            addr += 4
        if not instrs:
            return None
        block = _compile_block(self, pc, instrs, pcs, addr, loop, mem)
        block.heat = heat
        self.blocks[pc] = block
        word_map = self.word_map
        for waddr in block.words:
            word_map.setdefault(waddr, set()).add(pc)
        lo = min(block.words)
        hi = max(block.words) + 4
        if lo < self._lo:
            self._lo = lo
        if hi > self._hi:
            self._hi = hi
        self.blocks_compiled += 1
        self.compile_seconds += time.perf_counter() - t0
        return block


# -- code generation ----------------------------------------------------------


def _E(v) -> str:
    return str(v) if isinstance(v, int) else v


def _fl_logic(r) -> str:
    r = _E(r)
    return f"(({r}) == 0) | (({r}) >> 30 & 2)"


def _fl_sub(a, b, r) -> str:
    a, b, r = _E(a), _E(b), _E(r)
    return (f"(({r}) == 0) | (({r}) >> 30 & 2)"
            f" | ((({a}) < ({b})) << 2)"
            f" | (((({a}) ^ ({b})) & (({a}) ^ ({r}))) >> 28 & 8)")


def _fl_add(a, b, r) -> str:
    a, b, r = _E(a), _E(b), _E(r)
    return (f"(({r}) == 0) | (({r}) >> 30 & 2)"
            f" | ((({a}) + ({b}) > 4294967295) << 2)"
            f" | ((~(({a}) ^ ({b})) & (({a}) ^ ({r}))) >> 28 & 8)")


_LOGIC3 = {Op.AND: "&", Op.OR: "|", Op.XOR: "^"}
_LOGICI = {Op.ANDI: "&", Op.ORI: "|", Op.XORI: "^"}
_LEA3 = {Op.LEA3: "+", Op.LSUB: "-", Op.FADD: "+", Op.FSUB: "-",
         Op.FMUL: "*"}


def _compile_block(backend, start, instrs, pcs, end_addr, loop,
                   mem) -> CompiledBlock:
    """Translate one decoded trace into a Python closure.

    ``pcs[k]`` is the guest pc of ``instrs[k]`` (non-contiguous across
    folded jumps), ``end_addr`` the pc after the last instruction if it
    does not branch, ``loop`` whether the trace's predicted path cycles
    back to ``start``.
    """
    key = (start, end_addr, loop, mem.size, tuple(pcs),
           b"".join(bytes(mem.data[p:p + 4]) for p in pcs))
    hit = _CODE_CACHE.get(key)
    if hit is not None:
        code, env_extra, fused, final_loop, cs = hit
        backend.fused_pairs += fused
        return _bind(backend, mem, code, env_extra, start, instrs, pcs,
                     cs, final_loop)
    n = len(instrs)
    cyc = [i.meta.cycles for i in instrs]
    # csuf[k] = cycles charged for instructions after index k-1; the
    # rollback for a stop at instruction k removes csuf[k+1].
    csuf = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        csuf[k] = csuf[k + 1] + cyc[k]
    ctot = csuf[0]

    # Flag liveness: a flag write is dead iff a later instruction
    # overwrites FLAGS before anything can read them — where "read"
    # includes conditional ops, any op that can stop the run (fault,
    # div-by-zero, syscall), the terminator, and the block's end.
    live = [True] * n
    for k in range(n):
        if not instrs[k].meta.sets_flags:
            continue
        for j in range(k + 1, n):
            m = instrs[j].meta
            if (m.cond is not None or instrs[j].op in _FLAG_BARRIER
                    or m.is_block_terminator):
                break
            if m.sets_flags:
                live[k] = False
                break

    last = instrs[-1]
    has_term = last.meta.is_block_terminator or last.op == Op.SYSCALL
    body_instrs = instrs[:-1] if has_term else instrs
    has_fault = any(i.op in _FAULTABLE for i in body_instrs)
    has_store = any(i.op in _STORE_OPS for i in body_instrs)

    body: list[str] = []
    term: list[str] = []
    cache: dict[int, object] = {}   # reg -> const int | local name
    state = {"tmp": 0, "flags_src": "cpu.flags", "cmp": None,
             "truncated": False, "fused": 0}

    def newtmp() -> str:
        name = f"_t{state['tmp']}"
        state["tmp"] += 1
        return name

    def fetch(r):
        v = cache.get(r)
        if v is None:
            v = newtmp()
            body.append(f"{v} = regs[{r}]")
            cache[r] = v
        return v

    def peek(r) -> str:
        v = cache.get(r)
        return f"regs[{r}]" if v is None else _E(v)

    def store(r, val):
        if isinstance(val, int) or (val.startswith("_t")
                                    and val[2:].isdigit()):
            body.append(f"regs[{r}] = {_E(val)}")
            cache[r] = val
            return val
        name = newtmp()
        body.append(f"{name} = {val}")
        body.append(f"regs[{r}] = {name}")
        cache[r] = name
        return name

    def set_flags(k, expr) -> None:
        if not live[k]:
            return
        if isinstance(expr, int):
            body.append(f"cpu.flags = {expr}")
            state["flags_src"] = str(expr)
        else:
            body.append(f"_f = {expr}")
            body.append("cpu.flags = _f")
            state["flags_src"] = "_f"

    def bail(k, lines, stop_charge_self: bool) -> None:
        # Rewind the batched charges for everything after instruction k
        # (the instruction itself stays charged, as in the interpreter).
        if n - 1 - k:
            lines.append(f"cpu.icount -= {n - 1 - k}")
        if csuf[k + 1]:
            lines.append(f"cpu.cycles -= {csuf[k + 1]}")

    def cond_expr(cond) -> str:
        cmp = state["cmp"]
        if cmp is not None and cond in _DIRECT_CMP:
            state["fused"] += 1
            return _DIRECT_CMP[cond].format(a=_E(cmp[0]), b=_E(cmp[1]))
        return _COND_FLAG_EXPR[cond].format(f=state["flags_src"])

    def logic_result(k, rd, val) -> None:
        if isinstance(val, int):
            store(rd, val)
            set_flags(k, flags_from_logic(val))
        else:
            r = store(rd, val)
            set_flags(k, _fl_logic(r))

    def addsub(k, rd, a, b, sign, flags: bool) -> None:
        if isinstance(a, int) and isinstance(b, int):
            r = (a + b if sign == "+" else a - b) & _M
            store(rd, r)
            if flags:
                set_flags(k, flags_from_add(a, b) if sign == "+"
                          else flags_from_sub(a, b))
        else:
            r = store(rd, f"(({_E(a)}) {sign} ({_E(b)})) & 4294967295")
            if flags and live[k]:
                fl = _fl_add if sign == "+" else _fl_sub
                set_flags(k, fl(a, b, r))

    def div_like(k, ins, pyop, flags: bool) -> None:
        pck = pcs[k]
        b = fetch(ins.rt)
        a = fetch(ins.rs)
        stop = (f"return _SI(_RF, {pck}, fault=_DBZ, fault_addr={pck})")
        if isinstance(b, int):
            if b == 0:
                bail(k, body, True)
                body.append(f"cpu.pc = {pck}")
                body.append(stop)
                state["truncated"] = True
                return
        else:
            body.append(f"if not {b}:")
            sub = []
            bail(k, sub, True)
            sub.append(f"cpu.pc = {pck}")
            sub.append(stop)
            body.extend("    " + ln for ln in sub)
        if isinstance(a, int) and isinstance(b, int):
            val = a // b if pyop == "//" else a % b
        else:
            val = f"({_E(a)}) {pyop} ({_E(b)})"
        if flags:
            logic_result(k, ins.rd, val)
        else:
            store(ins.rd, val)

    env_extra: dict[str, object] = {}

    def mid_branch(k, ins) -> None:
        # A direct branch folded into the trace.  The predicted
        # direction (backward = taken, forward = not-taken) continues
        # inline; the other direction is a side exit that rewinds the
        # batched charges for the un-executed suffix.  A hook armed at
        # this pc rewinds and re-enters the interpreter's handler; a
        # branch profiler is called from here, with the charges rewound
        # to the interpreter's values at this branch for the call.
        op = ins.op
        pck = pcs[k]
        taken = _taken_expr(ins, cond_expr, peek)
        back = f"{n - 1 - k}, {csuf[k + 1]}"
        body.append(f"if {_armed(pck)}:")
        body.append(f"    return _slow_mid(cpu, regs, {pck}, _TI{k},"
                    f" {ins.meta.cycles}, {back})")
        body.append("if cpu.branch_profiler is not None:")
        body.append(f"    _rec(cpu, {pck}, _TI{k}, {taken}, {back})")
        env_extra[f"_TI{k}"] = ins
        if op is Op.JMP:
            body.append("cpu.cycles += 1")
            return
        if ins.imm < 0:  # predicted taken; side exit = fall through
            body.append(f"if not ({taken}):")
            sub = []
            bail(k, sub, True)
            sub.append(f"cpu.pc = {pck + 4}")
            sub.append("return None")
            body.extend("    " + ln for ln in sub)
            body.append("cpu.cycles += 1")
        else:  # predicted not-taken; side exit = taken
            body.append(f"if {taken}:")
            sub = ["cpu.cycles += 1"]
            bail(k, sub, True)
            sub.append(f"cpu.pc = {pck + 4 + ins.imm * 4}")
            sub.append("return None")
            body.extend("    " + ln for ln in sub)

    for k, ins in enumerate(body_instrs):
        op = ins.op
        meta = ins.meta
        if meta.is_block_terminator:
            mid_branch(k, ins)
            continue  # branches read flags, never write them
        if op is Op.NOP:
            continue
        elif op is Op.MOV:
            v = cache.get(ins.rs)
            store(ins.rd, v if v is not None else fetch(ins.rs))
        elif op is Op.MOVI:
            store(ins.rd, ins.imm & _M)
        elif op is Op.MOVHI:
            store(ins.rd, (ins.imm & 0xFFFF) << 16)
        elif op is Op.MOVLO:
            a = fetch(ins.rd)
            lo = ins.imm & 0xFFFF
            if isinstance(a, int):
                store(ins.rd, (a & 0xFFFF0000) | lo)
            else:
                store(ins.rd, f"(({a}) & 4294901760) | {lo}")
        elif op is Op.LEA:
            a = fetch(ins.rs)
            if isinstance(a, int):
                store(ins.rd, (a + ins.imm) & _M)
            else:
                store(ins.rd, f"(({a}) + {ins.imm}) & 4294967295")
        elif op in _LEA3:
            a = fetch(ins.rs)
            b = fetch(ins.rt)
            sign = _LEA3[op]
            if isinstance(a, int) and isinstance(b, int):
                store(ins.rd, (a + b if sign == "+" else
                               a - b if sign == "-" else a * b) & _M)
            else:
                store(ins.rd,
                      f"(({_E(a)}) {sign} ({_E(b)})) & 4294967295")
        elif op is Op.ADD:
            addsub(k, ins.rd, fetch(ins.rs), fetch(ins.rt), "+", True)
        elif op is Op.SUB:
            addsub(k, ins.rd, fetch(ins.rs), fetch(ins.rt), "-", True)
        elif op is Op.ADDI:
            addsub(k, ins.rd, fetch(ins.rs), ins.imm & _M, "+", True)
        elif op is Op.SUBI:
            addsub(k, ins.rd, fetch(ins.rs), ins.imm & _M, "-", True)
        elif op in _LOGIC3 or op in _LOGICI:
            a = fetch(ins.rs)
            if op in _LOGIC3:
                b, sign = fetch(ins.rt), _LOGIC3[op]
            else:
                b, sign = ins.imm & _M, _LOGICI[op]
            if isinstance(a, int) and isinstance(b, int):
                val = a & b if sign == "&" else (a | b if sign == "|"
                                                 else a ^ b)
            else:
                val = f"({_E(a)}) {sign} ({_E(b)})"
            logic_result(k, ins.rd, val)
        elif op in (Op.MUL, Op.MULI):
            a = fetch(ins.rs)
            b = fetch(ins.rt) if op is Op.MUL else ins.imm
            if isinstance(a, int) and isinstance(b, int):
                val = (a * b) & _M
            else:
                val = f"(({_E(a)}) * ({_E(b)})) & 4294967295"
            logic_result(k, ins.rd, val)
        elif op in (Op.SHL, Op.SHLI, Op.SHR, Op.SHRI):
            a = fetch(ins.rs)
            if op in (Op.SHL, Op.SHR):
                b = fetch(ins.rt)
                s = b & 31 if isinstance(b, int) else f"({b}) & 31"
            else:
                s = ins.imm & 31
            left = op in (Op.SHL, Op.SHLI)
            if isinstance(a, int) and isinstance(s, int):
                val = ((a << s) & _M) if left else (a >> s)
            elif left:
                val = f"(({_E(a)}) << ({_E(s)})) & 4294967295"
            else:
                val = f"({_E(a)}) >> ({_E(s)})"
            logic_result(k, ins.rd, val)
        elif op is Op.SAR:
            a = fetch(ins.rs)
            b = fetch(ins.rt)
            s = b & 31 if isinstance(b, int) else f"({b}) & 31"
            if isinstance(a, int) and isinstance(s, int):
                sa = a - 0x100000000 if a & 0x80000000 else a
                val = (sa >> s) & _M
            else:
                val = (f"((({_E(a)}) - 4294967296 if ({_E(a)}) &"
                       f" 2147483648 else ({_E(a)})) >> ({_E(s)}))"
                       f" & 4294967295")
            logic_result(k, ins.rd, val)
        elif op is Op.NEG:
            a = fetch(ins.rs)
            if isinstance(a, int):
                r = (-a) & _M
                store(ins.rd, r)
                set_flags(k, flags_from_sub(0, a))
            else:
                r = store(ins.rd, f"(-({a})) & 4294967295")
                if live[k]:
                    set_flags(k, f"(({r}) == 0) | (({r}) >> 30 & 2)"
                              f" | ((({a}) != 0) << 2)"
                              f" | ((({a}) & ({r})) >> 28 & 8)")
        elif op is Op.NOT:
            a = fetch(ins.rs)
            val = (a ^ _M) if isinstance(a, int) else \
                f"({a}) ^ 4294967295"
            logic_result(k, ins.rd, val)
        elif op in (Op.CMP, Op.CMPI):
            a = fetch(ins.rs)
            b = fetch(ins.rt) if op is Op.CMP else ins.imm & _M
            state["cmp"] = (a, b)
            if live[k]:
                if isinstance(a, int) and isinstance(b, int):
                    set_flags(k, flags_from_sub(a, b))
                else:
                    t = newtmp()
                    body.append(
                        f"{t} = (({_E(a)}) - ({_E(b)})) & 4294967295")
                    set_flags(k, _fl_sub(a, b, t))
            continue  # keep state["cmp"]: CMP is the fusion anchor
        elif op is Op.TEST:
            a = fetch(ins.rs)
            b = fetch(ins.rt)
            if live[k]:
                if isinstance(a, int) and isinstance(b, int):
                    set_flags(k, flags_from_logic(a & b))
                else:
                    t = newtmp()
                    body.append(f"{t} = ({_E(a)}) & ({_E(b)})")
                    set_flags(k, _fl_logic(t))
        elif op in (Op.DIV, Op.MOD):
            div_like(k, ins, "//" if op is Op.DIV else "%", True)
        elif op is Op.FDIV:
            div_like(k, ins, "//", False)
        elif op is Op.LD or op is Op.LDB:
            a = fetch(ins.rs)
            if isinstance(a, int):
                addr = str((a + ins.imm) & _M)
            else:
                addr = f"(({a}) + {ins.imm}) & 4294967295"
            body.append(f"_fk = {k}")
            body.append(f"_a = {addr}")
            # Inline the aligned/readable fast path; anything else
            # (misaligned, unmapped, no-R) falls back to the memory
            # object, which raises the exact AccessFault.
            if op is Op.LD:
                val = (f"_ifb(_d[_a:_a + 4], 'little')"
                       f" if not _a & 3 and _a < {mem.size}"
                       f" and _p[_a >> 12] & 1 else _lw(_a)")
            else:
                val = (f"_d[_a] if _a < {mem.size}"
                       f" and _p[_a >> 12] & 1 else _lb(_a)")
            store(ins.rd, val)
        elif op is Op.ST or op is Op.STB:
            a = fetch(ins.rs)
            val = peek(ins.rd)
            if isinstance(a, int):
                addr = str((a + ins.imm) & _M)
            else:
                addr = f"(({a}) + {ins.imm}) & 4294967295"
            body.append(f"_fk = {k}")
            call = "_sw" if op is Op.ST else "_sb"
            body.append(f"{call}({addr}, {val})")
        elif op is Op.PUSH:
            sp = fetch(15)
            val = peek(ins.rd)
            body.append(f"_fk = {k}")
            if isinstance(sp, int):
                nsp = (sp - 4) & _M
                body.append(f"_sw({nsp}, {val})")
                store(15, nsp)
            else:
                t = newtmp()
                body.append(f"{t} = (({sp}) - 4) & 4294967295")
                body.append(f"_sw({t}, {val})")
                store(15, t)
        elif op is Op.POP:
            sp = fetch(15)
            body.append(f"_fk = {k}")
            store(ins.rd, f"_lw({_E(sp)})")
            if isinstance(sp, int):
                store(15, (sp + 4) & _M)
            else:
                store(15, f"(({sp}) + 4) & 4294967295")
        elif meta.cond is not None:  # CMOVcc
            body.append(f"if {cond_expr(meta.cond)}:")
            body.append(f"    regs[{ins.rd}] = {peek(ins.rs)}")
            cache.pop(ins.rd, None)
        else:  # pragma: no cover - every decodable body op is handled
            raise AssertionError(f"unhandled body op {op!r}")
        if op in _STORE_OPS:
            # The store may have invalidated compiled code (this block
            # included): bail to the trampoline, which recompiles.
            body.append("if _bk.epoch != _e0:")
            sub: list[str] = []
            bail(k, sub, True)
            sub.append(f"cpu.pc = {pcs[k] + 4}")
            sub.append("return None")
            body.extend("    " + ln for ln in sub)
        if state["truncated"]:
            break
        if meta.sets_flags:
            state["cmp"] = None

    # A trace whose predicted path cycles back to its start is a loop:
    # the closure iterates host-side so a tight guest loop costs one
    # trampoline entry, not one per iteration.
    loop = loop and has_term and not state["truncated"]
    if has_term and not state["truncated"]:
        _emit_terminator(term, last, pcs[-1], start, peek, cond_expr,
                         loop)
    elif not state["truncated"]:
        term.append(f"cpu.pc = {end_addr}")
        term.append("return None")

    inner = [f"cpu.icount += {n}", f"cpu.cycles += {ctot}"]
    if has_fault:
        inner.append("try:")
        inner.extend("    " + ln for ln in body)
        inner.append("except _AF:")
        inner.append(f"    cpu.icount -= {n - 1} - _fk")
        inner.append("    cpu.cycles -= _CS[_fk]")
        inner.append("    cpu.pc = _PCS[_fk]")
        inner.append("    raise")
    else:
        inner.extend(body)
    inner.extend(term)

    args = "cpu, regs, _it" if loop else "cpu, regs"
    lines = [f"def _fn({args}):"]
    if has_store:
        lines.append("    _e0 = _bk.epoch")
    if loop:
        lines.append("    while True:")
        lines.extend("        " + ln for ln in inner)
    else:
        lines.extend("    " + ln for ln in inner)
    src = "\n".join(lines)
    code = compile(src, f"<block@{start:#x}>", "exec")
    fused = state["fused"]
    backend.fused_pairs += fused
    cs = tuple(csuf[1:])
    if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
        _CODE_CACHE.clear()
    _CODE_CACHE[key] = (code, env_extra, fused, loop, cs)
    return _bind(backend, mem, code, env_extra, start, instrs, pcs, cs,
                 loop)


def _bind(backend, mem, code, env_extra, start, instrs, pcs, cs,
          loop) -> CompiledBlock:
    """Exec a (possibly cached) block code object against one Cpu's
    memory/backend bindings."""
    env = {
        "_AF": AccessFault, "_SI": StopInfo, "_RF": StopReason.FAULT,
        "_RH": StopReason.HALTED, "_RT": StopReason.TRAP,
        "_DBZ": FaultKind.DIV_BY_ZERO,
        "_lw": mem.load_word, "_sw": mem.store_word,
        "_lb": mem.load_byte, "_sb": mem.store_byte,
        "_d": mem.data, "_p": mem.perms, "_ifb": int.from_bytes,
        "_hsys": syscalls.handle_syscall, "_slow": _slow_terminator,
        "_slow_mid": _slow_mid_branch, "_rec": _record_branch,
        "_bk": backend, "_CS": cs, "_TI": instrs[-1],
        "_PCS": tuple(pcs),
    }
    env.update(env_extra)
    exec(code, env)  # noqa: S102
    # Popped, not read: a function held by its own globals would keep
    # the memory it binds alive until the cycle collector runs.
    return CompiledBlock(start, len(instrs), env.pop("_fn"), tuple(pcs),
                         loop)


def _armed(pc) -> str:
    """Is a fault hook armed at ``pc``?  Read at run time: a hook armed
    while a trace runs takes over at its next branch.  The truth test
    first keeps an unhooked run at one cheap check."""
    return f"cpu.branch_hooks and {pc} in cpu.branch_hooks"


def _taken_expr(ins, cond_expr, peek) -> str:
    """Direction expression of a direct JMP, Jcc, JRZ or JRNZ."""
    if ins.op is Op.JMP:
        return "True"
    if ins.meta.cond is not None:
        return cond_expr(ins.meta.cond)
    test = "==" if ins.op is Op.JRZ else "!="
    return f"({peek(ins.rd)}) {test} 0"


def _emit_terminator(term, ins, pc_t, start, peek, cond_expr,
                     loop) -> None:
    """Emit the trace's final instruction (control flow / halt / sys)."""
    op = ins.op
    meta = ins.meta
    nxt = pc_t + 4
    tc = meta.cycles
    # A branch armed in cpu.branch_hooks runs its hook through the
    # interpreter's handler.  A branch profiler is called from the
    # trace at direct branches; CALL keeps the handler, which records
    # after the push.
    if op in (Op.JMP, Op.JRZ, Op.JRNZ) or meta.cond is not None:
        taken = _taken_expr(ins, cond_expr, peek)
        term.append(f"if {_armed(pc_t)}:")
        term.append(f"    return _slow(cpu, regs, {pc_t}, _TI, {tc})")
        term.append("if cpu.branch_profiler is not None:")
        term.append(f"    _rec(cpu, {pc_t}, _TI, {taken})")
    elif op is Op.CALL:
        term.append(f"if {_armed(pc_t)} or cpu.branch_profiler is not None:")
        term.append(f"    return _slow(cpu, regs, {pc_t}, _TI, {tc})")
    elif op in (Op.JMPR, Op.CALLR, Op.RET, Op.TRAP):
        term.append(f"if {_armed(pc_t)}:")
        term.append(f"    return _slow(cpu, regs, {pc_t}, _TI, {tc})")
    if op is Op.JMP:
        term.append("cpu.cycles += 1")
        if loop:
            term.append("_it -= 1")
            term.append("if _it:")
            term.append("    continue")
        term.append(f"cpu.pc = {nxt + ins.imm * 4}")
        term.append("return None")
    elif meta.cond is not None or op in (Op.JRZ, Op.JRNZ):
        taken_tgt = nxt + ins.imm * 4
        loop_taken = loop and taken_tgt == start
        term.append(f"if {taken}:")
        term.append("    cpu.cycles += 1")
        if loop_taken:
            term.append("    _it -= 1")
            term.append("    if _it:")
            term.append("        continue")
        term.append(f"    cpu.pc = {taken_tgt}")
        term.append("    return None")
        if loop and not loop_taken:  # backedge is the fall-through
            term.append("_it -= 1")
            term.append("if _it:")
            term.append("    continue")
        term.append(f"cpu.pc = {nxt}")
        term.append("return None")
    elif op in (Op.CALL, Op.CALLR):
        term.append(f"cpu.pc = {pc_t}")  # faulting pc if the push faults
        term.append(f"_sp = (({peek(15)}) - 4) & 4294967295")
        term.append(f"_sw(_sp, {nxt})")
        term.append("regs[15] = _sp")
        term.append("cpu.cycles += 1")
        if op is Op.CALL:
            term.append(f"cpu.pc = {nxt + ins.imm * 4}")
        else:
            # reads rd *after* the sp update, like the interpreter
            term.append(f"cpu.pc = regs[{ins.rd}]")
        term.append("return None")
    elif op is Op.RET:
        term.append(f"cpu.pc = {pc_t}")
        term.append(f"_sp = {peek(15)}")
        term.append("_ra = _lw(_sp)")
        term.append("regs[15] = (_sp + 4) & 4294967295")
        term.append("cpu.cycles += 1")
        term.append("cpu.pc = _ra")
        term.append("return None")
    elif op is Op.JMPR:
        term.append("cpu.cycles += 1")
        term.append(f"cpu.pc = {peek(ins.rd)}")
        term.append("return None")
    elif op is Op.HALT:
        term.append(f"cpu.pc = {nxt}")
        term.append(f"return _SI(_RH, {pc_t}, exit_code=0)")
    elif op is Op.TRAP:
        term.append(f"cpu.pc = {nxt}")
        term.append(f"return _SI(_RT, {pc_t}, trap_no={ins.imm})")
    elif op is Op.SYSCALL:
        term.append(f"cpu.pc = {pc_t}")  # visible to the handler
        term.append(f"if _hsys(cpu, {ins.imm}):")
        term.append(f"    cpu.pc = {nxt}")
        term.append(f"    return _SI(_RH, {pc_t},"
                    f" exit_code=cpu.exit_code)")
        term.append(f"cpu.pc = {nxt}")
        term.append("return None")
    else:  # pragma: no cover
        raise AssertionError(f"unhandled terminator {op!r}")
