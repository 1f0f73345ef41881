"""The DBT Runtime: dispatch loop, chaining, system events.

Mirrors the paper's Figure 11 split:

* **Runtime** (this module): loads the program, owns the execution
  loop, services exit traps, handles system events — self-modifying
  code via write protection, NX faults, program exit — and charges the
  dispatch-cost cycle model,
* **Frontend** (:mod:`repro.dbt.translator` driven from here):
  on-demand block translation into the code cache, block chaining,
* **Backend** (:mod:`repro.dbt.backend`): run-time optimization of the
  instrumentation stream before encoding.

Cost model: translated code runs at native cycle cost; each trip
through the dispatcher costs extra cycles.  Direct exits get *chained*
(the TRAP stub is patched into a direct jump) so they pay the dispatch
cost once; indirect branches (jmpr/callr/ret) pay a per-execution
lookup cost, modelling an inlined hash-table hit.  These two constants
reproduce the paper's "about 12%" native->DBT baseline slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.isa.encoding import DecodeError
from repro.isa.instruction import WORD_SIZE, Instruction
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.machine.cpu import Cpu
from repro.machine.faults import FaultKind, StopInfo, StopReason
from repro.machine.memory import PERM_R, PERM_RW
from repro.cfg.basic_block import BasicBlock
from repro.checking.base import Technique
from repro.checking.policies import Policy
from repro.dbt.codecache import CacheFullError, CodeCache
from repro.dbt.translator import (DF_ERROR_TRAP, ERROR_TRAP, INJECT_TRAP,
                                  BlockTranslator, ExitSlot,
                                  NullTechnique, TranslatedBlock)

#: Cycles charged for an unchained trip through the dispatcher.
DISPATCH_CYCLES = 40
#: Cycles charged per indirect-branch resolution (inline lookup hit).
INDIRECT_DISPATCH_CYCLES = 6


@dataclass
class DbtResult:
    """Outcome of one program run under the DBT."""

    stop: StopInfo
    detected_error: bool = False          #: a signature check fired
    detected_dataflow: bool = False       #: a duplication check fired
    detected_at: int | None = None        #: cache pc of the report
    translated_blocks: int = 0
    cache_bytes: int = 0
    smc_flushes: int = 0

    @property
    def ok(self) -> bool:
        return (self.stop.reason is StopReason.HALTED
                and not self.detected_error)


@dataclass(frozen=True)
class TranslationState:
    """Everything translation mutates outside the machine's memory
    contents, as of one point of a run (see :meth:`Dbt.snapshot`): the
    translation tables, which exit slots are chained, the allocation
    cursors, the entry stub, the flush counters and the page
    permissions (translation alone changes them after load).  The code
    cache's words are rewound with the rest of memory.
    """

    blocks: dict
    suffixes: dict
    slots: dict
    addr_map: dict
    check_sites: frozenset
    #: ids of the slots whose exit stub is chained
    patched: frozenset
    cursor: int
    next_slot: int
    entry_stub: int | None
    flushes: int
    smc_flushes: int
    protected_pages: frozenset
    dirty_pages: frozenset
    perms: bytes
    smc_store: tuple | None = None


class Dbt:
    """A dynamic binary translator session for one guest program."""

    def __init__(self, program: Program,
                 technique: Technique | None = None,
                 policy: Policy = Policy.ALLBB,
                 dispatch_cycles: int = DISPATCH_CYCLES,
                 indirect_cycles: int = INDIRECT_DISPATCH_CYCLES,
                 optimize: bool = False, enable_chaining: bool = True,
                 dataflow: bool = False, cache_size: int | None = None):
        self.program = program
        self.technique = technique if technique is not None \
            else NullTechnique()
        self.policy = policy
        self.dispatch_cycles = dispatch_cycles
        self.indirect_cycles = indirect_cycles
        #: block chaining (exit-stub patching); disable for the ablation
        #: that shows why the DBT baseline is only ~12%, not several x
        self.enable_chaining = enable_chaining

        self.cpu = Cpu()
        self.cpu.load_program(program, executable_text=False)
        if cache_size is not None:
            self.cache = CodeCache(self.cpu.memory, size=cache_size)
        else:
            self.cache = CodeCache(self.cpu.memory)
        self.dataflow = None
        if dataflow:
            from repro.checking.dataflow import (SHADOW_BASE, SHADOW_SIZE,
                                                 DataFlowDuplication)
            self.dataflow = DataFlowDuplication()
            self.cpu.memory.set_perms(SHADOW_BASE, max(SHADOW_SIZE, 1),
                                      PERM_RW)
        self.translator = BlockTranslator(
            self.cpu.memory, self.cache, self.technique, self.policy,
            optimize=optimize, dataflow=self.dataflow)

        #: guest block start -> TranslatedBlock
        self.blocks: dict[int, TranslatedBlock] = {}
        #: slot id -> ExitSlot
        self.slots: dict[int, ExitSlot] = {}
        #: guest instruction address -> cache address (all blocks)
        self.addr_map: dict[int, int] = {}
        self.smc_flushes = 0
        #: all cache flushes (SMC + cache-full evictions)
        self.flushes = 0
        #: blocks and suffixes translated, over every run call
        self.translations = 0
        #: (owner block, store address, fault address, icount) of a
        #: self-modifying store whose fault ended a run call before its
        #: re-execution; nothing else has changed for it yet
        self._smc_store: tuple | None = None
        #: cache address of the entry stub, emitted when the run
        #: starts.  It stays set across flushes: a later ``run`` call
        #: resumes where the last one stopped instead of re-entering
        #: the program.
        self._entry_stub: int | None = None
        self._protected_pages: set[int] = set()
        self._dirty_pages: set[int] = set()
        #: consulted by the run loop when an INJECT_TRAP fires
        self.inject_redirect = None      # callable () -> guest addr
        #: called with every new TranslatedBlock (blocks and suffixes)
        #: and with None when the cache is flushed; fault injectors use
        #: it to arm the cache sites of a guest branch as they appear
        self.translation_listener = None
        #: (owner, resume) -> suffix TranslatedBlock
        self._suffixes: dict[tuple[int, int], TranslatedBlock] = {}
        self._static_cfg = None
        self._static_leaders: list[int] | None = None
        #: cache addresses of emitted CHECK_SIG branches; shared with
        #: the CPU so the observability branch counter can report
        #: signature checks executed (mutated in place on translate /
        #: flush, read only while a metrics registry is installed)
        self._check_sites: set[int] = set()
        self.cpu.obs_check_sites = self._check_sites
        self.cpu.set_external_write_watch(self._on_guest_write)

    @property
    def static_cfg(self):
        """Static CFG of the guest program (lazy; used to attribute
        mid-block landings to their owning block)."""
        if self._static_cfg is None:
            from repro.cfg import build_cfg
            self._static_cfg = build_cfg(self.program)
        return self._static_cfg

    # -- translation management ---------------------------------------------

    def translated(self, guest_start: int) -> TranslatedBlock | None:
        return self.blocks.get(guest_start)

    def ensure_translated(self, guest_start: int,
                          instrument_entry: bool = True) -> TranslatedBlock:
        """Translate the block at ``guest_start`` if needed."""
        tb = self.blocks.get(guest_start)
        registry = obs.get_registry()
        if tb is not None:
            if registry is not None:
                registry.counter("dbt_cache_lookup_total",
                                 help="translated-block lookups",
                                 result="hit").inc()
            return tb
        if registry is not None:
            registry.counter("dbt_cache_lookup_total",
                             help="translated-block lookups",
                             result="miss").inc()
        stop_before = self._next_block_start_after(guest_start)
        guest_block = self.translator.decode_guest_block(
            guest_start, stop_before)
        try:
            tb = self.translator.translate(
                guest_block, instrument_entry=instrument_entry)
        except CacheFullError:
            # Flush-and-retranslate: the classic full-cache eviction
            # policy.  Register state (PC', RTS, guest regs) survives,
            # so execution resumes seamlessly through the dispatcher.
            self._flush_translations()
            guest_block = self.translator.decode_guest_block(
                guest_start, self._next_block_start_after(guest_start))
            tb = self.translator.translate(
                guest_block, instrument_entry=instrument_entry)
        self.translations += 1
        self.blocks[guest_start] = tb
        self.addr_map.update(tb.addr_map)
        self._check_sites.update(tb.check_addresses)
        for slot in tb.exit_slots:
            self.slots[slot.slot_id] = slot
        self._protect_guest_pages(guest_block)
        if self.translation_listener is not None:
            self.translation_listener(tb)
        return tb

    def ensure_suffix(self, owner_start: int,
                      resume: int) -> TranslatedBlock:
        """Entry-less translation of block ``owner_start`` from ``resume``.

        Models control flow arriving in the *middle* of the owner block:
        no entry check runs, and the exit GEN_SIG behaves like the tail
        of the owner's own translation.
        """
        key = (owner_start, resume)
        tb = self._suffixes.get(key)
        if tb is not None:
            return tb
        guest_block = self.translator.decode_guest_block(
            resume, self._next_block_start_after(resume))
        tb = self.translator.translate(guest_block, instrument_entry=False,
                                       owner_start=owner_start)
        self.translations += 1
        self._suffixes[key] = tb
        self._check_sites.update(tb.check_addresses)
        for slot in tb.exit_slots:
            self.slots[slot.slot_id] = slot
        if self.translation_listener is not None:
            self.translation_listener(tb)
        return tb

    def _next_block_start_after(self, addr: int) -> int | None:
        """Next block boundary after ``addr``: an already-translated
        block, or a static leader (branch target / post-terminator
        site).  Splitting at static leaders keeps translated blocks
        congruent with the paper's basic-block model, so the branch
        -error categories mean the same thing in both worlds.
        """
        if self._static_leaders is None:
            from repro.cfg import find_leaders
            self._static_leaders = sorted(find_leaders(self.program))
        candidates = [start for start in self.blocks if start > addr]
        import bisect
        index = bisect.bisect_right(self._static_leaders, addr)
        if index < len(self._static_leaders):
            candidates.append(self._static_leaders[index])
        return min(candidates) if candidates else None

    def _protect_guest_pages(self, block: BasicBlock) -> None:
        """Write-protect the guest pages a translation covers (SMC)."""
        mem = self.cpu.memory
        for page in mem.pages_in(block.start, block.end - block.start):
            if page not in self._protected_pages:
                mem.perms[page] = PERM_R
                self._protected_pages.add(page)
                self._dirty_pages.discard(page)

    def _on_guest_write(self, addr: int, length: int) -> None:
        # Raw writes into the cache are the translator's own; ignore.
        pass

    # -- rewinding -------------------------------------------------------------

    def snapshot(self, previous: TranslationState | None = None
                 ) -> TranslationState:
        """Copy the translation state.  Tables equal to ``previous``'s
        are shared with it rather than copied: a run translates early
        and then stops, so consecutive snapshots mostly coincide."""
        def share(live, field, freeze=dict):
            saved = getattr(previous, field, None)
            return saved if saved == live else freeze(live)

        return TranslationState(
            blocks=share(self.blocks, "blocks"),
            suffixes=share(self._suffixes, "suffixes"),
            slots=share(self.slots, "slots"),
            addr_map=share(self.addr_map, "addr_map"),
            check_sites=share(self._check_sites, "check_sites",
                              frozenset),
            patched=frozenset(slot_id for slot_id, slot
                              in self.slots.items() if slot.patched),
            cursor=self.cache.cursor,
            next_slot=self.translator._next_slot,
            entry_stub=self._entry_stub,
            flushes=self.flushes,
            smc_flushes=self.smc_flushes,
            protected_pages=frozenset(self._protected_pages),
            dirty_pages=frozenset(self._dirty_pages),
            perms=share(self.cpu.memory.perms, "perms", bytes),
            smc_store=self._smc_store)

    def restore(self, state: TranslationState) -> None:
        """Put the translation state back to ``state``.

        Containers are refilled in place (the CPU shares the check-site
        set).  The code cache's words are the caller's to restore, with
        the rest of memory."""
        for live, saved in ((self.blocks, state.blocks),
                            (self._suffixes, state.suffixes),
                            (self.slots, state.slots),
                            (self.addr_map, state.addr_map),
                            (self._check_sites, state.check_sites),
                            (self._protected_pages,
                             state.protected_pages),
                            (self._dirty_pages, state.dirty_pages)):
            if live != saved:
                live.clear()
                live.update(saved)
        for slot_id, slot in self.slots.items():
            slot.patched = slot_id in state.patched
        self.cache.cursor = state.cursor
        self.translator._next_slot = state.next_slot
        self._entry_stub = state.entry_stub
        self.flushes = state.flushes
        self.smc_flushes = state.smc_flushes
        self._smc_store = state.smc_store
        self.cpu.memory.restore_perms(state.perms)

    def lookup_cache_addr(self, guest_addr: int) -> int | None:
        """Cache address for a guest instruction address, if translated."""
        return self.addr_map.get(guest_addr)

    def reverse_addr_map(self) -> dict[int, int]:
        """Cache address → guest instruction address, over every
        translated block and suffix.

        Only guest instructions that anchor a map entry appear;
        instrumentation words (signature updates, checks, exit stubs)
        have no guest counterpart and are absent.  Used by the
        forensics divergence analyzer to report guest-level addresses
        for events recorded under the DBT.
        """
        reverse: dict[int, int] = {}
        for tb in list(self.blocks.values()) + list(
                self._suffixes.values()):
            for guest_addr, cache_addr in tb.addr_map.items():
                reverse[cache_addr] = guest_addr
        return reverse

    # -- chaining -----------------------------------------------------------

    def _chain(self, slot: ExitSlot, target_cache: int) -> None:
        """Patch a direct exit trap into a jump to its translated target.

        For the taken direction of a conditional exit, the conditional
        branch itself is also re-pointed at the target, so the steady-
        state taken path costs exactly one branch — same as native.
        """
        if not self.enable_chaining:
            return
        offset_words = (target_cache - (slot.trap_addr + WORD_SIZE)
                        ) // WORD_SIZE
        if -0x8000 <= offset_words <= 0x7FFF:
            self.cache.write_instruction(
                slot.trap_addr, Instruction(op=Op.JMP, imm=offset_words))
            slot.patched = True
            obs.counter("dbt_chain_patches_total",
                        help="exit stubs patched into direct jumps").inc()
        if slot.cond_site is not None:
            branch_offset = (target_cache - (slot.cond_site + WORD_SIZE)
                             ) // WORD_SIZE
            if -0x8000 <= branch_offset <= 0x7FFF:
                word = self.cache.read_word(slot.cond_site)
                op = Op(word >> 24)
                rd = (word >> 19) & 0x1F
                self.cache.write_instruction(
                    slot.cond_site,
                    Instruction(op=op, rd=rd, imm=branch_offset))

    # -- self-modifying code ----------------------------------------------------

    def _unprotect_page(self, fault_addr: int) -> None:
        mem = self.cpu.memory
        page = fault_addr >> 12
        mem.perms[page] = PERM_RW
        self._protected_pages.discard(page)
        self._dirty_pages.add(page)

    def _flush_translations(self) -> None:
        """Drop every translation: the classic whole-cache flush.

        The paper's DBT "identifies and removes the outdated code that
        was previously translated"; flushing everything is correct
        under chaining without tracking every incoming edge.
        """
        self.cache.flush()
        self.translator.reset_slots()
        self.blocks.clear()
        self.slots.clear()
        self.addr_map.clear()
        self._check_sites.clear()
        self._suffixes.clear()
        self._static_cfg = None   # guest code may have changed
        self._static_leaders = None
        self.flushes += 1
        self.cpu._dcache.clear()
        if self.translation_listener is not None:
            self.translation_listener(None)

    # -- the run loop -----------------------------------------------------------

    def _emit_entry_stub(self) -> int:
        """Prologue establishing the technique's signature invariant
        (and, with duplication on, the shadow register file)."""
        from repro.instrument.lowering import (assign_addresses,
                                               encode_snippet, lower_items)
        items = self.technique.prologue(self.program.entry)
        snippet = lower_items(items, compact=True,
                              resolver=lambda addr: addr)
        df_init: list[Instruction] = []
        if self.dataflow is not None:
            from repro.isa.registers import SDW
            from repro.checking.dataflow import SHADOW_BASE
            df_init = [
                Instruction(op=Op.MOVHI, rd=SDW,
                            imm=(SHADOW_BASE >> 16) & 0xFFFF),
                Instruction(op=Op.MOVLO, rd=SDW, imm=SHADOW_BASE & 0xFFFF),
                # shadow sp starts equal to the architectural sp
                Instruction(op=Op.ST, rd=15, rs=SDW, imm=15 * 4),
            ]
        base = self.cache.allocate(snippet.size_words + len(df_init) + 1)
        cursor = base
        for instr in df_init:
            self.cache.write_instruction(cursor, instr)
            cursor += WORD_SIZE
        end = assign_addresses(snippet, cursor)
        for addr, instr in encode_snippet(snippet, lambda a: a, 0):
            self.cache.write_instruction(addr, instr)
        entry_tb = self.ensure_translated(self.program.entry)
        offset = (entry_tb.cache_start - (end + WORD_SIZE)) // WORD_SIZE
        self.cache.write_instruction(
            end, Instruction(op=Op.JMP, imm=offset))
        return base

    def run(self, max_steps: int = 50_000_000,
            max_cycles: int | None = None) -> DbtResult:
        """Execute the guest program to completion under translation."""
        with obs.span("dbt.run", program=getattr(
                self.program, "source_name", "?")):
            return self._run(max_steps, max_cycles)

    def _run(self, max_steps: int,
             max_cycles: int | None) -> DbtResult:
        cpu = self.cpu
        result = DbtResult(stop=StopInfo(StopReason.HALTED, 0))
        translated = self.translations
        if self._entry_stub is None:
            self._entry_stub = self._emit_entry_stub()
            cpu.pc = self._entry_stub

        steps_left = max_steps
        if self._smc_store is not None and self._smc_store[-1] != cpu.icount:
            self._smc_store = None    # the machine was moved elsewhere
        while True:
            if self._smc_store is not None:
                if steps_left <= 0:
                    result.stop = StopInfo(StopReason.STEP_LIMIT, cpu.pc)
                    break
                before = cpu.icount
                step_stop = self._finish_smc_store()
                steps_left -= cpu.icount - before
                if step_stop.reason is not StopReason.STEP_LIMIT:
                    result.stop = step_stop
                    break
            if max_cycles is not None and cpu.cycles >= max_cycles:
                result.stop = StopInfo(StopReason.CYCLE_LIMIT, cpu.pc)
                break
            before = cpu.icount
            try:
                stop = cpu.run(max_steps=steps_left, max_cycles=max_cycles)
            except DecodeError:
                stop = StopInfo(StopReason.FAULT, cpu.pc,
                                fault=FaultKind.ILLEGAL_INSTRUCTION,
                                fault_addr=cpu.pc)
            steps_left -= cpu.icount - before
            if steps_left <= 0 and stop.reason is StopReason.STEP_LIMIT:
                result.stop = stop
                break

            if stop.reason is StopReason.TRAP:
                if stop.trap_no == ERROR_TRAP:
                    result.detected_error = True
                    result.detected_at = stop.pc
                    result.stop = stop
                    obs.counter("dbt_detections_total",
                                help="error traps serviced",
                                kind="signature").inc()
                    break
                if stop.trap_no == DF_ERROR_TRAP:
                    result.detected_dataflow = True
                    result.detected_at = stop.pc
                    result.stop = stop
                    obs.counter("dbt_detections_total",
                                help="error traps serviced",
                                kind="dataflow").inc()
                    break
                if stop.trap_no == INJECT_TRAP:
                    if self.inject_redirect is None:
                        result.stop = stop
                        break
                    guest_target = self.inject_redirect()
                    self._land_injected(guest_target)
                    continue
                handled = self._service_exit(stop)
                if not handled:
                    result.stop = stop
                    break
                continue

            if (stop.reason is StopReason.FAULT
                    and stop.fault is FaultKind.WRITE_PROTECT
                    and stop.fault_addr is not None
                    and self.program.contains_code(stop.fault_addr)):
                located = self._guest_instr_of_cache(stop.pc)
                if located is None:
                    result.stop = stop
                    break
                # Self-modifying code protocol: make the page writable,
                # re-execute the faulting store *in the old cache code*
                # (so the new bytes are in memory), then flush every
                # translation and resume just past the store via an
                # entry-less suffix — no spurious entry check, and the
                # fresh translation sees the modified bytes.  The
                # re-execution is a step of the budget: when none is
                # left it waits for the next run call, and a machine
                # moved elsewhere meanwhile faults on the store again.
                self._smc_store = (*located, stop.fault_addr, cpu.icount)
                continue

            result.stop = stop
            break

        result.translated_blocks = self.translations - translated
        result.cache_bytes = self.cache.used
        result.smc_flushes = self.smc_flushes
        return result

    def _finish_smc_store(self) -> StopInfo:
        """Unprotect the page, re-execute the self-modifying store in
        the old cache code, flush every translation and go on just past
        the store."""
        owner, store_addr, fault_addr, _ = self._smc_store
        self._smc_store = None
        self._unprotect_page(fault_addr)
        cpu = self.cpu
        step_stop = cpu.run(max_steps=1)
        self._flush_translations()
        self.smc_flushes += 1
        if step_stop.reason is StopReason.STEP_LIMIT:
            tb = self.ensure_suffix(owner, store_addr + WORD_SIZE)
            cpu.pc = tb.cache_start
        return step_stop

    def _service_exit(self, stop: StopInfo) -> bool:
        """Handle a block-exit trap; returns False for unknown traps."""
        slot = self.slots.get(stop.trap_no)
        if slot is None:
            return False
        cpu = self.cpu
        if slot.kind == "direct":
            cpu.cycles += self.dispatch_cycles
            try:
                tb = self.ensure_translated(slot.guest_target)
            except (DecodeError, CacheFullError):
                return False
            if self.slots.get(slot.slot_id) is slot:
                # (a cache-full flush may have invalidated the slot;
                # patching then would scribble over fresh translations)
                self._chain(slot, tb.cache_start)
            cpu.pc = tb.cache_start
            return True
        # Indirect: target guest address was captured in T1 by the exit
        # sequence.
        from repro.isa.registers import T1
        cpu.cycles += self.indirect_cycles
        guest_target = cpu.regs[T1]
        cpu = self.cpu
        if (guest_target & 3) or not self.program.contains_code(
                guest_target):
            # Not code: jump there physically and let the machine's
            # protection (NX / unaligned / unmapped) catch it — this is
            # the category-F hardware detection path.
            cpu.pc = guest_target
            return True
        tb = self.blocks.get(guest_target)
        if tb is None:
            try:
                tb = self.ensure_translated(guest_target)
            except (DecodeError, CacheFullError):
                cpu.pc = guest_target
                return True
        cpu.pc = tb.cache_start
        return True

    def _land_injected(self, guest_target: int) -> None:
        """Land an injected control-flow error at a guest address.

        Resolution order models corrupted control flow in translated
        code: an existing translated location (block head for
        beginning-of-block landings, mapped body instruction for
        middle landings — skipping the entry check), else an entry-less
        suffix translation attributed to the statically-owning block,
        else raw memory where hardware protection catches it.
        """
        cpu = self.cpu
        cached = self.addr_map.get(guest_target)
        if cached is not None:
            cpu.pc = cached
            return
        if (guest_target & 3) or not self.program.contains_code(
                guest_target):
            cpu.pc = guest_target
            return
        owner_block = self.static_cfg.block_containing(guest_target)
        try:
            if owner_block is None or owner_block.start == guest_target:
                tb = self.ensure_translated(guest_target)
            else:
                tb = self.ensure_suffix(owner_block.start, guest_target)
        except (DecodeError, CacheFullError):
            cpu.pc = guest_target
            return
        cpu.pc = tb.cache_start

    def _guest_instr_of_cache(self, cache_pc: int) -> tuple[int, int] | None:
        """Reverse map a cache pc to (owning guest block, guest instr)."""
        for tb in list(self.blocks.values()) + list(
                self._suffixes.values()):
            if tb.cache_start <= cache_pc < tb.cache_end:
                for guest_addr, cache_addr in tb.addr_map.items():
                    if cache_addr == cache_pc:
                        return tb.guest_start, guest_addr
                return tb.guest_start, tb.guest_start
        return None


def run_dbt(program: Program, technique: Technique | None = None,
            policy: Policy = Policy.ALLBB,
            max_steps: int = 50_000_000,
            max_cycles: int | None = None) -> tuple[Dbt, DbtResult]:
    """Convenience: run ``program`` under the DBT once."""
    dbt = Dbt(program, technique=technique, policy=policy)
    result = dbt.run(max_steps=max_steps, max_cycles=max_cycles)
    return dbt, result
