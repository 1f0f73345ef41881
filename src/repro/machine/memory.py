"""Paged guest memory with R/W/X permissions.

This is the substrate for two hardware mechanisms the paper relies on:

* the execute-disable bit — executing from a page without X raises an
  ``NX_VIOLATION`` fault, which is how branch errors in category F
  ("jump to a non-code memory region") get detected "by hardware";
* write protection — the DBT write-protects guest code pages it has
  translated, so self-modifying code raises ``WRITE_PROTECT`` and the
  DBT can invalidate stale translations (Section 5).
"""

from __future__ import annotations

from repro.machine.faults import FaultKind, MachineError

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

PERM_R = 1
PERM_W = 2
PERM_X = 4
PERM_RW = PERM_R | PERM_W
PERM_RX = PERM_R | PERM_X
PERM_RWX = PERM_R | PERM_W | PERM_X


class AccessFault(Exception):
    """Internal signal converted by the CPU into a StopInfo fault."""

    def __init__(self, kind: FaultKind, addr: int):
        super().__init__(f"{kind.value} @ {addr:#x}")
        self.kind = kind
        self.addr = addr


class Memory:
    """A flat byte-addressable memory with per-page permissions."""

    def __init__(self, size: int):
        if size % PAGE_SIZE:
            raise MachineError(f"memory size must be page-aligned: {size}")
        self.size = size
        self.data = bytearray(size)
        self.perms = bytearray(size >> PAGE_SHIFT)  # default: no access
        #: Called with (addr, length) after every successful store; the
        #: CPU uses it to invalidate its decode cache, the DBT to detect
        #: self-modifying code.  ``None`` when nobody is listening.
        self.write_watch = None
        #: Called with (start, length) after every set_perms; the block
        #: -compiling backend flushes its compiled code on permission
        #: changes (X grants/revocations).  ``None`` when unused.
        self.perm_watch = None
        #: Copy-on-write journal for checkpoint/rollback recovery
        #: (``repro.recovery``): when a dict, the pre-image of every
        #: page is captured before its first mutation since the journal
        #: was last drained.  ``None`` (the default) costs one identity
        #: check per store.
        self.cow = None
        #: Byte bound for COW tracking: pages at or above it are never
        #: preserved.  Recovery sets this below the DBT code cache so
        #: translation writes (a semantics-preserving cache, not
        #: architectural state) are not journalled.
        self.cow_bound = size

    def _cow_capture(self, addr: int) -> None:
        """Record the pre-image of ``addr``'s page (first touch only)."""
        page = addr >> PAGE_SHIFT
        if page not in self.cow and addr < self.cow_bound:
            base = page << PAGE_SHIFT
            self.cow[page] = bytes(self.data[base:base + PAGE_SIZE])

    # -- permissions ------------------------------------------------------

    def set_perms(self, start: int, length: int, perms: int) -> None:
        """Set permissions for all pages overlapping [start, start+len)."""
        if length <= 0:
            return
        first = start >> PAGE_SHIFT
        last = (start + length - 1) >> PAGE_SHIFT
        if last >= len(self.perms):
            raise MachineError(
                f"region {start:#x}+{length:#x} outside memory")
        for page in range(first, last + 1):
            self.perms[page] = perms
        if self.perm_watch is not None:
            self.perm_watch(start, length)

    def restore_perms(self, perms: bytes) -> None:
        """Put the page permissions back to ``perms``, notifying the
        permission watcher of pages whose execute bit changes."""
        if self.perms == perms:
            return
        for page, (now, then) in enumerate(zip(self.perms, perms)):
            if now != then:
                self.perms[page] = then
                if (now ^ then) & PERM_X and self.perm_watch is not None:
                    self.perm_watch(page << PAGE_SHIFT, PAGE_SIZE)

    def perms_at(self, addr: int) -> int:
        if not 0 <= addr < self.size:
            return 0
        return self.perms[addr >> PAGE_SHIFT]

    def pages_in(self, start: int, length: int) -> range:
        """Page indices overlapping a byte range."""
        if length <= 0:
            return range(0)
        return range(start >> PAGE_SHIFT,
                     ((start + length - 1) >> PAGE_SHIFT) + 1)

    # -- raw (host-side) access: no permission checks ----------------------

    def write_raw(self, addr: int, blob: bytes) -> None:
        """Host-side store used by loaders and the DBT code generator."""
        end = addr + len(blob)
        if not 0 <= addr <= end <= self.size:
            raise MachineError(f"raw write outside memory: {addr:#x}")
        if self.cow is not None:
            for page in self.pages_in(addr, len(blob)):
                self._cow_capture(page << PAGE_SHIFT)
        self.data[addr:end] = blob
        if self.write_watch is not None:
            self.write_watch(addr, len(blob))

    def restore_page(self, page: int, image: bytes) -> bool:
        """Make ``page`` hold ``image`` by writing back, through
        :meth:`write_raw`, the one span of bytes that differs; returns
        whether anything differed."""
        start = page << PAGE_SHIFT
        now = self.data[start:start + PAGE_SIZE]
        if now == image:
            return False
        diff = (int.from_bytes(now, "little")
                ^ int.from_bytes(image, "little"))
        low = ((diff & -diff).bit_length() - 1) >> 3
        high = (diff.bit_length() + 7) >> 3
        self.write_raw(start + low, image[low:high])
        return True

    def read_raw(self, addr: int, length: int) -> bytes:
        if not 0 <= addr <= addr + length <= self.size:
            raise MachineError(f"raw read outside memory: {addr:#x}")
        return bytes(self.data[addr:addr + length])

    def read_word_raw(self, addr: int) -> int:
        return int.from_bytes(self.read_raw(addr, 4), "little")

    # -- guest access: permission-checked ----------------------------------

    def load_word(self, addr: int) -> int:
        if addr & 3:
            raise AccessFault(FaultKind.UNALIGNED, addr)
        if not (self.perms_at(addr) & PERM_R):
            raise AccessFault(FaultKind.BAD_ACCESS, addr)
        return int.from_bytes(self.data[addr:addr + 4], "little")

    def store_word(self, addr: int, value: int) -> None:
        if addr & 3:
            raise AccessFault(FaultKind.UNALIGNED, addr)
        perms = self.perms_at(addr)
        if not perms & PERM_W:
            kind = (FaultKind.WRITE_PROTECT if perms & PERM_R
                    else FaultKind.BAD_ACCESS)
            raise AccessFault(kind, addr)
        cow = self.cow
        if cow is not None and addr >> PAGE_SHIFT not in cow:
            self._cow_capture(addr)
        self.data[addr:addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")
        if self.write_watch is not None:
            self.write_watch(addr, 4)

    def load_byte(self, addr: int) -> int:
        if not (self.perms_at(addr) & PERM_R):
            raise AccessFault(FaultKind.BAD_ACCESS, addr)
        return self.data[addr]

    def store_byte(self, addr: int, value: int) -> None:
        perms = self.perms_at(addr)
        if not perms & PERM_W:
            kind = (FaultKind.WRITE_PROTECT if perms & PERM_R
                    else FaultKind.BAD_ACCESS)
            raise AccessFault(kind, addr)
        cow = self.cow
        if cow is not None and addr >> PAGE_SHIFT not in cow:
            self._cow_capture(addr)
        self.data[addr] = value & 0xFF
        if self.write_watch is not None:
            self.write_watch(addr, 1)

    def fetch_word(self, addr: int) -> int:
        """Instruction fetch: requires X permission (execute-disable)."""
        if addr & 3:
            raise AccessFault(FaultKind.UNALIGNED, addr)
        if not (self.perms_at(addr) & PERM_X):
            raise AccessFault(FaultKind.NX_VIOLATION, addr)
        return int.from_bytes(self.data[addr:addr + 4], "little")

    def read_cstring(self, addr: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (for the print-string syscall)."""
        out = bytearray()
        for index in range(limit):
            byte = self.load_byte(addr + index)
            if byte == 0:
                break
            out.append(byte)
        return bytes(out)
