"""Architectural checkpoints over copy-on-write memory deltas.

A :class:`Checkpoint` is a :class:`~repro.machine.state.MachineState`
(CPU fields, the *lengths* of the output and syscall logs — restoring
truncates them, which is what makes re-execution free of duplicated
side effects, the harness buffers all I/O — and the states of the
recovery manager's components) plus page pre-images, the DBT flush
epoch and the injector's occurrence state.  Memory is not copied
wholesale: :class:`~repro.machine.memory.Memory` journals the
pre-image of every page the first time it is dirtied (``Memory.cow``),
and each checkpoint owns the journal of the interval that *ended* at
it.  Rolling back to checkpoint ``j`` replays the pre-images of every
interval after ``j`` (oldest value wins) plus the currently open
interval, so only pages written since ``j`` are touched, and of each
only the span that changed, through ``Memory.restore_page``: the
interpreter's decode cache, the block backend's compiled traces
(including their chain links), and any other write watcher are
invalidated exactly like a guest store would.

The copy-on-write bound is the DBT code-cache base: everything
architectural (text, data, stack, the dataflow shadow region) lives
below it, while translation-cache writes above it are a
semantics-preserving cache that must *not* be rolled back (the DBT's
flush epoch, recorded per checkpoint, governs their validity instead).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dbt.codecache import CACHE_BASE
from repro.machine.state import MachineState

#: Byte bound below which memory is architectural and checkpointed.
RECOVERABLE_BOUND = CACHE_BASE


@dataclass
class Checkpoint:
    """One consistent point the machine can be rolled back to."""

    ordinal: int
    state: MachineState
    #: DBT flush epoch at capture time (0 outside the DBT pipeline).  A
    #: checkpoint whose PC points into the translation cache is only
    #: consistent while no flush has happened since capture.
    epoch: int = 0
    #: Injector occurrence counters at capture time, for re-arming
    #: persistent faults after rollback.
    injector_state: tuple | None = None
    #: Pre-images of pages dirtied in the interval ending here.
    pages: dict = field(default_factory=dict)


def capture_checkpoint(cpu, ordinal: int, epoch: int = 0,
                       injector_state: tuple | None = None,
                       components=()) -> Checkpoint:
    """Snapshot the CPU and ``components``, and drain the open COW
    interval into the checkpoint."""
    mem = cpu.memory
    pages = mem.cow if mem.cow is not None else {}
    mem.cow = {}
    return Checkpoint(ordinal=ordinal,
                      state=MachineState.capture(cpu, components),
                      epoch=epoch, injector_state=injector_state,
                      pages=pages)


def restore_checkpoint(cpu, checkpoints: list, index: int,
                       components=()) -> int:
    """Roll ``cpu`` and ``components`` back to ``checkpoints[index]``;
    drop later ones.  Returns the number of pages rewritten."""
    mem = cpu.memory
    # The restore's own writes are not journalled: the interval after
    # the target starts empty.
    journal, mem.cow = mem.cow, None
    # Newest first, then overridden towards the oldest: a page dirtied
    # in several intervals must come back as its pre-image from the
    # *earliest* interval after the target — the value it held at the
    # target checkpoint.
    images = journal if journal is not None else {}
    for later in range(len(checkpoints) - 1, index, -1):
        images.update(checkpoints[later].pages)
    restored = sum(mem.restore_page(page, image)
                   for page, image in images.items())
    if journal is not None:
        mem.cow = {}
    del checkpoints[index + 1:]
    checkpoints[index].state.restore(cpu, components)
    return restored


def prune_checkpoints(checkpoints: list, max_live: int) -> None:
    """Bound memory held by the chain without losing restorability.

    Merges the oldest non-entry checkpoint into its successor: a page
    pre-imaged at the victim but not at the survivor was untouched over
    the survivor's interval, so the victim's (older) pre-image is the
    correct one for any rollback at or before the survivor.
    """
    while len(checkpoints) > max_live and len(checkpoints) > 2:
        victim = checkpoints.pop(1)
        survivor = checkpoints[1]
        merged = dict(survivor.pages)
        merged.update(victim.pages)
        survivor.pages = merged
