"""The one page restorer a recovery rollback and a forked-run rewind
share (``Memory.restore_page``), and the permission restore next to it
(``Memory.restore_perms``): each writes back only what differs."""

import pytest

from repro.exec import install_backend
from repro.machine import Cpu, Memory, PERM_R, PERM_RW, PERM_RX
from repro.machine.memory import PAGE_SIZE
from repro.recovery import (RECOVERABLE_BOUND, capture_checkpoint,
                            restore_checkpoint)


def _watched(mem):
    seen = []
    mem.write_watch = lambda addr, length: seen.append((addr, length))
    return seen


def test_writes_exactly_the_differing_span():
    mem = Memory(PAGE_SIZE * 2)
    image = bytearray(PAGE_SIZE)
    image[100] = 1
    image[203] = 2
    seen = _watched(mem)
    assert mem.restore_page(1, bytes(image))
    assert seen == [(PAGE_SIZE + 100, 104)]
    assert mem.read_raw(PAGE_SIZE, PAGE_SIZE) == image


def test_span_reaches_both_ends_of_the_page():
    mem = Memory(PAGE_SIZE)
    image = bytearray(PAGE_SIZE)
    image[0] = image[-1] = 0x80
    seen = _watched(mem)
    assert mem.restore_page(0, bytes(image))
    assert seen == [(0, PAGE_SIZE)]


def test_equal_page_writes_nothing():
    mem = Memory(PAGE_SIZE)
    mem.write_raw(8, b"abc")
    seen = _watched(mem)
    assert not mem.restore_page(0, mem.read_raw(0, PAGE_SIZE))
    assert seen == []


@pytest.mark.parametrize("backend", ["interp", "block"])
def test_rollback_rewrites_only_the_changed_span(sum_loop, backend):
    cpu = Cpu()
    install_backend(cpu, backend)
    cpu.load_program(sum_loop, executable_text=True)
    mem = cpu.memory
    mem.cow = {}
    mem.cow_bound = RECOVERABLE_BOUND
    addr = sum_loop.data_base + 8
    checkpoints = [capture_checkpoint(cpu, ordinal=0)]
    mem.store_word(addr, mem.load_word(addr) ^ 0x01010101)
    seen, watch = [], mem.write_watch

    def recording(start, length):
        seen.append((start, length))
        watch(start, length)

    mem.write_watch = recording
    assert restore_checkpoint(cpu, checkpoints, 0) == 1
    assert seen == [(addr, 4)]


def test_perms_notify_only_execute_bit_changes():
    mem = Memory(PAGE_SIZE * 4)
    mem.set_perms(0, PAGE_SIZE * 4, PERM_RW)
    saved = bytes(mem.perms)
    mem.set_perms(0, PAGE_SIZE, PERM_RX)             # X granted
    mem.set_perms(PAGE_SIZE * 2, PAGE_SIZE, PERM_R)  # W revoked
    seen = []
    mem.perm_watch = lambda start, length: seen.append((start, length))
    mem.restore_perms(saved)
    assert bytes(mem.perms) == saved
    assert seen == [(0, PAGE_SIZE)]
    mem.restore_perms(saved)
    assert seen == [(0, PAGE_SIZE)]
