"""Machines are freed by reference counting: with the cycle collector
off, no run's ``Memory`` outlives the run, on every fresh run path."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.faults import cache as run_cache
from repro.faults.campaign import (Pipeline,
                                   enumerate_instrumentation_branch_sites,
                                   generate_category_faults,
                                   generate_thread_faults)
from repro.faults.model import compute_error_model
from repro.faults.sampling import sample_model_faults
from repro.fuzz import capture
from repro.machine.memory import Memory
from tests.faults.test_run_path import (BACKENDS, BRANCH_FAULTS, MT_FAULTS,
                                        MT_PROGRAM, PROGRAM, _config)


@pytest.fixture
def memories(monkeypatch):
    """Every Memory built while the test runs, held weakly, with the
    cycle collector off."""
    alive = weakref.WeakSet()
    init = Memory.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.add(self)

    monkeypatch.setattr(Memory, "__init__", tracked)
    run_cache.clear_caches()
    gc.collect()
    gc.disable()
    try:
        yield alive
    finally:
        gc.enable()


LANES = ("native", "static-rcf", "dbt-rcf", "dbt-ecf-df", "mt-native",
         "mt-static-ecf")


def _program(lane):
    return MT_PROGRAM if lane.startswith("mt-") else PROGRAM


def _spec(lane):
    return (MT_FAULTS if lane.startswith("mt-") else BRANCH_FAULTS)[
        "direction"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("lane", LANES)
class TestFreshRuns:
    def test_golden_run(self, memories, lane, backend):
        pipe = Pipeline(_program(lane), _config(lane, backend, False))
        assert pipe.golden is not None
        assert len(memories) == 0

    def test_recovery_run(self, memories, lane, backend):
        """Native and static recovery runs fork: the pipeline's one
        forked-run machine is all that outlives them."""
        pipe = Pipeline(_program(lane), _config(lane, backend, True))
        pipe.run(_spec(lane))
        pipe.run(None)
        assert len(memories) == (lane in ("native", "static-rcf"))

    def test_oracle_capture(self, memories, lane, backend):
        capture(_program(lane), _config(lane, backend, False))
        assert len(memories) == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_multithreaded_fault_run(memories, backend):
    """Threaded fault runs fork: the pipeline's one forked-run machine
    is all that outlives them."""
    pipe = Pipeline(MT_PROGRAM, _config("mt-static-ecf", backend, False))
    for spec in MT_FAULTS.values():
        pipe.run(spec)
    assert len(memories) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_multithreaded_recovery_run(memories, backend):
    """Threaded recovery runs run fresh and leave no machine behind."""
    pipe = Pipeline(MT_PROGRAM, _config("mt-static-ecf", backend, True))
    for spec in MT_FAULTS.values():
        pipe.run(spec)
    assert len(memories) == 0


def test_cache_site_enumeration(memories):
    assert enumerate_instrumentation_branch_sites(
        PROGRAM, _config("dbt-rcf", "block", False))
    assert len(memories) == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("lane", ("native", "static-rcf", "dbt-rcf"))
def test_forked_runs_share_one_machine(memories, lane, backend):
    """Forked runs reuse the pipeline's one machine, which lives as
    long as the pipeline."""
    pipe = Pipeline(PROGRAM, _config(lane, backend, False))
    for spec in BRANCH_FAULTS.values():
        pipe.run(spec)
    assert len(memories) == 1


class TestProfilingRuns:
    """The profiling run behind fault generation and the error model
    frees its machine before the call returns."""

    def test_category_faults(self, memories):
        assert generate_category_faults(PROGRAM, per_category=2).total()
        assert len(memories) == 0

    def test_thread_faults(self, memories):
        """The threaded profile runs the program under the threaded
        machine."""
        config = _config("mt-static-ecf", "interp", False)
        assert generate_thread_faults(MT_PROGRAM, config, [0, 1],
                                      per_thread=2)
        assert len(memories) == 0

    def test_model_faults(self, memories):
        assert sample_model_faults(PROGRAM, count=4)
        assert len(memories) == 0

    def test_error_model(self, memories):
        assert compute_error_model(PROGRAM).total > 0
        assert len(memories) == 0


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("lane", ("native", "static-rcf"))
def test_forked_recovery_runs_free_their_manager(monkeypatch, lane,
                                                 backend):
    """A forked recovery run's manager, and the checkpoint page images
    it holds, go with the run."""
    from repro.recovery.manager import RecoveryManager
    alive = weakref.WeakSet()
    init = RecoveryManager.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.add(self)

    monkeypatch.setattr(RecoveryManager, "__init__", tracked)
    pipe = Pipeline(PROGRAM, _config(lane, backend, True))
    gc.collect()
    gc.disable()
    try:
        for spec in BRANCH_FAULTS.values():
            pipe.run(spec)
        assert len(alive) == 0
    finally:
        gc.enable()
