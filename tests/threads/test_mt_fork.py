"""The threaded fork oracle: on seed-varied multithreaded kernels, every
thread, scheduler and register fault's forked run (rewound from the
golden ladder, with the scheduler) must give the record a fresh run
gives, field for field."""

from __future__ import annotations

import pytest

from repro.checking import Policy
from repro.faults.campaign import PipelineConfig
from repro.fuzz.oracle import check_fork
from repro.fuzz.runner import FuzzConfig, _mt_case
from repro.isa import assemble

#: Uninstrumented and ECF-rewritten threads, on both backends, with and
#: without signature swapping at context switches.
LANES = [(pipeline, technique, backend, sig_swap)
         for pipeline, technique in (("native", None), ("static", "ecf"))
         for backend in ("interp", "block")
         for sig_swap in (True, False)]
#: Two kernels per lane.
PROGRAMS = 16
FUZZ = FuzzConfig(seed=2006)


def _case(index: int):
    """The ``index``-th kernel as the MT fuzz lane draws it: counters,
    ledger or relay, with its quantum, policy and scheduler seed."""
    source, params = _mt_case(FUZZ, index)
    return assemble(source, name=f"mt-fork-{index}"), params


def test_kernels_cover_every_kind_and_policy():
    params = [_case(index)[1] for index in range(PROGRAMS)]
    assert {p["kernel"] for p in params} == {"counters", "ledger", "relay"}
    assert {p["sched_policy"] for p in params} == {"rr", "priority"}


@pytest.mark.parametrize("index", range(PROGRAMS))
def test_forked_threaded_runs_match_fresh_runs(index):
    pipeline, technique, backend, sig_swap = LANES[index % len(LANES)]
    program, params = _case(index)
    config = PipelineConfig(
        pipeline, technique, Policy.ALLBB, backend=backend, threads=True,
        quantum=params["quantum"], sched_policy=params["sched_policy"],
        sched_seed=params["sched_seed"], sig_swap=sig_swap)
    divergences, runs = check_fork(program, config, seed=index)
    assert runs > 10
    assert [d.describe() for d in divergences] == []
