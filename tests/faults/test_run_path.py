"""Pin the pipeline run path: every pipeline, backend and fault kind.

Each case runs one spec through :class:`Pipeline` and compares the
*whole* :class:`RunRecord` — outcome, stop, outputs, cycles, icount,
detection latency, recovery attempts, rollback distance and re-executed
cycles — against a literal.  Any change to how a run is built, armed,
stepped or classified shows up here as a changed field.
"""

from __future__ import annotations

import pytest

from repro.checking import Policy
from repro.dbt import Dbt
from repro.faults import cache as run_cache
from repro.faults.campaign import (Pipeline, PipelineConfig,
                                   enumerate_instrumentation_branch_sites)
from repro.faults.injector import (CacheFaultSpec, DirectionFault,
                                   FaultSpec, FlagBitFault, OffsetBitFault,
                                   RedirectFault, RegisterFaultSpec,
                                   SchedFaultSpec)
from repro.isa import assemble
from repro.machine import Cpu
from repro.workloads import BY_NAME

NESTED_SRC = """
.entry main
main:
    movi r1, 0
    movi r2, 0
outer:
    movi r3, 0
inner:
    add r1, r1, r3
    addi r3, r3, 1
    cmpi r3, 8
    jl inner
    addi r2, r2, 1
    cmpi r2, 12
    jl outer
    syscall 4
    movi r1, 0
    syscall 0
"""

PROGRAM = assemble(NESTED_SRC, name="run-path")
MT_PROGRAM = assemble(BY_NAME["mt.counters4"].generator(threads=4,
                                                        iters=10, spin=2),
                      name="run-path-mt")

_INNER = PROGRAM.symbols["inner"] + 12     # jl inner
_OUTER = PROGRAM.symbols["outer"] + 28     # jl outer
_WORKER = MT_PROGRAM.symbols["worker"] + 68     # jl (iteration loop)

#: Guest-level faults every single-threaded pipeline runs.
BRANCH_FAULTS = {
    "direction": FaultSpec(_INNER, 5, DirectionFault()),
    "redirect": FaultSpec(_OUTER, 2, RedirectFault(PROGRAM.symbols["main"]
                                                   + 4)),
    "redirect-start": FaultSpec(_INNER, 3,
                                RedirectFault(PROGRAM.symbols["outer"])),
    "offset": FaultSpec(_INNER, 3, OffsetBitFault(2)),
    "flag": FaultSpec(_INNER, 4, FlagBitFault(1)),
    "register": RegisterFaultSpec(icount=60, reg=3, bit=4),
    # stuck-at: re-armed after every rollback until recovery gives up
    "persistent": FaultSpec(_INNER, 5, DirectionFault(), persistent=True),
}

#: What the multithreaded machine runs (quantum 53): branch, flag and
#: register faults, a thread-targeted fault and both scheduler faults.
MT_FAULTS = {
    "direction": FaultSpec(_WORKER, 3, DirectionFault()),
    "flag": FaultSpec(_WORKER, 2, FlagBitFault(1)),
    "register": RegisterFaultSpec(icount=400, reg=2, bit=3),
    "thread": FaultSpec(_WORKER, 2, DirectionFault(), thread=2),
    "sched-ctx": SchedFaultSpec(switch=6, kind="ctx-bit", tid=1, reg=16,
                                bit=10),
    "sched-rotate": SchedFaultSpec(switch=4, kind="queue-rotate"),
    "persistent": FaultSpec(_WORKER, 3, DirectionFault(), persistent=True),
}

BACKENDS = ("interp", "block")

#: (lane, pipeline, technique, extra PipelineConfig fields)
LANES = (
    ("native", "native", None, {}),
    ("static-rcf", "static", "rcf", {}),
    ("static-ecca", "static", "ecca", {}),
    ("dbt-rcf", "dbt", "rcf", {}),
    ("dbt-ecf-df", "dbt", "ecf", {"dataflow": True}),
    ("mt-native", "native", None, {"threads": True, "quantum": 53}),
    ("mt-static-ecf", "static", "ecf", {"threads": True, "quantum": 53}),
)


def _config(lane: str, backend: str, recover: bool) -> PipelineConfig:
    for name, pipeline, technique, extra in LANES:
        if name == lane:
            return PipelineConfig(pipeline, technique, Policy.ALLBB,
                                  backend=backend, recover=recover,
                                  checkpoint_interval=32, **extra)
    raise KeyError(lane)


def _cache_faults() -> dict:
    sites = enumerate_instrumentation_branch_sites(
        PROGRAM, PipelineConfig("dbt", "rcf"))
    return {f"cache{index}": CacheFaultSpec(cache_addr=site, occurrence=1,
                                            bit=bit, force_taken=True)
            for index, (site, bit) in enumerate(((sites[0], 2),
                                                 (sites[1], 4),
                                                 (sites[-1], 3)))}


def _faults(lane: str) -> dict:
    faults = {"golden": None}
    faults.update(MT_FAULTS if lane.startswith("mt-") else BRANCH_FAULTS)
    if lane == "dbt-rcf":
        faults.update(_cache_faults())
    return faults


def _cases():
    for lane, *_ in LANES:
        for backend in BACKENDS:
            for recover in (False, True):
                for fault in _faults(lane):
                    yield lane, backend, recover, fault


def _record_tuple(record) -> tuple:
    return (record.outcome.value, record.stop_reason, record.outputs,
            record.cycles, record.icount, record.detection_latency,
            record.detection_latency_cycles, record.error,
            record.attempts, record.rollback_distance_icount,
            record.reexec_cycles)


def _observe() -> dict:
    observed = {}
    for lane, *_ in LANES:
        faults = _faults(lane)
        for backend in BACKENDS:
            for recover in (False, True):
                pipe = Pipeline(MT_PROGRAM if lane.startswith("mt-")
                                else PROGRAM,
                                _config(lane, backend, recover))
                for name, spec in faults.items():
                    observed[lane, backend, recover, name] = \
                        _record_tuple(pipe.run(spec))
    return observed


@pytest.fixture(scope="module")
def observed():
    return _observe()


@pytest.mark.parametrize("case", list(_cases()),
                         ids=lambda case: "-".join(map(str, case)))
def test_run_record(observed, case):
    assert observed[case] == EXPECTED[case]


def test_table_is_complete(observed):
    assert set(observed) == set(EXPECTED)


@pytest.mark.parametrize("lane", ["native", "static-rcf", "static-ecca",
                                  "dbt-rcf", "dbt-ecf-df"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_cold_pipeline_runs_the_guest_once(monkeypatch, lane, backend):
    """Set-up is one golden run: one ``Cpu.run`` (one ``Dbt.run`` under
    the DBT, which re-enters ``Cpu.run`` at every block exit)."""
    calls = {"cpu": 0, "dbt": 0}
    cpu_run, dbt_run = Cpu.run, Dbt.run

    def counted_cpu_run(self, *args, **kwargs):
        calls["cpu"] += 1
        return cpu_run(self, *args, **kwargs)

    def counted_dbt_run(self, *args, **kwargs):
        calls["dbt"] += 1
        return dbt_run(self, *args, **kwargs)

    config = _config(lane, backend, recover=False)
    run_cache.clear_caches()
    monkeypatch.setattr(Cpu, "run", counted_cpu_run)
    monkeypatch.setattr(Dbt, "run", counted_dbt_run)
    Pipeline(PROGRAM, config)
    if config.pipeline == "dbt":
        assert calls["dbt"] == 1
    else:
        assert calls == {"cpu": 1, "dbt": 0}
    # A warm pipeline reuses the cached golden run: no guest run at all.
    calls.update(cpu=0, dbt=0)
    Pipeline(PROGRAM, config)
    assert calls == {"cpu": 0, "dbt": 0}


#: (lane, backend, recover, fault) -> (outcome, stop_reason, outputs,
#: cycles, icount, detection_latency, detection_latency_cycles, error,
#: attempts, rollback_distance_icount, reexec_cycles)
EXPECTED: dict = {
    ('native', 'interp', False, 'golden'):
        ('benign', 'halted at pc=0x1030 exit=0', ((), (336,)), 550, 437, None, None, None, 0, None, None),
    ('native', 'interp', False, 'direction'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (318,)), 535, 425, None, None, None, 0, None, None),
    ('native', 'interp', False, 'redirect'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (392,)), 639, 510, None, None, None, 0, None, None),
    ('native', 'interp', False, 'redirect-start'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (339,)), 566, 450, None, None, None, 0, None, None),
    ('native', 'interp', False, 'offset'):
        ('detected_hardware', 'fault at pc=0xffc fault=nx_violation addr=0xffc', ((), ()), 18, 15, None, None, None, 0, None, None),
    ('native', 'interp', False, 'flag'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (314,)), 530, 421, None, None, None, 0, None, None),
    ('native', 'interp', False, 'register'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (323,)), 540, 429, None, None, None, 0, None, None),
    ('native', 'interp', False, 'persistent'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (318,)), 535, 425, None, None, None, 0, None, None),
    ('native', 'interp', True, 'golden'):
        ('benign', 'halted at pc=0x1030 exit=0', ((), (336,)), 550, 437, None, None, None, 0, None, None),
    ('native', 'interp', True, 'direction'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (318,)), 535, 425, None, None, None, 0, None, None),
    ('native', 'interp', True, 'redirect'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (392,)), 639, 510, None, None, None, 0, None, None),
    ('native', 'interp', True, 'redirect-start'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (339,)), 566, 450, None, None, None, 0, None, None),
    ('native', 'interp', True, 'offset'):
        ('recovered', 'halted at pc=0x1030 exit=0', ((), (336,)), 550, 437, None, None, None, 1, 15, 18),
    ('native', 'interp', True, 'flag'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (314,)), 530, 421, None, None, None, 0, None, None),
    ('native', 'interp', True, 'register'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (323,)), 540, 429, None, None, None, 0, None, None),
    ('native', 'interp', True, 'persistent'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (318,)), 535, 425, None, None, None, 0, None, None),
    ('native', 'block', False, 'golden'):
        ('benign', 'halted at pc=0x1030 exit=0', ((), (336,)), 550, 437, None, None, None, 0, None, None),
    ('native', 'block', False, 'direction'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (318,)), 535, 425, None, None, None, 0, None, None),
    ('native', 'block', False, 'redirect'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (392,)), 639, 510, None, None, None, 0, None, None),
    ('native', 'block', False, 'redirect-start'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (339,)), 566, 450, None, None, None, 0, None, None),
    ('native', 'block', False, 'offset'):
        ('detected_hardware', 'fault at pc=0xffc fault=nx_violation addr=0xffc', ((), ()), 18, 15, None, None, None, 0, None, None),
    ('native', 'block', False, 'flag'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (314,)), 530, 421, None, None, None, 0, None, None),
    ('native', 'block', False, 'register'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (323,)), 540, 429, None, None, None, 0, None, None),
    ('native', 'block', False, 'persistent'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (318,)), 535, 425, None, None, None, 0, None, None),
    ('native', 'block', True, 'golden'):
        ('benign', 'halted at pc=0x1030 exit=0', ((), (336,)), 550, 437, None, None, None, 0, None, None),
    ('native', 'block', True, 'direction'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (318,)), 535, 425, None, None, None, 0, None, None),
    ('native', 'block', True, 'redirect'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (392,)), 639, 510, None, None, None, 0, None, None),
    ('native', 'block', True, 'redirect-start'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (339,)), 566, 450, None, None, None, 0, None, None),
    ('native', 'block', True, 'offset'):
        ('recovered', 'halted at pc=0x1030 exit=0', ((), (336,)), 550, 437, None, None, None, 1, 15, 18),
    ('native', 'block', True, 'flag'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (314,)), 530, 421, None, None, None, 0, None, None),
    ('native', 'block', True, 'register'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (323,)), 540, 429, None, None, None, 0, None, None),
    ('native', 'block', True, 'persistent'):
        ('sdc', 'halted at pc=0x1030 exit=0', ((), (318,)), 535, 425, None, None, None, 0, None, None),
    ('static-rcf', 'interp', False, 'golden'):
        ('benign', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 0, None, None),
    ('static-rcf', 'interp', False, 'direction'):
        ('detected_signature', 'halted at pc=0x10f8 exit=53198', ((), ()), 113, 93, 7, 17, None, 0, None, None),
    ('static-rcf', 'interp', False, 'redirect'):
        ('detected_signature', 'halted at pc=0x10f8 exit=53198', ((), ()), 322, 279, 11, 22, None, 0, None, None),
    ('static-rcf', 'interp', False, 'redirect-start'):
        ('detected_signature', 'halted at pc=0x10f8 exit=53198', ((), ()), 84, 67, 7, 18, None, 0, None, None),
    ('static-rcf', 'interp', False, 'offset'):
        ('benign', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1765, 1556, None, None, None, 0, None, None),
    ('static-rcf', 'interp', False, 'flag'):
        ('detected_signature', 'halted at pc=0x10f8 exit=53198', ((), ()), 98, 80, 7, 17, None, 0, None, None),
    ('static-rcf', 'interp', False, 'register'):
        ('sdc', 'halted at pc=0x10f0 exit=0', ((), (330,)), 1709, 1508, None, None, None, 0, None, None),
    ('static-rcf', 'interp', False, 'persistent'):
        ('detected_signature', 'halted at pc=0x10f8 exit=53198', ((), ()), 113, 93, 7, 17, None, 0, None, None),
    ('static-rcf', 'interp', True, 'golden'):
        ('benign', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 0, None, None),
    ('static-rcf', 'interp', True, 'direction'):
        ('recovered', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 1, 29, 42),
    ('static-rcf', 'interp', True, 'redirect'):
        ('recovered', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 1, 23, 35),
    ('static-rcf', 'interp', True, 'redirect-start'):
        ('recovered', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 2, 70, 97),
    ('static-rcf', 'interp', True, 'offset'):
        ('benign', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1765, 1556, None, None, None, 0, None, None),
    ('static-rcf', 'interp', True, 'flag'):
        ('recovered', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 1, 16, 27),
    ('static-rcf', 'interp', True, 'register'):
        ('sdc', 'halted at pc=0x10f0 exit=0', ((), (330,)), 1709, 1508, None, None, None, 0, None, None),
    ('static-rcf', 'interp', True, 'persistent'):
        ('recovery_failed', 'halted at pc=0x10f8 exit=53198', ((), ()), 113, 93, None, None, None, 3, 215, 268),
    ('static-rcf', 'block', False, 'golden'):
        ('benign', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 0, None, None),
    ('static-rcf', 'block', False, 'direction'):
        ('detected_signature', 'halted at pc=0x10f8 exit=53198', ((), ()), 113, 93, 7, 17, None, 0, None, None),
    ('static-rcf', 'block', False, 'redirect'):
        ('detected_signature', 'halted at pc=0x10f8 exit=53198', ((), ()), 322, 279, 11, 22, None, 0, None, None),
    ('static-rcf', 'block', False, 'redirect-start'):
        ('detected_signature', 'halted at pc=0x10f8 exit=53198', ((), ()), 84, 67, 7, 18, None, 0, None, None),
    ('static-rcf', 'block', False, 'offset'):
        ('benign', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1765, 1556, None, None, None, 0, None, None),
    ('static-rcf', 'block', False, 'flag'):
        ('detected_signature', 'halted at pc=0x10f8 exit=53198', ((), ()), 98, 80, 7, 17, None, 0, None, None),
    ('static-rcf', 'block', False, 'register'):
        ('sdc', 'halted at pc=0x10f0 exit=0', ((), (330,)), 1709, 1508, None, None, None, 0, None, None),
    ('static-rcf', 'block', False, 'persistent'):
        ('detected_signature', 'halted at pc=0x10f8 exit=53198', ((), ()), 113, 93, 7, 17, None, 0, None, None),
    ('static-rcf', 'block', True, 'golden'):
        ('benign', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 0, None, None),
    ('static-rcf', 'block', True, 'direction'):
        ('recovered', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 1, 29, 42),
    ('static-rcf', 'block', True, 'redirect'):
        ('recovered', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 1, 23, 35),
    ('static-rcf', 'block', True, 'redirect-start'):
        ('recovered', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 2, 70, 97),
    ('static-rcf', 'block', True, 'offset'):
        ('benign', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1765, 1556, None, None, None, 0, None, None),
    ('static-rcf', 'block', True, 'flag'):
        ('recovered', 'halted at pc=0x10f0 exit=0', ((), (336,)), 1769, 1560, None, None, None, 1, 16, 27),
    ('static-rcf', 'block', True, 'register'):
        ('sdc', 'halted at pc=0x10f0 exit=0', ((), (330,)), 1709, 1508, None, None, None, 0, None, None),
    ('static-rcf', 'block', True, 'persistent'):
        ('recovery_failed', 'halted at pc=0x10f8 exit=53198', ((), ()), 113, 93, None, None, None, 3, 215, 268),
    ('static-ecca', 'interp', False, 'golden'):
        ('benign', 'halted at pc=0x10fc exit=0', ((), (336,)), 6408, 1658, None, None, None, 0, None, None),
    ('static-ecca', 'interp', False, 'direction'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (318,)), 6249, 1616, None, None, None, 0, None, None),
    ('static-ecca', 'interp', False, 'redirect'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (392,)), 7459, 1933, None, None, None, 0, None, None),
    ('static-ecca', 'interp', False, 'redirect-start'):
        ('detected_signature', 'fault at pc=0x1058 fault=div_by_zero addr=0x1058', ((), ()), 308, 76, 9, 48, None, 0, None, None),
    ('static-ecca', 'interp', False, 'offset'):
        ('benign', 'halted at pc=0x10fc exit=0', ((), (336,)), 6385, 1654, None, None, None, 0, None, None),
    ('static-ecca', 'interp', False, 'flag'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (314,)), 6196, 1602, None, None, None, 0, None, None),
    ('static-ecca', 'interp', False, 'register'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (327,)), 6143, 1588, None, None, None, 0, None, None),
    ('static-ecca', 'interp', False, 'persistent'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (318,)), 6249, 1616, None, None, None, 0, None, None),
    ('static-ecca', 'interp', True, 'golden'):
        ('benign', 'halted at pc=0x10fc exit=0', ((), (336,)), 6408, 1658, None, None, None, 0, None, None),
    ('static-ecca', 'interp', True, 'direction'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (318,)), 6249, 1616, None, None, None, 0, None, None),
    ('static-ecca', 'interp', True, 'redirect'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (392,)), 7459, 1933, None, None, None, 0, None, None),
    ('static-ecca', 'interp', True, 'redirect-start'):
        ('recovered', 'halted at pc=0x10fc exit=0', ((), (336,)), 6408, 1658, None, None, None, 1, 12, 51),
    ('static-ecca', 'interp', True, 'offset'):
        ('benign', 'halted at pc=0x10fc exit=0', ((), (336,)), 6385, 1654, None, None, None, 0, None, None),
    ('static-ecca', 'interp', True, 'flag'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (314,)), 6196, 1602, None, None, None, 0, None, None),
    ('static-ecca', 'interp', True, 'register'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (327,)), 6143, 1588, None, None, None, 0, None, None),
    ('static-ecca', 'interp', True, 'persistent'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (318,)), 6249, 1616, None, None, None, 0, None, None),
    ('static-ecca', 'block', False, 'golden'):
        ('benign', 'halted at pc=0x10fc exit=0', ((), (336,)), 6408, 1658, None, None, None, 0, None, None),
    ('static-ecca', 'block', False, 'direction'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (318,)), 6249, 1616, None, None, None, 0, None, None),
    ('static-ecca', 'block', False, 'redirect'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (392,)), 7459, 1933, None, None, None, 0, None, None),
    ('static-ecca', 'block', False, 'redirect-start'):
        ('detected_signature', 'fault at pc=0x1058 fault=div_by_zero addr=0x1058', ((), ()), 308, 76, 9, 48, None, 0, None, None),
    ('static-ecca', 'block', False, 'offset'):
        ('benign', 'halted at pc=0x10fc exit=0', ((), (336,)), 6385, 1654, None, None, None, 0, None, None),
    ('static-ecca', 'block', False, 'flag'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (314,)), 6196, 1602, None, None, None, 0, None, None),
    ('static-ecca', 'block', False, 'register'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (327,)), 6143, 1588, None, None, None, 0, None, None),
    ('static-ecca', 'block', False, 'persistent'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (318,)), 6249, 1616, None, None, None, 0, None, None),
    ('static-ecca', 'block', True, 'golden'):
        ('benign', 'halted at pc=0x10fc exit=0', ((), (336,)), 6408, 1658, None, None, None, 0, None, None),
    ('static-ecca', 'block', True, 'direction'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (318,)), 6249, 1616, None, None, None, 0, None, None),
    ('static-ecca', 'block', True, 'redirect'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (392,)), 7459, 1933, None, None, None, 0, None, None),
    ('static-ecca', 'block', True, 'redirect-start'):
        ('recovered', 'halted at pc=0x10fc exit=0', ((), (336,)), 6408, 1658, None, None, None, 1, 12, 51),
    ('static-ecca', 'block', True, 'offset'):
        ('benign', 'halted at pc=0x10fc exit=0', ((), (336,)), 6385, 1654, None, None, None, 0, None, None),
    ('static-ecca', 'block', True, 'flag'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (314,)), 6196, 1602, None, None, None, 0, None, None),
    ('static-ecca', 'block', True, 'register'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (327,)), 6143, 1588, None, None, None, 0, None, None),
    ('static-ecca', 'block', True, 'persistent'):
        ('sdc', 'halted at pc=0x10fc exit=0', ((), (318,)), 6249, 1616, None, None, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'golden'):
        ('benign', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1796, 1331, None, None, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'direction'):
        ('detected_signature', 'trap at pc=0x1000cc trap=65535', ((), ()), 246, 80, 6, 45, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'redirect'):
        ('detected_signature', 'trap at pc=0x100050 trap=65535', ((), ()), 468, 239, 9, 9, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'redirect-start'):
        ('detected_signature', 'trap at pc=0x100050 trap=65535', ((), ()), 179, 57, 5, 4, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'offset'):
        ('detected_hardware', 'fault at pc=0xffc fault=nx_violation addr=0xffc', ((), ()), 175, 53, None, None, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'flag'):
        ('detected_signature', 'trap at pc=0x1000cc trap=65535', ((), ()), 233, 69, 6, 45, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'register'):
        ('sdc', 'halted at pc=0x1000e8 exit=0', ((), (334,)), 1757, 1298, None, None, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'persistent'):
        ('detected_signature', 'trap at pc=0x1000cc trap=65535', ((), ()), 246, 80, 6, 45, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'cache0'):
        ('detected_signature', 'trap at pc=0x100050 trap=65535', ((), ()), 54, 13, 9, 49, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'cache1'):
        ('detected_hardware', 'fault at pc=0x100090 fault=illegal addr=0x100090', ((), ()), 55, 14, None, None, None, 0, None, None),
    ('dbt-rcf', 'interp', False, 'cache2'):
        ('detected_hardware', 'fault at pc=0x10010c fault=illegal addr=0x10010c', ((), ()), 1775, 1327, None, None, None, 0, None, None),
    ('dbt-rcf', 'interp', True, 'golden'):
        ('benign', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1796, 1331, None, None, None, 0, None, None),
    ('dbt-rcf', 'interp', True, 'direction'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1758, 1331, None, None, None, 1, 16, 56),
    ('dbt-rcf', 'interp', True, 'redirect'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1796, 1331, None, None, None, 1, 47, 53),
    ('dbt-rcf', 'interp', True, 'redirect-start'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1796, 1331, None, None, None, 1, 25, 27),
    ('dbt-rcf', 'interp', True, 'offset'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1796, 1331, None, None, None, 1, 21, 23),
    ('dbt-rcf', 'interp', True, 'flag'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1642, 1330, None, None, None, 2, 74, 239),
    ('dbt-rcf', 'interp', True, 'register'):
        ('sdc', 'halted at pc=0x1000e8 exit=0', ((), (334,)), 1757, 1298, None, None, None, 0, None, None),
    ('dbt-rcf', 'interp', True, 'persistent'):
        ('recovery_failed', 'trap at pc=0x1000cc trap=65535', ((), ()), 92, 79, None, None, None, 3, 175, 356),
    ('dbt-rcf', 'interp', True, 'cache0'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1758, 1331, None, None, None, 1, 13, 54),
    ('dbt-rcf', 'interp', True, 'cache1'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1758, 1331, None, None, None, 1, 14, 55),
    ('dbt-rcf', 'interp', True, 'cache2'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1758, 1331, None, None, None, 1, 175, 242),
    ('dbt-rcf', 'block', False, 'golden'):
        ('benign', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1796, 1331, None, None, None, 0, None, None),
    ('dbt-rcf', 'block', False, 'direction'):
        ('detected_signature', 'trap at pc=0x1000cc trap=65535', ((), ()), 246, 80, 6, 45, None, 0, None, None),
    ('dbt-rcf', 'block', False, 'redirect'):
        ('detected_signature', 'trap at pc=0x100050 trap=65535', ((), ()), 468, 239, 9, 9, None, 0, None, None),
    ('dbt-rcf', 'block', False, 'redirect-start'):
        ('detected_signature', 'trap at pc=0x100050 trap=65535', ((), ()), 179, 57, 5, 4, None, 0, None, None),
    ('dbt-rcf', 'block', False, 'offset'):
        ('detected_hardware', 'fault at pc=0xffc fault=nx_violation addr=0xffc', ((), ()), 175, 53, None, None, None, 0, None, None),
    ('dbt-rcf', 'block', False, 'flag'):
        ('detected_signature', 'trap at pc=0x1000cc trap=65535', ((), ()), 233, 69, 6, 45, None, 0, None, None),
    ('dbt-rcf', 'block', False, 'register'):
        ('sdc', 'halted at pc=0x1000e8 exit=0', ((), (334,)), 1757, 1298, None, None, None, 0, None, None),
    ('dbt-rcf', 'block', False, 'persistent'):
        ('detected_signature', 'trap at pc=0x1000cc trap=65535', ((), ()), 246, 80, 6, 45, None, 0, None, None),
    ('dbt-rcf', 'block', False, 'cache0'):
        ('detected_signature', 'trap at pc=0x100050 trap=65535', ((), ()), 54, 13, 9, 49, None, 0, None, None),
    ('dbt-rcf', 'block', False, 'cache1'):
        ('detected_hardware', 'fault at pc=0x100090 fault=illegal addr=0x100090', ((), ()), 55, 14, None, None, None, 0, None, None),
    ('dbt-rcf', 'block', False, 'cache2'):
        ('detected_hardware', 'fault at pc=0x10010c fault=illegal addr=0x10010c', ((), ()), 1775, 1327, None, None, None, 0, None, None),
    ('dbt-rcf', 'block', True, 'golden'):
        ('benign', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1796, 1331, None, None, None, 0, None, None),
    ('dbt-rcf', 'block', True, 'direction'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1758, 1331, None, None, None, 1, 16, 56),
    ('dbt-rcf', 'block', True, 'redirect'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1796, 1331, None, None, None, 1, 47, 53),
    ('dbt-rcf', 'block', True, 'redirect-start'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1796, 1331, None, None, None, 1, 25, 27),
    ('dbt-rcf', 'block', True, 'offset'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1796, 1331, None, None, None, 1, 21, 23),
    ('dbt-rcf', 'block', True, 'flag'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1642, 1330, None, None, None, 2, 74, 239),
    ('dbt-rcf', 'block', True, 'register'):
        ('sdc', 'halted at pc=0x1000e8 exit=0', ((), (334,)), 1757, 1298, None, None, None, 0, None, None),
    ('dbt-rcf', 'block', True, 'persistent'):
        ('recovery_failed', 'trap at pc=0x1000cc trap=65535', ((), ()), 92, 79, None, None, None, 3, 175, 356),
    ('dbt-rcf', 'block', True, 'cache0'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1758, 1331, None, None, None, 1, 13, 54),
    ('dbt-rcf', 'block', True, 'cache1'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1758, 1331, None, None, None, 1, 14, 55),
    ('dbt-rcf', 'block', True, 'cache2'):
        ('recovered', 'halted at pc=0x1000e8 exit=0', ((), (336,)), 1758, 1331, None, None, None, 1, 175, 242),
    ('dbt-ecf-df', 'interp', False, 'golden'):
        ('benign', 'halted at pc=0x10015c exit=0', ((), (336,)), 3351, 2255, None, None, None, 0, None, None),
    ('dbt-ecf-df', 'interp', False, 'direction'):
        ('detected_signature', 'trap at pc=0x10011c trap=65535', ((), ()), 331, 131, 7, 46, None, 0, None, None),
    ('dbt-ecf-df', 'interp', False, 'redirect'):
        ('detected_signature', 'trap at pc=0x100068 trap=65535', ((), ()), 734, 397, 10, 11, None, 0, None, None),
    ('dbt-ecf-df', 'interp', False, 'redirect-start'):
        ('detected_signature', 'trap at pc=0x100068 trap=65535', ((), ()), 234, 90, 6, 5, None, 0, None, None),
    ('dbt-ecf-df', 'interp', False, 'offset'):
        ('detected_hardware', 'fault at pc=0xffc fault=nx_violation addr=0xffc', ((), ()), 229, 85, None, None, None, 0, None, None),
    ('dbt-ecf-df', 'interp', False, 'flag'):
        ('detected_signature', 'trap at pc=0x10011c trap=65535', ((), ()), 303, 111, 7, 46, None, 0, None, None),
    ('dbt-ecf-df', 'interp', False, 'register'):
        ('sdc', 'halted at pc=0x10015c exit=0', ((), (309,)), 3183, 2135, None, None, None, 0, None, None),
    ('dbt-ecf-df', 'interp', False, 'persistent'):
        ('detected_signature', 'trap at pc=0x10011c trap=65535', ((), ()), 331, 131, 7, 46, None, 0, None, None),
    ('dbt-ecf-df', 'interp', True, 'golden'):
        ('benign', 'halted at pc=0x10015c exit=0', ((), (336,)), 3351, 2255, None, None, None, 0, None, None),
    ('dbt-ecf-df', 'interp', True, 'direction'):
        ('recovered', 'halted at pc=0x10015c exit=0', ((), (336,)), 3197, 2254, None, None, None, 2, 134, 334),
    ('dbt-ecf-df', 'interp', True, 'redirect'):
        ('recovered', 'halted at pc=0x10015c exit=0', ((), (336,)), 3351, 2255, None, None, None, 1, 13, 15),
    ('dbt-ecf-df', 'interp', True, 'redirect-start'):
        ('recovered', 'halted at pc=0x10015c exit=0', ((), (336,)), 3351, 2255, None, None, None, 1, 26, 33),
    ('dbt-ecf-df', 'interp', True, 'offset'):
        ('recovered', 'halted at pc=0x10015c exit=0', ((), (336,)), 3351, 2255, None, None, None, 1, 21, 28),
    ('dbt-ecf-df', 'interp', True, 'flag'):
        ('recovered', 'halted at pc=0x10015c exit=0', ((), (336,)), 3313, 2255, None, None, None, 1, 15, 57),
    ('dbt-ecf-df', 'interp', True, 'register'):
        ('sdc', 'halted at pc=0x10015c exit=0', ((), (309,)), 3183, 2135, None, None, None, 0, None, None),
    ('dbt-ecf-df', 'interp', True, 'persistent'):
        ('recovery_failed', 'trap at pc=0x10011c trap=65535', ((), ()), 177, 130, None, None, None, 3, 264, 511),
    ('dbt-ecf-df', 'block', False, 'golden'):
        ('benign', 'halted at pc=0x10015c exit=0', ((), (336,)), 3351, 2255, None, None, None, 0, None, None),
    ('dbt-ecf-df', 'block', False, 'direction'):
        ('detected_signature', 'trap at pc=0x10011c trap=65535', ((), ()), 331, 131, 7, 46, None, 0, None, None),
    ('dbt-ecf-df', 'block', False, 'redirect'):
        ('detected_signature', 'trap at pc=0x100068 trap=65535', ((), ()), 734, 397, 10, 11, None, 0, None, None),
    ('dbt-ecf-df', 'block', False, 'redirect-start'):
        ('detected_signature', 'trap at pc=0x100068 trap=65535', ((), ()), 234, 90, 6, 5, None, 0, None, None),
    ('dbt-ecf-df', 'block', False, 'offset'):
        ('detected_hardware', 'fault at pc=0xffc fault=nx_violation addr=0xffc', ((), ()), 229, 85, None, None, None, 0, None, None),
    ('dbt-ecf-df', 'block', False, 'flag'):
        ('detected_signature', 'trap at pc=0x10011c trap=65535', ((), ()), 303, 111, 7, 46, None, 0, None, None),
    ('dbt-ecf-df', 'block', False, 'register'):
        ('sdc', 'halted at pc=0x10015c exit=0', ((), (309,)), 3183, 2135, None, None, None, 0, None, None),
    ('dbt-ecf-df', 'block', False, 'persistent'):
        ('detected_signature', 'trap at pc=0x10011c trap=65535', ((), ()), 331, 131, 7, 46, None, 0, None, None),
    ('dbt-ecf-df', 'block', True, 'golden'):
        ('benign', 'halted at pc=0x10015c exit=0', ((), (336,)), 3351, 2255, None, None, None, 0, None, None),
    ('dbt-ecf-df', 'block', True, 'direction'):
        ('recovered', 'halted at pc=0x10015c exit=0', ((), (336,)), 3197, 2254, None, None, None, 2, 134, 334),
    ('dbt-ecf-df', 'block', True, 'redirect'):
        ('recovered', 'halted at pc=0x10015c exit=0', ((), (336,)), 3351, 2255, None, None, None, 1, 13, 15),
    ('dbt-ecf-df', 'block', True, 'redirect-start'):
        ('recovered', 'halted at pc=0x10015c exit=0', ((), (336,)), 3351, 2255, None, None, None, 1, 26, 33),
    ('dbt-ecf-df', 'block', True, 'offset'):
        ('recovered', 'halted at pc=0x10015c exit=0', ((), (336,)), 3351, 2255, None, None, None, 1, 21, 28),
    ('dbt-ecf-df', 'block', True, 'flag'):
        ('recovered', 'halted at pc=0x10015c exit=0', ((), (336,)), 3313, 2255, None, None, None, 1, 15, 57),
    ('dbt-ecf-df', 'block', True, 'register'):
        ('sdc', 'halted at pc=0x10015c exit=0', ((), (309,)), 3183, 2135, None, None, None, 0, None, None),
    ('dbt-ecf-df', 'block', True, 'persistent'):
        ('recovery_failed', 'trap at pc=0x10011c trap=65535', ((), ()), 177, 130, None, None, None, 3, 264, 511),
    ('mt-native', 'interp', False, 'golden'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'interp', False, 'direction'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (1601350701,)), 911, 635, None, None, None, 0, None, None),
    ('mt-native', 'interp', False, 'flag'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (150971114,)), 891, 619, None, None, None, 0, None, None),
    ('mt-native', 'interp', False, 'register'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (3575174318,)), 971, 683, None, None, None, 0, None, None),
    ('mt-native', 'interp', False, 'thread'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (2208022218,)), 891, 619, None, None, None, 0, None, None),
    ('mt-native', 'interp', False, 'sched-ctx'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'interp', False, 'sched-rotate'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'interp', False, 'persistent'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (1601350701,)), 911, 635, None, None, None, 0, None, None),
    ('mt-native', 'interp', True, 'golden'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'interp', True, 'direction'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (1601350701,)), 911, 635, None, None, None, 0, None, None),
    ('mt-native', 'interp', True, 'flag'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (150971114,)), 891, 619, None, None, None, 0, None, None),
    ('mt-native', 'interp', True, 'register'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (3575174318,)), 971, 683, None, None, None, 0, None, None),
    ('mt-native', 'interp', True, 'thread'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (2208022218,)), 891, 619, None, None, None, 0, None, None),
    ('mt-native', 'interp', True, 'sched-ctx'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'interp', True, 'sched-rotate'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'interp', True, 'persistent'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (1601350701,)), 911, 635, None, None, None, 0, None, None),
    ('mt-native', 'block', False, 'golden'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'block', False, 'direction'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (1601350701,)), 911, 635, None, None, None, 0, None, None),
    ('mt-native', 'block', False, 'flag'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (150971114,)), 891, 619, None, None, None, 0, None, None),
    ('mt-native', 'block', False, 'register'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (3575174318,)), 971, 683, None, None, None, 0, None, None),
    ('mt-native', 'block', False, 'thread'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (2208022218,)), 891, 619, None, None, None, 0, None, None),
    ('mt-native', 'block', False, 'sched-ctx'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'block', False, 'sched-rotate'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'block', False, 'persistent'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (1601350701,)), 911, 635, None, None, None, 0, None, None),
    ('mt-native', 'block', True, 'golden'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'block', True, 'direction'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (1601350701,)), 911, 635, None, None, None, 0, None, None),
    ('mt-native', 'block', True, 'flag'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (150971114,)), 891, 619, None, None, None, 0, None, None),
    ('mt-native', 'block', True, 'register'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (3575174318,)), 971, 683, None, None, None, 0, None, None),
    ('mt-native', 'block', True, 'thread'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (2208022218,)), 891, 619, None, None, None, 0, None, None),
    ('mt-native', 'block', True, 'sched-ctx'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'block', True, 'sched-rotate'):
        ('benign', 'halted at pc=0x106c exit=0', ((), (3691252978,)), 1051, 747, None, None, None, 0, None, None),
    ('mt-native', 'block', True, 'persistent'):
        ('sdc', 'halted at pc=0x106c exit=0', ((), (1601350701,)), 911, 635, None, None, None, 0, None, None),
    ('mt-static-ecf', 'interp', False, 'golden'):
        ('benign', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 0, None, None),
    ('mt-static-ecf', 'interp', False, 'direction'):
        ('detected_signature', 'halted at pc=0x1210 exit=53198', ((), ()), 485, 387, 8, 18, None, 0, None, None),
    ('mt-static-ecf', 'interp', False, 'flag'):
        ('detected_signature', 'halted at pc=0x1210 exit=53198', ((), ()), 426, 334, 8, 18, None, 0, None, None),
    ('mt-static-ecf', 'interp', False, 'register'):
        ('sdc', 'halted at pc=0x111c exit=0', ((), (4265073322,)), 2162, 1823, None, None, None, 0, None, None),
    ('mt-static-ecf', 'interp', False, 'thread'):
        ('detected_signature', 'halted at pc=0x1210 exit=53198', ((), ()), 660, 542, 8, 18, None, 0, None, None),
    ('mt-static-ecf', 'interp', False, 'sched-ctx'):
        ('detected_signature', 'halted at pc=0x1210 exit=53198', ((), ()), 600, 489, 170, 200, None, 0, None, None),
    ('mt-static-ecf', 'interp', False, 'sched-rotate'):
        ('benign', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 0, None, None),
    ('mt-static-ecf', 'interp', False, 'persistent'):
        ('detected_signature', 'halted at pc=0x1210 exit=53198', ((), ()), 485, 387, 8, 18, None, 0, None, None),
    ('mt-static-ecf', 'interp', True, 'golden'):
        ('benign', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 0, None, None),
    ('mt-static-ecf', 'interp', True, 'direction'):
        ('recovered', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 2, 390, 498),
    ('mt-static-ecf', 'interp', True, 'flag'):
        ('recovered', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 1, 14, 25),
    ('mt-static-ecf', 'interp', True, 'register'):
        ('sdc', 'halted at pc=0x111c exit=0', ((), (4265073322,)), 2162, 1823, None, None, None, 0, None, None),
    ('mt-static-ecf', 'interp', True, 'thread'):
        ('recovered', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 1, 30, 43),
    ('mt-static-ecf', 'interp', True, 'sched-ctx'):
        ('recovered', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 2, 594, 727),
    ('mt-static-ecf', 'interp', True, 'sched-rotate'):
        ('benign', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 0, None, None),
    ('mt-static-ecf', 'interp', True, 'persistent'):
        ('recovery_failed', 'halted at pc=0x1210 exit=53198', ((), ()), 485, 387, None, None, None, 3, 777, 983),
    ('mt-static-ecf', 'block', False, 'golden'):
        ('benign', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 0, None, None),
    ('mt-static-ecf', 'block', False, 'direction'):
        ('detected_signature', 'halted at pc=0x1210 exit=53198', ((), ()), 485, 387, 8, 18, None, 0, None, None),
    ('mt-static-ecf', 'block', False, 'flag'):
        ('detected_signature', 'halted at pc=0x1210 exit=53198', ((), ()), 426, 334, 8, 18, None, 0, None, None),
    ('mt-static-ecf', 'block', False, 'register'):
        ('sdc', 'halted at pc=0x111c exit=0', ((), (4265073322,)), 2162, 1823, None, None, None, 0, None, None),
    ('mt-static-ecf', 'block', False, 'thread'):
        ('detected_signature', 'halted at pc=0x1210 exit=53198', ((), ()), 660, 542, 8, 18, None, 0, None, None),
    ('mt-static-ecf', 'block', False, 'sched-ctx'):
        ('detected_signature', 'halted at pc=0x1210 exit=53198', ((), ()), 600, 489, 170, 200, None, 0, None, None),
    ('mt-static-ecf', 'block', False, 'sched-rotate'):
        ('benign', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 0, None, None),
    ('mt-static-ecf', 'block', False, 'persistent'):
        ('detected_signature', 'halted at pc=0x1210 exit=53198', ((), ()), 485, 387, 8, 18, None, 0, None, None),
    ('mt-static-ecf', 'block', True, 'golden'):
        ('benign', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 0, None, None),
    ('mt-static-ecf', 'block', True, 'direction'):
        ('recovered', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 2, 390, 498),
    ('mt-static-ecf', 'block', True, 'flag'):
        ('recovered', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 1, 14, 25),
    ('mt-static-ecf', 'block', True, 'register'):
        ('sdc', 'halted at pc=0x111c exit=0', ((), (4265073322,)), 2162, 1823, None, None, None, 0, None, None),
    ('mt-static-ecf', 'block', True, 'thread'):
        ('recovered', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 1, 30, 43),
    ('mt-static-ecf', 'block', True, 'sched-ctx'):
        ('recovered', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 2, 594, 727),
    ('mt-static-ecf', 'block', True, 'sched-rotate'):
        ('benign', 'halted at pc=0x111c exit=0', ((), (3691252978,)), 2602, 2215, None, None, None, 0, None, None),
    ('mt-static-ecf', 'block', True, 'persistent'):
        ('recovery_failed', 'halted at pc=0x1210 exit=53198', ((), ()), 485, 387, None, None, None, 3, 777, 983),
}
