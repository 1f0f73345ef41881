"""Performance trajectory baseline.

Times the throughput-critical paths — the raw interpreter loop, the
block-compiling execution tier, and a fixed-seed fault-injection
mini-campaign on each backend — and writes the numbers to
``benchmarks/results/BENCH_campaign.json`` so future PRs have a
machine-readable perf history to compare against.

All measured work is deterministic (fixed seeds, fixed workloads); only
the wall clock varies between machines.  The campaign half honours
``REPRO_BENCH_JOBS``, so the same file also records the parallel-engine
speedup on multi-core runners.

The MIPS rows use long-running instances (hundreds of thousands to
millions of retired instructions) rather than the ``test``/``small``
suite scales: the block backend compiles each trace once, so a run
must be long enough for execution — not one-time compilation — to
dominate, which is also the regime fault campaigns operate in.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.exec import BACKEND_NAMES
from repro.faults import (CampaignExecutor, PipelineConfig, clear_caches,
                          generate_category_faults)
from repro.isa.assembler import assemble
from repro.machine import run_native
from repro.workloads import BY_NAME, load

#: Fixed-seed mini-campaign: (workload, per-category spec count, seed).
CAMPAIGN_WORKLOAD = "254.gap"
CAMPAIGN_PER_CATEGORY = 34     # 6 categories -> ~200 single-fault runs
CAMPAIGN_SEED = 2006

#: Execution-bound campaign: error classification without a detection
#: technique, so every fault run executes to completion (or the hang
#: budget) instead of stopping at the first failed check.  This is the
#: regime where campaign time is guest execution, i.e. where the
#: backend choice matters; the short detected runs of the dbt/rcf
#: campaign above are dominated by per-run translation/setup instead.
CAMPAIGN_EXEC_PARAMS = {"iterations": 2000}
CAMPAIGN_EXEC_PER_CATEGORY = 6

#: Long-running instances for the MIPS rows.  Parameters are chosen so
#: each run retires enough instructions that per-run compile time is
#: noise for the block backend (~0.4M and ~3.3M instructions).
MIPS_WORKLOADS = {
    "254.gap": {"iterations": 8000},
    "183.equake": {"rows": 64, "nnz_per_row": 6, "repeats": 400},
}

#: Multithreaded MIPS row: a long-running 4-thread instance (~1.7M
#: retired instructions, ~3.4k context switches at the default
#: quantum) run under repro.threads.ThreadedMachine on both backends.
#: The schedule-trace digests must match across backends — the perf
#: harness re-proves the cross-backend determinism claim on every run.
MT_WORKLOAD = "mt.counters4"
MT_PARAMS = {"threads": 4, "iters": 4000, "spin": 32}


#: ABBA-interleaved (plain, treated) sample pairs per overhead row.
OVERHEAD_PAIRS = 10
#: Wall time one overhead sample batches its runs up to.
SAMPLE_SECONDS = 0.25


def _abba_overhead(sample, reps: int, treated_key: str) -> dict:
    """Overhead row from ABBA-interleaved (plain, treated) samples.

    Host load drifts on the scale of seconds, so a treated/plain ratio
    only means something within one back-to-back pair; alternating
    which side runs first cancels a drift that is linear across the
    pair.  ``sample(treated)`` returns the wall time of ``reps`` runs.
    The row holds the median and interquartile range of the per-pair
    ratios, with the median per-run times beside them.
    """
    plain, treated = [], []
    for pair in range(OVERHEAD_PAIRS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        seconds = {side: sample(side) for side in order}
        plain.append(seconds[False])
        treated.append(seconds[True])
    ratios = [t / p for p, t in zip(plain, treated)]
    q1, _q2, q3 = statistics.quantiles(ratios, n=4)
    return {
        "plain_seconds": round(statistics.median(plain) / reps, 6),
        treated_key: round(statistics.median(treated) / reps, 6),
        "overhead": round(statistics.median(ratios) - 1.0, 4),
        "overhead_iqr": round(q3 - q1, 4),
        "pairs": OVERHEAD_PAIRS,
    }


def _reps(seconds: float) -> int:
    """Runs per sample so one sample lasts about SAMPLE_SECONDS."""
    return max(1, round(SAMPLE_SECONDS / max(seconds, 1e-9)))


def _mips_programs() -> dict:
    return {name: assemble(BY_NAME[name].generator(**params),
                           name=f"{name}@bench")
            for name, params in MIPS_WORKLOADS.items()}


def _backend_mips() -> dict:
    """Best-of-3 native throughput per (workload, backend)."""
    programs = _mips_programs()
    per_workload: dict = {}
    for name, program in programs.items():
        rows = {}
        for backend in BACKEND_NAMES:
            run_native(program, backend=backend)   # warmup
            best = float("inf")
            icount = 0
            for _ in range(3):
                start = time.perf_counter()
                cpu, stop = run_native(program, backend=backend)
                best = min(best, time.perf_counter() - start)
                icount = cpu.icount
            assert stop.exit_code == 0
            rows[backend] = {
                "icount": icount,
                "seconds": round(best, 6),
                "mips": round(icount / best / 1e6, 4),
            }
        rows["speedup"] = round(
            rows["block"]["mips"] / rows["interp"]["mips"], 3)
        per_workload[name] = rows
    return per_workload


def _campaign_throughput(jobs: int, backend: str) -> dict:
    program = load(CAMPAIGN_WORKLOAD, "test")
    faults = generate_category_faults(
        program, per_category=CAMPAIGN_PER_CATEGORY, seed=CAMPAIGN_SEED)
    runs = faults.total()
    executor = CampaignExecutor(
        program, PipelineConfig("dbt", "rcf", backend=backend), jobs=jobs)
    start = time.perf_counter()
    result = executor.run_campaign(faults)
    seconds = time.perf_counter() - start
    tallies = {category.value: {out.value: n for out, n in bucket.items()}
               for category, bucket in result.outcomes.items()}
    return {
        "workload": CAMPAIGN_WORKLOAD,
        "seed": CAMPAIGN_SEED,
        "backend": backend,
        "runs": runs,
        "jobs": jobs,
        "seconds": round(seconds, 4),
        "runs_per_sec": round(runs / seconds, 3),
        "tallies": tallies,
    }


def _exec_campaign_throughput(jobs: int, backend: str) -> dict:
    program = assemble(
        BY_NAME[CAMPAIGN_WORKLOAD].generator(**CAMPAIGN_EXEC_PARAMS),
        name=f"{CAMPAIGN_WORKLOAD}@exec-bench")
    faults = generate_category_faults(
        program, per_category=CAMPAIGN_EXEC_PER_CATEGORY,
        seed=CAMPAIGN_SEED)
    runs = faults.total()
    executor = CampaignExecutor(
        program, PipelineConfig("dbt", None, backend=backend), jobs=jobs)
    start = time.perf_counter()
    result = executor.run_campaign(faults)
    seconds = time.perf_counter() - start
    tallies = {category.value: {out.value: n for out, n in bucket.items()}
               for category, bucket in result.outcomes.items()}
    return {
        "workload": CAMPAIGN_WORKLOAD,
        "params": CAMPAIGN_EXEC_PARAMS,
        "seed": CAMPAIGN_SEED,
        "backend": backend,
        "runs": runs,
        "jobs": jobs,
        "seconds": round(seconds, 4),
        "runs_per_sec": round(runs / seconds, 3),
        "tallies": tallies,
    }


def _recovery_overhead() -> dict:
    """Checkpoint capture cost on clean runs at the default interval.

    The acceptance bar for ``--recover`` (docs/recovery.md): a run
    that never triggers a rollback must pay <= 15% over a plain run
    on either backend — segmented execution plus per-interval
    copy-on-write checkpoint capture is the entire price.
    """
    from repro.exec import install_backend
    from repro.machine import Cpu
    from repro.machine.faults import StopReason
    from repro.recovery import (DEFAULT_CHECKPOINT_INTERVAL,
                                RecoveryManager)

    def timed_run(program, backend, managed):
        """Execution-only wall clock on a freshly built CPU; plain and
        managed runs share construction/load so the delta is exactly
        the recovery machinery (COW store tracking + segmentation +
        capture)."""
        cpu = Cpu()
        install_backend(cpu, backend)
        cpu.load_program(program, executable_text=True)
        if managed:
            manager = RecoveryManager(
                cpu, step=lambda n: cpu.run(max_steps=n),
                classify=lambda stop: (
                    "done" if stop.reason is StopReason.HALTED
                    else "limit"),
                budget=50_000_000, interval=DEFAULT_CHECKPOINT_INTERVAL)
            start = time.perf_counter()
            stop = manager.execute()
            seconds = time.perf_counter() - start
            assert not manager.report.gave_up
            checkpoints = manager.report.checkpoints
        else:
            start = time.perf_counter()
            stop = cpu.run(max_steps=50_000_000)
            seconds = time.perf_counter() - start
            checkpoints = 0
        assert stop.reason is StopReason.HALTED
        return seconds, checkpoints

    per_workload: dict = {}
    for name, program in _mips_programs().items():
        rows = {}
        for backend in BACKEND_NAMES:
            run_native(program, backend=backend)   # warmup
            # Sub-100ms samples are noise, so batch enough executions
            # per sample to pass SAMPLE_SECONDS.
            calib, checkpoints = timed_run(program, backend, True)
            reps = _reps(calib)

            def sample(managed):
                return sum(timed_run(program, backend, managed)[0]
                           for _ in range(reps))

            rows[backend] = dict(
                _abba_overhead(sample, reps, "managed_seconds"),
                checkpoints=checkpoints)
        per_workload[name] = rows
    return per_workload


def _run_threaded(program, backend, quantum):
    from repro.exec import install_backend
    from repro.machine import Cpu
    from repro.threads import ThreadedMachine

    cpu = Cpu()
    install_backend(cpu, backend)
    cpu.load_program(program, executable_text=True)
    machine = ThreadedMachine(cpu, quantum=quantum)
    stop = machine.run(max_steps=50_000_000)
    return cpu, stop, machine


def _mt_mips() -> dict:
    """Best-of-3 multithreaded throughput per backend, plus the
    cross-backend schedule-parity check (ISSUE acceptance: a 4-thread
    benchmark runs digest-identical, including the schedule trace,
    across interp and block)."""
    from repro.machine.faults import StopReason
    from repro.threads import DEFAULT_QUANTUM

    program = assemble(BY_NAME[MT_WORKLOAD].generator(**MT_PARAMS),
                       name=f"{MT_WORKLOAD}@bench")
    rows: dict = {"workload": MT_WORKLOAD, "params": MT_PARAMS,
                  "quantum": DEFAULT_QUANTUM}
    for backend in BACKEND_NAMES:
        _run_threaded(program, backend, DEFAULT_QUANTUM)   # warmup
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            cpu, stop, machine = _run_threaded(program, backend,
                                               DEFAULT_QUANTUM)
            best = min(best, time.perf_counter() - start)
        assert stop.reason is StopReason.HALTED and stop.exit_code == 0
        rows[backend] = {
            "icount": cpu.icount,
            "seconds": round(best, 6),
            "mips": round(cpu.icount / best / 1e6, 4),
            "switches": machine.switches,
            "schedule": machine.trace_digest(),
        }
    rows["speedup"] = round(
        rows["block"]["mips"] / rows["interp"]["mips"], 3)
    return rows


def _mt_scheduler_overhead() -> dict:
    """ThreadedMachine wrapping cost on *single-threaded* programs.

    The ISSUE acceptance bound: a single-thread program run under the
    scheduler (quantum accounting, solo fast path, never an actual
    switch) must pay <= 10% over a bare ``cpu.run`` on either backend.
    Same back-to-back-pair discipline as the recovery rows.
    """
    from repro.exec import install_backend
    from repro.machine import Cpu
    from repro.machine.faults import StopReason
    from repro.threads import DEFAULT_QUANTUM, ThreadedMachine

    def timed_run(program, backend, managed):
        cpu = Cpu()
        install_backend(cpu, backend)
        cpu.load_program(program, executable_text=True)
        if managed:
            machine = ThreadedMachine(cpu, quantum=DEFAULT_QUANTUM)
            start = time.perf_counter()
            stop = machine.run(max_steps=50_000_000)
        else:
            start = time.perf_counter()
            stop = cpu.run(max_steps=50_000_000)
        seconds = time.perf_counter() - start
        assert stop.reason is StopReason.HALTED and stop.exit_code == 0
        return seconds

    per_workload: dict = {}
    for name, program in _mips_programs().items():
        rows = {}
        for backend in BACKEND_NAMES:
            run_native(program, backend=backend)   # warmup
            reps = _reps(timed_run(program, backend, False))

            def sample(managed):
                return sum(timed_run(program, backend, managed)
                           for _ in range(reps))

            rows[backend] = _abba_overhead(sample, reps,
                                           "managed_seconds")
        per_workload[name] = rows
    return per_workload


def _profiler_overhead() -> dict:
    """Hot-block profiler cost vs a bare run, per backend.

    One row per (workload, backend), plus a ``both`` row per backend
    whose samples run every workload once — the profile-block
    workload's pair in ``benchmarks/e2e``.  The profiler's totals must
    also be *exact* (equal to the bare run's icount/cycles) — a free
    cross-check of the attribution contract while the timing harness
    is already running everything twice.
    """
    from repro.exec.profiler import profile_native

    programs = _mips_programs()

    def timed_runs(batch, backend, profiled):
        start = time.perf_counter()
        for program in batch:
            if profiled:
                profile_native(program, backend=backend)
            else:
                run_native(program, backend=backend)
        return time.perf_counter() - start

    batches = {name: [program] for name, program in programs.items()}
    batches["both"] = list(programs.values())
    per_workload: dict = {}
    for name, batch in batches.items():
        rows = {}
        for backend in BACKEND_NAMES:
            timed_runs(batch, backend, False)   # warmup
            reps = _reps(timed_runs(batch, backend, False))

            def sample(profiled):
                return sum(timed_runs(batch, backend, profiled)
                           for _ in range(reps))

            rows[backend] = _abba_overhead(sample, reps,
                                           "profiled_seconds")
        per_workload[name] = rows
    for program in programs.values():
        for backend in BACKEND_NAMES:
            bare_cpu, _stop = run_native(program, backend=backend)
            _cpu, _stop, prof = profile_native(program, backend=backend)
            assert (prof.total_icount, prof.total_cycles) == \
                (bare_cpu.icount, bare_cpu.cycles)
    return per_workload


def _format_overhead(row: dict) -> str:
    return (f"{row['overhead'] * 100:+6.2f}% "
            f"(IQR {row['overhead_iqr'] * 100:.2f}, "
            f"{row['pairs']} ABBA pairs)")


def test_perf_baseline(scale, jobs, results_dir, publish):
    interp_mips = _backend_mips()
    mt_mips = _mt_mips()
    mt_overhead = _mt_scheduler_overhead()
    recovery = _recovery_overhead()
    profiler = _profiler_overhead()
    campaigns = {}
    exec_campaigns = {}
    for backend in BACKEND_NAMES:
        clear_caches()
        campaigns[backend] = _campaign_throughput(jobs, backend)
        clear_caches()
        exec_campaigns[backend] = _exec_campaign_throughput(jobs, backend)

    campaign_speedup = round(
        campaigns["block"]["runs_per_sec"]
        / campaigns["interp"]["runs_per_sec"], 3)
    exec_speedup = round(
        exec_campaigns["block"]["runs_per_sec"]
        / exec_campaigns["interp"]["runs_per_sec"], 3)
    payload = {
        "scale": scale,
        "interpreter": interp_mips,
        "campaign": campaigns["interp"],
        "campaign_block": campaigns["block"],
        "campaign_block_speedup": campaign_speedup,
        "campaign_exec": exec_campaigns["interp"],
        "campaign_exec_block": exec_campaigns["block"],
        "campaign_exec_block_speedup": exec_speedup,
        "recovery_overhead": recovery,
        "profiler_overhead": profiler,
        "mt": mt_mips,
        "mt_scheduler_overhead": mt_overhead,
    }
    (results_dir / "BENCH_campaign.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n")

    lines = [f"Perf baseline (scale={scale}, jobs={jobs})"]
    for name, row in interp_mips.items():
        for backend in BACKEND_NAMES:
            sub = row[backend]
            lines.append(
                f"  {backend:6s} {name:12s} {sub['mips']:8.3f} MIPS "
                f"({sub['icount']} instrs in {sub['seconds']:.3f}s)")
        lines.append(f"  block/interp speedup {name:12s} "
                     f"{row['speedup']:.2f}x")
    for backend in BACKEND_NAMES:
        row = campaigns[backend]
        lines.append(f"  campaign[{backend:6s}] {row['runs']} runs in "
                     f"{row['seconds']:.2f}s = "
                     f"{row['runs_per_sec']:.1f} runs/s")
    lines.append(f"  campaign block/interp speedup {campaign_speedup:.2f}x")
    for backend in BACKEND_NAMES:
        row = exec_campaigns[backend]
        lines.append(f"  campaign-exec[{backend:6s}] {row['runs']} runs "
                     f"in {row['seconds']:.2f}s = "
                     f"{row['runs_per_sec']:.1f} runs/s")
    lines.append("  campaign-exec block/interp speedup "
                 f"{exec_speedup:.2f}x")
    for name, row in recovery.items():
        for backend in BACKEND_NAMES:
            sub = row[backend]
            lines.append(
                f"  recovery[{backend:6s}] {name:12s} "
                f"{_format_overhead(sub)} "
                f"({sub['checkpoints']} checkpoint(s), "
                f"{sub['plain_seconds']:.3f}s -> "
                f"{sub['managed_seconds']:.3f}s)")
    for name, row in profiler.items():
        for backend in BACKEND_NAMES:
            sub = row[backend]
            lines.append(
                f"  profiler[{backend:6s}] {name:12s} "
                f"{_format_overhead(sub)} "
                f"({sub['plain_seconds']:.3f}s -> "
                f"{sub['profiled_seconds']:.3f}s)")
    for backend in BACKEND_NAMES:
        sub = mt_mips[backend]
        lines.append(
            f"  mt[{backend:6s}] {MT_WORKLOAD:12s} "
            f"{sub['mips']:8.3f} MIPS ({sub['icount']} instrs, "
            f"{sub['switches']} switches, schedule {sub['schedule']})")
    lines.append(f"  mt block/interp speedup {MT_WORKLOAD:12s} "
                 f"{mt_mips['speedup']:.2f}x")
    for name, row in mt_overhead.items():
        for backend in BACKEND_NAMES:
            sub = row[backend]
            lines.append(
                f"  mt-sched[{backend:6s}] {name:12s} "
                f"{_format_overhead(sub)} "
                f"({sub['plain_seconds']:.3f}s -> "
                f"{sub['managed_seconds']:.3f}s)")
    publish("perf_baseline", "\n".join(lines))

    # Campaign outcome tallies must not depend on the execution tier.
    assert campaigns["interp"]["tallies"] == campaigns["block"]["tallies"]
    assert (exec_campaigns["interp"]["tallies"]
            == exec_campaigns["block"]["tallies"])
    assert campaigns["interp"]["runs"] >= 150
    for row in campaigns.values():
        assert row["runs_per_sec"] > 0
    # Target is >=3x (recorded above); conservative floor against CI
    # runner noise.
    assert exec_speedup > 2.0, exec_speedup
    for name, row in interp_mips.items():
        for backend in BACKEND_NAMES:
            assert row[backend]["mips"] > 0
        # Target is >=5x (recorded above); assert a conservative floor
        # so a loaded CI runner doesn't flake the suite.
        assert row["speedup"] > 2.5, (name, row["speedup"])
    # Clean-run recovery cost at the default interval (docs/recovery.md
    # acceptance bound).  Every overhead bound applies to the median
    # of the ABBA pairs, never to the best pair.
    for name, row in recovery.items():
        for backend in BACKEND_NAMES:
            overhead = row[backend]["overhead"]
            assert overhead <= 0.15, (name, backend, overhead)
    # Profiler-on cost is branch-density-proportional.  Compiled
    # traces call the profiler inline at every direct branch, with the
    # batched charges rewound to the interpreter's values, so the
    # block backend pays one Python call per branch: on both programs
    # together (the profile-block pair) that must stay within +50%.
    # A profiled block run must also beat a *bare* interpreter run.
    for name, row in profiler.items():
        assert row["interp"]["overhead"] <= 0.5, \
            (name, row["interp"]["overhead"])
        assert row["block"]["profiled_seconds"] < \
            row["interp"]["plain_seconds"], name
    assert profiler["both"]["block"]["overhead"] <= 0.5, \
        profiler["both"]["block"]
    # Threaded machine: schedule trace (and retired-instruction count)
    # must be byte-identical across execution tiers, and throughput
    # must be real on both.
    assert (mt_mips["interp"]["schedule"] == mt_mips["block"]["schedule"]
            and mt_mips["interp"]["icount"] == mt_mips["block"]["icount"]
            and mt_mips["interp"]["switches"]
            == mt_mips["block"]["switches"]), mt_mips
    assert mt_mips["interp"]["switches"] > 100, mt_mips
    for backend in BACKEND_NAMES:
        assert mt_mips[backend]["mips"] > 0
    # Scheduler cost on single-thread programs (ISSUE acceptance
    # bound): quantum accounting under the solo fast path must stay
    # within 10% of a bare run on either backend.
    for name, row in mt_overhead.items():
        for backend in BACKEND_NAMES:
            overhead = row[backend]["overhead"]
            assert overhead <= 0.10, (name, backend, overhead)
