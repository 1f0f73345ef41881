#!/usr/bin/env python3
"""Campaign benchmark of record for ``repro``.

Run from the repository root::

    python3 benchmarks/e2e/run.py                        # all workloads
    python3 benchmarks/e2e/run.py --workload dbt-detect --seed 7
    python3 benchmarks/e2e/run.py --workload mt-pool --trace 1
    python3 benchmarks/e2e/run.py --quick --out runs.jsonl

``BENCHMARK.json`` at the repository root declares the workloads and
the metrics.  Without ``--workload`` every workload runs in a fresh
child interpreter, one at a time, so golden-run and code caches and the
peak RSS of one workload never leak into the next.

With ``--trace 0`` (the default) the run sets up ``1 + 5`` times, times
back-to-back passes over the workload's spec list for ``--seconds``
(``run_seconds`` in ``BENCHMARK.json``; at least three passes), and
reports the end-to-end metrics: medians over the passes and over the
cold set-ups.  With ``--trace 1`` it instead wraps the layers' public
callables in spans (see ``tracer.py``) and reports per-layer metrics.
Both modes end with the correctness gate; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when the gate
passes.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: Cold set-ups timed after one discarded warm-up (``--quick``: 2).
COLD_SETUPS = 5
MIN_PASSES = 3
#: Traced run: cold set-ups traced, spec-list segments run ABBA-paired
#: traced/untraced, and bare/profiled pairs for the profiler overhead.
TRACED_SETUPS = 3
TRACE_SEGMENTS = 16
PROFILER_PAIRS = 6
#: The traced run fails when time outside every span exceeds this
#: share of its wall time: the spans would no longer explain it.
OTHER_LIMIT = 0.10
#: Highest percentile first; the tail is the first with >= 10 samples
#: beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CHILD_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv, spec: dict):
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Campaign benchmark of record (see README.md).")
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process "
                             "(default: every workload, each in a "
                             "child interpreter)")
    parser.add_argument("--seed", type=int, default=2006,
                        help="seed of every fault generator")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="timed-phase length; passes repeat until "
                             "it is reached (at least three)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1/20 of the spec counts, 2 cold "
                             "set-ups, three passes whatever --seconds "
                             "says")
    parser.add_argument("--out", help="append one JSON line per workload "
                                      "run (input of compare.py)")
    return parser.parse_args(argv)


# -- statistics ---------------------------------------------------------------


def percentile(ordered: list, pct: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(ordered: list) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least 10
    samples beyond it, or the maximum when there are too few samples."""
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (1.0 - pct / 100.0) >= 10:
            return pct, percentile(ordered, pct)
    return 100.0, ordered[-1]


def median_and_iqr(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


# -- one workload -------------------------------------------------------------


class Report:
    """What one workload run measured and what its gate found."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self.detail: dict = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def count(self, records) -> None:
        from workloads import is_failure
        self.attempted += len(records)
        self.failed += sum(1 for record in records if is_failure(record))


def cold_setup(workload, args, workdir: str):
    """One set-up from empty golden-run, profile and code caches."""
    from repro import faults
    from repro.exec.block import clear_code_cache
    faults.clear_caches()
    clear_code_cache()
    return workload.setup(args.seed, args.quick, workdir)


def expected_entry(args, name: str) -> dict | None:
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)
    if args.seed != expected["seed"]:
        return None
    return expected["quick" if args.quick else "full"].get(name)


def check_expected(report: Report, name: str, expected, records) -> None:
    from workloads import digest, tallies
    if expected is None:
        return
    observed = {"specs": len(records), "tallies": tallies(records),
                "digest": digest(records)}
    for key, value in observed.items():
        if expected.get(key) != value:
            report.problems.append(
                f"{name}: {key} {value!r} != expected {expected.get(key)!r}")


def measure(workload, args, workdir: str) -> Report:
    """Untraced run: end-to-end metrics plus the full gate."""
    from workloads import digest, tallies
    report = Report()
    cold = 2 if args.quick else COLD_SETUPS
    run_for = 0.0 if args.quick else args.seconds
    setup_times = []
    for index in range(1 + cold):
        start = time.perf_counter()
        state = cold_setup(workload, args, workdir)
        if index:
            setup_times.append(time.perf_counter() - start)

    passes = []
    first = None
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        records = workload.run(state, state.units)
        seconds = time.perf_counter() - start
        report.count(records)
        passes.append({
            "seconds": seconds, "runs": len(records),
            "instructions": sum(record.icount for record in records),
            "digest": digest(records), "tallies": tallies(records)})
        print(f"{workload.name}: pass {len(passes)} {seconds:.3f} s",
              file=sys.stderr)
        if first is None:
            # Peak RSS of the set-ups and one campaign.  Later passes
            # only add allocator churn, and how many of them fit in the
            # run depends on host speed.
            first = records
            usage = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        elapsed = time.perf_counter() - begin
        if (len(passes) >= MIN_PASSES
                and elapsed + elapsed / len(passes) / 2 >= run_for):
            break

    if len({entry["digest"] for entry in passes}) != 1:
        report.problems.append(
            f"{workload.name}: passes disagree: "
            f"{[entry['tallies'] for entry in passes]}")
    check_expected(report, workload.name,
                   expected_entry(args, workload.name), first)
    report.problems += [f"{workload.name}: {problem}"
                        for problem in workload.check(state, first)]

    per_pass = {
        "runs_per_s": [entry["runs"] / entry["seconds"]
                       for entry in passes],
        "guest_mips": [entry["instructions"] / entry["seconds"] / 1e6
                       for entry in passes],
        "setup_s": setup_times,
    }
    report.metrics = {name: statistics.median(values)
                      for name, values in per_pass.items()}
    report.metrics["peak_rss_mb"] = usage / 1024.0
    report.detail = {
        "samples": per_pass, "specs": len(first),
        "digest": passes[0]["digest"], "tallies": passes[0]["tallies"]}
    return report


def split(units: list, count: int) -> list:
    count = max(1, min(count, len(units)))
    return [units[index * len(units) // count:
                  (index + 1) * len(units) // count]
            for index in range(count)]


def trace(workload, args, workdir: str) -> Report:
    """Traced run: per-layer metrics from spans around the layers'
    public callables, with the tracing overhead measured against
    ABBA-interleaved untraced runs of the same spec segments."""
    from tracer import PARENT_SIDE, Tracer
    from workloads import digest
    report = Report()
    cold_setup(workload, args, workdir)         # warm-up, untraced
    setups = Tracer()
    setup_count = 1 if args.quick else TRACED_SETUPS
    wall = 0.0
    for _ in range(setup_count):
        with setups.active():
            start = time.perf_counter()
            state = cold_setup(workload, args, workdir)
            wall += time.perf_counter() - start

    def timed_run(segment):
        start = time.perf_counter()
        records = workload.run(state, segment, jobs=1)
        seconds = time.perf_counter() - start
        report.count(records)
        return seconds, records

    timed_run(state.units)                      # warm pass, untraced
    runs = Tracer()
    ratios = []
    traced_records = []
    for index, segment in enumerate(
            split(state.units, 2 if args.quick else TRACE_SEGMENTS)):
        timed = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            with runs.active(sampling=True) if traced else nullcontext():
                timed[traced] = timed_run(segment)
        wall += timed[True][0]
        ratios.append(timed[True][0] / timed[False][0])
        if timed[True][1] != timed[False][1]:
            report.problems.append(
                f"{workload.name}: segment {index}: traced records differ "
                "from untraced ones")
        traced_records += timed[True][1]
    check_expected(report, workload.name,
                   expected_entry(args, workload.name), traced_records)
    report.problems += [f"{workload.name}: {problem}"
                        for problem in workload.check(state, traced_records)]

    executor = runs
    spans = [setups, runs]
    if workload.jobs > 1:
        # Parent-side spans of the pooled campaign: the executor's wait
        # on its workers, and journal appends.
        executor = Tracer()
        with executor.active(PARENT_SIDE):
            start = time.perf_counter()
            records = workload.run(state, state.units)
            wall += time.perf_counter() - start
        report.count(records)
        spans.append(executor)
        if digest(records) != digest(traced_records):
            report.problems.append(
                f"{workload.name}: jobs={workload.jobs} records differ "
                "from jobs=1 ones")

    profiler_ratios = []
    if hasattr(workload, "bare_vs_profiled"):
        profiler_ratios = workload.bare_vs_profiled(
            state, 2 if args.quick else PROFILER_PAIRS)

    other = wall - sum(tracer.total_self() for tracer in spans)
    if other > OTHER_LIMIT * wall:
        report.problems.append(
            f"{workload.name}: {other:.3f} s of {wall:.3f} s traced wall "
            "time is outside every span")
    report.metrics = layer_metrics(setups, setup_count, runs, executor,
                                   other, ratios, profiler_ratios)
    samples = sorted(runs.run_samples)
    report.detail = {
        "tail_percentile": tail(samples)[0] if samples else None,
        "trace_ratios": ratios, "profiler_ratios": profiler_ratios,
        "traced_wall_s": wall, "digest": digest(traced_records)}
    return report


def layer_metrics(setups, setup_count, runs, executor, other, ratios,
                  profiler_ratios) -> dict:
    """Per-layer metrics.  Set-up metrics are inclusive seconds per cold
    set-up; the rest cover one traced pass over the spec list."""
    def per_setup(name):
        return setups.incl_s[name] / setup_count

    def self_us(name):
        calls = runs.calls[name]
        return runs.self_s[name] / calls * 1e6 if calls else 0.0

    samples = sorted(runs.run_samples)
    hits = runs.counts["exec.chain_hits"]
    lookups = hits + runs.counts["exec.chain_misses"]
    trace_overhead, trace_iqr = median_and_iqr(ratios)
    profiler_overhead, profiler_iqr = (
        median_and_iqr(profiler_ratios) if profiler_ratios else (1.0, 0.0))
    return {
        "faults.run_ms.p50": (percentile(samples, 50) * 1e3
                              if samples else 0.0),
        "faults.run_ms.tail": tail(samples)[1] * 1e3 if samples else 0.0,
        "faults.run.samples": len(samples),
        "faults.run.self_us": self_us("faults.run"),
        "faults.injector.self_us": self_us("faults.injector"),
        "faults.generate_s": per_setup("faults.generate"),
        "faults.pipeline_init_s": per_setup("faults.pipeline_init"),
        "faults.executor.self_s": executor.self_s["faults.executor"],
        "faults.journal.append_s": executor.self_s["faults.journal.append"],
        "faults.journal.bytes": int(executor.counts["faults.journal.bytes"]),
        "isa.assemble_s": per_setup("isa.assemble"),
        "cfg.build_s": per_setup("cfg.build"),
        "cfg.build.campaign_s": runs.incl_s["cfg.build"],
        "instrument.rewrite_s": per_setup("instrument.rewrite"),
        "machine.cpu_init.self_us": self_us("machine.cpu_init"),
        "machine.load.self_us": self_us("machine.load"),
        "machine.run.self_s": runs.self_s["machine.run"],
        "machine.run.calls": runs.calls["machine.run"],
        "machine.instructions": int(runs.counts["machine.instructions"]),
        "exec.install.self_us": self_us("exec.install"),
        "exec.compile_s": runs.counts["exec.compile_s"],
        "exec.blocks_compiled": int(runs.counts["exec.blocks_compiled"]),
        "exec.run.self_s": runs.self_s["exec.run"],
        "exec.chain_hit_ratio": hits / lookups if lookups else 0.0,
        "exec.profile.self_s": runs.self_s["exec.profile"],
        "exec.profiler_overhead": profiler_overhead - 1.0,
        "exec.profiler_overhead.iqr": profiler_iqr,
        "dbt.init.self_us": self_us("dbt.init"),
        "dbt.translate.self_s": runs.self_s["dbt.translate"],
        "dbt.translate.calls": runs.calls["dbt.translate"],
        "dbt.blocks_translated": int(runs.counts["dbt.blocks_translated"]),
        "dbt.run.self_s": runs.self_s["dbt.run"],
        "recovery.execute.self_s": runs.self_s["recovery.execute"],
        "recovery.capture.self_s": runs.self_s["recovery.capture"],
        "recovery.capture.calls": runs.calls["recovery.capture"],
        "recovery.restore.self_s": runs.self_s["recovery.restore"],
        "recovery.restore.calls": runs.calls["recovery.restore"],
        "recovery.reexec_instructions": int(
            runs.counts["recovery.reexec_instructions"]),
        "threads.run.self_s": runs.self_s["threads.run"],
        "threads.switches": int(runs.counts["threads.switches"]),
        "other.self_s": other,
        "trace.overhead": trace_overhead - 1.0,
        "trace.overhead.iqr": trace_iqr,
    }


def run_one(args, spec: dict) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    # Scratch files (the mt-pool journal) stay inside the checkout and
    # are gone when the run ends.
    with tempfile.TemporaryDirectory(prefix=".scratch-", dir=HERE) as work:
        report = (trace if args.trace else measure)(workload, args, work)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(report.metrics) != {metric["name"] for metric in declared}:
        raise RuntimeError(
            "measured metrics do not match BENCHMARK.json: "
            f"{sorted(set(report.metrics) ^ {m['name'] for m in declared})}")
    result = {
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {metric["name"]: {"value": report.metrics[metric["name"]],
                                     "unit": metric["unit"]}
                    for metric in declared},
    }
    for name, entry in result["metrics"].items():
        print(f"{workload.name:15s} {name:30s} {entry['value']:>14.6g} "
              f"{entry['unit']}")
    if args.trace and report.detail["tail_percentile"] is not None:
        print(f"{workload.name:15s} faults.run_ms.tail is "
              f"p{report.detail['tail_percentile']:g}")
    for problem in report.problems:
        print(f"GATE: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": workload.name, "seed": args.seed,
                "trace": args.trace, "quick": args.quick,
                "result": result, "detail": report.detail,
                "problems": report.problems}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(argv: list, spec: dict) -> int:
    """Every workload in a fresh child interpreter, one at a time, each
    with this run's arguments."""
    combined = {"correct": True, "attempted": 0, "failed": 0,
                "metrics": {}}
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, *argv]
        try:
            child = subprocess.run(command, stdout=subprocess.PIPE,
                                   text=True, timeout=CHILD_TIMEOUT_S)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
        except (subprocess.TimeoutExpired, IndexError,
                json.JSONDecodeError) as exc:
            print(f"{name}: no result ({type(exc).__name__})",
                  file=sys.stderr)
            combined["correct"] = False
            status = 1
            continue
        if child.returncode:
            status = 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(argv, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
