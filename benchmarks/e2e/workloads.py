"""The five benchmark workloads.

Each workload loads a different layer of ``repro`` (see README.md for
why each was chosen).  A workload has three parts:

* ``setup(seed, quick, workdir)`` builds everything a campaign needs
  before its first fault run: assembly, fault generation with its
  profiling run, the static rewrite and the golden run.  It returns a
  state whose ``units`` are the pass's work items in order.
* ``run(state, units, jobs)`` runs some of those units and returns one
  record per unit.  A timed pass runs all of them.
* ``check(state, records)`` is the pass-independent part of the
  correctness gate: a cross-backend re-run for campaigns, exact
  profiler totals for ``profile-block``.

Spec counts are frozen: each pass takes about 4 s on a 2-core x86-64
container, and the default seed's outcome digests in ``expected.json``
depend on them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass

import repro.exec
import repro.machine
from repro import faults
from repro.checking import make_technique
from repro.isa import assembler
from repro.workloads import BY_NAME

#: Every Nth spec of a pass is re-run on the other execution backend.
CROSS_CHECK_STRIDE = 16
#: ``--quick`` runs this fraction of the spec counts.
QUICK_DIVISOR = 20


def _assemble(bench: str, params: dict):
    source = BY_NAME[bench].generator(**params)
    return assembler.assemble(source, name=f"{bench}@e2e")


def _scaled(count: int, quick: bool) -> int:
    return max(1, count // QUICK_DIVISOR) if quick else count


def record_key(record) -> tuple:
    """The simulated result of one run, as the outcome digest sees it."""
    if isinstance(record, ProfileRecord):
        return (record.outcome.value, record.icount, record.cycles,
                record.attribution)
    return (record.outcome.value, record.icount, record.cycles,
            record.detection_latency)


def digest(records) -> str:
    """sha256 over each run's (outcome, icount, cycles, latency), in
    spec order."""
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(repr(record_key(record)).encode())
        hasher.update(b";")
    return hasher.hexdigest()


def tallies(records) -> dict:
    counts: dict = {}
    for record in records:
        outcome = record.outcome.value
        counts[outcome] = counts.get(outcome, 0) + 1
    return dict(sorted(counts.items()))


# -- fault-injection campaigns ----------------------------------------------


def _category_specs(count):
    def make(program, config, seed, quick):
        per_category = _scaled(count, quick)
        generated = faults.generate_category_faults(
            program, per_category=per_category, seed=seed)
        return [spec for specs in generated.by_category.values()
                for spec in specs]
    return make


def _thread_specs(per_thread, sched_count, tids):
    def make(program, config, seed, quick):
        specs = faults.generate_thread_faults(
            program, config, tids, per_thread=_scaled(per_thread, quick),
            seed=seed)
        sig_regs = make_technique(config.technique).signature_registers
        specs += faults.generate_sched_faults(
            count=_scaled(sched_count, quick), seed=seed,
            threads=len(tids) - 1, sig_regs=sig_regs)
        return specs
    return make


@dataclass
class CampaignState:
    program: object
    pipeline: object
    units: list
    journal: str | None


@dataclass(frozen=True)
class Campaign:
    """A closed-loop batch campaign: the next fault run starts only
    when a worker is free."""

    name: str
    bench: str
    params: dict
    config: object
    make_specs: object
    jobs: int = 1
    journal: bool = False

    def setup(self, seed: int, quick: bool, workdir: str) -> CampaignState:
        program = _assemble(self.bench, self.params)
        specs = self.make_specs(program, self.config, seed, quick)
        pipeline = faults.Pipeline(program, self.config)
        journal = (os.path.join(workdir, f"{self.name}.journal.jsonl")
                   if self.journal else None)
        return CampaignState(program, pipeline, specs, journal)

    def run(self, state: CampaignState, units, jobs: int | None = None):
        if state.journal is not None and os.path.exists(state.journal):
            os.remove(state.journal)
        executor = faults.CampaignExecutor(
            state.program, self.config, jobs=jobs or self.jobs,
            journal=state.journal, pipeline=state.pipeline)
        return executor.run_specs(units)

    def check(self, state: CampaignState, records) -> list[str]:
        """Re-run every CROSS_CHECK_STRIDE-th spec on the other
        backend; interp and block must agree RunRecord for RunRecord."""
        other = "interp" if self.config.backend == "block" else "block"
        config = dataclasses.replace(self.config, backend=other)
        picked = list(range(0, len(state.units), CROSS_CHECK_STRIDE))
        rerun = faults.CampaignExecutor(state.program, config).run_specs(
            [state.units[index] for index in picked])
        return [f"spec {index}: {self.config.backend} {records[index]!r} "
                f"!= {other} {again!r}"
                for index, again in zip(picked, rerun)
                if records[index] != again]


# -- hot-block profiler ------------------------------------------------------


@dataclass(frozen=True)
class ProfileRecord:
    """One profiled run: its stop reason and profiler totals."""

    outcome: object
    icount: int
    cycles: int
    #: sha256 of the per-block attribution (pc -> icount, cycles, visits)
    attribution: str


@dataclass
class ProfileState:
    programs: list
    #: (icount, cycles) of a bare run of each program
    reference: list
    units: list


@dataclass(frozen=True)
class ProfileWorkload:
    """``profile_native`` on the long equake and gap instances of the
    perf baseline, block backend, repeated.  The seed is unused."""

    name: str
    programs: tuple
    repeats: int
    backend: str = "block"
    jobs: int = 1

    def setup(self, seed: int, quick: bool, workdir: str) -> ProfileState:
        programs = [_assemble(bench, params)
                    for bench, params in self.programs]
        reference = []
        for program in programs:
            cpu, stop = repro.machine.run_native(program,
                                                 backend=self.backend)
            if stop.reason is not repro.machine.StopReason.HALTED:
                raise RuntimeError(f"bare run failed: {stop}")
            reference.append((cpu.icount, cpu.cycles))
        repeats = 1 if quick else self.repeats
        units = [index for _ in range(repeats)
                 for index in range(len(programs))]
        return ProfileState(programs, reference, units)

    def run(self, state: ProfileState, units, jobs: int | None = None):
        records = []
        for index in units:
            _cpu, stop, profiler = repro.exec.profile_native(
                state.programs[index], backend=self.backend)
            attribution = hashlib.sha256(
                repr(sorted(profiler.samples.items())).encode())
            records.append(ProfileRecord(
                outcome=stop.reason, icount=profiler.total_icount,
                cycles=profiler.total_cycles,
                attribution=attribution.hexdigest()))
        return records

    def check(self, state: ProfileState, records) -> list[str]:
        """Profiler totals must equal the bare run's icount and
        cycles."""
        return [f"profile {position}: totals {record.icount}/"
                f"{record.cycles} != bare {state.reference[index]}"
                for position, (index, record)
                in enumerate(zip(state.units, records))
                if (record.icount, record.cycles)
                != state.reference[index]]

    def bare_vs_profiled(self, state: ProfileState, pairs: int) -> list:
        """profiled/bare wall-time ratios over ABBA-interleaved pairs of
        one run of every program."""
        def timed(profiled: bool) -> float:
            start = time.perf_counter()
            for program in state.programs:
                if profiled:
                    repro.exec.profile_native(program,
                                              backend=self.backend)
                else:
                    repro.machine.run_native(program, backend=self.backend)
            return time.perf_counter() - start

        ratios = []
        for pair in range(pairs):
            if pair % 2 == 0:
                bare = timed(False)
                profiled = timed(True)
            else:
                profiled = timed(True)
                bare = timed(False)
            ratios.append(profiled / bare)
        return ratios


def is_failure(record) -> bool:
    """INFRA_ERROR runs and profiles that did not halt count as failed."""
    if isinstance(record, ProfileRecord):
        return record.outcome is not repro.machine.StopReason.HALTED
    return record.outcome is faults.Outcome.INFRA_ERROR


WORKLOADS = {
    workload.name: workload for workload in (
        Campaign(
            name="dbt-detect", bench="254.gap",
            params=BY_NAME["254.gap"].params["small"],
            config=faults.PipelineConfig("dbt", "rcf", backend="block"),
            make_specs=_category_specs(190)),
        Campaign(
            name="native-exec", bench="254.gap",
            params={"iterations": 2000},
            config=faults.PipelineConfig("native", None),
            make_specs=_category_specs(15)),
        Campaign(
            name="static-recover", bench="183.equake",
            params=BY_NAME["183.equake"].params["small"],
            config=faults.PipelineConfig("static", "rcf", backend="block",
                                         recover=True),
            make_specs=_category_specs(77)),
        Campaign(
            name="mt-pool", bench="mt.counters4",
            params={"threads": 4, "iters": 400, "spin": 8},
            config=faults.PipelineConfig("static", "ecf", backend="block",
                                         threads=True, quantum=97),
            # Scheduler faults dominate: their cost varies far less with
            # the seed than thread faults' (benign vs detected), which
            # halves the seed-to-seed spread of runs_per_s.
            make_specs=_thread_specs(12, 120, tids=range(5)),
            jobs=2, journal=True),
        ProfileWorkload(
            name="profile-block",
            programs=(("183.equake",
                       {"rows": 64, "nnz_per_row": 6, "repeats": 400}),
                      ("254.gap", {"iterations": 8000})),
            repeats=6),
    )
}
