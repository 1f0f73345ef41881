"""Supervised differential-fuzzing campaigns.

One fuzzing run is ``count`` generated programs, each pushed through
the transparency oracle (and, on a configurable stride, the exhaustive
detection oracle on a companion tiny program).  Programs are
independent, so the run fans out over the same supervised process pool
the fault campaigns use (:func:`repro.faults.executor.parallel_map`) —
verdicts come back in input order, making the summary identical for
any job count.

Failures are handled in the parent, deterministically:

* the failing source is shrunk with the delta-debugging minimizer
  (predicate restricted to the first failing configuration, so each
  candidate costs two runs, not a full matrix),
* original + minimized sources and a JSON report land in the corpus
  directory (``fail-<index>-<kind>/``),
* detection failures additionally get a forensics bundle readable by
  ``repro explain --bundle``.

Everything derives from one ``--seed`` via
:func:`repro.faults.sampling.derive_seed`; the effective seed is
printed and recorded in the journal header.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

from repro import obs
from repro.checking import Policy
from repro.faults.campaign import check_bool, check_int
from repro.faults.executor import MapError, parallel_map
from repro.faults.sampling import derive_seed
from repro.fuzz.generator import FuzzKnobs, generate_source
from repro.fuzz.minimizer import minimize_source
from repro.fuzz.oracle import (DBT_TECHNIQUES, DEFAULT_TECHNIQUES,
                               check_detection, check_mt_transparency,
                               check_recovery, check_transparency,
                               transparency_configs)
from repro.isa.assembler import assemble


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing campaign, fully determined by ``seed``."""

    seed: int = 2006
    count: int = 50
    knobs: FuzzKnobs = field(default_factory=FuzzKnobs)
    detect_knobs: FuzzKnobs = field(default_factory=FuzzKnobs.tiny)
    techniques: tuple = DEFAULT_TECHNIQUES
    policies: tuple = (Policy.ALLBB,)
    #: every Nth program also gets the exhaustive detection oracle on a
    #: companion tiny program (0 disables detection entirely).
    detect_every: int = 8
    detect_techniques: tuple = DBT_TECHNIQUES
    max_sites: int | None = 12
    minimize: bool = True
    max_minimize_tests: int = 600
    #: execution backend the oracles run under ("interp" | "block");
    #: non-default adds a bare cross-backend native lane per program.
    backend: str = "interp"
    #: optional technique override forwarded to the oracles (must be a
    #: picklable module-level callable when jobs > 1).
    technique_factory: object = None
    #: also hold every detected fault of the detection suite to the
    #: recovery contract (checkpoint/rollback must reproduce the golden
    #: RunDigest; see repro.recovery and docs/recovery.md).
    recover: bool = False
    #: every Nth program also runs the multithreaded differential
    #: oracle on a seed-varied MT kernel — random quantum/policy/seed
    #: under the deterministic preemptive scheduler, cross-backend
    #: schedule parity included (0 disables; see docs/threads.md).
    mt_every: int = 0
    mt_techniques: tuple = ("ecf",)

    def __post_init__(self):
        # Every Nth program: a negative N would pick every program.
        check_int("detect_every", self.detect_every, 0)
        check_int("mt_every", self.mt_every, 0)
        check_bool("recover", self.recover)

    def program_seed(self, index: int) -> int:
        return derive_seed(self.seed, "program", index)

    def knobs_for(self, index: int) -> FuzzKnobs:
        """Per-index knob variation.

        The default knobs emit indirect branches and call chains, which
        only the DBT accepts; cycling two restricted variants makes the
        corpus exercise the static rewriter (no indirect) and the
        whole-CFG baselines (intra-procedural: no indirect, no calls).
        """
        phase = index % 4
        if phase == 1:
            return replace(self.knobs, indirect=False)
        if phase == 3:
            return replace(self.knobs, indirect=False, functions=0)
        return self.knobs

    def detect_seed(self, index: int) -> int:
        return derive_seed(self.seed, "detect", index)

    def mt_seed(self, index: int) -> int:
        return derive_seed(self.seed, "mt", index)


def _mt_case(config: FuzzConfig, index: int) -> tuple[str, dict]:
    """The seed-varied MT kernel + scheduler parameters for one index.

    Pure function of (config.seed, index) — the parent regenerates the
    failing case from the verdict without shipping sources through the
    process pool.
    """
    import random

    from repro.workloads.kernels import mt as mt_kernels

    rng = random.Random(config.mt_seed(index))
    kernel = rng.choice(("counters", "ledger", "relay"))
    if kernel == "counters":
        source = mt_kernels.counters(threads=rng.randint(2, 4),
                                     iters=rng.randint(20, 60),
                                     spin=rng.randint(2, 8))
    elif kernel == "ledger":
        source = mt_kernels.ledger(threads=rng.randint(2, 4),
                                   deposits=rng.randint(15, 40))
    else:
        source = mt_kernels.relay(stages=rng.randint(2, 4),
                                  rounds=rng.randint(8, 20))
    params = {"kernel": kernel,
              "quantum": rng.randint(40, 200),
              "sched_policy": rng.choice(("rr", "priority")),
              "sched_seed": rng.randint(0, 999)}
    return source, params


def _fuzz_one(task) -> dict:
    """Worker: oracles for one index.  Returns a picklable verdict."""
    index, config = task
    verdict = {"index": index, "kind": "ok", "transparency": [],
               "escapes": [], "recovery": [], "mt": [], "configs": 0,
               "detection_runs": 0, "recovery_runs": 0, "mt_runs": 0}
    source = generate_source(config.program_seed(index),
                             config.knobs_for(index))
    program = assemble(source, name=f"fuzz-{index}")
    configs = transparency_configs(program, config.techniques,
                                   config.policies,
                                   backend=config.backend)
    verdict["configs"] = len(configs)
    failures = check_transparency(
        program, configs=configs,
        technique_factory=config.technique_factory)
    if failures:
        verdict["kind"] = "transparency"
        verdict["transparency"] = [
            {"label": f.label, "fields": list(f.fields),
             "crash": f.is_crash}
            for f in failures]
    if config.detect_every and index % config.detect_every == 0:
        tiny = generate_source(config.detect_seed(index),
                               config.detect_knobs)
        tiny_program = assemble(tiny, name=f"fuzz-detect-{index}")
        for technique in config.detect_techniques:
            escapes, runs = check_detection(
                tiny_program, technique,
                technique_factory=config.technique_factory,
                max_sites=config.max_sites,
                backend=config.backend)
            verdict["detection_runs"] += runs
            if escapes:
                verdict["kind"] = "detection"
                verdict["escapes"] += [
                    {"label": e.label, "technique": technique,
                     "spec": e.spec.describe(),
                     "category": e.category, "outcome": e.outcome}
                    for e in escapes]
            if config.recover:
                failures, rruns = check_recovery(
                    tiny_program, technique,
                    technique_factory=config.technique_factory,
                    max_sites=config.max_sites,
                    backend=config.backend)
                verdict["recovery_runs"] += rruns
                if failures:
                    if verdict["kind"] == "ok":
                        verdict["kind"] = "recovery"
                    verdict["recovery"] += [
                        {"label": f.label, "technique": technique,
                         "spec": f.spec.describe(),
                         "category": f.category, "outcome": f.outcome,
                         "fields": list(f.fields)}
                        for f in failures]
    if config.mt_every and index % config.mt_every == 0:
        source, params = _mt_case(config, index)
        mt_program = assemble(source, name=f"fuzz-mt-{index}")
        failures = check_mt_transparency(
            mt_program, techniques=config.mt_techniques,
            quantum=params["quantum"],
            sched_policy=params["sched_policy"],
            sched_seed=params["sched_seed"])
        verdict["mt_runs"] += 1
        if failures:
            if verdict["kind"] == "ok":
                verdict["kind"] = "mt"
            verdict["mt"] = [
                {"label": f.label, "fields": list(f.fields),
                 "crash": f.is_crash, **params}
                for f in failures]
    return verdict


@dataclass
class FuzzFailure:
    """One failing program, minimized and persisted."""

    index: int
    kind: str                 #: "transparency" | "detection" | "recovery"
    detail: str
    source: str
    minimized: str | None = None
    shrink_steps: int = 0
    corpus_dir: str | None = None


@dataclass
class FuzzReport:
    """Aggregated result of one fuzzing campaign."""

    seed: int
    count: int
    programs: int = 0
    ok: int = 0
    transparency_failures: int = 0
    detection_escapes: int = 0
    recovery_failures: int = 0
    mt_failures: int = 0
    infra_errors: int = 0
    transparency_configs: int = 0
    detection_runs: int = 0
    recovery_runs: int = 0
    mt_runs: int = 0
    shrink_steps: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.transparency_failures == 0
                and self.detection_escapes == 0
                and self.recovery_failures == 0
                and self.mt_failures == 0)

    def summary(self) -> dict:
        """Deterministic summary — identical for any job count."""
        return {"seed": self.seed, "count": self.count,
                "programs": self.programs, "ok": self.ok,
                "transparency_failures": self.transparency_failures,
                "detection_escapes": self.detection_escapes,
                "recovery_failures": self.recovery_failures,
                "mt_failures": self.mt_failures,
                "infra_errors": self.infra_errors,
                "transparency_configs": self.transparency_configs,
                "detection_runs": self.detection_runs,
                "recovery_runs": self.recovery_runs,
                "mt_runs": self.mt_runs}

    def summary_line(self) -> str:
        s = self.summary()
        recov = ""
        if s["recovery_runs"] or s["recovery_failures"]:
            recov = (f", {s['recovery_failures']} recovery failures "
                     f"over {s['recovery_runs']} recovery runs")
        mt = ""
        if s["mt_runs"] or s["mt_failures"]:
            mt = (f", {s['mt_failures']} MT failures over "
                  f"{s['mt_runs']} MT runs")
        return (f"seed {s['seed']}: {s['programs']} programs, "
                f"{s['ok']} ok, "
                f"{s['transparency_failures']} transparency, "
                f"{s['detection_escapes']} detection escapes, "
                f"{s['infra_errors']} infra "
                f"({s['transparency_configs']} configs, "
                f"{s['detection_runs']} detection runs)" + recov + mt)


# -- failure handling (parent process, deterministic) ------------------------


def _transparency_predicate(config: FuzzConfig, source: str, label: str,
                            crash: bool):
    """Candidate still diverges under the originally-failing config
    (the one labelled ``label`` among the failing ``source``'s).

    The failure *mode* must be preserved: a genuine behavioural
    divergence may not degrade into an instrumentation crash mid-shrink
    (dropping lines can leave dead code the rewriter rejects), or the
    minimizer would chase an unrelated, easier failure.
    """
    configs = transparency_configs(assemble(source), config.techniques,
                                   config.policies, backend=config.backend)
    pipe_config = next(c for c in configs if c.label() == label)

    def predicate(source: str) -> bool:
        try:
            program = assemble(source)
            failures = check_transparency(
                program, configs=[pipe_config],
                technique_factory=config.technique_factory)
        except Exception:
            return False
        return any(f.is_crash == crash for f in failures)
    return predicate


def _detection_predicate(config: FuzzConfig, technique: str):
    """Candidate still lets a claimed-category error escape."""
    def predicate(source: str) -> bool:
        try:
            program = assemble(source)
            escapes, _ = check_detection(
                program, technique,
                technique_factory=config.technique_factory,
                max_sites=config.max_sites,
                backend=config.backend)
            return bool(escapes)
        except Exception:
            return False
    return predicate


def _mt_predicate(config: FuzzConfig, params: dict):
    """Candidate still fails the multithreaded oracle under the
    originally-failing scheduler parameters."""
    def predicate(source: str) -> bool:
        try:
            program = assemble(source)
            failures = check_mt_transparency(
                program, techniques=config.mt_techniques,
                quantum=params["quantum"],
                sched_policy=params["sched_policy"],
                sched_seed=params["sched_seed"])
            return bool(failures)
        except Exception:
            return False
    return predicate


def _recovery_predicate(config: FuzzConfig, technique: str):
    """Candidate still breaks the recovery contract."""
    def predicate(source: str) -> bool:
        try:
            program = assemble(source)
            failures, _ = check_recovery(
                program, technique,
                technique_factory=config.technique_factory,
                max_sites=config.max_sites,
                backend=config.backend)
            return bool(failures)
        except Exception:
            return False
    return predicate


def _persist_failure(failure: FuzzFailure, config: FuzzConfig,
                     corpus: str) -> None:
    directory = os.path.join(corpus,
                             f"fail-{failure.index}-{failure.kind}")
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "original.s"), "w",
              encoding="utf-8") as handle:
        handle.write(failure.source)
    if failure.minimized is not None:
        with open(os.path.join(directory, "minimized.s"), "w",
                  encoding="utf-8") as handle:
            handle.write(failure.minimized)
    report = {"index": failure.index, "kind": failure.kind,
              "detail": failure.detail, "seed": config.seed,
              "shrink_steps": failure.shrink_steps,
              "repro": (f"repro fuzz --seed {config.seed} "
                        f"--count {config.count}")}
    with open(os.path.join(directory, "report.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
    failure.corpus_dir = directory


def _bundle_detection_failure(failure: FuzzFailure, config: FuzzConfig,
                              technique: str) -> None:
    """Forensics bundle for ``repro explain --bundle`` triage."""
    from repro.faults.campaign import PipelineConfig
    from repro.forensics import write_campaign_forensics
    source = failure.minimized or failure.source
    try:
        program = assemble(source, name=f"fuzz-min-{failure.index}")
        escapes, _ = check_detection(
            program, technique,
            technique_factory=config.technique_factory,
            max_sites=config.max_sites,
            backend=config.backend)
        if not escapes or failure.corpus_dir is None:
            return
        pipe_config = PipelineConfig("dbt", technique, Policy.ALLBB,
                                     backend=config.backend)
        path = os.path.join(failure.corpus_dir, "forensics.json")
        write_campaign_forensics(
            program, pipe_config,
            escapes=[(i, e.spec) for i, e in enumerate(escapes)],
            max_samples=3, path=path)
    except Exception as exc:   # bundles are best-effort diagnostics
        obs.counter("fuzz_bundle_errors_total",
                    help="forensics bundle failures").inc()
        if failure.corpus_dir:
            with open(os.path.join(failure.corpus_dir,
                                   "forensics-error.txt"), "w",
                      encoding="utf-8") as handle:
                handle.write(f"{type(exc).__name__}: {exc}\n")


def _handle_failure(index: int, verdict: dict, config: FuzzConfig,
                    corpus: str | None, report: FuzzReport) -> None:
    kind = verdict["kind"]
    if kind == "transparency":
        source = generate_source(config.program_seed(index),
                                 config.knobs_for(index))
        detail = json.dumps(verdict["transparency"])
        first = verdict["transparency"][0]
        predicate = _transparency_predicate(
            config, source, first["label"], first.get("crash", False))
    elif kind == "recovery":
        source = generate_source(config.detect_seed(index),
                                 config.detect_knobs)
        detail = json.dumps(verdict["recovery"])
        technique = verdict["recovery"][0]["technique"]
        predicate = _recovery_predicate(config, technique)
    elif kind == "mt":
        source, params = _mt_case(config, index)
        detail = json.dumps(verdict["mt"])
        predicate = _mt_predicate(config, params)
    else:
        source = generate_source(config.detect_seed(index),
                                 config.detect_knobs)
        detail = json.dumps(verdict["escapes"])
        technique = verdict["escapes"][0]["technique"]
        predicate = _detection_predicate(config, technique)
    failure = FuzzFailure(index=index, kind=kind, detail=detail,
                          source=source)
    if config.minimize:
        try:
            result = minimize_source(
                source, predicate, max_tests=config.max_minimize_tests)
            failure.minimized = result.source
            failure.shrink_steps = result.steps
            report.shrink_steps += result.steps
            obs.counter("fuzz_shrink_steps_total",
                        help="successful minimizer reductions").inc(
                            result.steps)
        except ValueError:
            # Not reproducible in isolation (flaky infra, not a guest
            # bug) — keep the original source for manual triage.
            pass
    if corpus:
        _persist_failure(failure, config, corpus)
        if kind == "detection":
            _bundle_detection_failure(failure, config, technique)
    report.failures.append(failure)


# -- campaign entry point ----------------------------------------------------


def run_fuzz(config: FuzzConfig, jobs: int = 1,
             retries: int | None = None, timeout: float | None = None,
             journal: str | None = None,
             corpus: str | None = None,
             on_progress=None,
             stop_check=None) -> FuzzReport:
    """Run one fuzzing campaign; returns the aggregated report.

    Deterministic for a given ``config.seed``: verdicts are collected
    in input order whatever ``jobs`` is, and failure handling runs in
    the parent.  ``on_progress``/``stop_check`` are the campaign
    service's job hooks (see :func:`repro.faults.executor.parallel_map`);
    a stopped fuzz campaign raises ``CampaignStopped`` and simply
    reruns from scratch when resubmitted — fuzzing is
    rerun-deterministic, so nothing is lost.
    """
    report = FuzzReport(seed=config.seed, count=config.count)
    journal_file = None
    if journal:
        from repro.faults.journal import CampaignJournal
        journal_file = CampaignJournal(journal)
        journal_file.append_header({
            "tool": "repro-fuzz", "seed": config.seed,
            "count": config.count, "jobs": jobs,
            "techniques": list(config.techniques),
            "policies": [p.value for p in config.policies],
            "detect_every": config.detect_every,
            "backend": config.backend,
            "recover": config.recover,
            "mt_every": config.mt_every})
    tasks = [(index, config) for index in range(config.count)]
    with obs.span("fuzz.campaign", seed=str(config.seed),
                  count=str(config.count)):
        verdicts = parallel_map(_fuzz_one, tasks, jobs=jobs,
                                retries=retries, timeout=timeout,
                                on_progress=on_progress,
                                stop_check=stop_check)
    for index, verdict in enumerate(verdicts):
        report.programs += 1
        obs.counter("fuzz_programs_total",
                    help="fuzz programs generated and judged").inc()
        if isinstance(verdict, MapError):
            report.infra_errors += 1
            obs.counter("fuzz_verdicts_total",
                        help="fuzz oracle verdicts",
                        verdict="infra").inc()
            report.failures.append(FuzzFailure(
                index=index, kind="infra", detail=verdict.error,
                source=""))
            continue
        report.transparency_configs += verdict["configs"]
        report.detection_runs += verdict["detection_runs"]
        report.recovery_runs += verdict.get("recovery_runs", 0)
        report.mt_runs += verdict.get("mt_runs", 0)
        obs.counter("fuzz_verdicts_total",
                    help="fuzz oracle verdicts",
                    verdict=verdict["kind"]).inc()
        if verdict["kind"] == "ok":
            report.ok += 1
        else:
            if verdict["transparency"]:
                report.transparency_failures += len(
                    verdict["transparency"])
            if verdict["escapes"]:
                report.detection_escapes += len(verdict["escapes"])
            if verdict.get("recovery"):
                report.recovery_failures += len(verdict["recovery"])
            if verdict.get("mt"):
                report.mt_failures += len(verdict["mt"])
            _handle_failure(index, verdict, config, corpus, report)
        if journal_file is not None:
            entry = dict(verdict)
            entry["v"] = 1
            entry["fuzz"] = True
            with open(journal_file.path, "a",
                      encoding="utf-8") as handle:
                handle.write(json.dumps(entry,
                                        separators=(",", ":")) + "\n")
    return report
