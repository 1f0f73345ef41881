"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public callables of ``repro``'s layers with
``perf_counter`` spans.  Each wrapper is installed on the name its
caller actually looks up (a class attribute for methods; the module
attribute a call site resolves at call time for functions), so nothing
under ``src/`` changes.  A span stack gives every span its *self* time:
its duration minus the part covered by child spans.  Everything is kept
in memory in per-name totals.

No ``repro.obs`` registry is installed: that would switch ``Cpu.run``
onto its observed loop and measure a different program.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager

import repro.cfg
import repro.exec
import repro.faults
import repro.faults.campaign
import repro.instrument.rewriter
import repro.isa.assembler
import repro.recovery.manager
import repro.threads.resync
from repro.dbt import Dbt
from repro.exec.block import BlockCompileBackend
from repro.faults import (CampaignExecutor, CampaignJournal, DbtInjector,
                          NativeInjector, Pipeline)
from repro.instrument import StaticRewriter
from repro.machine import Cpu
from repro.recovery import RecoveryManager
from repro.threads import ThreadedMachine

#: Spans that run in the campaign's parent process when ``jobs > 1``.
PARENT_SIDE = frozenset(("faults.executor", "faults.journal.append"))


class Tracer:
    """Per-name span totals (self and inclusive seconds, calls) plus the
    counters the layer probes read off the objects they wrap."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: inclusive ``Pipeline.run`` durations, recorded while sampling
        self.run_samples: list[float] = []
        self.sampling = False
        self._stack: list[list[float]] = []

    def total_self(self) -> float:
        return sum(self.self_s.values())

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, probe=None):
        """``fn`` under a span called ``name``.

        ``probe`` is an optional ``(before, after)`` pair: ``before(args)``
        returns a state that ``after(tracer, state, args, result,
        elapsed)`` turns into counters.  Probes run outside the span, so
        their cost lands in the caller's self time.
        """
        stack = self._stack
        self_s = self.self_s
        incl_s = self.incl_s
        calls = self.calls
        perf = time.perf_counter
        before, after = probe if probe is not None else (None, None)

        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            child = [0.0]
            stack.append(child)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                self_s[name] += elapsed - child[0]
                incl_s[name] += elapsed
                calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(self, state, args, result, elapsed)
            return result

        return traced

    @contextmanager
    def active(self, names=None, sampling: bool = False):
        """Trace every layer entry point (or only the spans in
        ``names``) until the block exits; ``sampling`` also records
        each ``Pipeline.run`` duration."""
        undo = []
        for owner, attr, name, probe in ENTRY_POINTS:
            if names is None or name in names:
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                setattr(owner, attr, self.wrap(name, original, probe))
                undo.append((owner, attr, original))
        self.sampling = sampling
        try:
            yield self
        finally:
            self.sampling = False
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


# -- probes: counters read at layer boundaries ----------------------------


def _cpu_icount(args):
    return args[0].icount


def _count_instructions(tracer, before, args, result, elapsed):
    tracer.counts["machine.instructions"] += args[0].icount - before


def _backend_stats(args):
    backend = args[0]
    return (backend.compile_seconds, backend.blocks_compiled,
            backend.chain_hits, backend.chain_misses)


def _count_backend(tracer, before, args, result, elapsed):
    backend = args[0]
    counts = tracer.counts
    counts["exec.compile_s"] += backend.compile_seconds - before[0]
    counts["exec.blocks_compiled"] += backend.blocks_compiled - before[1]
    counts["exec.chain_hits"] += backend.chain_hits - before[2]
    counts["exec.chain_misses"] += backend.chain_misses - before[3]


def _count_translated(tracer, before, args, result, elapsed):
    tracer.counts["dbt.blocks_translated"] += result.translated_blocks


def _count_reexec(tracer, before, args, result, elapsed):
    tracer.counts["recovery.reexec_instructions"] += \
        args[0].report.rollback_icount


def _machine_switches(args):
    return args[0].switches


def _count_switches(tracer, before, args, result, elapsed):
    tracer.counts["threads.switches"] += args[0].switches - before


def _sample_run(tracer, before, args, result, elapsed):
    if tracer.sampling:
        tracer.run_samples.append(elapsed)


def _journal_size(args):
    path = args[0].path
    return os.path.getsize(path) if os.path.exists(path) else 0


def _count_journal(tracer, before, args, result, elapsed):
    tracer.counts["faults.journal.bytes"] += \
        os.path.getsize(args[0].path) - before


#: ``(owner, attribute, span name, probe)`` for every traced entry.
ENTRY_POINTS = [
    # faults: the campaign engine
    (repro.faults, "generate_category_faults", "faults.generate", None),
    (repro.faults, "generate_thread_faults", "faults.generate", None),
    (repro.faults, "generate_sched_faults", "faults.generate", None),
    (Pipeline, "__init__", "faults.pipeline_init", None),
    (Pipeline, "run", "faults.run", (None, _sample_run)),
    (NativeInjector, "install", "faults.injector", None),
    (DbtInjector, "install", "faults.injector", None),
    (CampaignExecutor, "run_specs", "faults.executor", None),
    (CampaignJournal, "append_chunk", "faults.journal.append",
     (_journal_size, _count_journal)),
    # isa, cfg, instrument: program preparation
    (repro.isa.assembler, "assemble", "isa.assemble", None),
    (repro.faults.campaign, "build_cfg", "cfg.build", None),
    (repro.instrument.rewriter, "build_cfg", "cfg.build", None),
    (repro.threads.resync, "build_cfg", "cfg.build", None),
    (repro.cfg, "build_cfg", "cfg.build", None),
    (StaticRewriter, "rewrite", "instrument.rewrite", None),
    # machine
    (Cpu, "__init__", "machine.cpu_init", None),
    (Cpu, "load_program", "machine.load", None),
    (Cpu, "run", "machine.run", (_cpu_icount, _count_instructions)),
    # exec: execution backends and the hot-block profiler
    (repro.exec, "install_backend", "exec.install", None),
    (BlockCompileBackend, "run", "exec.run",
     (_backend_stats, _count_backend)),
    (repro.exec, "profile_native", "exec.profile", None),
    # dbt
    (Dbt, "__init__", "dbt.init", None),
    (Dbt, "ensure_translated", "dbt.translate", None),
    (Dbt, "ensure_suffix", "dbt.translate", None),
    (Dbt, "run", "dbt.run", (None, _count_translated)),
    # recovery
    (RecoveryManager, "execute", "recovery.execute", (None, _count_reexec)),
    (repro.recovery.manager, "capture_checkpoint", "recovery.capture",
     None),
    (repro.recovery.manager, "restore_checkpoint", "recovery.restore",
     None),
    # threads
    (ThreadedMachine, "run", "threads.run",
     (_machine_switches, _count_switches)),
]
