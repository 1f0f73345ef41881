"""Statistical soft-error sampling (paper Section 7 future work:
"soft-error injection to measure the actual effectiveness of our
techniques in detecting both control and data flow errors").

Where the *targeted* campaigns pick faults per category, this module
samples faults from the same distribution the analytic error model
integrates over: every (dynamic direct-branch execution, offset/flag
bit) pair is equally likely.  Injecting a random sample therefore
measures the techniques' *overall* effectiveness, and the outcome
rates can be cross-validated against the model's closed-form
probabilities (hardware-detected rate ≈ P(F), harmless rate ≈
P(no-error), ...).
"""

from __future__ import annotations

import hashlib
import random

from repro.isa.encoding import BRANCH_OFFSET_BITS
from repro.isa.flags import NUM_FLAG_BITS
from repro.isa.program import Program
from repro.machine import BranchProfiler, StopReason, run_native
from repro.faults.campaign import CampaignResult, Pipeline, PipelineConfig
from repro.faults.injector import FaultSpec, FlagBitFault, OffsetBitFault


def derive_seed(seed: int, *context) -> int:
    """Stable sub-seed for a labelled stream of ``seed``.

    Consumers that need several independent deterministic RNG streams
    from one user-facing ``--seed`` (the fuzzer's per-program seeds,
    sampling campaigns, ...) derive them here so the streams stay
    decorrelated yet exactly reproducible from the CLI line.
    """
    text = "|".join([str(seed), *map(str, context)])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_model_faults(program: Program, count: int, seed: int = 2006,
                        max_steps: int = 50_000_000) -> list[FaultSpec]:
    """Draw ``count`` faults uniformly over the error-model universe.

    A fault is a triple (dynamic branch execution, bit): the branch
    execution is chosen proportionally to execution frequency ("given
    that soft-errors are temporal errors", Section 2), then one bit of
    its universe — 16 offset bits plus, for flag-reading conditionals,
    the flag bits — is flipped.
    """
    profiler = BranchProfiler()
    cpu, stop = run_native(program, max_steps=max_steps, profiler=profiler)
    cpu.unlink()
    if stop.reason is not StopReason.HALTED:
        raise RuntimeError(f"profiling run failed: {stop}")
    rng = random.Random(seed)

    stats_list = [s for s in profiler.branches.values()
                  if s.executions > 0]
    weights = [s.executions for s in stats_list]
    specs: list[FaultSpec] = []
    for _ in range(count):
        stats = rng.choices(stats_list, weights=weights, k=1)[0]
        occurrence = rng.randint(1, stats.executions)
        flag_bits = (NUM_FLAG_BITS if stats.instr.meta.cond is not None
                     else 0)
        bit = rng.randrange(BRANCH_OFFSET_BITS + flag_bits)
        if bit < BRANCH_OFFSET_BITS:
            fault = OffsetBitFault(bit=bit)
        else:
            fault = FlagBitFault(bit=bit - BRANCH_OFFSET_BITS)
        specs.append(FaultSpec(stats.pc, occurrence, fault))
    return specs


def run_effectiveness_campaign(program: Program, config: PipelineConfig,
                               count: int = 100, seed: int = 2006
                               ) -> CampaignResult:
    """Inject ``count`` model-sampled faults under one configuration."""
    specs = sample_model_faults(program, count, seed=seed)
    pipeline = Pipeline(program, config)
    result = CampaignResult(config_label=config.label())
    for spec in specs:
        result.record(None, pipeline.run(spec).outcome)
    return result
