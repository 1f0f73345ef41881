"""Differential fuzzing: adversarial guest programs vs the reproduction.

The paper's two headline claims — instrumentation is *transparent*
(Section 3) and EdgCF/RCF are *comprehensive* (Section 4) — are only as
trustworthy as the breadth of programs they are exercised on.  This
package generates seeded adversarial R32 programs stressing every
branch shape the classifier knows, runs them through N-way differential
oracles (every technique x policy, interpreter and DBT, diffed against
the uninstrumented golden run), and shrinks any failure to a minimal
reproducer with a delta-debugging minimizer.

It is the first subsystem that can *falsify* the reproduction rather
than just measure it.
"""

from repro.fuzz.generator import (FuzzKnobs, ProgramGenerator,
                                  generate_program, generate_source)
from repro.fuzz.minimizer import MinimizeResult, minimize_source
from repro.fuzz.oracle import (DetectionEscape, OracleReport, RunDigest,
                               capture, capture_threaded, check_detection,
                               check_mt_transparency,
                               check_transparency,
                               claimed_categories, run_oracles)
from repro.fuzz.runner import FuzzConfig, FuzzReport, run_fuzz

__all__ = [
    "FuzzKnobs", "ProgramGenerator", "generate_program",
    "generate_source",
    "MinimizeResult", "minimize_source",
    "DetectionEscape", "OracleReport", "RunDigest", "capture",
    "capture_threaded",
    "check_detection", "check_mt_transparency",
    "check_transparency", "claimed_categories", "run_oracles",
    "FuzzConfig", "FuzzReport", "run_fuzz",
]
