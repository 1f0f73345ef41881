"""``repro.recovery`` — checkpoint/rollback recovery.

Turns the paper's detection machinery into survival (ROADMAP item 3,
following Khoshavi et al., arXiv:1607.07727): periodic architectural
checkpoints over copy-on-write memory deltas, rollback to the last
consistent checkpoint when a technique's error branch fires or the
watchdog trips, re-execution with a retry budget and exponential
checkpoint-interval adaptation, and escalation to a clean restart from
entry when a rollback re-detects.  See ``docs/recovery.md``.
"""

from repro.recovery.checkpoint import (Checkpoint, RECOVERABLE_BOUND,
                                       capture_checkpoint,
                                       prune_checkpoints,
                                       restore_checkpoint)
from repro.recovery.manager import (DEFAULT_CHECKPOINT_INTERVAL,
                                    DEFAULT_MAX_RETRIES, MIN_INTERVAL,
                                    RecoveryManager, RecoveryReport,
                                    ResumePoint)

__all__ = [
    "Checkpoint", "DEFAULT_CHECKPOINT_INTERVAL", "DEFAULT_MAX_RETRIES",
    "MIN_INTERVAL", "RECOVERABLE_BOUND", "RecoveryManager",
    "RecoveryReport", "ResumePoint", "capture_checkpoint", "prune_checkpoints",
    "restore_checkpoint",
]
