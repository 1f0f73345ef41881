"""Deterministic preemptive scheduling policies.

The scheduler is the *only* source of nondeterminism a real
multithreaded machine would add, so everything here is pinned down:

* preemption happens on a **fixed quantum counted in retired guest
  instructions** (both execution backends honour ``max_steps`` exactly,
  so a quantum expires at the same dynamic instruction on the
  interpreter and the block-compiling tier — the schedule trace is
  byte-identical across backends);
* ``rr`` (round-robin) is a plain FIFO over ready threads;
* ``priority`` runs the highest-priority ready thread, breaking ties
  with a **seeded** RNG stream derived from the scheduler seed — the
  same seed always produces the same schedule, a different seed
  explores a different (but equally reproducible) interleaving;
* the RNG stream advances only when a tie is actually broken, so
  schedules are stable under unrelated changes.

The scheduler state (queue order + RNG state) snapshots into a plain
tuple so checkpoint/rollback recovery can restore mid-campaign.  The
RNG state is copied only after a draw: snapshots between draws share
one state object (under ``rr`` the RNG never draws).
"""

from __future__ import annotations

import random

#: Supported scheduling policies.
POLICIES = ("rr", "priority")

#: Default preemption quantum in retired guest instructions.
DEFAULT_QUANTUM = 500


class DeterministicScheduler:
    """Ready-queue management under a fixed, seeded policy."""

    def __init__(self, quantum: int = DEFAULT_QUANTUM,
                 policy: str = "rr", seed: int = 0):
        if policy not in POLICIES:
            raise ValueError(f"unknown scheduling policy {policy!r}; "
                             f"expected one of {POLICIES}")
        self.quantum = max(1, int(quantum))
        self.policy = policy
        self.seed = seed
        from repro.faults.sampling import derive_seed
        self._rng = random.Random(derive_seed(seed, "sched", policy))
        #: the RNG's state as last saved or restored; None after a draw
        self._rng_state = None
        self._queue: list[int] = []

    def enqueue(self, tid: int) -> None:
        """Add a ready thread at the tail of the FIFO order."""
        self._queue.append(tid)

    def remove(self, tid: int) -> None:
        """Drop a thread from the ready queue (it blocked or exited)."""
        if tid in self._queue:
            self._queue.remove(tid)

    def pick(self, priority_of) -> int | None:
        """Dequeue the next thread to run (None when nothing is ready).

        ``priority_of(tid)`` supplies priorities under the ``priority``
        policy; round-robin ignores it.
        """
        if not self._queue:
            return None
        if self.policy == "rr":
            return self._queue.pop(0)
        best = max(priority_of(tid) for tid in self._queue)
        tied = [tid for tid in self._queue if priority_of(tid) == best]
        if len(tied) == 1:
            choice = tied[0]
        else:
            choice = self._rng.choice(tied)
            self._rng_state = None
        self._queue.remove(choice)
        return choice

    def ready_count(self) -> int:
        return len(self._queue)

    def ready_tids(self) -> tuple[int, ...]:
        return tuple(self._queue)

    def rotate(self) -> None:
        """Move the head of the ready queue to the tail (a scheduler-
        state fault primitive: perturbs who runs next, nothing else)."""
        if len(self._queue) > 1:
            self._queue.append(self._queue.pop(0))

    # -- checkpoint/rollback support ----------------------------------

    def snapshot(self) -> tuple:
        if self._rng_state is None:
            self._rng_state = self._rng.getstate()
        return (tuple(self._queue), self._rng_state)

    def restore(self, snap: tuple) -> None:
        queue, rng_state = snap
        self._queue = list(queue)
        if rng_state is not self._rng_state:
            self._rng.setstate(rng_state)
            self._rng_state = rng_state
