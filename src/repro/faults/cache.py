"""Process-level golden-run and profile caches.

Fault campaigns re-run the same fault-free executions over and over:
every :class:`~repro.faults.campaign.Pipeline` starts with a golden run,
and every call to ``generate_category_faults`` starts with a profiled
native run — even when the program and configuration are identical to
one already executed in this process.  For a coverage matrix over N
configurations that is N redundant golden runs per workload, and one
redundant profiling run per fault-generation call.

These caches are keyed by **content**, not identity: the program key is
a digest of the loadable image (text, data, layout, entry), so two
separately assembled copies of the same source hit the same entry.  The
cached values (``Golden``, ``BranchProfiler``) are only ever read by
their consumers, so sharing is safe; everything here is deterministic,
so a cache hit is byte-identical to a re-run.

Campaign workers spawned by the parallel executor inherit a warm cache
under the ``fork`` start method and populate their own under ``spawn``.

A second, optional **disk tier** (``set_disk_tier``) shares entries
across processes and restarts: the campaign service installs a
content-addressed :class:`~repro.service.store.ArtifactStore` here so
a job resubmitting a workload the server has already golden-run skips
the run entirely.  Lookups consult memory first, then disk (promoting
hits into memory); stores write through to both.
"""

from __future__ import annotations

import hashlib

_golden_cache: dict = {}
_profile_cache: dict = {}
_enabled = True
_disk_tier = None


def program_digest(program) -> str:
    """Content digest of a loadable program image."""
    hasher = hashlib.sha256()
    hasher.update(program.text)
    hasher.update(b"\x00")
    hasher.update(program.data)
    hasher.update(f"{program.text_base}:{program.data_base}:"
                  f"{program.entry}".encode())
    return hasher.hexdigest()


def config_key(config) -> tuple:
    """Hashable identity of a PipelineConfig.

    The recovery and multithreading components are appended only when
    their subsystem is on, so keys (and the journals they validate)
    from before each subsystem existed remain byte-identical.
    """
    key = (config.pipeline, config.technique, config.policy.value,
           config.update_style.value, config.dataflow, config.backend)
    if config.recover:
        key += ("rec", config.checkpoint_interval, config.max_retries)
    if config.threads:
        key += ("mt", config.quantum, config.sched_policy,
                config.sched_seed, int(config.sig_swap))
    return key


def config_from_key(key):
    """The PipelineConfig whose :func:`config_key` is ``key`` (a tuple,
    or the list a journal or forensics bundle stores)."""
    from repro.checking import Policy, UpdateStyle
    from repro.faults.campaign import PipelineConfig
    pipeline, technique, policy, update, dataflow, backend, *tail = key
    fields = {}
    while tail:
        if tail[0] == "rec":
            _, interval, retries, *tail = tail
            fields.update(recover=True, checkpoint_interval=interval,
                          max_retries=retries)
        elif tail[0] == "mt":
            _, quantum, sched_policy, sched_seed, sig_swap, *tail = tail
            fields.update(threads=True, quantum=quantum,
                          sched_policy=sched_policy,
                          sched_seed=sched_seed, sig_swap=bool(sig_swap))
        else:
            raise ValueError(f"unknown config key segment {tail[0]!r}")
    return PipelineConfig(pipeline, technique, Policy(policy),
                          UpdateStyle(update), dataflow, backend,
                          **fields)


def campaign_key(program, config) -> tuple[str, tuple]:
    """Stable identity of a campaign's reference state.

    The ``(program content digest, config key)`` pair keys both the
    in-process golden cache and the on-disk campaign journal
    (:mod:`repro.faults.journal`) — two campaigns with the same pair
    are guaranteed byte-identical run-for-run, which is what makes
    journal replay safe.
    """
    return program_digest(program), config_key(config)


def set_disk_tier(store) -> None:
    """Install (or remove, with ``None``) the shared disk cache tier.

    ``store`` must provide ``get_golden/put_golden`` and
    ``get_profile/put_profile`` with the same signatures as this
    module — in practice a :class:`repro.service.store.ArtifactStore`.
    """
    global _disk_tier
    _disk_tier = store


def get_golden(digest: str, key: tuple):
    if not _enabled:
        return None
    golden = _golden_cache.get((digest, key))
    if golden is None and _disk_tier is not None:
        golden = _disk_tier.get_golden(digest, key)
        if golden is not None:
            _golden_cache[(digest, key)] = golden
    return golden


def put_golden(digest: str, key: tuple, golden) -> None:
    if _enabled:
        _golden_cache[(digest, key)] = golden
        if _disk_tier is not None:
            _disk_tier.put_golden(digest, key, golden)


def get_profile(digest: str, max_steps: int):
    if not _enabled:
        return None
    profiler = _profile_cache.get((digest, max_steps))
    if profiler is None and _disk_tier is not None:
        profiler = _disk_tier.get_profile(digest, max_steps)
        if profiler is not None:
            _profile_cache[(digest, max_steps)] = profiler
    return profiler


def put_profile(digest: str, max_steps: int, profiler) -> None:
    if _enabled:
        _profile_cache[(digest, max_steps)] = profiler
        if _disk_tier is not None:
            _disk_tier.put_profile(digest, max_steps, profiler)


def clear_caches() -> None:
    """Drop every cached golden run and profile (test isolation).

    Clears the in-process tier only — the disk tier survives
    (that is its point); remove it with ``set_disk_tier(None)``.
    """
    _golden_cache.clear()
    _profile_cache.clear()


def set_cache_enabled(enabled: bool) -> None:
    """Globally enable/disable caching (disabling also clears)."""
    global _enabled
    _enabled = enabled
    if not enabled:
        clear_caches()


def cache_stats() -> dict:
    stats = {"golden_entries": len(_golden_cache),
             "profile_entries": len(_profile_cache)}
    if _disk_tier is not None:
        stats["disk"] = _disk_tier.stats()
    return stats
