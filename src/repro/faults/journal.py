"""Append-only campaign journal: checkpoint every chunk, resume later.

A campaign killed mid-flight (machine reboot, OOM-kill, ctrl-C) should
not discard its completed work.  The journal records each finished
chunk as one JSON line::

    {"v": 1,
     "program": "<sha256 of the loadable image>",
     "config":  ["dbt", "rcf", "allbb", "jcc", false, "interp"],
     "chunk":   3,
     "specs":   ["1f0c…", …],      # per-spec content digests
     "records": [{…}, …]}          # serialized RunRecords

Entries are self-validating: a chunk is only replayed when the program
digest, the config key, *and* every spec digest match the campaign
being resumed — so re-using one journal file across programs, configs,
or edited fault lists can never smuggle stale records in.  Each append
is flushed and fsynced, and a torn final line (the process died mid-
write) is truncated away with a warning on resume — even when the tear
falls inside a multi-byte UTF-8 sequence — so the journal is safe
against any kill point.  Replaying is byte-exact: a resumed campaign's
record list — and therefore every tally derived from it — is identical
to the uninterrupted run's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os

from repro.faults.cache import config_from_key, config_key
from repro.faults.campaign import Outcome, RunRecord

log = logging.getLogger(__name__)

JOURNAL_VERSION = 1


def spec_digest(spec) -> str:
    """Content digest of one fault spec (reprs are deterministic)."""
    return hashlib.sha256(repr(spec).encode()).hexdigest()[:16]


def inject_header(config) -> dict:
    """The ``repro inject`` journal header for ``config``.

    Shared by the CLI and the campaign service so a service inject
    job's journal is byte-identical to the CLI's for the same campaign.
    The readable fields are for people (the scheduler block only on
    multithreaded campaigns); ``config`` is the campaign's
    :func:`~repro.faults.cache.config_key`, the identity that
    :meth:`CampaignJournal.start` checks on resume.
    """
    header = {"tool": "repro-inject", "technique": config.technique,
              "policy": config.policy.value, "backend": config.backend,
              "recover": config.recover}
    if config.threads:
        header.update(threads=True, quantum=config.quantum,
                      sched_policy=config.sched_policy,
                      sched_seed=config.sched_seed,
                      sig_swap=config.sig_swap)
    header["config"] = list(config_key(config))
    return header


def coverage_header(seed: int, per_category: int, backend: str) -> dict:
    """The ``repro coverage`` journal header (CLI/service shared)."""
    return {"tool": "repro-coverage", "seed": seed,
            "per_category": per_category, "backend": backend}


def _header_diff(recorded: dict, wanted: dict) -> list[str]:
    """One ``name: journal X, now Y`` line per differing header entry.

    A differing ``config`` is named by PipelineConfig field, decoding
    both keys; the readable entries derive from the config and carry
    the same names, so they add nothing once it has been decoded.
    """
    diffs = {}
    old, new = recorded.get("config"), wanted.get("config")
    if old and new and old != new:
        old, new = config_from_key(old), config_from_key(new)
        for field in dataclasses.fields(old):
            before = getattr(old, field.name)
            after = getattr(new, field.name)
            if before != after:
                diffs[field.name] = (getattr(before, "value", before),
                                     getattr(after, "value", after))
    for key in {**recorded, **wanted}:
        if key != "config" and recorded.get(key) != wanted.get(key):
            diffs.setdefault(key, (recorded.get(key), wanted.get(key)))
    return [f"{key}: journal {before!r}, now {after!r}"
            for key, (before, after) in diffs.items()]


def record_to_json(record: RunRecord) -> dict:
    data = {"outcome": record.outcome.value,
            "stop": record.stop_reason,
            "out": [list(part) for part in record.outputs],
            "cycles": record.cycles,
            "icount": record.icount,
            "latency": record.detection_latency,
            "latency_cycles": record.detection_latency_cycles,
            "error": record.error}
    if record.attempts or record.rollback_distance_icount is not None:
        # Recovery fields only appear on runs recovery touched, so
        # journals from recovery-off campaigns stay byte-identical to
        # the pre-recovery format.
        data["attempts"] = record.attempts
        data["rollback"] = record.rollback_distance_icount
        data["reexec"] = record.reexec_cycles
    return data


def record_from_json(data: dict) -> RunRecord:
    return RunRecord(outcome=Outcome(data["outcome"]),
                     stop_reason=data["stop"],
                     outputs=tuple(tuple(part) for part in data["out"]),
                     cycles=data["cycles"],
                     icount=data["icount"],
                     detection_latency=data.get("latency"),
                     detection_latency_cycles=data.get("latency_cycles"),
                     error=data.get("error"),
                     attempts=data.get("attempts", 0),
                     rollback_distance_icount=data.get("rollback"),
                     reexec_cycles=data.get("reexec"))


class CampaignJournal:
    """One JSONL journal file, possibly shared by several campaigns
    (entries carry their own program/config identity)."""

    def __init__(self, path):
        self.path = str(path)

    def append_header(self, meta: dict) -> None:
        """Durably record run metadata (effective seed, CLI knobs, ...).

        Header lines carry no top-level ``program``/``config``
        identity, so :meth:`replay` skips them naturally; they exist for
        :meth:`start`'s resume check and for humans and tooling to
        reconstruct the exact command that produced the file.
        """
        entry = {"v": JOURNAL_VERSION, "header": dict(meta)}
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def start(self, header: dict, resume: bool) -> None:
        """Begin (``resume=False``) or continue a campaign under
        ``header``.

        A fresh run, or a resume of a journal that holds no header yet,
        appends ``header``.  A resume otherwise compares the recorded
        header with ``header`` and raises ValueError naming every entry
        that differs: chunks only replay under their own config, so a
        resume under another one would silently re-run and re-append
        every chunk.
        """
        recorded = self.read_header() if resume else None
        if recorded is None:
            self.append_header(header)
            return
        if "config" in header and "config" not in recorded:
            raise ValueError(
                f"journal {self.path} has a header written before "
                "journals recorded their config, so this resume cannot "
                "be checked against it; rerun without --resume")
        diffs = _header_diff(recorded, header)
        if diffs:
            raise ValueError(
                f"journal {self.path} was recorded with a different "
                f"configuration ({'; '.join(diffs)}); resuming would "
                "silently re-run every chunk. Pass the matching flags, "
                "or rerun without --resume")

    # -- reading -------------------------------------------------------------

    def _scan(self):
        """Parse the file into entries, spotting a torn trailing line.

        Reads in *binary* so a write torn mid-way through a multi-byte
        UTF-8 sequence cannot raise out of the resume path.  Returns
        ``(entries, good_size)`` where ``good_size`` is the byte offset
        just past the last intact line — equal to the file size when
        the tail is clean, smaller when the final line is torn (not
        newline-terminated, undecodable, or not valid JSON).
        """
        entries: list = []
        if not os.path.exists(self.path):
            return entries, 0
        with open(self.path, "rb") as handle:
            raw = handle.read()
        offset = 0
        good_size = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            terminated = newline != -1
            end = newline + 1 if terminated else len(raw)
            line = raw[offset:newline if terminated else end].strip()
            offset = end
            if not line:
                good_size = end
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                if terminated:
                    # Mid-file corruption: skip the line but keep the
                    # rest of the journal (later appends are intact).
                    log.warning("journal %s: skipping a corrupt entry "
                                "at byte %d", self.path, good_size)
                    good_size = end
                    continue
                # Torn tail: the process died mid-append.
                return entries, good_size
            if not isinstance(entry, dict):
                log.warning("journal %s: skipping a non-object entry "
                            "at byte %d", self.path, good_size)
                good_size = end
                continue
            good_size = end
            entries.append(entry)
        return entries, good_size

    def _truncate_torn_tail(self, good_size: int) -> None:
        """Drop a partially-written final line left by a crash.

        Truncating (rather than merely skipping on read) keeps later
        appends from gluing a new entry onto the torn fragment, which
        would corrupt an otherwise-valid line.
        """
        actual = os.path.getsize(self.path)
        if actual <= good_size:
            return
        log.warning("journal %s: truncating a partially-written final "
                    "line (%d byte(s)) left by an interrupted campaign",
                    self.path, actual - good_size)
        with open(self.path, "r+b") as handle:
            handle.truncate(good_size)

    def read_header(self) -> dict | None:
        """First header entry in the file, or None."""
        entries, _ = self._scan()
        for entry in entries:
            if entry.get("v") == JOURNAL_VERSION and "header" in entry:
                return entry["header"]
        return None

    def append_chunk(self, program_digest: str, config_key: tuple,
                     chunk_index: int, spec_digests: list[str],
                     records: list[RunRecord]) -> None:
        """Durably record one completed chunk."""
        entry = {"v": JOURNAL_VERSION,
                 "program": program_digest,
                 "config": list(config_key),
                 "chunk": chunk_index,
                 "specs": list(spec_digests),
                 "records": [record_to_json(r) for r in records]}
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def replay(self, program_digest: str, config_key: tuple) -> dict:
        """Completed chunks for one campaign identity.

        Returns ``{(chunk_index, (spec_digest, …)): [RunRecord, …]}`` —
        the caller looks up its own (index, digests) pair, so a journal
        entry whose spec set no longer matches is simply not found.

        A torn final line (the writing process died mid-append) is
        truncated away with a warning so the resumed campaign appends
        to a clean file; it can never raise out of the resume path.
        """
        completed: dict = {}
        entries, good_size = self._scan()
        if os.path.exists(self.path):
            self._truncate_torn_tail(good_size)
        wanted = list(config_key)
        for entry in entries:
            if (entry.get("v") != JOURNAL_VERSION
                    or entry.get("program") != program_digest
                    or entry.get("config") != wanted):
                continue
            try:
                records = [record_from_json(r)
                           for r in entry["records"]]
            except (KeyError, TypeError, ValueError):
                continue
            completed[(entry["chunk"], tuple(entry["specs"]))] = \
                records
        return completed
