"""The campaign journal: record round-trips, entry validation, torn
writes, in-process resume, and the SIGKILL-then---resume acceptance
path (a resumed campaign is byte-identical to an uninterrupted one and
re-runs only the unfinished chunks)."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.checking import Policy, UpdateStyle
from repro.faults import (CampaignExecutor, CampaignJournal, Outcome,
                          PipelineConfig, RunRecord, campaign_key,
                          generate_category_faults, infra_error_record,
                          spec_digest)
from repro.faults.cache import config_from_key, config_key
from repro.faults.journal import (inject_header, record_from_json,
                                  record_to_json)
from repro.workloads import suite as workload_suite

CONFIG = PipelineConfig("dbt", "edgcf")


@pytest.fixture(scope="module")
def gap():
    return workload_suite.load("254.gap", "test")


@pytest.fixture(scope="module")
def clean_specs(gap):
    faults = generate_category_faults(gap, per_category=4, seed=11)
    return [spec for specs in faults.by_category.values()
            for spec in specs]


class TestRecordRoundTrip:
    def test_full_record(self):
        record = RunRecord(outcome=Outcome.DETECTED_SIGNATURE,
                           stop_reason="halted at pc=0x10 exit=0",
                           outputs=(("55", "x"), (55, 7)),
                           cycles=123, icount=45, detection_latency=9)
        assert record_from_json(record_to_json(record)) == record

    def test_infra_record(self):
        record = infra_error_record("spec", "ValueError: boom")
        restored = record_from_json(record_to_json(record))
        assert restored == record
        assert restored.outcome is Outcome.INFRA_ERROR
        assert "boom" in restored.error

    def test_json_is_a_single_line(self):
        record = RunRecord(outcome=Outcome.BENIGN, stop_reason="ok",
                           outputs=((), ()), cycles=0, icount=0)
        assert "\n" not in json.dumps(record_to_json(record))


class TestJournalReplay:
    def record(self):
        return RunRecord(outcome=Outcome.BENIGN, stop_reason="ok",
                         outputs=(("55",), (55,)), cycles=10, icount=5)

    def test_replay_matches_identity_only(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append_chunk("prog-a", ("dbt", "rcf"), 0, ["d0", "d1"],
                             [self.record()])
        journal.append_chunk("prog-b", ("dbt", "rcf"), 0, ["d0", "d1"],
                             [self.record()])
        journal.append_chunk("prog-a", ("dbt", "ecf"), 1, ["d2"],
                             [self.record()])
        replayed = journal.replay("prog-a", ("dbt", "rcf"))
        assert set(replayed) == {(0, ("d0", "d1"))}
        assert replayed[(0, ("d0", "d1"))] == [self.record()]

    def test_changed_specs_are_not_replayed(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.append_chunk("p", ("dbt",), 0, ["old"], [self.record()])
        assert journal.replay("p", ("dbt",)).get((0, ("new",))) is None

    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path)
        journal.append_chunk("p", ("dbt",), 0, ["d0"], [self.record()])
        with open(path, "a") as handle:
            handle.write('{"v": 1, "program": "p", "chunk": 1, "spe')
        replayed = journal.replay("p", ("dbt",))
        assert set(replayed) == {(0, ("d0",))}

    def test_missing_file_is_empty(self, tmp_path):
        journal = CampaignJournal(tmp_path / "nope.jsonl")
        assert journal.replay("p", ("dbt",)) == {}

    def test_resume_without_a_header_records_one(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl")
        header = inject_header(CONFIG)
        journal.start(header, resume=True)
        assert journal.read_header() == header
        journal.start(header, resume=True)
        assert len(open(journal.path).readlines()) == 1


class TestResume:
    def test_resume_is_byte_identical(self, gap, clean_specs, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        full = CampaignExecutor(gap, CONFIG, jobs=2,
                                journal=path).run_specs(clean_specs)
        lines = open(path).readlines()
        assert len(lines) == 3      # 24 specs / chunk_size 8
        # Simulate a campaign killed after one completed chunk.
        open(path, "w").writelines(lines[:1])
        resumed = CampaignExecutor(gap, CONFIG, jobs=2, journal=path,
                                   resume=True).run_specs(clean_specs)
        assert resumed == full
        assert len(open(path).readlines()) == 3

    def test_resume_runs_only_unfinished_chunks(self, gap, clean_specs,
                                                tmp_path, monkeypatch):
        import repro.faults.executor as executor_mod
        path = str(tmp_path / "campaign.jsonl")
        full = CampaignExecutor(gap, CONFIG, jobs=1,
                                journal=path).run_specs(clean_specs)
        lines = open(path).readlines()
        open(path, "w").writelines(lines[:2])
        ran = []
        real = executor_mod._quarantined_run

        def counting(pipeline, spec):
            ran.append(spec)
            return real(pipeline, spec)

        monkeypatch.setattr(executor_mod, "_quarantined_run", counting)
        resumed = CampaignExecutor(gap, CONFIG, jobs=1, journal=path,
                                   resume=True).run_specs(clean_specs)
        assert resumed == full
        assert ran == clean_specs[16:]     # only the third chunk

    def test_fully_journaled_campaign_replays_everything(
            self, gap, clean_specs, tmp_path, monkeypatch):
        import repro.faults.executor as executor_mod
        path = str(tmp_path / "campaign.jsonl")
        full = CampaignExecutor(gap, CONFIG, jobs=1,
                                journal=path).run_specs(clean_specs)
        monkeypatch.setattr(
            executor_mod, "_quarantined_run",
            lambda *a: pytest.fail("nothing should re-run"))
        resumed = CampaignExecutor(gap, CONFIG, jobs=1, journal=path,
                                   resume=True).run_specs(clean_specs)
        assert resumed == full


_KILL_RESUME_SCRIPT = """
import sys
from repro.workloads import suite as workload_suite
from repro.faults import (CampaignExecutor, PipelineConfig,
                          generate_category_faults)
from repro.faults.chaos import SleepSpec

gap = workload_suite.load("254.gap", "test")
faults = generate_category_faults(gap, per_category=4, seed=11)
specs = [s for ss in faults.by_category.values() for s in ss]
# one deliberate slow-down per chunk so the kill lands mid-campaign
padded = []
for index, spec in enumerate(specs):
    if index % 4 == 0:
        padded.append(SleepSpec(0.4))
    padded.append(spec)
CampaignExecutor(gap, PipelineConfig("dbt", "edgcf"), jobs=2,
                 chunk_size=5, journal=sys.argv[1]).run_specs(padded)
"""


def _proc_stat(pid) -> list[str] | None:
    """Fields of /proc/PID/stat after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii",
                  errors="replace") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(entry)
            if stat is not None and int(stat[1]) == pid:
                kids.append(int(entry))
    return kids


def _running(pid: int) -> bool:
    """Not exited (an unreaped zombie has exited)."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _start_killable_campaign(path: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = ("src" + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else "src")
    proc = subprocess.Popen([sys.executable, "-c",
                             _KILL_RESUME_SCRIPT, path],
                            cwd=os.path.dirname(os.path.dirname(
                                os.path.dirname(__file__))),
                            env=env)
    # Wait until at least one chunk is journaled but several cannot
    # be (each remaining chunk still needs >= 0.4s of sleeping).
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if os.path.exists(path) and len(open(path).readlines()) >= 1:
            return proc
        if proc.poll() is not None:
            pytest.fail("campaign finished before it was killed")
        time.sleep(0.02)
    proc.kill()
    pytest.fail("campaign journaled nothing in 120 s")


class TestKillResume:
    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads worker processes from /proc")
    def test_sigkill_takes_the_workers_down(self, tmp_path):
        """Workers of a SIGKILLed jobs=2 campaign exit on their own
        instead of idling as orphans."""
        proc = _start_killable_campaign(str(tmp_path / "killed.jsonl"))
        workers = _children(proc.pid)
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        assert len(workers) == 2
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline and any(map(_running, workers)):
            time.sleep(0.05)
        survivors = [pid for pid in workers if _running(pid)]
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == []

    def test_sigkill_then_resume_matches_uninterrupted(self, gap,
                                                       clean_specs,
                                                       tmp_path):
        """The acceptance path: SIGKILL a journaling campaign
        mid-flight, resume from the journal, and get record-for-record
        exactly the uninterrupted campaign's results."""
        from repro.faults.chaos import SleepSpec
        path = str(tmp_path / "killed.jsonl")
        padded = []
        for index, spec in enumerate(clean_specs):
            if index % 4 == 0:
                padded.append(SleepSpec(0.4))
            padded.append(spec)
        total_chunks = (len(padded) + 4) // 5

        proc = _start_killable_campaign(path)
        proc.send_signal(signal.SIGKILL)
        proc.wait()

        journaled = len(open(path).readlines())
        assert 1 <= journaled < total_chunks

        resumed = CampaignExecutor(gap, CONFIG, jobs=2, chunk_size=5,
                                   journal=path,
                                   resume=True).run_specs(padded)
        uninterrupted = CampaignExecutor(gap, CONFIG, jobs=1,
                                         chunk_size=5).run_specs(padded)
        assert resumed == uninterrupted
        assert len(open(path).readlines()) == total_chunks


class TestCampaignKey:
    def test_key_pairs_digest_and_config(self, gap):
        digest, key = campaign_key(gap, CONFIG)
        assert len(digest) == 64
        assert key == ("dbt", "edgcf", "allbb", "jcc", False, "interp")

    #: Fields that give every PipelineConfig field a non-default value;
    #: the recovery and scheduler knobs only count with their
    #: subsystem on.  A field missing here fails the test below.
    NON_DEFAULT = {
        "pipeline": {"pipeline": "static"},
        "technique": {"technique": "rcf"},
        "policy": {"policy": Policy.RET},
        "update_style": {"update_style": UpdateStyle.CMOV},
        "dataflow": {"dataflow": True},
        "backend": {"backend": "block"},
        "recover": {"recover": True},
        "checkpoint_interval": {"recover": True,
                                "checkpoint_interval": 64},
        "max_retries": {"recover": True, "max_retries": 1},
        "threads": {"threads": True},
        "quantum": {"threads": True, "quantum": 97},
        "sched_policy": {"threads": True, "sched_policy": "priority"},
        "sched_seed": {"threads": True, "sched_seed": 3},
        "sig_swap": {"threads": True, "sig_swap": False},
    }

    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(
            PipelineConfig)])
    def test_every_field_reaches_the_key(self, name):
        changed = self.NON_DEFAULT[name]
        config = PipelineConfig(**changed)
        base = PipelineConfig(**{key: value for key, value
                                 in changed.items() if key != name})
        assert getattr(config, name) != getattr(base, name)
        assert config_key(config) != config_key(base)
        for each in (config, base):
            assert config_from_key(config_key(each)) == each
            # Journals and forensics bundles store the key as a list.
            assert config_from_key(list(config_key(each))) == each

    def test_spec_digest_is_content_addressed(self, clean_specs):
        assert spec_digest(clean_specs[0]) == spec_digest(clean_specs[0])
        assert spec_digest(clean_specs[0]) != spec_digest(clean_specs[1])


class TestTornTail:
    """Regression: a partially-written final line (crash mid-append)
    is truncated away with a warning on resume — including a tear that
    falls inside a multi-byte UTF-8 sequence, which used to raise
    UnicodeDecodeError out of the resume path."""

    def seed_journal(self, path):
        journal = CampaignJournal(path)
        journal.append_header({"tool": "repro-inject", "backend": "x"})
        record = RunRecord(outcome=Outcome.BENIGN, stop_reason="ok",
                           outputs=((), ()), cycles=1, icount=1)
        journal.append_chunk("prog", ("dbt", "edgcf"), 0, ["aa"],
                             [record])
        return journal, record

    def test_torn_ascii_tail_truncated_on_resume(self, tmp_path,
                                                 caplog):
        path = str(tmp_path / "journal.jsonl")
        journal, record = self.seed_journal(path)
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b'{"v":1,"program":"pro')
        with caplog.at_level("WARNING", logger="repro.faults.journal"):
            done = journal.replay("prog", ("dbt", "edgcf"))
        assert done == {(0, ("aa",)): [record]}
        assert os.path.getsize(path) == good_size
        assert any("truncating" in message
                   for message in caplog.messages)

    def test_torn_multibyte_tail_truncated_on_resume(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal, record = self.seed_journal(path)
        good_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            # "…" is e2 80 a6; tear after the first two bytes.
            handle.write('{"header": "x…'.encode()[:-2])
        done = journal.replay("prog", ("dbt", "edgcf"))
        assert done == {(0, ("aa",)): [record]}
        assert os.path.getsize(path) == good_size

    def test_resumed_append_lands_on_a_clean_line(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal, record = self.seed_journal(path)
        with open(path, "ab") as handle:
            handle.write(b'{"v":1,"chunk":')
        journal.replay("prog", ("dbt", "edgcf"))
        journal.append_chunk("prog", ("dbt", "edgcf"), 1, ["bb"],
                             [record])
        done = journal.replay("prog", ("dbt", "edgcf"))
        assert set(done) == {(0, ("aa",)), (1, ("bb",))}

    def test_terminated_corrupt_line_is_skipped_not_truncated(
            self, tmp_path, caplog):
        path = str(tmp_path / "journal.jsonl")
        journal, record = self.seed_journal(path)
        with open(path, "ab") as handle:
            handle.write(b"not json at all\n")
        journal.append_chunk("prog", ("dbt", "edgcf"), 1, ["bb"],
                             [record])
        size = os.path.getsize(path)
        with caplog.at_level("WARNING", logger="repro.faults.journal"):
            done = journal.replay("prog", ("dbt", "edgcf"))
        assert set(done) == {(0, ("aa",)), (1, ("bb",))}
        assert os.path.getsize(path) == size
        assert any("corrupt" in message for message in caplog.messages)

    def test_read_header_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal, _ = self.seed_journal(path)
        size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write('{"x": "é'.encode()[:-1])
        assert journal.read_header() == {"tool": "repro-inject",
                                         "backend": "x"}
        # read_header is a pure read: no truncation side effect.
        assert os.path.getsize(path) > size
