"""Journaled MT campaigns: scheduler parameters in the header, resume
refusal on mismatch, and jobs-independence of the journal."""

import json

import pytest

from repro.cli import main
from repro.workloads import BY_NAME


@pytest.fixture
def mt_file(tmp_path):
    path = tmp_path / "mt.s"
    path.write_text(BY_NAME["mt.counters4"].generator(threads=3,
                                                      iters=15, spin=3))
    return str(path)


MT_FLAGS = ["--threads", "--quantum", "97", "--sched-seed", "3"]


def inject(mt_file, journal, *extra):
    return main(["inject", mt_file, "-t", "ecf", "--branch",
                 "worker+28", "--fault", "direction", "--journal",
                 journal, *MT_FLAGS, *extra])


class TestJournalHeader:
    def test_header_records_scheduler_parameters(self, mt_file,
                                                 tmp_path, capsys):
        journal = str(tmp_path / "mt.jsonl")
        assert inject(mt_file, journal) == 0
        header = json.loads(open(journal).readline())["header"]
        assert header["threads"] is True
        assert header["quantum"] == 97
        assert header["sched_policy"] == "rr"
        assert header["sched_seed"] == 3
        assert header["sig_swap"] is True

    def test_single_threaded_header_untouched(self, mt_file, tmp_path,
                                              capsys):
        journal = str(tmp_path / "st.jsonl")
        assert main(["inject", mt_file, "-t", "ecf", "--branch",
                     "worker+28", "--fault", "direction",
                     "--journal", journal]) == 0
        header = json.loads(open(journal).readline())["header"]
        assert "threads" not in header
        assert "quantum" not in header


class TestResumeGuard:
    def test_resume_with_matching_flags_replays(self, mt_file,
                                                tmp_path, capsys):
        journal = str(tmp_path / "mt.jsonl")
        assert inject(mt_file, journal) == 0
        first = capsys.readouterr().out
        assert inject(mt_file, journal, "--resume") == 0
        second = capsys.readouterr().out
        assert "outcome:" in first and "outcome:" in second

    @pytest.mark.parametrize("mismatch,field", [
        (["--quantum", "500"], "quantum: journal 97, now 500"),
        (["--sched-policy", "priority"],
         "sched_policy: journal 'rr', now 'priority'"),
        (["--sched-seed", "9"], "sched_seed: journal 3, now 9"),
        (["--no-sig-swap"], "sig_swap: journal True, now False"),
    ])
    def test_resume_with_mismatched_scheduler_refused(
            self, mt_file, tmp_path, capsys, mismatch, field):
        journal = str(tmp_path / "mt.jsonl")
        assert inject(mt_file, journal) == 0
        capsys.readouterr()
        argv = (["inject", mt_file, "-t", "ecf", "--branch",
                 "worker+28", "--fault", "direction", "--journal",
                 journal, "--resume", "--threads"]
                + _merge(mismatch))
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert field in err

    def test_resume_without_threads_on_mt_journal_refused(
            self, mt_file, tmp_path, capsys):
        journal = str(tmp_path / "mt.jsonl")
        assert inject(mt_file, journal) == 0
        capsys.readouterr()
        assert main(["inject", mt_file, "-t", "ecf", "--branch",
                     "worker+28", "--fault", "direction", "--journal",
                     journal, "--resume"]) == 2
        assert "threads: journal True, now False" in \
            capsys.readouterr().err


def _merge(mismatch):
    """MT_FLAGS with one knob overridden by the mismatch flags."""
    flags = dict(zip(["--quantum", "--sched-seed"], ["97", "3"]))
    out = []
    if mismatch[0] in flags:
        flags[mismatch[0]] = mismatch[1]
    else:
        out = mismatch
    for flag, value in flags.items():
        out += [flag, value]
    return out


class TestJobsIndependence:
    def test_journal_identical_jobs_1_vs_2(self, mt_file, tmp_path,
                                           capsys):
        bodies = {}
        for jobs in (1, 2):
            journal = str(tmp_path / f"j{jobs}.jsonl")
            assert main(["inject", mt_file, "-t", "ecf", "--branch",
                         "worker+28", "--fault", "direction",
                         "--fault", "offset:3", "--fault", "flag:1",
                         "--journal", journal, "--jobs", str(jobs),
                         *MT_FLAGS]) in (0, 1)
            lines = open(journal).read().splitlines()
            # Drop the header's jobs field; records must be identical.
            header = json.loads(lines[0])["header"]
            header.pop("jobs", None)
            bodies[jobs] = (header, lines[1:])
        assert bodies[1] == bodies[2]
