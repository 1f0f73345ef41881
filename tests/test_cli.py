"""CLI smoke tests (python -m repro ...)."""

import json

import pytest

from repro.cli import main

DEMO = """
.entry main
main:
    movi r1, 0
    movi r2, 1
loop:
    add r1, r1, r2
    addi r2, r2, 1
    cmpi r2, 11
    jl loop
    syscall 1
    movi r1, 0
    syscall 0
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.s"
    path.write_text(DEMO)
    return str(path)


class TestRun:
    def test_native(self, demo_file, capsys):
        assert main(["run", demo_file, "--pipeline", "native"]) == 0
        out = capsys.readouterr().out
        assert "55" in out and "halted" in out

    def test_dbt_with_technique(self, demo_file, capsys):
        assert main(["run", demo_file, "-t", "rcf"]) == 0
        assert "detected=False" in capsys.readouterr().out

    def test_static_pipeline(self, demo_file, capsys):
        assert main(["run", demo_file, "--pipeline", "static",
                     "-t", "cfcss"]) == 0
        assert "55" in capsys.readouterr().out

    def test_dataflow_flag(self, demo_file, capsys):
        assert main(["run", demo_file, "--dataflow"]) == 0

    def test_policy_choice(self, demo_file):
        assert main(["run", demo_file, "-t", "rcf",
                     "--policy", "end"]) == 0

    def test_output_gets_exactly_one_trailing_newline(self, tmp_path,
                                                      capsys):
        # PRINT_CHAR of "\n" used to be doubled by the unconditional
        # trailing-newline append
        src = (".entry main\nmain:\n    movi r1, 65\n    syscall 2\n"
               "    movi r1, 10\n    syscall 2\n"
               "    movi r1, 0\n    syscall 0\n")
        path = tmp_path / "newline.s"
        path.write_text(src)
        assert main(["run", str(path), "--pipeline", "native"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("A\n[")
        assert "A\n\n" not in out


class TestObservability:
    def test_run_metrics_snapshot_and_stats(self, demo_file, tmp_path,
                                            capsys):
        metrics = str(tmp_path / "metrics.json")
        assert main(["run", demo_file, "-t", "rcf",
                     "--metrics", metrics]) == 0
        capsys.readouterr()
        assert main(["stats", metrics]) == 0
        out = capsys.readouterr().out
        assert "interp_instructions_total" in out
        assert "dbt_translate_seconds" in out
        assert "dbt.run" in out

    def test_run_prom_export(self, demo_file, tmp_path, capsys):
        metrics = str(tmp_path / "metrics.prom")
        assert main(["run", demo_file, "-t", "rcf",
                     "--metrics", metrics]) == 0
        text = open(metrics).read()
        assert "# TYPE interp_instructions_total counter" in text

    def test_trace_flag_streams_spans(self, demo_file, tmp_path):
        import json
        trace = str(tmp_path / "trace.jsonl")
        assert main(["run", demo_file, "-t", "rcf",
                     "--trace", trace]) == 0
        names = {json.loads(line)["name"]
                 for line in open(trace)}
        assert "dbt.run" in names and "dbt.translate" in names

    @pytest.mark.parametrize("command", [
        ["run", "-t", "rcf"],
        ["inject", "-t", "rcf", "--branch", "loop+12",
         "--fault", "direction", "--fault", "offset:1", "--jobs", "2"],
    ])
    def test_trace_log_is_a_valid_chrome_trace(self, demo_file, tmp_path,
                                               command):
        from repro.obs.spans import (read_entries, to_chrome_trace,
                                     validate_chrome_trace)
        trace = str(tmp_path / "trace.jsonl")
        assert main([command[0], demo_file, *command[1:],
                     "--trace", trace]) == 0
        entries = read_entries(trace)
        assert validate_chrome_trace(to_chrome_trace(entries)) == []
        by_id = {entry["span_id"]: entry for entry in entries}
        translates = [entry for entry in entries
                      if entry["name"] == "dbt.translate"]
        assert translates
        for child in translates:
            parent = by_id[child["parent_span"]]
            assert parent["name"] == "dbt.run"
            assert parent["t0"] <= child["t0"] + 1e-6
            assert child["t0"] + child["dur"] <= \
                parent["t0"] + parent["dur"] + 1e-6

    def test_coverage_parallel_metrics_merge(self, demo_file, tmp_path,
                                             capsys):
        metrics = str(tmp_path / "metrics.json")
        assert main(["coverage", demo_file, "--per-category", "2",
                     "--no-cache-level", "--jobs", "2",
                     "--metrics", metrics]) == 0
        capsys.readouterr()
        assert main(["stats", metrics]) == 0
        out = capsys.readouterr().out
        assert "campaign_runs_total" in out
        assert "campaign_chunk_seconds" in out

    def test_stats_format_variants(self, demo_file, tmp_path, capsys):
        metrics = str(tmp_path / "metrics.json")
        main(["run", demo_file, "--metrics", metrics])
        capsys.readouterr()
        assert main(["stats", metrics, "--format", "prom"]) == 0
        assert "# TYPE" in capsys.readouterr().out
        assert main(["stats", metrics, "--format", "jsonl"]) == 0
        assert '"type"' in capsys.readouterr().out

    def test_stats_rejects_non_snapshot(self, tmp_path, capsys):
        path = tmp_path / "bogus.txt"
        path.write_text("# not json\n")
        assert main(["stats", str(path)]) == 1
        assert "not a JSON" in capsys.readouterr().err

    def test_no_flags_means_observability_off(self, demo_file, capsys):
        from repro import obs
        assert main(["run", demo_file]) == 0
        assert obs.get_registry() is None


class TestTraceExport:
    def test_campaign_sidecar_exports(self, demo_file, tmp_path, capsys):
        journal = str(tmp_path / "t.jsonl")
        out = str(tmp_path / "trace.json")
        assert main(["inject", demo_file, "-t", "edgcf",
                     "--branch", "loop+12", "--fault", "offset:0",
                     "--fault", "offset:1", "--jobs", "2",
                     "--journal", journal]) == 0
        assert main(["trace", "export", "--journal", journal,
                     "-o", out]) == 0
        events = json.load(open(out))["traceEvents"]
        assert sorted(e["cat"] for e in events if e["ph"] == "X") == \
            ["chunk", "job", "run", "run"]

    def test_old_sidecar_fails_cleanly(self, tmp_path, capsys):
        journal = str(tmp_path / "old.jsonl")
        sidecar = journal + ".trace.jsonl"
        with open(sidecar, "w") as handle:
            handle.write(json.dumps({
                "type": "chunk", "index": 0, "t0": 1.0, "t1": 2.0,
                "pid": 1, "runs": [], "trace_id": "t", "span_id": "s",
                "parent_span": None}) + "\n")
        assert main(["trace", "export", "--journal", journal,
                     "-o", str(tmp_path / "trace.json")]) == 1
        err = capsys.readouterr().err
        assert sidecar in err and "not a span entry" in err


class TestDisasm:
    def test_listing(self, demo_file, capsys):
        assert main(["disasm", demo_file]) == 0
        out = capsys.readouterr().out
        assert "main:" in out and "jl" in out


class TestInject:
    def test_offset_fault_detected(self, demo_file, capsys):
        code = main(["inject", demo_file, "-t", "edgcf",
                     "--branch", "loop+12", "--occurrence", "2",
                     "--fault", "offset:0"])
        assert code == 0
        assert "detected_signature" in capsys.readouterr().out

    def test_sdc_exit_code(self, demo_file, capsys):
        code = main(["inject", demo_file,
                     "--branch", "loop+12", "--occurrence", "2",
                     "--fault", "offset:0"])
        out = capsys.readouterr().out
        assert "sdc" in out
        assert code == 2

    def test_direction_fault(self, demo_file, capsys):
        assert main(["inject", demo_file, "-t", "rcf",
                     "--branch", "loop+12", "--fault",
                     "direction"]) == 0

    def test_register_fault_with_dataflow(self, demo_file, capsys):
        code = main(["inject", demo_file, "--dataflow",
                     "--fault", "register:1,8,20"])
        assert code == 0
        assert "detected" in capsys.readouterr().out

    def test_redirect_symbolic(self, demo_file, capsys):
        assert main(["inject", demo_file, "-t", "edgcf",
                     "--branch", "loop+12", "--fault",
                     "redirect:main"]) == 0

    def test_unknown_fault_kind(self, demo_file):
        with pytest.raises(SystemExit):
            main(["inject", demo_file, "--fault", "bogus:1"])

    def test_journal_and_resume(self, demo_file, tmp_path, capsys):
        journal = str(tmp_path / "inject.jsonl")
        args = ["inject", demo_file, "-t", "edgcf",
                "--branch", "loop+12", "--occurrence", "2",
                "--fault", "offset:0", "--fault", "offset:1",
                "--journal", journal]
        assert main(args) == 0
        first = capsys.readouterr().out
        lines = open(journal).readlines()
        assert len(lines) == 2  # header + one chunk
        assert json.loads(lines[0])["header"]["backend"] == "interp"
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first
        # a resume with a different backend must be refused
        assert main(args + ["--resume", "--backend", "block"]) == 2

    @pytest.mark.parametrize("flags,named", [
        (["--checkpoint-interval", "0"], "checkpoint_interval"),
        (["--recover", "--checkpoint-interval", "-5"],
         "checkpoint_interval"),
        (["--recover", "--max-retries", "-1"], "max_retries"),
        (["--threads", "--quantum", "0"], "quantum"),
    ])
    def test_bad_config_flags_exit_2(self, demo_file, tmp_path, capsys,
                                     flags, named):
        journal = tmp_path / "inject.jsonl"
        assert main(["inject", demo_file, "--fault", "direction",
                     "--journal", str(journal), *flags]) == 2
        assert named in capsys.readouterr().err
        assert not journal.exists()

    @pytest.mark.parametrize("command,message", [
        (["fuzz", "--count", "1", "--mt-every", "-1"],
         "mt_every must be an integer >= 0, not -1"),
        (["fuzz", "--count", "1", "--detect-every", "-2"],
         "detect_every must be an integer >= 0, not -2"),
        (["coverage", "{demo}", "--per-category", "-5"],
         "per_category must be an integer >= 1, not -5"),
        (["inject", "{demo}", "--fault", "direction", "--occurrence", "0"],
         "occurrence must be an integer >= 1, not 0"),
        (["inject", "{demo}", "--fault", "direction", "--thread", "-3"],
         "thread must be an integer >= 0, not -3"),
    ])
    def test_bad_campaign_flags_exit_2(self, demo_file, capsys, command,
                                       message):
        """The same words as the service's 400 (tests/service)."""
        argv = [arg.format(demo=demo_file) for arg in command]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert message in err
        assert "effective seed" not in out

    def test_retries_and_timeout_flags(self, demo_file):
        assert main(["inject", demo_file, "-t", "rcf",
                     "--branch", "loop+12", "--fault", "direction",
                     "--retries", "1", "--timeout", "30"]) == 0


class TestAnalysis:
    def test_errormodel(self, demo_file, capsys):
        assert main(["errormodel", demo_file]) == 0
        out = capsys.readouterr().out
        assert "Category A" in out and "No Error" in out

    def test_coverage(self, demo_file, capsys):
        assert main(["coverage", demo_file, "--per-category", "2",
                     "--no-cache-level"]) == 0
        assert "configuration" in capsys.readouterr().out

    def test_coverage_journal_resume(self, demo_file, tmp_path,
                                     capsys):
        journal = str(tmp_path / "coverage.jsonl")
        args = ["coverage", demo_file, "--per-category", "2",
                "--no-cache-level", "--journal", journal]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert open(journal).read().strip()
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_verify_accepts_resilience_flags(self, demo_file, capsys):
        assert main(["verify", demo_file, "-t", "edgcf",
                     "--retries", "1", "--timeout", "60"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_suite_listing(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "164.gzip" in out and "171.swim" in out


def _campaign(command, demo_file, journal):
    if command == "coverage":
        return ["coverage", demo_file, "--per-category", "2",
                "--no-cache-level", "--journal", journal]
    return ["inject", demo_file, "-t", "edgcf", "--branch", "loop+12",
            "--occurrence", "2", "--fault", "offset:0", "--journal",
            journal]


class TestResumeRefusal:
    """A resume under another config than the journal's is refused
    before it touches the journal: its chunks would not replay."""

    @pytest.mark.parametrize("command,first,resume,named", [
        ("inject", [], ["-t", "rcf"], "technique: journal 'edgcf'"),
        ("inject", [], ["--policy", "ret"], "policy: journal 'allbb'"),
        ("inject", [], ["--dataflow"], "dataflow: journal False"),
        ("inject", [], ["--recover"], "recover: journal False"),
        ("inject", ["--recover"],
         ["--recover", "--checkpoint-interval", "64"],
         "checkpoint_interval: journal 4096, now 64"),
        ("inject", ["--recover"], ["--recover", "--max-retries", "1"],
         "max_retries: journal 3, now 1"),
        ("inject", [], ["--backend", "block"],
         "backend: journal 'interp', now 'block'"),
        ("coverage", [], ["--per-category", "3"],
         "per_category: journal 2, now 3"),
    ])
    def test_mismatched_resume_exits_2(self, demo_file, tmp_path,
                                       capsys, command, first, resume,
                                       named):
        journal = tmp_path / "campaign.jsonl"
        args = _campaign(command, demo_file, str(journal))
        assert main(args + first) == 0
        recorded = journal.read_bytes()
        capsys.readouterr()
        assert main(args + resume + ["--resume"]) == 2
        assert named in capsys.readouterr().err
        assert journal.read_bytes() == recorded

    def test_header_without_config_is_refused(self, demo_file, tmp_path,
                                              capsys):
        journal = tmp_path / "campaign.jsonl"
        args = _campaign("inject", demo_file, str(journal))
        assert main(args) == 0
        header, *chunks = journal.read_text().splitlines()
        entry = json.loads(header)
        del entry["header"]["config"]
        journal.write_text("\n".join([json.dumps(entry), *chunks]) + "\n")
        recorded = journal.read_bytes()
        capsys.readouterr()
        assert main(args + ["--resume"]) == 2
        assert "rerun without --resume" in capsys.readouterr().err
        assert journal.read_bytes() == recorded
