"""Smoke test of the campaign benchmark: ``pytest benchmarks/e2e``.

Runs ``run.py --quick`` (1/20 of the spec counts) untraced and traced
over every workload, then checks the output schema, that every metric
``BENCHMARK.json`` declares is reported with its unit, that the layers
each workload exercises show up in its trace, that the correctness gate
fires on a wrong expected digest, and that ``run.py`` refuses to run
without the sources it measures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [workload["name"] for workload in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import run  # noqa: E402


def run_quick(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--quick", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120)


def last_result(proc) -> dict:
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
    return result


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> dict:
    """``{(workload, trace): --out record}`` from quick runs of every
    workload, untraced and traced."""
    out = tmp_path_factory.mktemp("e2e") / "runs.jsonl"
    for trace in ("0", "1"):
        proc = run_quick("--trace", trace, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        combined = last_result(proc)
        assert combined["correct"] is True
        assert combined["failed"] == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    entries = [json.loads(line) for line in lines]
    return {(entry["workload"], entry["trace"]): entry
            for entry in entries}


@pytest.mark.parametrize("trace, declared", [
    (0, SPEC["end_to_end"]), (1, SPEC["per_layer"])])
def test_every_declared_metric_is_reported_with_its_unit(records, trace,
                                                         declared):
    units = {metric["name"]: metric["unit"] for metric in declared}
    for name in NAMES:
        result = records[(name, trace)]["result"]
        assert result["correct"] is True
        assert result["failed"] == 0
        assert {metric: entry["unit"] for metric, entry
                in result["metrics"].items()} == units
        if trace == 0:
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values())


@pytest.mark.parametrize("workload, layer_counts", [
    ("dbt-detect", ("dbt.translate.calls", "dbt.blocks_translated",
                    "exec.blocks_compiled", "faults.run.samples")),
    ("native-exec", ("machine.run.calls", "machine.instructions",
                     "faults.run.samples")),
    ("static-recover", ("recovery.capture.calls",
                        "recovery.restore.calls", "exec.blocks_compiled")),
    ("mt-pool", ("threads.switches", "faults.journal.bytes",
                 "faults.executor.self_s")),
    ("profile-block", ("exec.profile.self_s", "exec.profiler_overhead",
                       "machine.instructions")),
])
def test_trace_sees_the_layers_each_workload_exercises(records, workload,
                                                        layer_counts):
    metrics = records[(workload, 1)]["result"]["metrics"]
    for name in layer_counts:
        assert metrics[name]["value"] > 0, name


def test_gate_fires_on_a_wrong_expected_digest(tmp_path, monkeypatch,
                                               capsys):
    expected = json.loads(run.EXPECTED.read_text("utf-8"))
    expected["quick"]["native-exec"]["digest"] = "0" * 64
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected), encoding="utf-8")
    monkeypatch.setattr(run, "EXPECTED", wrong)
    assert run.main(["--workload", "native-exec", "--quick"]) == 1
    out, err = capsys.readouterr()
    result = json.loads(out.splitlines()[-1])
    assert result["correct"] is False
    assert "GATE: native-exec: digest" in err


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_quick("--workload", "native-exec", cwd=tmp_path,
                     script=tmp_path / "benchmarks/e2e/run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


@pytest.mark.parametrize("parent, change, better, expected", [
    ([10.0 + i * 0.01 for i in range(10)],
     [12.0 + i * 0.01 for i in range(10)], "higher", "improved"),
    ([10.0 + i * 0.01 for i in range(10)],
     [8.0 + i * 0.01 for i in range(10)], "higher", "regressed"),
    ([10.0 + i * 0.01 for i in range(10)],
     [9.8 + i * 0.01 for i in range(10)], "higher", "no worse"),
    ([10.0, 14.0, 8.0, 12.0, 6.0, 10.0, 14.0, 8.0, 12.0, 6.0],
     [9.0, 13.0, 7.0, 11.0, 5.0, 9.0, 13.0, 7.0, 11.0, 5.0], "higher",
     "unresolved"),
    ([1.0 + i * 0.01 for i in range(10)],
     [0.5 + i * 0.01 for i in range(10)], "lower", "improved"),
])
def test_compare_verdicts(parent, change, better, expected):
    assert compare.verdict(parent, change, better, 0.1, False)[1] \
        == expected


def test_compare_regresses_when_the_change_fails_more(tmp_path, capsys):
    def write(path, failed, base):
        with open(path, "w", encoding="utf-8") as handle:
            for index in range(10):
                handle.write(json.dumps({"workload": "dbt-detect",
                                         "result": {
                    "correct": True, "attempted": 100,
                    "failed": failed if index == 0 else 0,
                    "metrics": {"runs_per_s": {
                        "value": base + index * 0.01, "unit": "1/s"}}}})
                    + "\n")

    write(tmp_path / "parent.jsonl", 0, 10.0)
    write(tmp_path / "change.jsonl", 1, 12.0)
    assert compare.main([str(tmp_path / "parent.jsonl"),
                         str(tmp_path / "change.jsonl")]) == 1
    rows = {line.split()[1]: line.rsplit("  ", 1)[-1]
            for line in capsys.readouterr().out.splitlines()[1:]}
    # The faster change claims no gain: it failed one run more.
    assert rows == {"runs_per_s": "no worse", "failed": "regressed"}
