"""End-to-end over HTTP: submit, stream SSE, fetch artifacts.

The acceptance path: a campaign submitted over the REST API produces
a journal byte-identical to the same campaign run via the CLI — for
serial and parallel execution — and resubmitting the identical
workload hits the content-addressed cache.
"""

import json

import pytest

from repro.service import JobStatus, ServiceError


def inject_payload(src, faults, jobs=1, tenant="default", **config):
    return {"kind": "inject", "program": src, "tenant": tenant,
            "name": "sum_loop.s",
            "params": {"technique": "edgcf", "faults": list(faults),
                       "branch": "loop", "jobs": jobs, **config}}


def cli_inject_journal(tmp_path, src, faults, jobs=1, **config):
    """Run the same campaign via the CLI; return the journal bytes.

    ``config`` holds job params, passed as the CLI flags of the same
    names."""
    from repro.cli import main
    source = tmp_path / "cli-prog.s"
    source.write_text(src)
    journal = tmp_path / f"cli-{jobs}.jsonl"
    argv = ["inject", str(source), "--journal", str(journal),
            "--jobs", str(jobs)]
    for name, value in {"technique": "edgcf", "branch": "loop",
                        **config}.items():
        flag = "--" + name.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    for token in faults:
        argv += ["--fault", token]
    assert main(argv) == 0
    return journal.read_bytes()


def _mt_program():
    from repro.workloads import BY_NAME
    return BY_NAME["mt.counters4"].generator(threads=3, iters=15, spin=3)


class TestEndToEnd:
    @pytest.mark.parametrize("program,config", [
        (None, {}),
        (None, {"recover": True, "checkpoint_interval": 32}),
        (_mt_program, {"technique": "ecf", "branch": "worker+28",
                       "threads": True, "quantum": 97,
                       "sched_seed": 3}),
    ], ids=["plain", "recover", "threads"])
    def test_submit_stream_and_journal_byte_identity(
            self, service, tmp_path, sum_loop_src, ten_faults, program,
            config):
        server, client = service
        src = sum_loop_src if program is None else program()
        job = client.submit(inject_payload(src, ten_faults, **config))
        assert job["status"] in ("queued", "running")

        events = []
        for event in client.events(job["id"]):
            events.append(event)
            if event["event"] == "end":
                break
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "end"
        assert "progress" in kinds
        final = client.job(job["id"])
        assert final["status"] == "done"
        assert final["completed"] == final["total"] == 10

        service_journal = client.journal(job["id"])
        assert service_journal == cli_inject_journal(
            tmp_path, src, ten_faults, **config)

    def test_parallel_campaign_matches_cli_parallel(
            self, service, tmp_path, sum_loop_src, ten_faults):
        """--jobs 2: chunk completion order may differ run to run, so
        compare the sorted line sets (which the resume machinery — and
        every tally — is insensitive to)."""
        server, client = service
        job = client.submit(
            inject_payload(sum_loop_src, ten_faults, jobs=2))
        client.wait(job["id"])
        service_lines = sorted(
            client.journal(job["id"]).splitlines())
        cli_lines = sorted(cli_inject_journal(
            tmp_path, sum_loop_src, ten_faults, jobs=2).splitlines())
        assert service_lines == cli_lines

    def test_resubmission_hits_the_cache(self, service, sum_loop_src):
        server, client = service
        payload = inject_payload(sum_loop_src, ["direction", "flag:0"])
        first = client.submit(payload)
        client.wait(first["id"])
        second = client.submit(payload)
        client.wait(second["id"])
        job = server.orchestrator.get(second["id"])
        counters = {
            (entry["name"], tuple(sorted(
                entry.get("labels", {}).items()))): entry["value"]
            for entry in job.registry.snapshot()["counters"]}
        assert counters.get(("campaign_golden_cache_total",
                             (("result", "hit"),))) == 1
        assert ("campaign_golden_cache_total",
                (("result", "miss"),)) not in counters
        # The aggregate /metrics endpoint shows both cache tiers.
        text = client.metrics_text()
        assert 'campaign_golden_cache_total{result="hit"} 1' in text
        assert 'service_disk_cache_total{kind="golden",' \
               'result="store"} 1' in text

    def test_fuzz_job_journal_matches_cli(self, service, tmp_path):
        from repro.cli import main
        server, client = service
        params = {"seed": 99, "count": 3, "statements": 8,
                  "detect_every": 0}
        job = client.submit({"kind": "fuzz", "params": params})
        final = client.wait(job["id"])
        assert final["status"] == "done"
        assert final["result"]["passed"] is True

        cli_journal = tmp_path / "fuzz.jsonl"
        assert main(["fuzz", "--seed", "99", "--count", "3",
                     "--statements", "8", "--detect-every", "0",
                     "--journal", str(cli_journal)]) == 0
        assert client.journal(job["id"]) == cli_journal.read_bytes()


class TestApiSurface:
    def test_listing_and_detail(self, service, sum_loop_src):
        server, client = service
        job = client.submit(inject_payload(sum_loop_src, ["direction"],
                                           tenant="alpha"))
        client.wait(job["id"])
        listed = client.jobs()
        assert any(entry["id"] == job["id"] for entry in listed)
        assert client.jobs(tenant="alpha")[0]["tenant"] == "alpha"
        assert client.jobs(tenant="nobody") == []
        detail = client.job(job["id"])
        assert detail["result"]["config"] == "dbt/edgcf/allbb"

    def test_bad_payload_is_400(self, service):
        server, client = service
        with pytest.raises(ServiceError) as err:
            client.submit({"kind": "inject"})
        assert err.value.status == 400
        assert "program" in str(err.value)

    def test_bad_config_params_are_400(self, service, sum_loop_src):
        server, client = service
        for config, named in [
                ({"recover": True, "checkpoint_interval": 0},
                 "checkpoint_interval"),
                ({"recover": True, "checkpoint_interval": -5},
                 "checkpoint_interval"),
                ({"recover": True, "max_retries": -1}, "max_retries"),
                ({"threads": True, "quantum": 0}, "quantum"),
                ({"dataflow": "no"}, "dataflow"),
                ({"recover": "yes"}, "recover"),
                ({"threads": 1}, "threads"),
                ({"no_sig_swap": "false"}, "no_sig_swap"),
                ({"pipeline": "static"}, "pipeline")]:
            with pytest.raises(ServiceError) as err:
                client.submit(inject_payload(sum_loop_src, ["direction"],
                                             **config))
            assert err.value.status == 400, config
            assert named in str(err.value), config
        assert client.jobs() == []

    def test_bad_campaign_params_are_400(self, service, sum_loop_src):
        """Fuzz, coverage and inject params the CLI refuses
        (tests/test_cli.py), refused in the same words."""
        server, client = service
        for kind, params, message in [
                ("fuzz", {"recover": "no"},
                 "recover must be a boolean, not 'no'"),
                ("fuzz", {"mt_every": -1},
                 "mt_every must be an integer >= 0, not -1"),
                ("fuzz", {"detect_every": -2},
                 "detect_every must be an integer >= 0, not -2"),
                ("coverage", {"per_category": -5},
                 "per_category must be an integer >= 1, not -5"),
                ("inject", {"occurrence": 0},
                 "occurrence must be an integer >= 1, not 0"),
                ("inject", {"occurrence": 1.5},
                 "occurrence must be an integer >= 1, not 1.5"),
                ("inject", {"thread": -3},
                 "thread must be an integer >= 0, not -3"),
                ("inject", {"thread": "x"},
                 "thread must be an integer >= 0, not 'x'"),
                ("inject", {"thread": 1.5},
                 "thread must be an integer >= 0, not 1.5"),
                ("inject", {"thread": [1]},
                 "thread must be an integer >= 0, not [1]")]:
            payload = {"kind": kind, "params": params}
            if kind == "inject":
                params["faults"] = ["direction"]
            if kind != "fuzz":
                payload["program"] = sum_loop_src
            with pytest.raises(ServiceError) as err:
                client.submit(payload)
            assert err.value.status == 400, params
            assert message in str(err.value), params
        assert client.jobs() == []

    def test_detect_every_zero_turns_detection_off(self):
        from repro.service.jobs import build_fuzz_config
        assert build_fuzz_config({"detect_every": 0}).detect_every == 0

    def test_quota_is_429(self, service, sum_loop_src):
        server, client = service
        server.orchestrator.max_active_per_tenant = 0
        with pytest.raises(ServiceError) as err:
            client.submit(inject_payload(sum_loop_src, ["direction"]))
        assert err.value.status == 429

    def test_unknown_job_is_404(self, service):
        server, client = service
        with pytest.raises(ServiceError) as err:
            client.job("feedbeef0000")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            client.cancel("feedbeef0000")
        assert err.value.status == 404

    def test_cancel_conflict_is_409(self, service, sum_loop_src):
        server, client = service
        job = client.submit(inject_payload(sum_loop_src,
                                           ["direction"]))
        client.wait(job["id"])
        with pytest.raises(ServiceError) as err:
            client.cancel(job["id"])
        assert err.value.status == 409

    def test_artifact_listing_and_traversal_guard(self, service,
                                                  sum_loop_src):
        server, client = service
        job = client.submit(inject_payload(sum_loop_src,
                                           ["direction"]))
        client.wait(job["id"])
        artifacts = client.artifacts(job["id"])
        paths = [entry["path"] for entry in artifacts]
        assert "journal.jsonl" in paths
        assert "job.json" in paths
        assert client.artifact(job["id"], "journal.jsonl") == \
            client.journal(job["id"])
        with pytest.raises(ServiceError) as err:
            client.artifact(job["id"], "../../../etc/passwd")
        assert err.value.status in (400, 404)

    def test_healthz_counts(self, service, sum_loop_src):
        server, client = service
        job = client.submit(inject_payload(sum_loop_src,
                                           ["direction"]))
        client.wait(job["id"])
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs"].get("done", 0) >= 1

    def test_metrics_json_matches_snapshot_schema(self, service,
                                                  sum_loop_src):
        server, client = service
        job = client.submit(inject_payload(sum_loop_src,
                                           ["direction"]))
        client.wait(job["id"])
        snap = client.metrics()
        assert {"counters", "gauges", "histograms"} <= set(snap)
        names = {entry["name"] for entry in snap["counters"]}
        assert "service_jobs_finished_total" in names

    def test_sse_resumes_from_since(self, service, sum_loop_src):
        server, client = service
        job = client.submit(inject_payload(sum_loop_src,
                                           ["direction"]))
        client.wait(job["id"])
        all_events = list(client.events(job["id"]))
        tail = list(client.events(job["id"], since=2))
        assert tail == all_events[2:]


class TestCliFrontend:
    def test_submit_jobs_and_stats_url(self, service, tmp_path,
                                       sum_loop_src, capsys):
        from repro.cli import main
        server, client = service
        url = client.base_url
        payload = tmp_path / "job.json"
        payload.write_text(json.dumps(
            {"kind": "inject",
             "params": {"technique": "edgcf", "branch": "loop",
                        "faults": ["direction", "flag:0"]}}))
        program = tmp_path / "prog.s"
        program.write_text(sum_loop_src)

        assert main(["submit", str(payload), "--url", url,
                     "--program", str(program), "--wait"]) == 0
        out = capsys.readouterr().out
        assert "done" in out

        assert main(["jobs", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "inject" in out and "done" in out

        job_id = client.jobs()[0]["id"]
        assert main(["jobs", "--url", url, "--job", job_id]) == 0
        assert json.loads(capsys.readouterr().out)["id"] == job_id

        assert main(["jobs", "--url", url, "--journal", job_id]) == 0
        assert capsys.readouterr().out.encode() == \
            client.journal(job_id)

        assert main(["stats", "--url", url]) == 0
        assert "service_jobs_finished_total" in \
            capsys.readouterr().out
        assert main(["stats", "--url", url, "--format", "prom"]) == 0
        assert "# TYPE service_jobs_finished_total counter" in \
            capsys.readouterr().out

    def test_stats_requires_file_or_url(self, capsys):
        from repro.cli import main
        assert main(["stats"]) == 1
        assert "file or --url" in capsys.readouterr().err

    def test_submit_error_paths(self, service, tmp_path, capsys):
        from repro.cli import main
        server, client = service
        payload = tmp_path / "bad.json"
        payload.write_text(json.dumps({"kind": "inject"}))
        assert main(["submit", str(payload),
                     "--url", client.base_url]) == 1
        assert "program" in capsys.readouterr().err


class TestCancelRunning:
    def test_cancel_a_running_job_over_http(self, service,
                                            sum_loop_src):
        """A running campaign stops between chunks and ends CANCELLED
        with its completed chunks journaled."""
        import time
        server, client = service
        # 3 chunks of slow-ish work: plenty of time to cancel.
        faults = [f"offset:{bit}" for bit in range(12)] + \
                 [f"flag:{bit}" for bit in range(6)] + ["direction"]
        job = client.submit(inject_payload(sum_loop_src, faults))
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.job(job["id"])["status"] == "running":
                break
            time.sleep(0.01)
        client.cancel(job["id"])
        for event in client.events(job["id"]):
            if event["event"] == "end":
                break
        final = client.job(job["id"])
        assert final["status"] in ("cancelled", "done")
        if final["status"] == "cancelled":
            runtime_job = server.orchestrator.get(job["id"])
            assert runtime_job.status is JobStatus.CANCELLED
