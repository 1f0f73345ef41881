"""Dashboard routes, time-series sampling, the profile job kind, and
trace artifacts served over the API."""

import json
import urllib.request

from repro.obs.spans import (parse_entries, to_chrome_trace,
                             validate_chrome_trace)
from tests.service.test_api import inject_payload


def _get(client, path):
    with urllib.request.urlopen(client.base_url + path,
                                timeout=30) as response:
        return (response.status,
                response.headers.get("Content-Type", ""),
                response.read())


def profile_payload(src, top=5, dbt=False):
    return {"kind": "profile", "program": src, "tenant": "default",
            "name": "sum_loop.s",
            "params": {"top": top, "dbt": dbt}}


class TestDashboardRoutes:
    def test_html_page_served(self, service):
        _, client = service
        status, ctype, body = _get(client, "/dashboard")
        assert status == 200
        assert ctype.startswith("text/html")
        text = body.decode()
        assert "control tower" in text
        assert "/dashboard/data.json" in text  # self-polling page

    def test_data_json_schema(self, service, sum_loop_src,
                              ten_faults, wait_terminal):
        server, client = service
        job = client.submit(inject_payload(sum_loop_src, ten_faults))
        wait_terminal(server.orchestrator, job["id"])
        status, ctype, body = _get(client, "/dashboard/data.json")
        assert status == 200
        assert ctype.startswith("application/json")
        data = json.loads(body)
        assert set(data) >= {"now", "tiles", "series", "rates",
                             "jobs", "latency", "recovery",
                             "profiles"}
        assert any(row["id"] == job["id"] for row in data["jobs"])
        keys = [tile["key"] for tile in data["tiles"]]
        assert len(keys) == len(set(keys)) >= 4
        for tile in data["tiles"]:
            assert set(tile) == {"key", "label", "mode"}
            assert tile["mode"] in ("rate", "last")
        for row in data["latency"]:
            assert set(row) >= {"name", "unit", "policy", "count",
                                "p50", "p90", "p99"}
        job_row = next(r for r in data["jobs"]
                       if r["id"] == job["id"])
        assert job_row["status"] == "done"
        assert job_row["completed"] == job_row["total"] == 10

    def test_sampled_activity_feeds_series(self, service,
                                           sum_loop_src, ten_faults,
                                           wait_terminal):
        """Counter movement between samples lands in the window as
        per-second deltas.  The first campaign guarantees the runs
        counter is baselined; the second (a different workload, so the
        job cache cannot satisfy it) must then show up as a delta."""
        import time
        server, client = service
        orchestrator = server.orchestrator
        first = client.submit(inject_payload(sum_loop_src, ten_faults))
        wait_terminal(orchestrator, first["id"])
        orchestrator.sample_timeseries()  # counter now baselined
        second = client.submit(
            inject_payload(sum_loop_src, ["direction", "flag:0"]))
        wait_terminal(orchestrator, second["id"])
        orchestrator.sample_timeseries()
        series = orchestrator.timeseries.series(now=time.time())
        total = sum(v for _, v in series["campaign_runs_total"])
        assert total >= 2.0  # at least the second campaign's runs
        assert "service_queue_depth" in series

    def test_data_json_tolerates_idle_service(self, service):
        _, client = service
        status, _, body = _get(client, "/dashboard/data.json")
        assert status == 200
        data = json.loads(body)
        assert data["jobs"] == []


class TestProfileJobKind:
    def test_profile_job_end_to_end(self, service, sum_loop_src,
                                    wait_terminal):
        server, client = service
        job = client.submit(profile_payload(sum_loop_src, top=5))
        final = wait_terminal(server.orchestrator, job["id"])
        assert final.status.value == "done"
        result = client.job(job["id"])["result"]
        assert result["mode"] == "interp"
        assert result["stop"] == "HALTED"
        assert result["total_icount"] > 0
        assert result["blocks"], "hot blocks reported"
        shares = sum(b["share"] for b in result["blocks"])
        assert 0.0 < shares <= 1.0 + 1e-9
        names = [a["path"] for a in client.artifacts(job["id"])]
        assert "profile.txt" in names
        report = client.artifact(job["id"], "profile.txt").decode()
        assert "hot blocks" in report

    def test_profile_job_dbt_mode(self, service, sum_loop_src,
                                  wait_terminal):
        server, client = service
        job = client.submit(profile_payload(sum_loop_src, dbt=True))
        wait_terminal(server.orchestrator, job["id"])
        result = client.job(job["id"])["result"]
        assert result["mode"] == "dbt"
        assert result["total_icount"] > 0

    def test_profile_validation(self, service):
        from repro.service import ServiceError
        _, client = service
        import pytest
        with pytest.raises(ServiceError):
            client.submit({"kind": "profile", "tenant": "default",
                           "name": "x.s", "params": {}})  # no program

    def test_done_profiles_surface_on_dashboard(
            self, service, sum_loop_src, wait_terminal):
        server, client = service
        job = client.submit(profile_payload(sum_loop_src))
        wait_terminal(server.orchestrator, job["id"])
        _, _, body = _get(client, "/dashboard/data.json")
        profiles = json.loads(body)["profiles"]
        assert any(p["job"] == job["id"] for p in profiles)


class TestTraceArtifact:
    def test_job_trace_validates_with_nesting(
            self, service, sum_loop_src, ten_faults, wait_terminal):
        server, client = service
        job = client.submit(
            inject_payload(sum_loop_src, ten_faults, jobs=2))
        wait_terminal(server.orchestrator, job["id"])
        raw = client.artifact(job["id"],
                              "journal.jsonl.trace.jsonl").decode()
        entries = parse_entries(raw.splitlines(), "sidecar")
        kinds = sorted(e["cat"] for e in entries)
        assert kinds.count("job") == 1
        assert kinds.count("chunk") == 2  # 10 faults, chunk size 8
        job_line = next(e for e in entries if e["cat"] == "job")
        assert job_line["attrs"]["job"] == job["id"]
        assert job_line["trace_id"] == job["id"]
        runs = [e for e in entries if e["cat"] == "run"]
        assert sorted(run["attrs"]["index"] for run in runs) == \
            list(range(10))
        trace = to_chrome_trace(entries)
        assert validate_chrome_trace(trace) == []
        # job -> chunk -> run chain
        spans = {e["args"]["span_id"]: e
                 for e in trace["traceEvents"] if e["ph"] == "X"}
        for event in spans.values():
            if event["cat"] == "run":
                chunk = spans[event["args"]["parent_span"]]
                assert chunk["cat"] == "chunk"
                assert spans[chunk["args"]["parent_span"]]["cat"] == \
                    "job"
