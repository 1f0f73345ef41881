#!/usr/bin/env python
"""Tour of the observability subsystem (`repro.obs`).

Runs a small fault-injection campaign with metrics and span tracing
enabled — serially and fanned out over worker processes — then renders
the merged campaign registry the way `repro stats` does and shows that
the parallel run's telemetry sums to exactly the serial totals.

Run:  python examples/observability_tour.py
"""

import os
import tempfile

from repro import obs
from repro.faults import (CampaignExecutor, PipelineConfig,
                          clear_caches, generate_category_faults)
from repro.obs.exporters import load_snapshot, render_stats
from repro.obs.spans import (read_entries, to_chrome_trace,
                             validate_chrome_trace)
from repro.workloads import suite as workload_suite


def counter_total(snapshot: dict, name: str) -> float:
    return sum(entry["value"] for entry in snapshot["counters"]
               if entry["name"] == name)


def run_campaign(program, config, specs, jobs: int,
                 metrics_path: str, trace_path: str | None) -> dict:
    """One observed campaign; returns the exported snapshot."""
    clear_caches()   # cold caches so both runs do identical work
    with obs.session(metrics_path, trace_path):
        CampaignExecutor(program, config, jobs=jobs).run_specs(specs)
    return load_snapshot(metrics_path)


def main() -> None:
    program = workload_suite.load("254.gap", "test")
    faults = generate_category_faults(program, per_category=4, seed=7)
    specs = [spec for specs in faults.by_category.values()
             for spec in specs]
    config = PipelineConfig("dbt", "rcf")
    print(f"campaign: {len(specs)} faults under {config.label()}\n")

    with tempfile.TemporaryDirectory() as tmp:
        serial_path = os.path.join(tmp, "serial.json")
        parallel_path = os.path.join(tmp, "parallel.json")
        trace_path = os.path.join(tmp, "trace.jsonl")

        # 1. Serial campaign, metrics + span trace captured.
        serial = run_campaign(program, config, specs, jobs=1,
                              metrics_path=serial_path,
                              trace_path=trace_path)

        # 2. The same campaign over 4 workers: each worker drains its
        #    own registry after every chunk, the parent merges the
        #    drains into one campaign-level registry.
        parallel = run_campaign(program, config, specs, jobs=4,
                                metrics_path=parallel_path,
                                trace_path=None)

        # 3. The merged parallel registry reports *exactly* the serial
        #    totals — same runs, same instructions, any job count.
        for name in ("interp_instructions_total",
                     "dbt_checks_executed_total",
                     "campaign_runs_total"):
            s = counter_total(serial, name)
            p = counter_total(parallel, name)
            marker = "==" if s == p else "!="
            print(f"{name:30s} serial={s:>10.0f} {marker} "
                  f"parallel={p:>10.0f}")
            assert s == p, name
        print()

        # 4. The human report (what `repro stats parallel.json` prints).
        print(render_stats(parallel))
        print()

        # 5. The span log streamed by --trace: one trace-event entry
        #    per finished span (children before their parents), the
        #    same entry format as campaign trace sidecars, so it
        #    renders straight to Chrome trace-event JSON.
        entries = read_entries(trace_path)
        assert validate_chrome_trace(to_chrome_trace(entries)) == []
        by_name: dict[str, int] = {}
        for entry in entries:
            by_name[entry["name"]] = by_name.get(entry["name"], 0) + 1
        print(f"trace: {len(entries)} spans: "
              + ", ".join(f"{name} x{count}"
                          for name, count in sorted(by_name.items())))

if __name__ == "__main__":
    main()
