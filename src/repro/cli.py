"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``         assemble and execute a program (native / DBT / static),
                optionally with a checking technique, a policy, and
                data-flow duplication
``disasm``      assemble and print the listing
``inject``      run with one injected fault and report the outcome
``verify``      statically prove the instrumented binary never
                false-positives (the Section-4.4 necessary condition)
``errormodel``  per-program Figure-2-style branch-error probabilities
``suite``       list the benchmark suite with structural statistics
``coverage``    run the per-category coverage campaign on a program
``stats``       render a metrics snapshot captured with ``--metrics``
``explain``     per-run fault forensics: replay one fault against the
                golden trace and print the annotated divergence
                timeline with escape attribution
``fuzz``        differential fuzzing: generate seeded adversarial
                programs, diff every instrumentation against the
                golden run, exhaust single-bit branch errors on tiny
                programs, and shrink failures to minimal reproducers
                (see ``docs/fuzzing.md``)
``serve``       run the campaign service: REST API + SSE streaming +
                Prometheus metrics over the same campaign engine
                (see ``docs/service.md``)
``submit``      submit a job JSON to a running service, optionally
                streaming its events until completion
``jobs``        list/inspect/cancel/follow service jobs, or fetch a
                job's journal
``profile``     hot-block profile: per-block icount/cycle attribution
                riding the branch-profiler slot, with annotated
                disassembly of the top-N blocks (``--dbt`` maps
                code-cache samples back to guest blocks)
``trace``       export a campaign's ``<journal>.trace.jsonl`` sidecar
                (written whenever a campaign runs with ``--journal``,
                locally or in the service) as Chrome trace-event JSON
                for Perfetto / ``chrome://tracing``

``run``, ``inject``, ``verify`` and ``coverage`` accept ``--metrics
PATH`` and ``--trace PATH`` to capture telemetry (see
``docs/observability.md``); everything else runs with observability
off, which costs nothing.  ``inject`` and ``coverage`` accept
``--forensics[=N]`` to replay up to N sampled escapes through the
golden-divergence analyzer and write a JSONL forensics bundle next to
the journal (see ``docs/forensics.md``).  ``inject`` and ``explain``
accept ``--recover`` (plus ``--checkpoint-interval`` and
``--max-retries``) to roll detected faults back to the last
checkpoint and re-execute instead of merely reporting them; ``fuzz
--recover`` cross-checks that machinery with a recovery oracle (see
``docs/recovery.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import obs
from repro.isa import assemble, disassemble_program
from repro.isa.program import Program
from repro.machine import run_native
from repro.checking import (TECHNIQUES, Policy, UpdateStyle,
                            make_technique)
from repro.dbt import Dbt
from repro.instrument import instrument_program


def _load_program(path: str) -> Program:
    with open(path) as handle:
        return assemble(handle.read(), name=path)


def _resolve_addr(program: Program, token: str) -> int:
    """Parse ``symbol``, ``symbol+imm`` or a bare integer."""
    base, sep, offset = token.partition("+")
    if base in program.symbols:
        value = program.symbols[base]
        return value + (int(offset, 0) if sep else 0)
    return int(token, 0)


def cmd_run(args) -> int:
    program = _load_program(args.file)
    backend = getattr(args, "backend", "interp")
    if args.pipeline == "native":
        cpu, stop = run_native(program, max_steps=args.max_steps,
                               backend=backend)
        detected = cpu.cfc_error
    elif args.pipeline == "static":
        instrumented = instrument_program(
            program, args.technique or "edgcf",
            Policy(args.policy), update_style=UpdateStyle(args.update))
        cpu, stop = run_native(instrumented.program,
                               max_steps=args.max_steps,
                               backend=backend)
        detected = cpu.cfc_error
    else:
        technique = (make_technique(args.technique,
                                    update_style=UpdateStyle(args.update))
                     if args.technique else None)
        dbt = Dbt(program, technique=technique,
                  policy=Policy(args.policy), dataflow=args.dataflow)
        if backend != "interp":
            from repro.exec import install_backend
            install_backend(dbt.cpu, backend)
        result = dbt.run(max_steps=args.max_steps)
        cpu, stop = dbt.cpu, result.stop
        detected = result.detected_error or result.detected_dataflow
    for chunk in cpu.output:
        sys.stdout.write(chunk)
    if cpu.output and not cpu.output[-1].endswith("\n"):
        sys.stdout.write("\n")
    exec_stats = ""
    if cpu.backend is not None:
        s = cpu.backend.stats()
        exec_stats = (f" blocks={s['blocks_compiled']} "
                      f"chains={s['chain_hits']}/{s['chain_misses']} "
                      f"fused={s['fused_pairs']} "
                      f"compile={s['compile_seconds']:.4f}s")
    print(f"[{stop.reason.value}] exit={stop.exit_code} "
          f"cycles={cpu.cycles} instructions={cpu.icount} "
          f"emitted={cpu.output_values} detected={detected} "
          f"backend={backend}{exec_stats}")
    return 0 if stop.exit_code == 0 and not detected else 1


def cmd_disasm(args) -> int:
    program = _load_program(args.file)
    print(disassemble_program(program))
    return 0


def parse_fault_token(program, token: str, branch: str = "0",
                      occurrence: int = 1, thread: int | None = None):
    """Parse one ``--fault`` token into a spec (raises ValueError).

    Shared by the CLI and the campaign service so both accept the
    same grammar: ``offset:BIT | flag:BIT | direction |
    redirect:ADDR | register:REG,BIT,ICOUNT |
    sched-rotate:SWITCH | sched-ctx:SWITCH,TID,REG,BIT``.

    ``thread`` (``--thread``) restricts branch-fault occurrence
    counting to one guest tid on the multithreaded machine.
    """
    from repro.faults import (DirectionFault, FaultSpec, FlagBitFault,
                              OffsetBitFault, RedirectFault,
                              RegisterFaultSpec, SchedFaultSpec)
    kind, _, value = token.partition(":")
    if kind == "register":
        reg, bit, icount = value.split(",")
        return RegisterFaultSpec(icount=int(icount), reg=int(reg),
                                 bit=int(bit))
    if kind == "sched-rotate":
        return SchedFaultSpec(switch=int(value), kind="queue-rotate")
    if kind == "sched-ctx":
        switch, tid, reg, bit = value.split(",")
        return SchedFaultSpec(switch=int(switch), kind="ctx-bit",
                              tid=int(tid), reg=int(reg), bit=int(bit))
    if kind == "offset":
        fault = OffsetBitFault(bit=int(value))
    elif kind == "flag":
        fault = FlagBitFault(bit=int(value))
    elif kind == "direction":
        fault = DirectionFault(taken=None)
    elif kind == "redirect":
        fault = RedirectFault(_resolve_addr(program, value))
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return FaultSpec(_resolve_addr(program, branch), occurrence, fault,
                     thread=thread)


def check_fault_target(params: dict) -> tuple[int, int | None]:
    """``(occurrence, thread)`` from CLI flags or service params: the
    visit that faults strike (>= 1) and the guest thread whose visits
    count (>= 0, or None for all); else ValueError naming the key."""
    from repro.faults.campaign import check_int
    thread = params.get("thread")
    return (check_int("occurrence", params.get("occurrence", 1), 1),
            None if thread is None else check_int("thread", thread, 0))


def _parse_fault_spec(program, args, token):
    try:
        return parse_fault_token(program, token, branch=args.branch,
                                 occurrence=args.occurrence,
                                 thread=getattr(args, "thread", None))
    except ValueError as exc:
        raise SystemExit(str(exc))


def cmd_inject(args) -> int:
    """Run one or more injected faults (repeat --fault for a batch);
    --jobs fans a batch out over worker processes."""
    from repro.faults import CampaignExecutor, Outcome, PipelineConfig
    from repro.faults.journal import CampaignJournal, inject_header
    program = _load_program(args.file)
    try:
        check_fault_target(vars(args))
        specs = [_parse_fault_spec(program, args, token)
                 for token in args.fault]
        config = PipelineConfig.from_params(vars(args))
        if args.journal:
            CampaignJournal(args.journal).start(inject_header(config),
                                                args.resume)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace_ctx = None
    if args.journal:
        # Deterministic trace id from the same (program, config)
        # identity the journal uses: a resumed campaign continues the
        # trace its first run started.
        from repro.faults.cache import config_key, program_digest
        from repro.obs.spans import TraceContext
        trace_ctx = TraceContext.for_campaign(program_digest(program),
                                              config_key(config))
    campaign_t0 = time.time()
    executor = CampaignExecutor(program, config, jobs=args.jobs,
                                retries=args.retries,
                                timeout=args.timeout,
                                journal=args.journal,
                                resume=args.resume,
                                trace=trace_ctx)
    records = executor.run_specs(specs)
    if trace_ctx is not None:
        from repro.obs.spans import append_job_span
        append_job_span(args.journal, trace_ctx,
                        os.path.basename(args.file), campaign_t0,
                        time.time(), kind="inject")
    print(f"config:  {config.label()}")
    status = 0
    for spec, record in zip(specs, records):
        print(f"fault:   {spec.describe()}")
        print(f"outcome: {record.outcome.value}  ({record.stop_reason})")
        if record.detection_latency is not None:
            cycles = record.detection_latency_cycles
            print(f"latency: {record.detection_latency} instructions"
                  + (f", {cycles} cycles" if cycles is not None else ""))
        if record.rollback_distance_icount is not None:
            print(f"recover: {record.attempts} attempt(s), rolled "
                  f"back {record.rollback_distance_icount} "
                  f"instruction(s), re-executed "
                  f"{record.reexec_cycles} cycle(s)")
        if record.outcome is Outcome.INFRA_ERROR:
            print(f"         {record.error}")
            status = max(status, 3)
        elif record.outcome in (Outcome.SDC, Outcome.RECOVERY_FAILED):
            status = max(status, 2)
    if args.forensics is not None:
        _write_forensics(program, config, executor, args)
    return status


def _write_forensics(program, config, executor, args) -> None:
    """Replay sampled escapes and write the bundle next to the journal."""
    from repro.forensics import bundle_path_for, write_campaign_forensics
    escapes = executor.escape_specs()
    path = bundle_path_for(args.journal)
    entries = write_campaign_forensics(program, config, escapes,
                                       max_samples=args.forensics,
                                       path=path)
    if not escapes:
        print("forensics: no escapes (SDC/HANG) to replay")
        return
    print(f"forensics: replayed {len(entries)} of {len(escapes)} "
          f"escape(s) -> {path}")
    for entry in entries:
        att = entry["attribution"]
        print(f"  [{entry['index']}] {entry['spec']['kind']} "
              f"{entry['outcome']}: {att['reason']} — {att['detail']}")


def cmd_errormodel(args) -> int:
    from repro.analysis.report import percent
    from repro.faults import Category, compute_error_model
    program = _load_program(args.file)
    model = compute_error_model(program)
    print(f"dynamic direct branches: {model.dynamic_branches}")
    for category in Category:
        label = ("No Error" if category is Category.NO_ERROR
                 else f"Category {category.value}")
        print(f"  {label:11s} {percent(model.probability(category))}")
    return 0


def cmd_suite(args) -> int:
    from repro.cfg import build_cfg
    from repro.workloads import SUITE
    print(f"{'benchmark':15s} {'suite':5s} {'blocks':>6s} "
          f"{'avg-block':>9s} {'indirect':>8s} {'calls':>5s}")
    for spec in SUITE:
        cfg = build_cfg(spec.assemble(args.scale))
        print(f"{spec.name:15s} {spec.suite:5s} {len(cfg):6d} "
              f"{cfg.average_block_size():9.1f} "
              f"{str(spec.uses_indirect):>8s} "
              f"{str(spec.uses_calls):>5s}")
    return 0


def _verify_task(task):
    """Instrument + statically verify one technique (worker-safe)."""
    from repro.instrument import instrument_program, verify_instrumented
    program, technique, policy_value = task
    ip = instrument_program(program, technique, Policy(policy_value))
    return technique, verify_instrumented(ip)


def cmd_verify(args) -> int:
    from repro.faults import MapError, parallel_map
    program = _load_program(args.file)
    techniques = args.technique or ["edgcf"]
    tasks = [(program, technique, args.policy)
             for technique in techniques]
    if args.journal or args.resume:
        print("note: --journal/--resume journal fault campaigns; "
              "verification runs are not journaled")
    if args.forensics is not None:
        print("note: --forensics replays fault-campaign escapes; "
              "static verification injects no faults, so there is "
              "nothing to replay here")
    status = 0
    results = parallel_map(_verify_task, tasks, jobs=args.jobs,
                           retries=args.retries, timeout=args.timeout)
    for task, result in zip(tasks, results):
        if isinstance(result, MapError):
            print(f"[{task[1]}] ERROR: {result.error}")
            status = 1
            continue
        technique, report = result
        prefix = f"[{technique}] " if len(techniques) > 1 else ""
        print(prefix + report.summary())
        if report.violations:
            for pc, block in report.violations:
                print(f"  VIOLATION: check at {pc:#x} fires on a legal "
                      f"path through block {block:#x}")
            status = 1
            continue
        for pc in report.unproven:
            print(f"  unproven: check at {pc:#x} "
                  "(beyond static precision)")
    return status


def cmd_coverage(args) -> int:
    from repro.analysis import compute_coverage_matrix
    from repro.faults.campaign import check_int
    program = _load_program(args.file)
    forensics_path = None
    if args.forensics is not None:
        from repro.forensics import bundle_path_for
        forensics_path = bundle_path_for(args.journal)
    try:
        check_int("per_category", args.per_category, 1)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"effective seed: {args.seed}")
    if args.journal:
        from repro.faults.journal import CampaignJournal, coverage_header
        try:
            CampaignJournal(args.journal).start(
                coverage_header(args.seed, args.per_category,
                                args.backend), args.resume)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    matrix = compute_coverage_matrix(
        program, per_category=args.per_category, seed=args.seed,
        include_cache_level=not args.no_cache_level, jobs=args.jobs,
        retries=args.retries, timeout=args.timeout,
        journal=args.journal, resume=args.resume,
        forensics=args.forensics, forensics_path=forensics_path,
        backend=args.backend)
    print(matrix.table())
    if matrix.forensics:
        total = sum(len(v) for v in matrix.forensics.values())
        print(f"forensics: {total} sampled escape(s) replayed "
              f"-> {forensics_path}")
        for label, entries in matrix.forensics.items():
            for entry in entries:
                att = entry["attribution"]
                print(f"  [{label} #{entry['index']}] "
                      f"{entry['outcome']}: {att['reason']}")
    infra = sum(result.infra for result in matrix.results.values())
    if infra:
        print(f"warning: {infra} run(s) failed in the harness "
              "(INFRA_ERROR) and are excluded from coverage")
    return 0


def cmd_fuzz(args) -> int:
    """Differential fuzzing campaign (see ``docs/fuzzing.md``)."""
    import dataclasses

    from repro.fuzz import FuzzConfig, run_fuzz
    from repro.fuzz.generator import FuzzKnobs

    knobs = FuzzKnobs().scaled(statements=args.statements,
                               max_loop_depth=args.loop_depth,
                               mem_words=args.mem_words)
    try:
        config = FuzzConfig(seed=args.seed, count=args.count, knobs=knobs,
                            detect_every=args.detect_every,
                            max_sites=args.detect_sites,
                            minimize=not args.no_minimize,
                            backend=args.backend,
                            recover=args.recover,
                            mt_every=args.mt_every)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.technique:
        config = dataclasses.replace(
            config, techniques=tuple(args.technique),
            detect_techniques=tuple(
                t for t in config.detect_techniques
                if t in args.technique))
    if args.policy:
        config = dataclasses.replace(
            config, policies=tuple(Policy(p) for p in args.policy))
    print(f"effective seed: {config.seed}")
    if getattr(args, "resume", False):
        print("note: fuzz campaigns are rerun-deterministic; "
              "--resume is ignored", file=sys.stderr)
    report = run_fuzz(config, jobs=args.jobs, retries=args.retries,
                      timeout=args.timeout, journal=args.journal,
                      corpus=args.corpus)
    print(report.summary_line())
    for failure in report.failures:
        print(f"FAIL #{failure.index} [{failure.kind}] "
              f"{failure.detail}")
        if failure.minimized is not None:
            from repro.fuzz.minimizer import instruction_count
            print(f"  minimized to "
                  f"{instruction_count(failure.minimized)} "
                  f"instruction(s) in {failure.shrink_steps} step(s)")
        if failure.corpus_dir:
            print(f"  corpus: {failure.corpus_dir}")
    if not report.passed:
        return 2
    if report.infra_errors:
        print(f"warning: {report.infra_errors} program(s) failed in "
              "the harness (infra)", file=sys.stderr)
        return 3
    return 0


def cmd_explain(args) -> int:
    """Replay one fault against the golden trace and explain it."""
    from repro.faults import PipelineConfig
    from repro.faults.cache import config_from_key
    from repro.forensics import (bundle_path_for, explain_spec,
                                 read_bundle, spec_from_json)
    program = _load_program(args.file)
    if args.bundle or args.journal:
        path = args.bundle or str(bundle_path_for(args.journal))
        try:
            entries = read_bundle(path)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not entries:
            print(f"error: no forensics entries in {path}",
                  file=sys.stderr)
            return 1
        entry = None
        if args.index is None:
            entry = entries[0]
        else:
            for candidate in entries:
                if candidate["index"] == args.index:
                    entry = candidate
                    break
        if entry is None:
            known = sorted(e["index"] for e in entries)
            print(f"error: no entry with spec index {args.index} in "
                  f"{path} (have: {known})", file=sys.stderr)
            return 1
        spec = spec_from_json(entry["spec"])
        config = config_from_key(entry["config"])
    else:
        if not args.fault:
            print("error: give --fault (inline spec) or "
                  "--bundle/--journal (+ --index)", file=sys.stderr)
            return 1
        try:
            check_fault_target(vars(args))
            spec = _parse_fault_spec(program, args, args.fault)
            config = PipelineConfig.from_params(vars(args))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    _, _, text = explain_spec(program, config, spec)
    print(text)
    return 0


def cmd_stats(args) -> int:
    """Render a metrics snapshot (``--metrics`` file or live server)."""
    from repro.obs.exporters import (jsonl_text, load_snapshot,
                                     prometheus_text, render_stats)
    if args.url:
        from repro.service.client import ServiceClient, ServiceError
        try:
            snap = ServiceClient(args.url).metrics()
        except (ServiceError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    elif not args.file:
        print("error: give a snapshot file or --url", file=sys.stderr)
        return 1
    else:
        try:
            snap = load_snapshot(args.file)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.format == "prom":
        sys.stdout.write(prometheus_text(snap))
    elif args.format == "jsonl":
        sys.stdout.write(jsonl_text(snap))
    else:
        print(render_stats(snap))
    return 0


def cmd_profile(args) -> int:
    """Hot-block profile of one run: per-block icount/cycle
    attribution with annotated disassembly of the top-N blocks."""
    from repro.exec.profiler import profile_dbt, profile_native
    from repro.machine import StopReason
    program = _load_program(args.file)
    if args.dbt:
        _, result, profiler = profile_dbt(program,
                                          max_steps=args.max_steps)
        stop = result.stop
    else:
        _, stop, profiler = profile_native(program,
                                           backend=args.backend,
                                           max_steps=args.max_steps)
    report = profiler.render_report(program, top=args.top)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
        print(f"profile written to {args.out}")
    else:
        print(report)
    if stop.reason is not StopReason.HALTED:
        print(f"note: run stopped with {stop.reason.name}",
              file=sys.stderr)
        return 2
    return 0


def cmd_trace_export(args) -> int:
    """Export a campaign trace sidecar as Chrome trace-event JSON."""
    from repro.obs.spans import (export_chrome_trace, parse_entries,
                                 read_entries, trace_sidecar_path,
                                 validate_chrome_trace)
    from repro.service.client import ServiceClient, ServiceError
    try:
        if args.journal:
            entries = read_entries(trace_sidecar_path(args.journal))
        elif args.url and args.job:
            artifact = trace_sidecar_path("journal.jsonl")
            raw = ServiceClient(args.url).artifact(args.job, artifact)
            entries = parse_entries(raw.decode().splitlines(),
                                    f"job {args.job} {artifact}")
        else:
            print("error: give --journal PATH, or --url URL --job ID",
                  file=sys.stderr)
            return 1
    except (OSError, ValueError, ServiceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not entries:
        print("error: no trace spans found (campaigns record them "
              "only when run with --journal)", file=sys.stderr)
        return 1
    trace = export_chrome_trace(entries, args.out)
    problems = validate_chrome_trace(trace)
    spans = sum(1 for event in trace["traceEvents"]
                if event["ph"] == "X")
    print(f"{args.out}: {spans} span(s) across "
          f"{sum(1 for e in trace['traceEvents'] if e['ph'] == 'M')} "
          f"process(es) — load in Perfetto or chrome://tracing")
    if problems:
        for problem in problems:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    """Run the campaign service until SIGTERM/SIGINT, then drain."""
    import signal
    import threading

    from repro.service import create_server
    server = create_server(args.root, host=args.host, port=args.port,
                           workers=args.workers,
                           max_active_per_tenant=args.max_active,
                           max_running_per_tenant=args.max_running)
    host, port = server.server_address[:2]
    print(f"repro service on http://{host}:{port} "
          f"(state root: {args.root})", flush=True)
    stop = threading.Event()

    def _signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _signal)
    signal.signal(signal.SIGINT, _signal)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        while not stop.wait(0.2):
            pass
    finally:
        print("draining: running jobs stop at the next chunk and are "
              "requeued; journals keep the completed work", flush=True)
        server.orchestrator.drain()
        server.shutdown()
        server.server_close()
    print("drained; interrupted jobs resume on the next `repro serve`")
    return 0


def cmd_submit(args) -> int:
    """Submit a job JSON to a running service."""
    import json

    from repro.service.client import ServiceClient, ServiceError
    if args.payload == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.payload) as handle:
            payload = json.load(handle)
    if args.program:
        with open(args.program) as handle:
            payload["program"] = handle.read()
        payload.setdefault("name", os.path.basename(args.program))
    if args.tenant:
        payload["tenant"] = args.tenant
    if args.priority is not None:
        payload["priority"] = args.priority
    client = ServiceClient(args.url)
    try:
        job = client.submit(payload)
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"job {job['id']} {job['status']}")
    if not args.wait:
        return 0
    try:
        for event in client.events(job["id"]):
            if event["event"] == "progress":
                print(f"  progress {event['completed']}"
                      f"/{event['total']}")
            elif event["event"] == "status":
                print(f"  status {event['status']}")
            if event["event"] == "end":
                break
        final = client.job(job["id"])
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"job {final['id']} {final['status']}")
    if final.get("error"):
        print(f"  {final['error']}", file=sys.stderr)
    return 0 if final["status"] == "done" else 2


def cmd_jobs(args) -> int:
    """List/inspect/cancel/follow jobs on a running service."""
    import json

    from repro.service.client import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        if args.cancel:
            client.cancel(args.cancel)
            print(f"cancel requested for {args.cancel}")
            return 0
        if args.journal:
            sys.stdout.buffer.write(client.journal(args.journal))
            return 0
        if args.follow:
            for event in client.events(args.follow):
                print(json.dumps(event))
                if event["event"] == "end":
                    break
            return 0
        if args.job:
            print(json.dumps(client.job(args.job), indent=1))
            return 0
        jobs = client.jobs(args.tenant)
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'id':12s} {'kind':8s} {'tenant':10s} {'status':9s} "
          f"{'progress':>9s} name")
    for job in jobs:
        progress = (f"{job['completed']}/{job['total']}"
                    if job["total"] else "-")
        print(f"{job['id']:12s} {job['kind']:8s} {job['tenant']:10s} "
              f"{job['status']:9s} {progress:>9s} {job['name']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="control-flow error detection toolkit (CGO'06 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def backend_arg(p):
        from repro.exec import BACKEND_NAMES
        p.add_argument(
            "--backend", default="interp", choices=list(BACKEND_NAMES),
            help="execution backend: 'interp' is the reference "
                 "dispatch-table interpreter, 'block' compiles guest "
                 "basic blocks to specialized closures (identical "
                 "behaviour, much faster)")

    def obs_args(p):
        p.add_argument(
            "--metrics", default=None, metavar="PATH",
            help="write a metrics snapshot on exit (.prom Prometheus "
                 "text, .jsonl event log, anything else the JSON "
                 "snapshot `repro stats` reads)")
        p.add_argument(
            "--trace", default=None, metavar="PATH",
            help="append every finished span to this JSONL log, one "
                 "trace-event entry per line (the entry format of "
                 "campaign trace sidecars)")

    def common_exec(p):
        p.add_argument("file", help="assembly source file")
        p.add_argument("--technique", "-t", default=None,
                       choices=list(TECHNIQUES))
        p.add_argument("--policy", default="allbb",
                       choices=[p.value for p in Policy])
        p.add_argument("--update", default="jcc",
                       choices=[u.value for u in UpdateStyle])
        p.add_argument("--dataflow", action="store_true",
                       help="enable SWIFT-style duplication")
        p.add_argument("--max-steps", type=int, default=50_000_000)
        backend_arg(p)

    run_parser = sub.add_parser("run", help="execute a program")
    common_exec(run_parser)
    run_parser.add_argument("--pipeline", default="dbt",
                            choices=["native", "dbt", "static"])
    obs_args(run_parser)
    run_parser.set_defaults(func=cmd_run)

    dis = sub.add_parser("disasm", help="print the listing")
    dis.add_argument("file")
    dis.set_defaults(func=cmd_disasm)

    def jobs_arg(p):
        p.add_argument(
            "--jobs", "-j", type=int, default=1,
            help="worker processes for independent runs "
                 "(0 = one per CPU; default 1 = serial)")

    def resilience_args(p):
        p.add_argument(
            "--retries", type=int, default=None, metavar="N",
            help="re-dispatches of a failing work unit before it is "
                 "recorded as INFRA_ERROR (default 2)")
        p.add_argument(
            "--timeout", type=float, default=None, metavar="SECONDS",
            help="per-chunk host wall-clock deadline; an overdue "
                 "worker is killed and the pathological spec isolated "
                 "(pooled mode only)")
        p.add_argument(
            "--journal", default=None, metavar="PATH",
            help="append each completed chunk to this JSONL journal")
        p.add_argument(
            "--resume", action="store_true",
            help="replay completed chunks from --journal and run only "
                 "the remainder (byte-identical to an uninterrupted "
                 "campaign)")

    def forensics_arg(p):
        p.add_argument(
            "--forensics", nargs="?", const=8, type=int, default=None,
            metavar="N",
            help="replay up to N sampled escapes (SDC/HANG) through "
                 "the golden-divergence analyzer and write a JSONL "
                 "forensics bundle next to the journal (default N=8)")

    def recovery_args(p):
        from repro.recovery import (DEFAULT_CHECKPOINT_INTERVAL,
                                    DEFAULT_MAX_RETRIES)
        p.add_argument(
            "--recover", action="store_true",
            help="checkpoint/rollback recovery: on detection, roll "
                 "back to the last checkpoint and re-execute "
                 "(see docs/recovery.md)")
        p.add_argument(
            "--checkpoint-interval", type=int, default=None,
            metavar="INSNS",
            help="instructions between checkpoints (default "
                 f"{DEFAULT_CHECKPOINT_INTERVAL}; adapts at runtime)")
        p.add_argument(
            "--max-retries", type=int, default=None, metavar="N",
            help="recovery attempts before giving up (default "
                 f"{DEFAULT_MAX_RETRIES})")

    def threads_args(p):
        from repro.threads import DEFAULT_QUANTUM, POLICIES
        p.add_argument(
            "--threads", action="store_true",
            help="run under the multithreaded guest machine "
                 "(deterministic preemptive scheduler; native/static "
                 "pipelines only — see docs/threads.md)")
        p.add_argument(
            "--quantum", type=int, default=None, metavar="INSNS",
            help="preemption quantum in retired instructions "
                 f"(default {DEFAULT_QUANTUM})")
        p.add_argument("--sched-policy", default="rr",
                       choices=list(POLICIES),
                       help="scheduling policy (default rr)")
        p.add_argument(
            "--sched-seed", type=int, default=0,
            help="tie-break seed: same seed, same schedule "
                 "(default 0)")
        p.add_argument(
            "--no-sig-swap", action="store_true",
            help="do NOT context-switch signature registers; resync "
                 "them to statically-expected values instead — "
                 "reproduces cross-context signature escapes")
        p.add_argument(
            "--thread", type=int, default=None, metavar="TID",
            help="restrict --fault occurrence counting to this guest "
                 "thread")

    inj = sub.add_parser("inject", help="run with injected fault(s)")
    common_exec(inj)
    inj.add_argument("--branch", default="0",
                     help="guest branch: symbol[+off] or address")
    inj.add_argument("--occurrence", type=int, default=1)
    inj.add_argument(
        "--fault", required=True, action="append",
        help="offset:BIT | flag:BIT | direction | redirect:ADDR | "
             "register:REG,BIT,ICOUNT | sched-rotate:SWITCH | "
             "sched-ctx:SWITCH,TID,REG,BIT (repeatable)")
    jobs_arg(inj)
    resilience_args(inj)
    forensics_arg(inj)
    recovery_args(inj)
    threads_args(inj)
    obs_args(inj)
    inj.set_defaults(func=cmd_inject)

    err = sub.add_parser("errormodel",
                         help="branch-error probabilities")
    err.add_argument("file")
    err.set_defaults(func=cmd_errormodel)

    suite_parser = sub.add_parser("suite", help="list the benchmarks")
    suite_parser.add_argument("--scale", default="test",
                              choices=["test", "small", "ref"])
    suite_parser.set_defaults(func=cmd_suite)

    ver = sub.add_parser(
        "verify", help="statically verify instrumented code")
    ver.add_argument("file")
    ver.add_argument("--technique", "-t", action="append", default=None,
                     choices=["ecf", "edgcf", "rcf", "cfcss", "ecca"],
                     help="technique to verify (repeatable; "
                          "default edgcf)")
    ver.add_argument("--policy", default="allbb",
                     choices=[p.value for p in Policy])
    backend_arg(ver)
    jobs_arg(ver)
    resilience_args(ver)
    forensics_arg(ver)
    obs_args(ver)
    ver.set_defaults(func=cmd_verify)

    cov = sub.add_parser("coverage", help="coverage campaign")
    cov.add_argument("file")
    cov.add_argument("--per-category", type=int, default=8)
    cov.add_argument("--no-cache-level", action="store_true")
    cov.add_argument("--seed", type=int, default=2006,
                     help="fault-sampling seed (default 2006); the "
                          "effective seed is echoed and journaled")
    backend_arg(cov)
    jobs_arg(cov)
    resilience_args(cov)
    forensics_arg(cov)
    obs_args(cov)
    cov.set_defaults(func=cmd_coverage)

    fz = sub.add_parser(
        "fuzz",
        help="differential fuzzing campaign (generator + oracles + "
             "minimizer)")
    fz.add_argument("--seed", type=int, default=2006,
                    help="master campaign seed; every generated "
                         "program and fault sample derives from it "
                         "(default 2006)")
    fz.add_argument("--count", type=int, default=50,
                    help="programs to generate (default 50)")
    fz.add_argument("--statements", type=int, default=24,
                    help="statements per generated program")
    fz.add_argument("--loop-depth", type=int, default=2,
                    help="maximum loop nesting depth")
    fz.add_argument("--mem-words", type=int, default=16,
                    help="scratch-buffer words per program")
    fz.add_argument("--technique", "-t", action="append", default=None,
                    choices=["ecf", "edgcf", "rcf", "cfcss", "ecca"],
                    help="restrict to these techniques (repeatable; "
                         "default: all)")
    fz.add_argument("--policy", action="append", default=None,
                    choices=[p.value for p in Policy],
                    help="checking placement policies to cross with "
                         "each technique (repeatable; default allbb)")
    fz.add_argument("--detect-every", type=int, default=8,
                    help="run the exhaustive detection oracle on every "
                         "Nth program (0 disables; default 8)")
    fz.add_argument("--detect-sites", type=int, default=12,
                    help="max branch sites per detection enumeration")
    fz.add_argument("--no-minimize", action="store_true",
                    help="skip delta-debugging of failing programs")
    fz.add_argument("--corpus", default=None, metavar="DIR",
                    help="persist failing programs (original + "
                         "minimized + report) under this directory")
    fz.add_argument("--recover", action="store_true",
                    help="run the recovery oracle on every detection-"
                         "oracle program: each detected fault must "
                         "end RECOVERED with a byte-identical digest")
    fz.add_argument("--mt-every", type=int, default=0,
                    help="run the multithreaded oracle (seed-varied MT "
                         "kernel, random scheduler parameters, cross-"
                         "backend schedule parity) on every Nth "
                         "program (0 disables; default 0)")
    backend_arg(fz)
    jobs_arg(fz)
    resilience_args(fz)
    obs_args(fz)
    fz.set_defaults(func=cmd_fuzz)

    stats = sub.add_parser(
        "stats", help="render a --metrics snapshot or live server "
                      "metrics")
    stats.add_argument("file", nargs="?", default=None,
                       help="JSON snapshot written by --metrics")
    stats.add_argument("--format", default="table",
                       choices=["table", "prom", "jsonl"])
    stats.add_argument(
        "--url", default=None, metavar="URL",
        help="read the live snapshot from a running `repro serve` "
             "instead of a file (its /metrics endpoint)")
    stats.set_defaults(func=cmd_stats)

    prof = sub.add_parser(
        "profile", help="hot-block profile: per-block icount/cycle "
                        "attribution with annotated disassembly")
    prof.add_argument("file", help="assembly source file")
    prof.add_argument("--top", type=int, default=10, metavar="N",
                      help="blocks to list (default 10)")
    prof.add_argument("--dbt", action="store_true",
                      help="profile under the DBT and map code-cache "
                           "samples back to guest blocks")
    prof.add_argument("--max-steps", type=int, default=50_000_000)
    prof.add_argument("--out", "-o", default=None, metavar="PATH",
                      help="write the report to a file instead of "
                           "stdout")
    backend_arg(prof)
    prof.set_defaults(func=cmd_profile)

    trace = sub.add_parser(
        "trace", help="work with campaign trace sidecars")
    trace_sub = trace.add_subparsers(dest="trace_command",
                                     required=True)
    texp = trace_sub.add_parser(
        "export", help="export a trace sidecar as Chrome trace-event "
                       "JSON (Perfetto / chrome://tracing)")
    texp.add_argument(
        "--journal", default=None, metavar="PATH",
        help="campaign journal whose <journal>.trace.jsonl sidecar "
             "to export")
    texp.add_argument(
        "--url", default=None, metavar="URL",
        help="fetch the sidecar from a running service instead")
    texp.add_argument(
        "--job", default=None, metavar="ID",
        help="service job id (with --url)")
    texp.add_argument("--out", "-o", default="trace.json",
                      metavar="PATH",
                      help="output file (default trace.json)")
    texp.set_defaults(func=cmd_trace_export)

    srv = sub.add_parser(
        "serve", help="run the campaign service (REST + SSE + "
                      "Prometheus; see docs/service.md)")
    srv.add_argument("--root", default="service-data",
                     help="state directory: job workspaces, journals "
                          "and the shared artifact cache "
                          "(default ./service-data)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8642,
                     help="TCP port (0 = ephemeral; default 8642)")
    srv.add_argument("--workers", type=int, default=2,
                     help="jobs that may run concurrently (each job's "
                          "own params.jobs fan out further; default 2)")
    srv.add_argument("--max-active", type=int, default=16,
                     metavar="N",
                     help="per-tenant quota on queued+running jobs; "
                          "submissions beyond it get HTTP 429 "
                          "(default 16)")
    srv.add_argument("--max-running", type=int, default=2,
                     metavar="N",
                     help="per-tenant concurrency cap; excess jobs "
                          "wait in the queue (default 2)")
    srv.set_defaults(func=cmd_serve)

    sb = sub.add_parser(
        "submit", help="submit a job JSON to a running service")
    sb.add_argument("payload",
                    help="job JSON file ('-' = stdin); see "
                         "docs/service.md for the schema")
    sb.add_argument("--url", default="http://127.0.0.1:8642")
    sb.add_argument("--program", default=None, metavar="FILE",
                    help="read this assembly file into the payload's "
                         "'program' field")
    sb.add_argument("--tenant", default=None)
    sb.add_argument("--priority", type=int, default=None)
    sb.add_argument("--wait", action="store_true",
                    help="stream events until the job ends; exit 0 "
                         "only if it finished 'done'")
    sb.set_defaults(func=cmd_submit)

    jb = sub.add_parser(
        "jobs", help="list/inspect/cancel service jobs")
    jb.add_argument("--url", default="http://127.0.0.1:8642")
    jb.add_argument("--tenant", default=None,
                    help="restrict the listing to one tenant")
    jb.add_argument("--job", default=None, metavar="ID",
                    help="print one job's full state as JSON")
    jb.add_argument("--cancel", default=None, metavar="ID")
    jb.add_argument("--journal", default=None, metavar="ID",
                    help="print the job's campaign journal (JSONL)")
    jb.add_argument("--follow", default=None, metavar="ID",
                    help="stream the job's SSE events as JSON lines")
    jb.set_defaults(func=cmd_jobs)

    exp = sub.add_parser(
        "explain",
        help="per-run fault forensics (golden-divergence replay)")
    common_exec(exp)
    exp.add_argument("--pipeline", default="dbt",
                     choices=["native", "dbt", "static"])
    exp.add_argument("--branch", default="0",
                     help="guest branch: symbol[+off] or address")
    exp.add_argument("--occurrence", type=int, default=1)
    exp.add_argument(
        "--fault", default=None,
        help="inline spec: offset:BIT | flag:BIT | direction | "
             "redirect:ADDR | register:REG,BIT,ICOUNT")
    exp.add_argument(
        "--bundle", default=None, metavar="PATH",
        help="load the spec from this forensics bundle instead")
    exp.add_argument(
        "--journal", default=None, metavar="PATH",
        help="campaign journal whose adjacent forensics bundle "
             "(<journal>.forensics.jsonl) holds the spec")
    exp.add_argument(
        "--index", type=int, default=None,
        help="global spec index within the bundle (default: first "
             "entry)")
    recovery_args(exp)
    threads_args(exp)
    exp.set_defaults(func=cmd_explain)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with obs.session(getattr(args, "metrics", None),
                         getattr(args, "trace", None)):
            return args.func(args)
    except BrokenPipeError:
        # stdout reader went away (e.g. `repro stats ... | head`);
        # point stdout at devnull so the interpreter-shutdown flush
        # does not raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
