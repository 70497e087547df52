"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compile FILE`` — apply the COMP pipeline to a MiniC source file and
  print the transformed source (``--report`` adds what fired and why);
* ``run FILE`` — execute a MiniC program on the simulated machine, with
  arrays/scalars declared on the command line;
* ``bench [NAMES...]`` — run Table II benchmarks (three variants each)
  and print the speedup rows;
* ``faults [NAMES...]`` — run a seeded fault-injection campaign and
  check that recovery preserves bit-identical outputs;
* ``trace FILE`` — execute a program with the observability subsystem
  enabled and export a Perfetto-compatible Chrome trace plus a metrics
  snapshot (see ``docs/observability.md``);
* ``report`` — regenerate the paper's full evaluation (all figures and
  tables);
* ``serve`` — run the campaign service: a long-lived async job runner
  with admission control, a persistent warm worker pool, and a shared
  result store (see ``docs/service.md``);
* ``submit`` — send one job (run/bench/faults) to a running service and
  stream its events back;
* ``replay-trace`` — generate a seeded bursty traffic trace and replay
  it through the service; the summary JSON is byte-identical for any
  worker count.

``run``, ``bench``, and ``faults`` also accept ``--trace FILE`` to write
the same Chrome trace alongside their normal output (multi-run commands
merge each run as its own process lane).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import __version__
from repro.minic.parser import parse
from repro.minic.printer import to_source
from repro.runtime.executor import ENGINES, Machine, run_program
from repro.transforms.pipeline import CompOptimizer, OptimizationPlan
from repro.transforms.streaming import StreamingOptions

#: Exit code for a fault campaign that was interrupted before every
#: scenario cell ran: the completed cells all honoured the recovery
#: contract, but the sweep is not the full evidence the seed promises.
EXIT_PARTIAL = 3

#: Exit code for a submission the service rejected under backpressure
#: (resubmit after the printed retry-after hint); EX_TEMPFAIL.
EXIT_RETRY = 75

#: Exit code when the campaign service cannot be reached at all
#: (connection refused — wrong port, or no service running); EX_UNAVAILABLE.
EXIT_UNAVAILABLE = 69

#: Exit code for a job that hit its --deadline-seconds wall-clock budget
#: (mirrors the conventional `timeout(1)` exit code).
EXIT_TIMEOUT = 124


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COMP (MICRO 2014) reproduction: compiler optimizations "
        "for manycore offload",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compile", help="optimize a MiniC source file")
    comp.add_argument("file", help="MiniC source path ('-' for stdin)")
    comp.add_argument("--blocks", type=int, default=20,
                      help="streaming block count (default 20)")
    comp.add_argument("--no-streaming", action="store_true")
    comp.add_argument("--no-merging", action="store_true")
    comp.add_argument("--no-regularization", action="store_true")
    comp.add_argument("--no-double-buffer", action="store_true")
    comp.add_argument("--no-thread-reuse", action="store_true")
    comp.add_argument("--report", action="store_true",
                      help="print which optimizations fired")

    runp = sub.add_parser("run", help="execute a MiniC program")
    runp.add_argument("file", help="MiniC source path ('-' for stdin)")
    runp.add_argument("--array", action="append", default=[],
                      metavar="NAME=SIZE[:DTYPE[:KIND]]",
                      help="declare an input array; KIND is zeros|ones|"
                           "arange|random (default random)")
    runp.add_argument("--scalar", action="append", default=[],
                      metavar="NAME=VALUE")
    runp.add_argument("--scale", type=float, default=1.0,
                      help="simulation scale factor")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--optimize", action="store_true",
                      help="apply the COMP pipeline before running")
    runp.add_argument("--engine", choices=ENGINES, default="auto",
                      help="interpreter engine: generated-numpy codegen, "
                           "batched numpy fast path, or the tree walker; "
                           "auto picks the fastest eligible tier "
                           "(codegen -> batch -> tree, default auto)")
    runp.add_argument("--print-array", action="append", default=[],
                      metavar="NAME", help="print an array's head afterwards")
    runp.add_argument("--inject-faults", action="store_true",
                      help="run under a fault plan derived from --seed "
                           "and report the recovery stats")
    runp.add_argument("--devices", type=int, default=1, metavar="N",
                      help="simulate an offload fleet of N devices with "
                           "block sharding and device-loss failover; "
                           "outputs are bit-identical for any N "
                           "(default 1)")
    runp.add_argument("--trace", metavar="FILE",
                      help="record the run and write a Chrome/Perfetto "
                           "trace JSON to FILE")

    trace = sub.add_parser(
        "trace",
        help="execute a program with tracing enabled and export the trace",
    )
    trace.add_argument("file", help="MiniC source path ('-' for stdin)")
    trace.add_argument("--array", action="append", default=[],
                       metavar="NAME=SIZE[:DTYPE[:KIND]]",
                       help="declare an input array; KIND is zeros|ones|"
                            "arange|random (default random)")
    trace.add_argument("--scalar", action="append", default=[],
                       metavar="NAME=VALUE")
    trace.add_argument("--scale", type=float, default=1.0,
                       help="simulation scale factor")
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--optimize", action="store_true",
                       help="apply the COMP pipeline before running")
    trace.add_argument("--engine", choices=ENGINES, default="auto")
    trace.add_argument("--out", metavar="FILE", default="trace.json",
                       help="Chrome/Perfetto trace output path "
                            "(default trace.json)")
    trace.add_argument("--metrics", metavar="FILE",
                       help="also write the metrics snapshot JSON to FILE")
    trace.add_argument("--flame", metavar="FILE",
                       help="also write collapsed-stack flamegraph lines "
                            "to FILE")
    trace.add_argument("--check", action="store_true",
                       help="validate the exported trace against the "
                            "Chrome trace-event schema and fail on problems")

    bench = sub.add_parser("bench", help="run Table II benchmarks")
    bench.add_argument("names", nargs="*", help="benchmark names (default all)")
    bench.add_argument("--engine", choices=ENGINES, default=None,
                       help="interpreter engine for all runs: codegen, "
                            "batch, tree, or auto (default: per-workload)")
    bench.add_argument("--seed", type=int, default=None,
                       help="reseed workload input generation "
                            "(default: fixed per-workload inputs)")
    bench.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="fan benchmarks out over N worker processes; "
                            "rows keep their order and values regardless "
                            "of N (default 1, incompatible with --trace)")
    bench.add_argument("--devices", type=int, default=1, metavar="N",
                       help="run every variant on a simulated fleet of N "
                            "offload devices (default 1); results stay "
                            "bit-identical for any N")
    bench.add_argument("--trace", metavar="FILE",
                       help="record every run and write one merged "
                            "Chrome/Perfetto trace JSON to FILE")

    faults = sub.add_parser(
        "faults",
        help="run a seeded fault-injection campaign over the suite",
    )
    faults.add_argument("names", nargs="*",
                        help="benchmark names (default all)")
    faults.add_argument("--scenarios", type=int, default=3,
                        help="fault scenarios per benchmark (default 3)")
    faults.add_argument("--seed", type=int, default=0,
                        help="campaign seed; also reseeds workload inputs")
    faults.add_argument("--variant", choices=("cpu", "mic", "opt"),
                        default="opt")
    faults.add_argument("--engine", choices=ENGINES, default=None,
                        help="interpreter engine for every scenario: "
                             "codegen, batch, tree, or auto "
                             "(default: per-workload)")
    faults.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan scenario cells out over N worker "
                             "processes; per-cell seeds derive from "
                             "--seed, so the summary JSON is byte-"
                             "identical for any N (default 1, "
                             "incompatible with --trace)")
    faults.add_argument("--devices", type=int, default=1, metavar="N",
                        help="run every scenario on a simulated fleet of "
                             "N offload devices with device-loss failover "
                             "(default 1); rate keys may target one card "
                             "with a devK: prefix, e.g. dev1:device")
    faults.add_argument("--rate", action="append", default=[],
                        metavar="SITE=PROB",
                        help="override a fault site's per-operation "
                             "probability (sites: h2d d2h kernel alloc "
                             "signal device arena; silent kinds via "
                             "SITE:KIND, e.g. h2d:silent kernel:sdc; "
                             "prefix devK: to scope a rate to one fleet "
                             "device)")
    faults.add_argument("--list-sites", action="store_true",
                        help="print the site x kind fault taxonomy with "
                             "default rates and exit")
    faults.add_argument("--policy", action="append", default=[],
                        metavar="KEY=VAL",
                        help="override a ResiliencePolicy knob, e.g. "
                             "checkpoint_interval=4, max_resets=2, "
                             "backoff_max=0.002, integrity_mode=full; "
                             "unknown keys are errors")
    faults.add_argument("--out", metavar="FILE",
                        help="write the campaign summary JSON to FILE")
    faults.add_argument("--trace", metavar="FILE",
                        help="record every fault scenario and write one "
                             "merged Chrome/Perfetto trace JSON to FILE")

    tune = sub.add_parser(
        "tune",
        help="profile a program and stream it with the model-chosen block "
        "count (Section III-B)",
    )
    tune.add_argument("file", help="MiniC source path ('-' for stdin)")
    tune.add_argument("--array", action="append", default=[],
                      metavar="NAME=SIZE[:DTYPE[:KIND]]")
    tune.add_argument("--scalar", action="append", default=[],
                      metavar="NAME=VALUE")
    tune.add_argument("--scale", type=float, default=1.0)
    tune.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run the campaign service (async job runner over TCP)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8753,
                       help="TCP port (0 picks an ephemeral port, "
                            "default 8753)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="persistent warm worker processes; 0 executes "
                            "jobs inline on the event loop (default 0)")
    serve.add_argument("--max-depth", type=int, default=64, metavar="N",
                       help="hard queue-depth ceiling (default 64)")
    serve.add_argument("--high-water", type=int, default=None, metavar="N",
                       help="queue depth where admission starts rejecting "
                            "with a retry-after hint (default 75%% of "
                            "--max-depth)")
    serve.add_argument("--grace-seconds", type=float, default=30.0,
                       metavar="S",
                       help="on SIGTERM/SIGINT/shutdown, wait this long for "
                            "in-flight jobs before cancelling them "
                            "(default 30)")
    serve.add_argument("--final-stats", action="store_true",
                       help="print a final service snapshot (JSON) after "
                            "the drain completes")
    serve.add_argument("--store-max-entries", type=int, default=None,
                       metavar="N",
                       help="bound the shared result store to N entries "
                            "with LRU eviction (default unbounded)")
    serve.add_argument("--tenant-rate", type=float, default=None,
                       metavar="R",
                       help="per-tenant admission rate limit, jobs/second "
                            "(default off)")
    serve.add_argument("--tenant-burst", type=float, default=4.0,
                       metavar="B",
                       help="per-tenant token-bucket burst capacity "
                            "(default 4)")
    serve.add_argument("--breaker-failures", type=int, default=None,
                       metavar="K",
                       help="open a tenant's circuit breaker after K "
                            "consecutive job failures (default off)")
    serve.add_argument("--breaker-cooldown", type=float, default=30.0,
                       metavar="S",
                       help="seconds an open breaker sheds load before its "
                            "half-open probe (default 30)")
    serve.add_argument("--state-dir", metavar="DIR", default=None,
                       help="durability: write-ahead job journal + "
                            "persistent result store under DIR; restart on "
                            "the same DIR replays the journal and warms "
                            "the store (default off)")
    serve.add_argument("--sync", choices=("always", "batch", "off"),
                       default="batch",
                       help="fsync cadence for the state dir: every append, "
                            "batched, or never (default batch)")

    submit = sub.add_parser(
        "submit",
        help="submit one job to a running campaign service",
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8753)
    submit.add_argument("--kind", choices=("run", "bench", "faults"),
                        default="bench")
    submit.add_argument("--workload", metavar="NAME",
                        help="benchmark name (bench/faults kinds)")
    submit.add_argument("--file", metavar="FILE",
                        help="MiniC source path for --kind run "
                             "('-' for stdin)")
    submit.add_argument("--array", action="append", default=[],
                        metavar="NAME=SIZE[:DTYPE[:KIND]]")
    submit.add_argument("--scalar", action="append", default=[],
                        metavar="NAME=VALUE")
    submit.add_argument("--optimize", action="store_true")
    submit.add_argument("--scale", type=float, default=1.0)
    submit.add_argument("--variant", choices=("cpu", "mic", "opt"),
                        default="opt")
    submit.add_argument("--scenario", type=int, default=0,
                        help="fault scenario index (faults kind)")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--engine", choices=ENGINES, default=None)
    submit.add_argument("--devices", type=int, default=1, metavar="N")
    submit.add_argument("--rate", action="append", default=[],
                        metavar="SITE=PROB",
                        help="fault rate override (faults kind)")
    submit.add_argument("--policy", action="append", default=[],
                        metavar="KEY=VAL",
                        help="ResiliencePolicy override (faults kind)")
    submit.add_argument("--job-trace", action="store_true",
                        help="return the job's Chrome trace events in the "
                             "result payload")
    submit.add_argument("--priority", type=int, default=1,
                        help="scheduling priority, lower runs first "
                             "(default 1)")
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--deadline-seconds", type=float, default=None,
                        metavar="S",
                        help="server-side wall-clock deadline; past it the "
                             "job ends with a terminal 'timeout' event "
                             "(default none)")
    submit.add_argument("--timeout", type=float, default=300.0,
                        help="client-side wait in wall seconds "
                             "(default 300)")
    submit.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry a rejected (backpressure/draining) or "
                             "refused-connection submission up to N times, "
                             "honoring the server's retry_after hint "
                             "(default 0: fail immediately)")
    submit.add_argument("--retry-base", type=float, default=0.25,
                        metavar="S",
                        help="base backoff delay in seconds; attempt k "
                             "waits max(hint, S*2^k), capped at 30s "
                             "(default 0.25)")

    replay = sub.add_parser(
        "replay-trace",
        help="replay a seeded synthetic traffic trace through the service",
    )
    replay.add_argument("--spec", metavar="FILE",
                        help="trace-spec JSON (see docs/service.md); "
                             "flags below are ignored when given")
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--requests", type=int, default=24,
                        help="arrivals to generate (default 24)")
    replay.add_argument("--base-rate", type=float, default=2.0,
                        help="baseline arrivals per virtual second "
                             "(default 2.0)")
    replay.add_argument("--burst-factor", type=float, default=5.0,
                        help="rate multiplier during bursts (default 5.0)")
    replay.add_argument("--tenants", type=int, default=3)
    replay.add_argument("--tenant-skew", type=float, default=1.1,
                        help="Zipf exponent of the tenant weights "
                             "(default 1.1)")
    replay.add_argument("--scenarios", type=int, default=2,
                        help="fault scenario pool for chaos jobs "
                             "(default 2)")
    replay.add_argument("--engine", choices=ENGINES, default=None)
    replay.add_argument("--devices", type=int, default=1, metavar="N")
    replay.add_argument("--rate", action="append", default=[],
                        metavar="SITE=PROB",
                        help="fault rates for the chaos job class "
                             "(default: plan defaults)")
    replay.add_argument("--policy", action="append", default=[],
                        metavar="KEY=VAL",
                        help="ResiliencePolicy overrides for chaos jobs")
    replay.add_argument("--model-servers", type=int, default=2, metavar="K",
                        help="abstract servers in the virtual-time queue "
                             "model; part of the spec, NOT the worker "
                             "count (default 2)")
    replay.add_argument("--max-depth", type=int, default=32, metavar="N")
    replay.add_argument("--high-water", type=int, default=None, metavar="N")
    replay.add_argument("--tenant-rate", type=float, default=None,
                        metavar="R",
                        help="virtual-time per-tenant rate limit, "
                             "jobs/second (default off)")
    replay.add_argument("--tenant-burst", type=float, default=4.0,
                        metavar="B",
                        help="per-tenant token-bucket burst (default 4)")
    replay.add_argument("--breaker-failures", type=int, default=None,
                        metavar="K",
                        help="open a tenant's virtual-time breaker after K "
                             "consecutive failed jobs (default off)")
    replay.add_argument("--breaker-cooldown", type=float, default=5.0,
                        metavar="S",
                        help="virtual seconds an open breaker sheds load "
                             "(default 5)")
    replay.add_argument("--workers", type=int, default=0, metavar="N",
                        help="worker processes for the execution phase; "
                             "0 = inline; the summary is byte-identical "
                             "for any value (default 0)")
    replay.add_argument("--kill-workers", type=int, default=0, metavar="N",
                        help="chaos mode: SIGKILL N pool workers while the "
                             "execution phase runs (requires --workers >= "
                             "1); the summary must stay byte-identical")
    replay.add_argument("--state-dir", metavar="DIR", default=None,
                        help="durability: journal the execution phase under "
                             "DIR; a killed replay rerun on the same DIR "
                             "recovers journaled jobs and cached results "
                             "instead of recomputing (default off)")
    replay.add_argument("--sync", choices=("always", "batch", "off"),
                        default="batch",
                        help="fsync cadence for --state-dir (default batch)")
    replay.add_argument("--out", metavar="FILE",
                        help="write the replay summary JSON to FILE")
    replay.add_argument("--trace", metavar="FILE",
                        help="also record every job and write one merged "
                             "Chrome/Perfetto trace JSON to FILE")

    sub.add_parser("report", help="regenerate the paper's evaluation")
    return parser


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _plan_from_args(args: argparse.Namespace) -> OptimizationPlan:
    return OptimizationPlan(
        streaming=not args.no_streaming,
        merging=not args.no_merging,
        regularization=not args.no_regularization,
        streaming_options=StreamingOptions(
            num_blocks=args.blocks,
            double_buffer=not args.no_double_buffer,
            thread_reuse=not args.no_thread_reuse,
        ),
    )


def _cmd_compile(args: argparse.Namespace) -> int:
    program = parse(_read_source(args.file))
    result = CompOptimizer(_plan_from_args(args)).optimize(program)
    if args.report:
        for report in result.reports:
            status = "applied" if report.applied else f"skipped: {report.reason}"
            print(f"// {report.name}: {status}")
            for detail in report.details:
                print(f"//   {detail}")
    print(to_source(program), end="")
    return 0


def _parse_array_spec(spec: str, rng: np.random.Generator) -> tuple:
    from repro.service.jobs import parse_array_spec

    try:
        return parse_array_spec(spec, rng)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _parse_scalar_spec(spec: str) -> tuple:
    from repro.service.jobs import parse_scalar_spec

    try:
        return parse_scalar_spec(spec)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _parse_inputs(args: argparse.Namespace) -> Tuple[dict, dict]:
    """The (arrays, scalars) bindings of a program-running command."""
    rng = np.random.default_rng(args.seed)
    arrays = dict(_parse_array_spec(s, rng) for s in args.array)
    scalars = dict(_parse_scalar_spec(s) for s in args.scalar)
    return arrays, scalars


def _load_program(args: argparse.Namespace):
    """Parse (and optionally optimize) the command's source file."""
    program = parse(_read_source(args.file))
    if getattr(args, "optimize", False):
        CompOptimizer().optimize(program)
    return program


def _write_merged_trace(path: str, tracers: Sequence[Tuple[str, object]]) -> None:
    """Merge several runs' tracers into one Chrome trace file.

    Each run becomes its own process lane (distinct pid + process name),
    and the combined payload is re-sorted so the file keeps the global
    monotone-timestamp property the validator checks.
    """
    from repro.obs.export import (
        chrome_trace_events,
        sort_trace_events,
        write_chrome_trace,
    )

    events: list = []
    for pid, (label, tracer) in enumerate(tracers):
        events.extend(chrome_trace_events(tracer, pid=pid, process_name=label))
    write_chrome_trace(path, sort_trace_events(events))


def _cmd_run(args: argparse.Namespace) -> int:
    arrays, scalars = _parse_inputs(args)
    program = _load_program(args)
    fault_plan = None
    if args.inject_faults:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan(seed=args.seed)
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    if args.devices < 1:
        raise SystemExit(f"--devices must be >= 1, got {args.devices}")
    machine = Machine(scale=args.scale, fault_plan=fault_plan, tracer=tracer,
                      devices=args.devices)
    result = run_program(program, arrays=arrays, scalars=scalars,
                         machine=machine, engine=args.engine)
    stats = result.stats
    print(f"simulated time      {stats.total_time * 1000:12.3f} ms")
    print(f"device compute      {stats.device_compute_time * 1000:12.3f} ms")
    print(f"transfer (h2d/d2h)  {stats.transfer_to_device_time * 1000:8.3f} / "
          f"{stats.transfer_from_device_time * 1000:.3f} ms")
    print(f"kernel launches     {stats.kernel_launches:6d}  "
          f"signals {stats.kernel_signals}")
    print(f"bytes to device     {stats.bytes_to_device / 2**20:12.2f} MiB")
    print(f"device peak memory  {stats.device_peak_bytes / 2**20:12.2f} MiB")
    _print_engagement(*_engagement([stats]))
    if args.inject_faults:
        fs = machine.fault_stats
        print(f"faults injected     {fs.total_injected:6d}  "
              f"retries {fs.retries}  timeouts {fs.timeouts}")
        print(f"recovery time       {fs.recovery_seconds * 1000:12.3f} ms  "
              f"backoff {fs.backoff_seconds * 1000:.3f} ms")
    for name in args.print_array:
        value = result.array(name)
        print(f"{name}[:8] = {np.array2string(value[:8], precision=4)}")
    if args.trace:
        from repro.obs import chrome_trace_events, write_chrome_trace

        write_chrome_trace(args.trace, chrome_trace_events(tracer))
        print(f"trace written to {args.trace}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.experiments.trace import render_summary, summarize
    from repro.obs import (
        Tracer,
        build_provenance,
        chrome_trace_events,
        flamegraph_lines,
        validate_chrome_trace,
        write_chrome_trace,
        write_metrics,
    )

    arrays, scalars = _parse_inputs(args)
    program = _load_program(args)
    tracer = Tracer()
    machine = Machine(scale=args.scale, tracer=tracer)
    run_program(program, arrays=arrays, scalars=scalars,
                machine=machine, engine=args.engine)

    events = chrome_trace_events(tracer)
    write_chrome_trace(args.out, events)
    print(render_summary(summarize(tracer)))
    print(f"\ntrace written to {args.out} "
          f"({len(tracer.spans)} spans, {len(tracer.instants)} instants) — "
          f"load it at https://ui.perfetto.dev or chrome://tracing")
    if args.metrics:
        provenance = build_provenance(seed=args.seed, engine=args.engine)
        write_metrics(args.metrics, tracer.metrics, provenance=provenance)
        print(f"metrics snapshot written to {args.metrics}")
    if args.flame:
        with open(args.flame, "w") as handle:
            for line in flamegraph_lines(tracer.spans):
                handle.write(line + "\n")
        print(f"flamegraph lines written to {args.flame}")
    if args.check:
        problems = validate_chrome_trace(events)
        if problems:
            for problem in problems:
                print(f"trace schema problem: {problem}", file=sys.stderr)
            return 1
        print("trace schema check: ok")
    return 0


def _engagement(stats_list) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Parallel-loop entries per engine tier, and codegen's rejection
    reasons, summed over runs."""
    tiers: Dict[str, int] = {"codegen": 0, "batch": 0, "tree": 0}
    rejections: Dict[str, int] = {}
    for stats in stats_list:
        for tier, count in stats.engine_loops.items():
            tiers[tier] = tiers.get(tier, 0) + count
        for reason, count in stats.codegen_rejections.items():
            rejections[reason] = rejections.get(reason, 0) + count
    return tiers, rejections


def _print_engagement(tiers: Dict[str, int], rejections: Dict[str, int]) -> None:
    print("parallel loops      " + "  ".join(
        f"{tier} {count}" for tier, count in tiers.items()
    ))
    for reason, count in sorted(rejections.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"codegen rejected    {count:6d}  {reason}")


def _format_bench_row(name: str, result) -> List[str]:
    return [
        name,
        f"{result.unopt_speedup:8.3f}",
        f"{result.opt_speedup:8.3f}",
        f"{result.relative_gain:8.2f}",
        "ok" if result.outputs_match() else "MISMATCH",
    ]


def _bench_row(
    name: str,
    engine: Optional[str],
    seed: Optional[int],
    devices: int = 1,
) -> Tuple[List[str], list]:
    """One benchmark's table row and its runs' stats; module-level so
    pool workers can receive it by pickled reference.  Results are
    deterministic functions of (name, engine, seed, devices), so worker
    count never changes a row."""
    from repro.experiments.harness import SuiteRunner

    runner = SuiteRunner(engine=engine, seed=seed, devices=devices)
    return _bench_result_row(name, runner.run_benchmark(name))


def _bench_result_row(name: str, result):
    return _format_bench_row(name, result), [
        run.stats for run in result.runs.values()
    ]


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.harness import SuiteRunner
    from repro.experiments.report import render_table
    from repro.workloads.suite import workload_names

    names = args.names or workload_names()
    unknown = set(names) - set(workload_names())
    if unknown:
        raise SystemExit(f"unknown benchmarks: {sorted(unknown)}")
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.devices < 1:
        raise SystemExit(f"--devices must be >= 1, got {args.devices}")
    if args.jobs > 1 and args.trace:
        raise SystemExit(
            "--trace requires --jobs 1: tracers record in-process and "
            "cannot be merged back from pool workers"
        )
    tracers: list = []
    tracer_factory = None
    if args.trace:
        from repro.obs import Tracer

        def tracer_factory(name: str, variant: str):
            tracer = Tracer()
            tracers.append((f"{name}/{variant}", tracer))
            return tracer

    if args.jobs > 1:
        from repro.faults import campaign as _campaign

        pool = _campaign._POOL_CLS(max_workers=args.jobs)
        wait = True
        try:
            futures = [
                pool.submit(
                    _bench_row, name, args.engine, args.seed, args.devices
                )
                for name in names
            ]
            rows = [future.result() for future in futures]
        except KeyboardInterrupt:
            wait = False
            raise SystemExit("bench interrupted; outstanding runs cancelled")
        finally:
            pool.shutdown(wait=wait, cancel_futures=True)
    else:
        runner = SuiteRunner(
            engine=args.engine,
            seed=args.seed,
            tracer_factory=tracer_factory,
            devices=args.devices,
        )
        rows = [
            _bench_result_row(name, runner.run_benchmark(name))
            for name in names
        ]
    print(render_table(
        ["benchmark", "mic/cpu", "opt/cpu", "opt/mic", "outputs"],
        [row for row, _ in rows],
    ))
    _print_engagement(*_engagement(stats for _, part in rows for stats in part))
    if args.trace:
        _write_merged_trace(args.trace, tracers)
        print(f"trace written to {args.trace} ({len(tracers)} runs)")
    return 0


def _parse_policy_pairs(specs: Sequence[str]) -> dict:
    """Parse ``KEY=VAL`` policy overrides into a plain dict.

    Values are cast by the type of the field's default (bools accept
    true/false spellings, ``backoff_max`` additionally accepts ``none``);
    unknown keys and unparsable values are command-line errors.
    """
    import dataclasses

    from repro.faults.policy import ResiliencePolicy

    known = {f.name for f in dataclasses.fields(ResiliencePolicy)}
    defaults = ResiliencePolicy()
    overrides: dict = {}
    for spec in specs:
        key, _, raw = spec.partition("=")
        if key not in known or not raw:
            raise SystemExit(
                f"bad --policy spec {spec!r}: expected KEY=VAL with KEY "
                f"one of {sorted(known)}"
            )
        default = getattr(defaults, key)
        try:
            if isinstance(default, bool):
                lowered = raw.lower()
                if lowered in ("1", "true", "yes", "on"):
                    value: object = True
                elif lowered in ("0", "false", "no", "off"):
                    value = False
                else:
                    raise ValueError(raw)
            elif isinstance(default, str):
                value = raw
            elif isinstance(default, int):
                value = int(raw)
            else:  # float-valued knobs; None defaults (backoff_max) too
                value = None if raw.lower() == "none" else float(raw)
        except ValueError:
            raise SystemExit(
                f"bad --policy value in {spec!r}: cannot parse {raw!r} "
                f"for {key} (default {default!r})"
            )
        overrides[key] = value
    return overrides


def _parse_policy_overrides(specs: Sequence[str]):
    """Build a :class:`ResiliencePolicy` from ``KEY=VAL`` overrides.

    An override combination the policy's own validation rejects is a
    command-line error too.
    """
    from repro.faults.policy import ResiliencePolicy

    overrides = _parse_policy_pairs(specs)
    try:
        return ResiliencePolicy(**overrides)
    except ValueError as exc:
        raise SystemExit(f"bad --policy combination: {exc}")


def _cmd_faults(args: argparse.Namespace) -> int:
    import json

    from repro.experiments.report import render_table
    from repro.faults import run_campaign
    from repro.faults.plan import (
        DEFAULT_RATES,
        FAULT_SITES,
        SILENT_KINDS,
        SITE_KINDS,
    )
    from repro.workloads.suite import workload_names

    if args.list_sites:
        rows = []
        for site in FAULT_SITES:
            mixed = SITE_KINDS[site] != SILENT_KINDS.get(site, ())
            for kind in SITE_KINDS[site]:
                silent = kind in SILENT_KINDS.get(site, ())
                key = f"{site}:{kind}" if silent and mixed else site
                rate = DEFAULT_RATES.get(key, 0.0)
                rows.append(
                    [
                        site,
                        kind,
                        "silent" if silent else "announced",
                        key,
                        f"{rate:8.4f}",
                    ]
                )
        print(render_table(
            ["site", "kind", "class", "--rate key", "default"], rows
        ))
        return 0

    names = args.names or workload_names()
    unknown = set(names) - set(workload_names())
    if unknown:
        raise SystemExit(f"unknown benchmarks: {sorted(unknown)}")
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.devices < 1:
        raise SystemExit(f"--devices must be >= 1, got {args.devices}")
    if args.jobs > 1 and args.trace:
        raise SystemExit(
            "--trace requires --jobs 1: tracers record in-process and "
            "cannot be merged back from pool workers"
        )
    rates = None
    if args.rate:
        from repro.faults import split_device_key

        rates = {}
        for spec in args.rate:
            key, _, prob = spec.partition("=")
            _, bare = split_device_key(key)
            site, _, kind = bare.partition(":")
            valid = bare in FAULT_SITES or (
                site in FAULT_SITES and kind in SILENT_KINDS.get(site, ())
            )
            if not valid or not prob:
                raise SystemExit(
                    f"bad --rate spec {spec!r}: expected SITE=PROB or "
                    f"SITE:KIND=PROB with SITE in {FAULT_SITES} "
                    f"(silent kinds: "
                    + ", ".join(
                        f"{s}:{k}"
                        for s in FAULT_SITES
                        for k in SILENT_KINDS.get(s, ())
                    )
                    + "; prefix devK: to target one fleet device)"
                )
            rates[key] = float(prob)
    policy = _parse_policy_overrides(args.policy) if args.policy else None
    tracers: list = []
    tracer_factory = None
    if args.trace:
        from repro.obs import Tracer

        def tracer_factory(name: str, scenario: int):
            tracer = Tracer()
            tracers.append((f"{name}/scenario{scenario}", tracer))
            return tracer

    try:
        result = run_campaign(
            names=names,
            scenarios=args.scenarios,
            seed=args.seed,
            variant=args.variant,
            engine=args.engine,
            rates=rates,
            policy=policy,
            tracer_factory=tracer_factory,
            jobs=args.jobs,
            devices=args.devices,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    if result.partial:
        done = len(result.outcomes)
        total = len(names) * args.scenarios
        print(
            f"campaign interrupted: {done}/{total} scenario cells "
            "completed; remaining cells were cancelled",
            file=sys.stderr,
        )
    rows = []
    for outcome in result.outcomes:
        slowdown = (
            outcome.time / outcome.baseline_time
            if outcome.baseline_time
            else float("inf")
        )
        rows.append(
            [
                outcome.workload,
                str(outcome.scenario),
                str(outcome.faults_injected),
                str(outcome.stats.retries),
                str(outcome.stats.oom_demotions + outcome.stats.host_fallbacks),
                f"{slowdown:8.4f}",
                ("ok (crashed)" if outcome.error else "ok")
                if outcome.ok else "VIOLATION",
            ]
        )
    print(render_table(
        ["benchmark", "scen", "faults", "retries", "fallbacks",
         "time ratio", "contract"],
        rows,
    ))
    totals = result.totals
    print(f"\ncampaign: {len(result.outcomes)} scenarios, "
          f"{totals.total_injected} faults injected, "
          f"{totals.retries} retries, "
          f"{totals.blocks_replayed} blocks replayed, "
          f"{totals.oom_demotions} demotions, "
          f"{totals.host_fallbacks} host fallbacks")
    if totals.device_resets:
        print(f"device resets: {totals.device_resets} survived, "
              f"{totals.checkpoints_committed} checkpoints committed, "
              f"{totals.blocks_reuploaded} blocks re-uploaded, "
              f"{totals.blocks_recomputed} blocks recomputed")
    if args.devices > 1:
        print(f"fleet ({args.devices} devices): "
              f"{totals.quarantines} quarantines, "
              f"{totals.device_evictions} evictions, "
              f"{totals.readmission_probes} probes, "
              f"{totals.readmissions} readmissions")
        per_device = {
            site: dict(sorted(actions.items()))
            for site, actions in sorted(totals.recovery_actions.items())
            if site.startswith("dev")
        }
        if per_device:
            print("per-device recovery histogram:")
            for site, actions in per_device.items():
                line = ", ".join(f"{k}={v}" for k, v in actions.items())
                print(f"  {site}: {line}")
    if totals.silent_injected:
        print(f"silent corruption: {totals.silent_injected} injected, "
              f"{totals.silent_detected} detected, "
              f"{totals.sdc_escapes} escaped, "
              f"{totals.verifications} verifications, "
              f"{totals.scrubs} scrubs")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2)
        print(f"summary written to {args.out}")
    if args.trace:
        _write_merged_trace(args.trace, tracers)
        print(f"trace written to {args.trace} ({len(tracers)} scenarios)")
    if not result.ok:
        print("FAULT CAMPAIGN CONTRACT VIOLATED", file=sys.stderr)
        return 1
    if result.partial:
        # Completed cells all honoured the contract, but the sweep is
        # incomplete evidence — distinct exit code so CI and scripts
        # can't mistake an interrupted campaign for a clean one.
        return EXIT_PARTIAL
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.service.server import serve

    if args.workers < 0:
        raise SystemExit(f"--workers must be >= 0, got {args.workers}")
    if args.grace_seconds < 0:
        raise SystemExit(
            f"--grace-seconds must be >= 0, got {args.grace_seconds}"
        )

    def recovered(recovery: dict) -> None:
        print(f"recovered from {args.state_dir}: "
              f"{recovery['recovered_jobs']} jobs re-admitted, "
              f"{recovery['recovered_results']} results warmed, "
              f"{recovery['dropped_corrupt']} corrupt entries dropped")
        sys.stdout.flush()

    def ready(port: int) -> None:
        mode = (
            f"{args.workers} warm worker processes"
            if args.workers else "inline execution"
        )
        print(f"campaign service listening on {args.host}:{port} ({mode})")
        sys.stdout.flush()

    def final_stats(snapshot: dict) -> None:
        if args.final_stats:
            print(json.dumps(snapshot, sort_keys=True))
            sys.stdout.flush()

    try:
        drained = asyncio.run(serve(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_depth=args.max_depth,
            high_water=args.high_water,
            ready=ready,
            grace_seconds=args.grace_seconds,
            final_stats=final_stats,
            store_max_entries=args.store_max_entries,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            breaker_failures=args.breaker_failures,
            breaker_cooldown=args.breaker_cooldown,
            state_dir=args.state_dir,
            sync=args.sync,
            recovered=recovered if args.state_dir else None,
        ))
    except ValueError as exc:
        raise SystemExit(str(exc))
    except KeyboardInterrupt:
        # SIGINT before the loop's signal handler was installed (or a
        # platform without one): still a clean operator stop.
        print("campaign service stopped", file=sys.stderr)
        return 0
    if not drained:
        print(
            f"drain grace of {args.grace_seconds:g}s expired; "
            "cancelled remaining jobs",
            file=sys.stderr,
        )
    print("campaign service drained and stopped", file=sys.stderr)
    return 0


def _job_spec_from_args(args: argparse.Namespace):
    """Build the JobSpec a ``submit`` invocation describes."""
    from repro.service.jobs import JobSpec

    source = None
    if args.kind == "run":
        if not args.file:
            raise SystemExit("--kind run requires --file")
        source = _read_source(args.file)
    rates = []
    for spec in args.rate:
        key, _, prob = spec.partition("=")
        if not prob:
            raise SystemExit(f"bad --rate spec {spec!r}: expected SITE=PROB")
        try:
            rates.append((key, float(prob)))
        except ValueError:
            raise SystemExit(
                f"bad --rate spec {spec!r}: {prob!r} is not a number"
            )
    policy = sorted(_parse_policy_pairs(args.policy).items())
    return JobSpec(
        kind=args.kind,
        workload=args.workload,
        variant=args.variant,
        scenario=args.scenario,
        source=source,
        arrays=tuple(args.array),
        scalars=tuple(args.scalar),
        optimize=args.optimize,
        scale=args.scale,
        seed=args.seed,
        engine=args.engine,
        devices=args.devices,
        rates=tuple(rates),
        policy=tuple(policy),
        trace=args.job_trace,
        priority=args.priority,
        tenant=args.tenant,
        deadline_seconds=args.deadline_seconds,
    )


def _submit_once(args: argparse.Namespace, spec) -> "tuple[int, float]":
    """One submission attempt: ``(exit code, server retry_after hint)``."""
    import json

    from repro.service import server as client

    try:
        events = client.submit(args.host, args.port, spec,
                               timeout=args.timeout)
    except ConnectionRefusedError:
        # The most common operator mistake — no service on that port —
        # gets one clear line and a distinct exit code, not a traceback.
        print(
            f"no campaign service listening at {args.host}:{args.port} "
            "(connection refused); start one with `repro serve`",
            file=sys.stderr,
        )
        return EXIT_UNAVAILABLE, 0.0
    except (ConnectionError, OSError) as exc:
        raise SystemExit(
            f"cannot reach campaign service at {args.host}:{args.port}: {exc}"
        )
    code = 1  # no terminal event = protocol failure
    retry_hint = 0.0
    for event in events:
        try:
            print(json.dumps(event, sort_keys=True))
        except BrokenPipeError:
            # Downstream (e.g. `head`) closed stdout; the job outcome
            # still decides the exit code.
            sys.stdout = open(os.devnull, "w")
        name = event.get("event")
        if name == "done":
            code = 0 if event.get("ok") else 1
        elif name in ("failed", "error"):
            code = 1
        elif name == "timeout":
            print(
                f"job hit its {event.get('deadline', 0.0)}s deadline",
                file=sys.stderr,
            )
            code = EXIT_TIMEOUT
        elif name == "rejected":
            reason = event.get("reason", "backpressure")
            retry_hint = float(event.get("retry_after", 0.0) or 0.0)
            print(
                f"service rejected the job ({reason}); retry in "
                f"{retry_hint}s",
                file=sys.stderr,
            )
            code = EXIT_RETRY
    return code, retry_hint


def _cmd_submit(args: argparse.Namespace) -> int:
    import time as _time

    if args.retries < 0:
        raise SystemExit(f"--retries must be >= 0, got {args.retries}")
    if args.retry_base <= 0:
        raise SystemExit(
            f"--retry-base must be > 0, got {args.retry_base}"
        )
    spec = _job_spec_from_args(args)
    try:
        spec.validate()
    except ValueError as exc:
        raise SystemExit(str(exc))
    attempts = args.retries + 1
    for attempt in range(attempts):
        code, retry_hint = _submit_once(args, spec)
        # Only transient refusals retry: backpressure/draining rejects
        # (75) honor the server's deterministic retry_after hint, and a
        # refused connection (69) covers a service mid-restart.  Real
        # failures — bad specs, failed jobs, deadline timeouts — never
        # burn retries.
        if code not in (EXIT_RETRY, EXIT_UNAVAILABLE):
            return code
        if attempt + 1 >= attempts:
            return code
        delay = min(max(retry_hint, args.retry_base * 2 ** attempt), 30.0)
        print(
            f"retrying in {delay:.3f}s "
            f"(attempt {attempt + 2}/{attempts})",
            file=sys.stderr,
        )
        _time.sleep(delay)
    return code


def _cmd_replay_trace(args: argparse.Namespace) -> int:
    from repro.service.traffic import (
        TraceSpec,
        load_trace_spec,
        replay_trace,
        summary_to_json,
    )

    if args.workers < 0:
        raise SystemExit(f"--workers must be >= 0, got {args.workers}")
    if args.kill_workers < 0:
        raise SystemExit(
            f"--kill-workers must be >= 0, got {args.kill_workers}"
        )
    if args.kill_workers and args.workers < 1:
        raise SystemExit(
            "--kill-workers needs a real worker pool: pass --workers >= 1"
        )
    try:
        if args.spec:
            spec = load_trace_spec(args.spec)
            if args.trace and not spec.traced:
                raise ValueError(
                    "--trace needs a spec with traced=true "
                    f"(edit {args.spec} or drop --trace)"
                )
        else:
            rates = []
            for raw in args.rate:
                key, _, prob = raw.partition("=")
                if not prob:
                    raise SystemExit(
                        f"bad --rate spec {raw!r}: expected SITE=PROB"
                    )
                try:
                    rates.append((key, float(prob)))
                except ValueError:
                    raise SystemExit(
                        f"bad --rate spec {raw!r}: {prob!r} is not a number"
                    )
            spec = TraceSpec(
                seed=args.seed,
                requests=args.requests,
                base_rate=args.base_rate,
                burst_factor=args.burst_factor,
                tenants=args.tenants,
                tenant_skew=args.tenant_skew,
                scenarios=args.scenarios,
                engine=args.engine,
                devices=args.devices,
                rates=tuple(rates),
                policy=tuple(sorted(_parse_policy_pairs(args.policy).items())),
                traced=bool(args.trace),
                model_servers=args.model_servers,
                max_depth=args.max_depth,
                high_water=args.high_water,
                tenant_rate=args.tenant_rate,
                tenant_burst=args.tenant_burst,
                breaker_failures=args.breaker_failures,
                breaker_cooldown=args.breaker_cooldown,
            )
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        summary = replay_trace(
            spec,
            workers=args.workers,
            trace_out=args.trace,
            metrics=metrics,
            kill_workers=args.kill_workers,
            state_dir=args.state_dir,
            sync=args.sync,
        )
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc))
    queue = summary["queue"]
    print(f"replayed {len(summary['arrivals'])} arrivals "
          f"({queue['unique_jobs']} unique jobs, "
          f"{queue['duplicates']} served from cache, "
          f"{queue['rejected']} rejected, "
          f"{queue['gated']} tenant-gated)")
    print(f"virtual queue ({queue['model_servers']} servers): "
          f"p50 {queue['p50_latency'] * 1000:.3f} ms, "
          f"p95 {queue['p95_latency'] * 1000:.3f} ms, "
          f"utilization {queue['utilization']:.3f}")
    for kind in sorted(summary["classes"]):
        cls = summary["classes"][kind]
        print(f"  class {kind:7s} {cls['arrivals']:4d} arrivals, "
              f"{cls['rejected']} rejected, "
              f"{cls['sim_time'] * 1000:10.3f} ms simulated")
    if summary["faults"]:
        totals = summary["faults"]
        print(f"chaos: {totals.get('total_injected', 0):.0f} faults injected, "
              f"{totals.get('retries', 0):.0f} retries, "
              f"{totals.get('sdc_escapes', 0):.0f} SDC escapes")
    if args.kill_workers:
        # Live supervision telemetry: proof the kills actually landed
        # (and were absorbed).  Deliberately outside the summary — the
        # summary must stay byte-identical to an undisturbed replay.
        snap = metrics.snapshot()["counters"]
        print(f"supervisor: "
              f"{snap.get('service.supervisor.worker_failures', 0):.0f} "
              f"worker failures, "
              f"{snap.get('service.supervisor.restarts', 0):.0f} restarts, "
              f"{snap.get('service.supervisor.redispatches', 0):.0f} "
              f"redispatches, "
              f"{snap.get('service.supervisor.quarantined', 0):.0f} "
              f"quarantined")
    if args.state_dir:
        # Durability telemetry: how much a crash-restart brought back.
        # Outside the summary for the same reason as the supervisor
        # line — the summary is byte-identical with or without it.
        print(f"durability: "
              f"{metrics.counter_value('service.durability.recovered_jobs'):.0f} "
              f"jobs re-admitted, "
              f"{metrics.counter_value('service.durability.recovered_results'):.0f} "
              f"results recovered, "
              f"{metrics.counter_value('service.durability.dropped_corrupt'):.0f} "
              f"corrupt entries dropped")
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(summary_to_json(summary))
        print(f"summary written to {args.out}")
    if args.trace:
        print(f"trace written to {args.trace}")
    print(f"determinism digest: {summary['digest']}")
    if not summary["ok"]:
        print("REPLAY CONTRACT VIOLATED", file=sys.stderr)
        return 1
    return 0


def _cmd_report(_args: argparse.Namespace) -> int:
    from repro.experiments import figures as figs
    from repro.experiments.harness import SuiteRunner
    from repro.experiments.report import render_figure, render_table_data
    from repro.experiments.tables import table1_demo, table2, table3

    runner = SuiteRunner()
    print(render_table_data(table1_demo()))
    print()
    for figure, log in (
        (figs.figure1, False),
        (figs.figure4, False),
        (figs.figure10, False),
        (figs.figure11, True),
        (figs.figure12, False),
        (figs.figure13, False),
        (figs.figure14, True),
        (figs.figure15, False),
    ):
        print(render_figure(figure(runner), log=log))
        print()
    print(render_table_data(table2(runner)))
    print()
    print(render_table_data(table3(runner)))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.transforms.autotune import tune_streaming

    source = _read_source(args.file)
    rng = np.random.default_rng(args.seed)
    array_specs = [_parse_array_spec(s, rng) for s in args.array]
    scalars = dict(_parse_scalar_spec(s) for s in args.scalar)

    def arrays_factory():
        return {name: value.copy() for name, value in array_specs}

    program, profile = tune_streaming(
        source, arrays_factory, scalars, scale=args.scale
    )
    tuned = run_program(
        program, arrays=arrays_factory(), scalars=dict(scalars),
        machine=Machine(scale=args.scale),
    )
    print(f"// profiled D={profile.measured_transfer * 1000:.3f} ms, "
          f"C={profile.measured_compute * 1000:.3f} ms, "
          f"K={profile.launch_overhead * 1000:.3f} ms")
    print(f"// model-selected block count N* = {profile.num_blocks}")
    print(f"// unoptimized {profile.profile_time * 1000:.3f} ms -> "
          f"tuned {tuned.stats.total_time * 1000:.3f} ms "
          f"({profile.profile_time / tuned.stats.total_time:.2f}x)")
    print(to_source(program), end="")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "compile": _cmd_compile,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "bench": _cmd_bench,
        "faults": _cmd_faults,
        "tune": _cmd_tune,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "replay-trace": _cmd_replay_trace,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
