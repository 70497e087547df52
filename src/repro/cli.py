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

A request has one path whichever command makes it.  ``run``, ``trace``
and ``tune`` build the :class:`~repro.service.jobs.JobSpec` that
``submit --kind run`` sends; ``bench`` and ``faults`` build one spec per
named benchmark.  Every spec is checked by :meth:`JobSpec.validate`, the
validator the service applies to each submission, before any work
starts, and ``run`` and ``trace`` execute theirs through
:func:`~repro.service.jobs.run_job`, the function service run jobs use.
This module keeps what only a command line needs: the options (each
shared one defined once, in ``_OPTIONS``), the text of each flag
(``_parse_rates``, ``_parse_policy``), campaign fan-out and
human-readable output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import __version__
from repro.errors import ReproError
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


#: Options several commands share, each defined once: flag -> the
#: keywords of ``add_argument``.  ``_add_options`` adds them by flag.
_OPTIONS: Dict[str, dict] = {
    "--array": dict(
        action="append", default=[], metavar="NAME=SIZE[:DTYPE[:KIND]]",
        help="declare an input array; DTYPE is float|double|int (default "
             "float), KIND is zeros|ones|arange|random (default random)",
    ),
    "--scalar": dict(action="append", default=[], metavar="NAME=VALUE",
                     help="declare an input scalar"),
    "--scale": dict(type=float, default=1.0, help="simulation scale factor"),
    "--seed": dict(type=int, default=0,
                   help="seed of random inputs, traces and fault plans "
                        "(default %(default)s)"),
    "--optimize": dict(action="store_true",
                       help="apply the COMP pipeline before running"),
    "--engine": dict(
        choices=ENGINES, default=None,
        help="interpreter engine: generated-numpy codegen, batched numpy "
             "fast path, the tree walker, or auto, the fastest eligible "
             "tier (codegen -> batch -> tree); None lets each workload "
             "pick (default %(default)s)",
    ),
    "--variant": dict(choices=("cpu", "mic", "opt"), default="opt"),
    "--jobs": dict(
        type=int, default=1, metavar="N",
        help="fan runs out over N worker processes; results keep their "
             "order and values for any N (default 1, incompatible with "
             "--trace)",
    ),
    "--devices": dict(
        type=int, default=1, metavar="N",
        help="simulate an offload fleet of N devices with block sharding "
             "and device-loss failover; outputs are bit-identical for any "
             "N (default 1)",
    ),
    "--rate": dict(
        action="append", default=[], metavar="SITE=PROB",
        help="override a fault site's per-operation probability (sites: "
             "h2d d2h kernel alloc signal device arena; silent kinds via "
             "SITE:KIND, e.g. h2d:silent kernel:sdc; prefix devK: to scope "
             "a rate to one fleet device)",
    ),
    "--policy": dict(
        action="append", default=[], metavar="KEY=VAL",
        help="override a ResiliencePolicy knob, e.g. checkpoint_interval=4, "
             "max_resets=2, backoff_max=0.002, integrity_mode=full; unknown "
             "keys are errors",
    ),
    "--trace": dict(
        metavar="FILE",
        help="record every run and write one Chrome/Perfetto trace JSON "
             "to FILE, one process lane per run",
    ),
    "--host": dict(default="127.0.0.1"),
    "--port": dict(type=int, default=8753,
                   help="service TCP port; 0 lets serve pick an ephemeral "
                        "port (default 8753)"),
    "--workers": dict(
        type=int, default=0, metavar="N",
        help="persistent warm worker processes; 0 executes jobs inline on "
             "the event loop; results are identical for any N (default 0)",
    ),
    "--max-depth": dict(type=int, default=64, metavar="N",
                        help="hard queue-depth ceiling (default %(default)s)"),
    "--high-water": dict(
        type=int, default=None, metavar="N",
        help="queue depth where admission starts rejecting with a "
             "retry-after hint (default 75%% of --max-depth)",
    ),
    "--tenant-rate": dict(type=float, default=None, metavar="R",
                          help="per-tenant admission rate limit, "
                               "jobs/second (default off)"),
    "--tenant-burst": dict(type=float, default=4.0, metavar="B",
                           help="per-tenant token-bucket burst capacity "
                                "(default 4)"),
    "--breaker-failures": dict(type=int, default=None, metavar="K",
                               help="open a tenant's circuit breaker after "
                                    "K consecutive job failures (default "
                                    "off)"),
    "--breaker-cooldown": dict(type=float, default=30.0, metavar="S",
                               help="seconds an open breaker sheds load "
                                    "before its half-open probe (default "
                                    "%(default)s)"),
    "--state-dir": dict(
        metavar="DIR", default=None,
        help="durability: write-ahead job journal and persistent result "
             "store under DIR; a restart or rerun on the same DIR recovers "
             "journaled jobs and stored results instead of recomputing "
             "(default off)",
    ),
    "--sync": dict(choices=("always", "batch", "off"), default="batch",
                   help="fsync cadence for --state-dir: every append, "
                        "batched, or never (default batch)"),
}


def _add_options(parser: argparse.ArgumentParser, *flags: str,
                 **changes: dict) -> None:
    """Add the shared options *flags* to *parser*; a keyword named after
    an option's dest changes its keywords for this command only
    (``seed=dict(default=None)``)."""
    for flag in flags:
        keywords = {**_OPTIONS[flag], **changes.get(flag[2:].replace("-", "_"), {})}
        parser.add_argument(flag, **keywords)


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
    program = ("--array", "--scalar", "--scale", "--seed")

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
    _add_options(runp, *program, "--optimize", "--engine",
                 engine=dict(default="auto"))
    runp.add_argument("--print-array", action="append", default=[],
                      metavar="NAME", help="print an array's head afterwards")
    runp.add_argument("--inject-faults", action="store_true",
                      help="run under a fault plan derived from --seed "
                           "and report the recovery stats")
    _add_options(runp, "--devices", "--trace")

    trace = sub.add_parser(
        "trace",
        help="execute a program with tracing enabled and export the trace",
    )
    trace.add_argument("file", help="MiniC source path ('-' for stdin)")
    _add_options(trace, *program, "--optimize", "--engine",
                 engine=dict(default="auto"))
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
    trace.set_defaults(devices=1)

    bench = sub.add_parser("bench", help="run Table II benchmarks")
    bench.add_argument("names", nargs="*", help="benchmark names (default all)")
    _add_options(bench, "--engine", "--seed", "--jobs", "--devices", "--trace",
                 seed=dict(default=None,
                           help="reseed workload input generation "
                                "(default: fixed per-workload inputs)"))

    faults = sub.add_parser(
        "faults",
        help="run a seeded fault-injection campaign over the suite",
    )
    faults.add_argument("names", nargs="*",
                        help="benchmark names (default all)")
    faults.add_argument("--scenarios", type=int, default=3,
                        help="fault scenarios per benchmark (default 3)")
    _add_options(faults, "--seed", "--variant", "--engine", "--jobs",
                 "--devices", "--rate",
                 seed=dict(help="campaign seed; also reseeds workload inputs"))
    faults.add_argument("--list-sites", action="store_true",
                        help="print the site x kind fault taxonomy with "
                             "default rates and exit")
    _add_options(faults, "--policy")
    faults.add_argument("--out", metavar="FILE",
                        help="write the campaign summary JSON to FILE")
    _add_options(faults, "--trace")

    tune = sub.add_parser(
        "tune",
        help="profile a program and stream it with the model-chosen block "
        "count (Section III-B)",
    )
    tune.add_argument("file", help="MiniC source path ('-' for stdin)")
    _add_options(tune, *program)
    tune.set_defaults(optimize=False, engine=None, devices=1)

    serve = sub.add_parser(
        "serve",
        help="run the campaign service (async job runner over TCP)",
    )
    _add_options(serve, "--host", "--port", "--workers", "--max-depth",
                 "--high-water")
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
    _add_options(serve, "--tenant-rate", "--tenant-burst", "--breaker-failures",
                 "--breaker-cooldown", "--state-dir", "--sync")

    submit = sub.add_parser(
        "submit",
        help="submit one job to a running campaign service",
    )
    _add_options(submit, "--host", "--port")
    submit.add_argument("--kind", choices=("run", "bench", "faults"),
                        default="bench")
    submit.add_argument("--workload", metavar="NAME",
                        help="benchmark name (bench/faults kinds)")
    submit.add_argument("--file", metavar="FILE",
                        help="MiniC source path for --kind run "
                             "('-' for stdin)")
    _add_options(submit, "--array", "--scalar", "--optimize", "--scale",
                 "--variant")
    submit.add_argument("--scenario", type=int, default=0,
                        help="fault scenario index (faults kind)")
    _add_options(submit, "--seed", "--engine", "--devices", "--rate",
                 "--policy")
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
        description="Replay a seeded synthetic traffic trace through the "
                    "campaign service.  Queue limits and tenant isolation "
                    "act in virtual time, so the summary is byte-identical "
                    "for any worker count.",
    )
    replay.add_argument("--spec", metavar="FILE",
                        help="trace-spec JSON (see docs/service.md); "
                             "flags below are ignored when given")
    _add_options(replay, "--seed")
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
    _add_options(replay, "--engine", "--devices", "--rate", "--policy",
                 rate=dict(help="fault rates for the chaos job class "
                                "(default: plan defaults)"),
                 policy=dict(help="ResiliencePolicy overrides for chaos jobs"))
    replay.add_argument("--model-servers", type=int, default=2, metavar="K",
                        help="abstract servers in the virtual-time queue "
                             "model; part of the spec, NOT the worker "
                             "count (default 2)")
    _add_options(replay, "--max-depth", "--high-water", "--tenant-rate",
                 "--tenant-burst", "--breaker-failures", "--breaker-cooldown",
                 "--workers", max_depth=dict(default=32),
                 breaker_cooldown=dict(default=5.0))
    replay.add_argument("--kill-workers", type=int, default=0, metavar="N",
                        help="chaos mode: SIGKILL N pool workers while the "
                             "execution phase runs (requires --workers >= "
                             "1); the summary must stay byte-identical")
    _add_options(replay, "--state-dir", "--sync")
    replay.add_argument("--out", metavar="FILE",
                        help="write the replay summary JSON to FILE")
    _add_options(replay, "--trace")

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


def _checked(*specs) -> None:
    """Validate job specs with the service's validator; a malformed one
    ends the command with its one-line error, before any work starts."""
    try:
        for spec in specs:
            spec.validate()
    except ValueError as exc:
        raise SystemExit(str(exc))


def _job_spec(args: argparse.Namespace, kind: str = "run", **fields):
    """The validated JobSpec that a ``run``, ``trace``, ``tune`` or
    ``submit`` invocation describes; ``submit`` adds its own *fields*."""
    from repro.service.jobs import JobSpec

    source = None
    if kind == "run":
        if not args.file:
            raise SystemExit("--kind run requires --file")
        source = _read_source(args.file)
    spec = JobSpec(
        kind=kind,
        source=source,
        arrays=tuple(args.array),
        scalars=tuple(args.scalar),
        optimize=args.optimize,
        scale=args.scale,
        seed=args.seed,
        engine=args.engine,
        devices=args.devices,
        **fields,
    )
    _checked(spec)
    return spec


def _parse_rates(specs: Sequence[str]) -> List[Tuple[str, float]]:
    """``--rate SITE=PROB`` texts as ``(site, rate)`` pairs.

    Only the text is checked here; which sites exist and which rates are
    probabilities is :func:`repro.faults.plan.check_rates`' to decide.
    """
    rates = []
    for spec in specs:
        key, _, prob = spec.partition("=")
        try:
            rates.append((key, float(prob)))
        except ValueError:
            raise SystemExit(
                f"bad --rate spec {spec!r}: expected SITE=PROB with PROB "
                "a number"
            )
    return rates


#: ``--policy`` spellings of a bool knob's values.
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_policy(specs: Sequence[str]) -> dict:
    """``--policy KEY=VAL`` texts as a dict of typed overrides.

    Each value is read as the type of the knob's default: bools take
    true/false spellings and ``backoff_max`` also takes ``none``.  How
    the knobs combine is :func:`repro.service.jobs.check_policy`'s to
    decide.
    """
    from repro.service.jobs import policy_default

    overrides: dict = {}
    for spec in specs:
        key, _, raw = spec.partition("=")
        try:
            default = policy_default(key)
        except ValueError as exc:
            raise SystemExit(str(exc))
        try:
            if not raw:
                raise ValueError(raw)
            if isinstance(default, bool):
                value: object = _BOOLS[raw.lower()]
            elif isinstance(default, str):
                value = raw
            elif isinstance(default, int):
                value = int(raw)
            elif default is None and raw.lower() == "none":
                value = None
            else:
                value = float(raw)
        except (KeyError, ValueError):
            raise SystemExit(
                f"bad --policy value in {spec!r}: cannot parse {raw!r} "
                f"for {key} (default {default!r})"
            )
        overrides[key] = value
    return overrides


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one MiniC program; a program error is reported on one line."""
    try:
        return _run_command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_command(args: argparse.Namespace) -> int:
    from repro.service.jobs import run_job

    spec = _job_spec(args)
    fault_plan = None
    if args.inject_faults:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan(seed=args.seed)
    tracer = None
    if args.trace:
        from repro.obs import Tracer

        tracer = Tracer()
    machine = Machine(scale=spec.scale, fault_plan=fault_plan, tracer=tracer,
                      devices=spec.devices)
    result = run_job(spec, machine)
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
    from repro.service.jobs import run_job

    spec = _job_spec(args)
    tracer = Tracer()
    run_job(spec, Machine(scale=spec.scale, tracer=tracer,
                          devices=spec.devices))

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


def _bench_result_row(name: str, result) -> Tuple[List[str], list]:
    row = [
        name,
        f"{result.unopt_speedup:8.3f}",
        f"{result.opt_speedup:8.3f}",
        f"{result.relative_gain:8.2f}",
        "ok" if result.outputs_match() else "MISMATCH",
    ]
    return row, [run.stats for run in result.runs.values()]


def _campaign_names(args: argparse.Namespace, kind: str, **fields) -> list:
    """The benchmarks a ``bench`` or ``faults`` invocation names (default
    all), checked before any run starts: the fan-out flags as
    :func:`~repro.faults.campaign.run_campaign` checks them, and each
    benchmark as the job spec the service would run for it."""
    from repro.faults.campaign import validate_fanout
    from repro.service.jobs import JobSpec
    from repro.workloads.suite import workload_names

    names = args.names or workload_names()
    try:
        validate_fanout(args.jobs, bool(args.trace))
    except ValueError as exc:
        raise SystemExit(str(exc))
    _checked(*(
        JobSpec(kind=kind, workload=name, seed=args.seed, engine=args.engine,
                devices=args.devices, **fields)
        for name in names
    ))
    return names


def _run_tracers(args: argparse.Namespace, label: str):
    """``(tracers, factory)`` of a multi-run command; with no ``--trace``
    the factory is None (see :func:`repro.service.jobs.tracer_factory`)."""
    from repro.service.jobs import tracer_factory

    tracers: list = []
    return tracers, tracer_factory(tracers, label) if args.trace else None


def _write_runs_trace(path: str, tracers: list, unit: str) -> None:
    """Write the runs' tracers to *path* as one trace, a lane per run."""
    from repro.obs import write_chrome_trace
    from repro.service.jobs import merged_trace_events

    write_chrome_trace(path, merged_trace_events(tracers))
    print(f"trace written to {path} ({len(tracers)} {unit})")


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.harness import SuiteRunner
    from repro.experiments.report import render_table

    names = _campaign_names(args, "bench")
    tracers, tracer_factory = _run_tracers(args, "{}/{}")
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
        _write_runs_trace(args.trace, tracers, "runs")
    return 0


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
    from repro.service.jobs import check_policy

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

    rates = _parse_rates(args.rate)
    policy = _parse_policy(args.policy)
    names = _campaign_names(args, "faults", variant=args.variant,
                            rates=rates, policy=policy)
    tracers, tracer_factory = _run_tracers(args, "{}/scenario{}")
    result = run_campaign(
        names=names,
        scenarios=args.scenarios,
        seed=args.seed,
        variant=args.variant,
        engine=args.engine,
        rates=dict(rates) or None,
        policy=check_policy(policy.items()),
        tracer_factory=tracer_factory,
        jobs=args.jobs,
        devices=args.devices,
    )
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
        _write_runs_trace(args.trace, tracers, "scenarios")
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
    spec = _job_spec(
        args,
        kind=args.kind,
        workload=args.workload,
        variant=args.variant,
        scenario=args.scenario,
        rates=_parse_rates(args.rate),
        policy=_parse_policy(args.policy),
        trace=args.job_trace,
        priority=args.priority,
        tenant=args.tenant,
        deadline_seconds=args.deadline_seconds,
    )
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
                rates=_parse_rates(args.rate),
                policy=_parse_policy(args.policy),
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
    from repro.service.jobs import bind_inputs
    from repro.transforms.autotune import tune_streaming

    spec = _job_spec(args)
    arrays, scalars = bind_inputs(spec)

    def arrays_factory():
        return {name: value.copy() for name, value in arrays.items()}

    program, profile = tune_streaming(
        spec.source, arrays_factory, scalars, scale=args.scale
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
