"""Benchmark runner: one fresh subprocess per workload, checked outputs.

``run`` starts, per workload, ``SETUP_PROBES`` subprocesses that only set
up and exit (untraced runs only), then one subprocess that sets up and
measures.  ``setup_s`` is the median of all of them; everything else
comes from the measuring process.  The last line of standard output is
the result as JSON.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

WORKLOAD_NAMES = ("suite", "vector-kernels", "chaos-fleet", "service-openloop")

#: End-to-end metrics every workload reports, with their units.
E2E_METRICS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_s": "s",
    "compile_s": "s",
    "exec_s": "s",
}

#: Per-layer metrics of the traced run, with their units.
LAYER_METRICS = {
    "minic.parse_s": "s",
    "minic.parse_calls": "count",
    "analysis.offload_insert_s": "s",
    "transforms.optimize_s": "s",
    "transforms.applied": "count",
    "executor.tree_s": "s",
    "codegen.run_s": "s",
    "codegen.loops": "count",
    "codegen.rejected": "count",
    "codegen.compile_s": "s",
    "codegen.kernel_misses": "count",
    "codegen.kernel_hit_ratio": "ratio",
    "batch.run_s": "s",
    "batch.loops": "count",
    "batch.rejected": "count",
    "coi.s": "s",
    "coi.calls": "count",
    "fleet.s": "s",
    "des.s": "s",
    "des.events": "count",
    "integrity.s": "s",
    "checkpoint.s": "s",
    "faults.injected": "count",
    "faults.host_fallbacks": "count",
    "shm.s": "s",
    "service.latency_ms_p50": "ms",
    "service.latency_ms_tail": "ms",
    "service.submit_ms": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_tail": "ms",
    "service.execute_ms_p50": "ms",
    "service.execute_ms_tail": "ms",
    "service.worker_exec_ms": "ms",
    "service.ipc_ms": "ms",
    "service.store_hit_ratio": "ratio",
    "service.coalesced_ratio": "ratio",
    "service.pool_restarts": "count",
    "service.gen_lag_ms_p99": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.exec_coverage": "ratio",
}

SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170
EXIT_INVALID = 3


# -- measuring subprocess -----------------------------------------------------


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak RSS."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def measure(workload: str, seed: int, seconds: float, traced: bool,
            t0: float, setup_only: bool) -> int:
    """Set up one workload (and measure it); prints one JSON line."""
    import numpy as np

    from repro.obs.export import validate_chrome_trace
    from repro.obs.provenance import build_provenance

    from benchmarks.perf import golden
    from benchmarks.perf.workloads import WORKLOADS, InvalidRun

    checker = golden.Checker(golden.load(seed))
    try:
        bench = WORKLOADS[workload](seed, checker)
        try:
            bench.setup()
            setup_s = time.monotonic() - t0
            if not setup_only:
                m, layers, recorder = bench.measure(seconds, traced)
        finally:
            bench.close()
    except InvalidRun as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if traced:
        metrics = {name: float(layers.get(name, 0.0)) for name in LAYER_METRICS}
    else:
        metrics = m.e2e()
        metrics["peak_rss_mb"] = peak_rss_mb()
    notes = list(m.notes) + [f"checked against {checker.mode}"]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}{'-traced' if traced else ''}"
    if recorder is not None:
        events = recorder.write_trace(str(OUT_DIR / f"{stem}.trace.json"), stem)
        problems = validate_chrome_trace(events)
        if problems:
            checker.fail(f"trace file invalid: {problems[:3]}")
        notes.append(f"trace: {len(events)} events in out/{stem}.trace.json")
    result = {
        "setup_s": setup_s,
        "attempted": m.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "metrics": metrics,
        "notes": notes,
        "provenance": build_provenance(
            seed=seed, engine="auto", workload=workload, traced=traced,
            nproc=os.cpu_count(), python=platform.python_version(),
            numpy=np.__version__,
        ),
    }
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump({**result, "layers": layers, "samples": m.samples()}, handle, indent=1)
    print(json.dumps(result))
    return 0


# -- runner -------------------------------------------------------------------


class ChildFailed(RuntimeError):
    """A measuring or probing subprocess failed; ``status`` is the exit code to pass on."""

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


def _child(workload: str, seed: int, seconds: float, traced: bool,
           setup_only: bool) -> dict:
    """Run one measuring/probing subprocess; its result line, parsed."""
    cmd = [
        sys.executable, "-m", "benchmarks.perf", "_measure",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(traced)),
        "--t0", repr(time.monotonic()),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The child's own pool workers share its session: stop them all.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload}: timed out after {CHILD_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        # An invalid run keeps its own exit code; any other failure is 1.
        status = EXIT_INVALID if proc.returncode == EXIT_INVALID else 1
        raise ChildFailed(f"{workload}: measuring process exited {proc.returncode}", status)
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload; prints its report and returns the result."""
    from benchmarks.perf.stats import median

    setups: List[float] = [
        _child(workload, seed, seconds, traced, setup_only=True)["setup_s"]
        for _ in range(0 if traced else SETUP_PROBES)
    ]
    out = _child(workload, seed, seconds, traced, setup_only=False)
    setups.append(out["setup_s"])
    metrics: Dict[str, float] = dict(out["metrics"])
    units = LAYER_METRICS if traced else E2E_METRICS
    if not traced:
        metrics["setup_s"] = median(setups)

    print(f"== {workload} (seed {seed}, {'traced' if traced else 'untraced'}, {seconds:g} s)")
    print("provenance: " + json.dumps(out["provenance"], sort_keys=True))
    for note in out["notes"]:
        print(f"note: {note}")
    for name in units:
        print(f"{name:32s} {metrics[name]:14.6g} {units[name]}")
    error_rate = out["failed"] / out["attempted"]
    print(f"{'error_rate':32s} {error_rate:14.6g} share of {out['attempted']} attempted")
    for error in out["errors"]:
        print(f"error: {error}")
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return result


def run(workloads, seed: int, seconds: float, traced: bool) -> int:
    """The ``run`` command: every requested workload in turn."""
    status = 0
    for workload in workloads:
        try:
            result = run_workload(workload, seed, seconds, traced)
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            return exc.status
        if not result["correct"]:
            status = 1
    return status


def record_golden() -> int:
    """Regenerate ``golden/seed{N}.json`` with the tree-walking engine."""
    from repro.obs.provenance import build_provenance
    from repro.workloads.suite import get_workload, workload_names

    from benchmarks.perf import golden
    from benchmarks.perf.workloads import (
        CHAOS_DEVICES, CHAOS_POLICY, CHAOS_RATES, CHAOS_SCENARIOS,
        VARIANTS, VECTOR_KERNELS, chaos_campaign,
    )

    golden.GOLDEN_DIR.mkdir(exist_ok=True)
    for seed in golden.GOLDEN_SEEDS:
        programs = {}
        for name in workload_names():
            workload = get_workload(name, seed=seed)
            for variant in VARIANTS:
                run = workload.run(variant, engine=golden.GOLDEN_ENGINE)
                programs[f"{name}/{variant}"] = golden.program_entry(run)
        results = [
            chaos_campaign(name, seed, engine=golden.GOLDEN_ENGINE)
            for name in VECTOR_KERNELS
        ]
        document = {
            "provenance": build_provenance(seed=seed, engine=golden.GOLDEN_ENGINE),
            "programs": programs,
            "campaign": {
                "digest": golden.campaign_digest(results),
                "workloads": list(VECTOR_KERNELS),
                "scenarios": CHAOS_SCENARIOS,
                "devices": CHAOS_DEVICES,
                "rates": CHAOS_RATES,
                "policy": CHAOS_POLICY,
            },
        }
        with open(golden.golden_path(seed), "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {golden.golden_path(seed).relative_to(ROOT)}")
    return 0
