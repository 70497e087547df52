"""Outside-in layer timing: wrap public entry points and record spans.

A :class:`Recorder` replaces each entry point named in its tables with
a timing wrapper and puts the original back on exit.  Every wrapped
call becomes a span (name, start, end, parent), kept in a
:class:`repro.obs.Tracer` and exported with
:func:`repro.obs.export.write_chrome_trace`.  A layer's self time is
its span time minus the time of the spans nested inside it.

Two tables exist.  ``E2E_ENTRIES`` are the program constructors and the
execution entry points whose outermost calls give ``compile_s`` and
``exec_s``; they are installed on every run and cost a few hundred
wrapper calls per pass.  ``LAYER_ENTRIES`` reach down into the runtime
(vector tiers, COI, event simulator, fleet, integrity, checkpoints) and
are installed only for the traced run.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.minic import parser as minic_parser
from repro.obs import Tracer
from repro.obs.export import chrome_trace_events, write_chrome_trace
from repro.runtime import batch_exec, codegen
from repro.runtime import executor as runtime_executor
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.coi import CoiRuntime
from repro.runtime.fleet import DeviceFleet
from repro.runtime.integrity import IntegrityManager
from repro.hardware.event_sim import Timeline
from repro.transforms.pipeline import CompOptimizer
from repro.workloads import base as workload_base

TRACK = "wall"


def _count_loop(counts: Counter, prefix: str, trips) -> None:
    counts[f"{prefix}.rejected" if trips is None else f"{prefix}.loops"] += 1


def _count_kernel(counts: Counter, result) -> None:
    counts["codegen.kernel_misses" if result[1] else "codegen.kernel_hits"] += 1


def _count_applied(counts: Counter, result) -> None:
    counts["transforms.applied"] += len(result.applied())


#: One entry: (owner, attribute, layer, category, result hook).  The
#: category ("compile" or "exec") marks calls whose outermost instances
#: sum to compile_s / exec_s.
Entry = Tuple[object, str, str, Optional[str], Optional[Callable]]

E2E_ENTRIES: List[Entry] = [
    (workload_base.MiniCWorkload, "cpu_program", "workload.build", "compile", None),
    (workload_base.MiniCWorkload, "mic_program", "workload.build", "compile", None),
    (workload_base.MiniCWorkload, "opt_program", "workload.build", "compile", None),
    # Workloads call the names bound in repro.workloads.base; service
    # run jobs import them from their defining modules at call time.
    (workload_base, "parse", "minic.parse", "compile", None),
    (minic_parser, "parse", "minic.parse", "compile", None),
    (workload_base, "insert_offload_pragmas", "analysis.offload_insert", "compile", None),
    (CompOptimizer, "optimize", "transforms.optimize", "compile", _count_applied),
    (workload_base, "run_program", "executor", "exec", None),
    (runtime_executor, "run_program", "executor", "exec", None),
    (workload_base.SharedMemoryWorkload, "run", "shm", "exec", None),
]


def _public_methods(cls, layer: str, names=None) -> List[Entry]:
    return [
        (cls, name, layer, None, None)
        for name, value in vars(cls).items()
        if inspect.isfunction(value)
        and not name.startswith("_")
        and (names is None or name in names)
    ]


LAYER_ENTRIES: List[Entry] = (
    [
        (codegen, "try_run_parallel_for", "codegen.run", None,
         lambda c, r: _count_loop(c, "codegen", r)),
        (codegen, "_get_kernel", "codegen.compile", None, _count_kernel),
        (batch_exec, "try_run_parallel_for", "batch.run", None,
         lambda c, r: _count_loop(c, "batch", r)),
        (Timeline, "schedule", "des", None, None),
    ]
    + _public_methods(
        CoiRuntime, "coi",
        names=("alloc_buffer", "free_buffer", "write_buffer", "read_buffer",
               "raw_transfer", "launch_kernel"),
    )
    + _public_methods(DeviceFleet, "fleet")
    + _public_methods(IntegrityManager, "integrity")
    + _public_methods(CheckpointManager, "checkpoint")
)

#: Layers whose self time makes up execution (run_program and below).
EXEC_LAYERS = (
    "executor", "shm", "codegen.run", "codegen.compile", "batch.run",
    "coi", "des", "fleet", "integrity", "checkpoint",
)


class Recorder:
    """Installs timing wrappers; accumulates self time, calls and spans.

    Use as a context manager: entry points are wrapped on enter and the
    exact original objects are restored on exit, even on error.
    """

    def __init__(self, traced: bool = False) -> None:
        self.entries = E2E_ENTRIES + (LAYER_ENTRIES if traced else [])
        self.tracer = Tracer() if traced else None
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Inclusive time of the outermost call per category.
        self.outer_s: Dict[str, float] = defaultdict(float)
        self._depth: Counter = Counter()
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Recorder":
        for owner, attr, layer, category, hook in self.entries:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, category, hook))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, layer: str, category: Optional[str], hook):
        enter, leave, counts = self._enter, self._leave, self.counts

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            enter(layer, category)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if hook is not None:
                hook(counts, result)
            return result

        return timed

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, layer: str, category: Optional[str]) -> None:
        now = time.perf_counter()
        span = None
        if self.tracer is not None:
            span = self.tracer.begin(layer, TRACK, now - self._t0)
        if category is not None:
            self._depth[category] += 1
        self._stack.append([layer, category, now, 0.0, span])

    def _leave(self) -> None:
        now = time.perf_counter()
        layer, category, start, child, span = self._stack.pop()
        duration = now - start
        self.self_s[layer] += duration - child
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][3] += duration
        if category is not None:
            self._depth[category] -= 1
            if self._depth[category] == 0:
                self.outer_s[category] += duration
        if span is not None:
            self.tracer.end(span, now - self._t0)

    # -- views --------------------------------------------------------------

    def snapshot(self) -> Tuple[float, float]:
        """``(compile_s, exec_s)`` accumulated so far."""
        return self.outer_s["compile"], self.outer_s["exec"]

    def write_trace(self, path: str, process_name: str) -> List[dict]:
        """Export the recorded spans as a Chrome trace; returns the events."""
        events = chrome_trace_events(self.tracer, process_name=process_name)
        write_chrome_trace(path, events)
        return events


def layer_metrics(recorder: Recorder, passes: int) -> Dict[str, float]:
    """Per-pass layer self times and counts from a traced recorder."""
    s, calls, counts = recorder.self_s, recorder.calls, recorder.counts
    hits = counts["codegen.kernel_hits"]
    misses = counts["codegen.kernel_misses"]
    per_pass = {
        "minic.parse_s": s["minic.parse"],
        "minic.parse_calls": calls["minic.parse"],
        "analysis.offload_insert_s": s["analysis.offload_insert"],
        "transforms.optimize_s": s["transforms.optimize"],
        "transforms.applied": counts["transforms.applied"],
        "executor.tree_s": s["executor"],
        "codegen.run_s": s["codegen.run"],
        "codegen.loops": counts["codegen.loops"],
        "codegen.rejected": counts["codegen.rejected"],
        "codegen.compile_s": s["codegen.compile"],
        "codegen.kernel_misses": misses,
        "batch.run_s": s["batch.run"],
        "batch.loops": counts["batch.loops"],
        "batch.rejected": counts["batch.rejected"],
        "coi.s": s["coi"],
        "coi.calls": calls["coi"],
        "fleet.s": s["fleet"],
        "des.s": s["des"],
        "des.events": calls["des"],
        "integrity.s": s["integrity"],
        "checkpoint.s": s["checkpoint"],
        "faults.injected": counts["faults.injected"],
        "faults.host_fallbacks": counts["faults.host_fallbacks"],
        "shm.s": s["shm"],
    }
    metrics = {name: value / passes for name, value in per_pass.items()}
    metrics["codegen.kernel_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    exec_s = recorder.outer_s["exec"]
    covered = sum(s[layer] for layer in EXEC_LAYERS)
    metrics["trace.exec_coverage"] = covered / exec_s if exec_s else 0.0
    return metrics
