"""Benchmark execution harness with caching and isolated optimizations.

Section VI methodology: each benchmark runs as the parallel CPU version,
the unoptimized MIC port, and the COMP-optimized MIC version; speedups
are ratios of whole-program (simulated) execution times.  The paper also
reports per-optimization speedups (Table II's parentheses, Figures 12,
14, 15); those come from *isolated* configurations that enable one
optimization stage at a time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.service.store import ResultStore
from repro.transforms.pipeline import OptimizationPlan
from repro.workloads.base import MiniCWorkload, Workload, WorkloadRun
from repro.workloads.suite import get_workload, workload_names


@dataclass
class BenchmarkResult:
    """The three standard variants of one benchmark."""

    name: str
    runs: Dict[str, WorkloadRun] = field(default_factory=dict)

    @property
    def cpu_time(self) -> float:
        """Simulated time of the parallel CPU variant."""
        return self.runs["cpu"].time

    @property
    def mic_time(self) -> float:
        """Simulated time of the unoptimized MIC variant."""
        return self.runs["mic"].time

    @property
    def opt_time(self) -> float:
        """Simulated time of the COMP-optimized variant."""
        return self.runs["opt"].time

    @property
    def unopt_speedup(self) -> float:
        """Figure 1: naive MIC offload over the parallel CPU version."""
        return self.cpu_time / self.mic_time

    @property
    def opt_speedup(self) -> float:
        """Figure 10: optimized MIC over the parallel CPU version."""
        return self.cpu_time / self.opt_time

    @property
    def relative_gain(self) -> float:
        """Figure 11: optimized MIC over unoptimized MIC."""
        return self.mic_time / self.opt_time

    def outputs_match(self, rtol: float = 1e-5, atol: float = 1e-6) -> bool:
        """All variants computed the same results."""
        base = self.runs["cpu"].outputs
        for variant in ("mic", "opt"):
            other = self.runs[variant].outputs
            for key, value in base.items():
                if key not in other:
                    return False
                if not np.allclose(value, other[key], rtol=rtol, atol=atol):
                    return False
        return True


#: Stages that make up each named optimization for isolation runs.
#: Thread reuse and the memory-usage optimization are part of data
#: streaming in the paper (Section III).
ISOLATION_PLANS = {
    "streaming": dict(merging=False),
    "merging": dict(streaming=False, regularization=False, thread_reuse=False),
    "regularization": dict(streaming=False, merging=False, thread_reuse=False),
}


class SuiteRunner:
    """Runs and caches benchmark variants.

    *engine* selects the interpreter engine ("auto", "codegen", "batch",
    "tree", or None for per-workload defaults) for every run this
    harness issues; it participates in the cache key so one runner can
    compare engines.
    *seed* reseeds workload input generation (the global ``--seed``
    flag); None keeps each workload's fixed default inputs.
    *tracer_factory*, when given, is called as ``factory(name, variant)``
    per run and must return a :class:`repro.obs.Tracer` (or None); the
    run then executes on an instrumented machine.
    *devices* sizes the simulated offload fleet; above 1 every run
    executes on a multi-device machine with block sharding and failover
    (outputs stay bit-identical to the single-device run).
    *metrics*, when given, receives ``harness.cache.hits`` /
    ``harness.cache.misses`` counters from the run cache.

    The run cache is a :class:`~repro.service.store.ResultStore`, so a
    runner shared across threads (the campaign service keeps warm
    runners per worker) computes each variant exactly once even under
    concurrent identical requests.
    """

    def __init__(
        self,
        engine: Optional[str] = None,
        seed: Optional[int] = None,
        tracer_factory=None,
        devices: int = 1,
        metrics=None,
    ) -> None:
        if devices < 1:
            raise ValueError(f"devices must be >= 1, got {devices}")
        self.engine = engine
        self.seed = seed
        self.tracer_factory = tracer_factory
        self.devices = devices
        self._store: ResultStore = ResultStore(
            metrics=metrics, name="harness.cache"
        )

    def cache_stats(self) -> Tuple[int, int, int]:
        """``(hits, misses, size)`` of the run cache."""
        return self._store.stats()

    def _machine_for(self, workload: Workload, name: str, variant: str):
        tracer = None
        if self.tracer_factory is not None:
            tracer = self.tracer_factory(name, variant)
        return workload.machine(tracer=tracer, devices=self.devices)

    # -- standard variants ---------------------------------------------------

    def run_variant(self, name: str, variant: str) -> WorkloadRun:
        """Run (or fetch cached) one variant of one benchmark."""
        key = (name, variant, None, self.engine, self.seed, self.devices)

        def compute() -> WorkloadRun:
            workload = get_workload(name, seed=self.seed)
            return workload.run(
                variant,
                machine=self._machine_for(workload, name, variant),
                engine=self.engine,
            )

        return self._store.get_or_compute(key, compute)

    def run_benchmark(self, name: str) -> BenchmarkResult:
        """Run all three variants of one benchmark."""
        return BenchmarkResult(
            name=name,
            runs={v: self.run_variant(name, v) for v in ("cpu", "mic", "opt")},
        )

    def run_suite(self, names: Optional[List[str]] = None) -> Dict[str, BenchmarkResult]:
        """Run every requested benchmark; returns results by name."""
        return {
            name: self.run_benchmark(name)
            for name in (names or workload_names())
        }

    # -- isolated optimizations ---------------------------------------------------

    def run_isolated(self, name: str, optimization: str) -> WorkloadRun:
        """Run the MIC version with only *optimization* enabled."""
        if optimization not in ISOLATION_PLANS:
            raise KeyError(
                f"unknown optimization {optimization!r}; "
                f"know {sorted(ISOLATION_PLANS)}"
            )
        key = (name, "opt", optimization, self.engine, self.seed, self.devices)

        def compute() -> WorkloadRun:
            workload = get_workload(name, seed=self.seed)
            if not isinstance(workload, MiniCWorkload):
                raise TypeError(
                    f"{name} is not a MiniC workload; isolation applies to "
                    f"compiler-transformed benchmarks"
                )
            overrides = ISOLATION_PLANS[optimization]
            workload.plan = dataclasses.replace(workload.plan, **overrides)
            # Isolation runs stay untraced.
            machine = workload.machine(devices=self.devices)
            return workload.run("opt", machine=machine, engine=self.engine)

        return self._store.get_or_compute(key, compute)

    def isolated_gain(self, name: str, optimization: str) -> float:
        """Speedup of one optimization over the unoptimized MIC version."""
        mic = self.run_variant(name, "mic")
        isolated = self.run_isolated(name, optimization)
        return mic.time / isolated.time
