"""Seeded fault campaigns over the benchmark suite.

A campaign runs each workload once fault-free (the baseline) and then
under *N* seeded fault scenarios, asserting the resilience contract:

* **bit-identical outputs** — recovery may cost time but never changes
  results (``numpy.array_equal``, not ``allclose``).  A scenario with
  *SDC escapes* (silent corruption the integrity mode deliberately left
  undetected, e.g. ``integrity_mode="off"``) is exempt: escaped
  corruption reaching host output is exactly what the escape counter
  reports, not a contract violation;
* **recovery is never free** — whenever a scenario injected at least one
  announced fault, simulated time strictly exceeds the baseline.  Silent
  detection and repair also charge the clock, but host-side checksum
  time can hide under DMA/kernel slack, so it must only never *reduce*
  time (undetected silent faults cost nothing by definition);
* **visible accounting** — scenarios that injected faults report nonzero
  :class:`~repro.faults.stats.FaultStats` totals, including the
  per-site injected/detected/corrected/escaped coverage matrix.

Each scenario's plan seed is derived from ``(campaign seed, scenario
index, crc32(workload name))`` so scenarios are independent, workloads
are decorrelated, and the whole campaign replays exactly from one seed.
"""

from __future__ import annotations

import dataclasses
import zlib
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ExecutionError
from repro.faults.plan import FaultPlan, split_device_key
from repro.faults.policy import ResiliencePolicy
from repro.faults.stats import FaultStats
from repro.hardware.device import PROBE_SEMANTICS
from repro.obs.provenance import build_provenance

#: Pool class used for ``jobs > 1`` fan-out; a module attribute so tests
#: can substitute a thread pool or a deliberately crashing double.
_POOL_CLS = ProcessPoolExecutor

#: Per-process baseline memo: each worker re-derives a workload's
#: fault-free baseline at most once, keyed on everything that determines
#: it.  Baselines are deterministic, so worker-local recomputation
#: cannot perturb campaign results.
_BASELINE_MEMO: Dict[tuple, object] = {}


def scenario_seed(seed: int, scenario: int, workload: str) -> tuple:
    """The derived fault-plan seed for one (scenario, workload) cell."""
    return (seed, scenario, zlib.crc32(workload.encode("utf-8")))


def outputs_identical(
    base: Dict[str, np.ndarray], other: Dict[str, np.ndarray]
) -> bool:
    """True when both runs produced bit-identical output arrays."""
    if set(base) != set(other):
        return False
    return all(np.array_equal(base[name], other[name]) for name in base)


@dataclass
class ScenarioOutcome:
    """One (workload, scenario) cell of a campaign."""

    workload: str
    scenario: int
    plan_seed: tuple
    baseline_time: float
    time: float
    identical: bool
    stats: FaultStats
    #: Interpreter error message when escaped corruption crashed the
    #: program (e.g. a flipped byte drove ``log`` out of its domain);
    #: None for scenarios that ran to completion.
    error: Optional[str] = None

    @property
    def faults_injected(self) -> int:
        """Faults the scenario's plan injected into the run."""
        return self.stats.total_injected

    @property
    def ok(self) -> bool:
        """The resilience contract held for this cell."""
        if self.error is not None:
            # A crash is acceptable only as the visible consequence of
            # corruption the integrity mode deliberately let escape.
            return self.stats.sdc_escapes > 0
        if not self.identical and self.stats.sdc_escapes == 0:
            return False
        announced = self.faults_injected - self.stats.silent_injected
        if announced and self.time <= self.baseline_time:
            return False  # announced recovery is never free
        if self.time < self.baseline_time:
            return False  # integrity work can overlap slack, not undo time
        return True

    def as_dict(self) -> dict:
        """Plain-dict view for the summary JSON."""
        return {
            "workload": self.workload,
            "scenario": self.scenario,
            "plan_seed": list(self.plan_seed),
            "baseline_time": self.baseline_time,
            "time": self.time,
            "identical": self.identical,
            "ok": self.ok,
            "error": self.error,
            "silent_injected": self.stats.silent_injected,
            "silent_detected": self.stats.silent_detected,
            "sdc_escapes": self.stats.sdc_escapes,
            "stats": self.stats.as_dict(),
        }


@dataclass
class CampaignResult:
    """Every scenario outcome plus campaign-wide aggregates."""

    seed: int
    scenarios: int
    variant: str
    #: Interpreter engine the campaign ran under (None = per-workload).
    engine: Optional[str] = None
    #: Coprocessor cards every scenario machine was configured with.
    devices: int = 1
    #: The resilience policy every scenario ran with (knob overrides
    #: included), recorded so a summary JSON is self-describing.
    policy: Optional[ResiliencePolicy] = None
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    #: True when the campaign was cut short (interrupt or worker crash)
    #: and ``outcomes`` holds only the completed prefix.
    partial: bool = False

    @property
    def ok(self) -> bool:
        """True when every scenario honoured the resilience contract."""
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def totals(self) -> FaultStats:
        """Aggregate fault stats across all scenarios."""
        return FaultStats.merge(outcome.stats for outcome in self.outcomes)

    def as_dict(self) -> dict:
        """The summary JSON payload (``repro faults --out``)."""
        return {
            "provenance": build_provenance(seed=self.seed, engine=self.engine),
            "seed": self.seed,
            "scenarios": self.scenarios,
            "variant": self.variant,
            "engine": self.engine,
            "devices": self.devices,
            "policy": (
                dataclasses.asdict(self.policy) if self.policy is not None else None
            ),
            "ok": self.ok,
            "partial": self.partial,
            "totals": self.totals.as_dict(),
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
        }


def _baseline(name, seed, variant, engine, devices=1):
    """The (memoized) fault-free baseline run for one workload.

    The memo makes the worker-process path cheap: a worker handed
    several scenarios of the same workload re-runs the baseline once,
    not per scenario.  Baselines are deterministic functions of the key,
    so memoization is invisible in the results.  The baseline runs at
    the campaign's device count: the "recovery is never free" contract
    compares a faulted fleet against the same healthy fleet, not against
    a single card.
    """
    from repro.workloads.suite import get_workload

    key = (name, seed, variant, engine, devices)
    hit = _BASELINE_MEMO.get(key)
    if hit is None:
        workload = get_workload(name, seed=seed)
        machine = workload.machine(devices=devices)
        hit = workload.run(variant, machine=machine, engine=engine)
        _BASELINE_MEMO[key] = hit
    return hit


def _scenario_cell(
    name: str,
    k: int,
    seed: int,
    variant: str,
    engine: Optional[str],
    rates: Optional[Dict[str, float]],
    policy: ResiliencePolicy,
    tracer=None,
    devices: int = 1,
) -> ScenarioOutcome:
    """Run one (workload, scenario) cell; module-level so pool workers
    can receive it by pickled reference."""
    from repro.workloads.suite import get_workload

    baseline = _baseline(name, seed, variant, engine, devices)
    workload = get_workload(name, seed=seed)
    plan_seed = scenario_seed(seed, k, name)
    plan = FaultPlan(seed=plan_seed, rates=rates)
    machine = workload.machine(
        fault_plan=plan, resilience=policy, tracer=tracer, devices=devices
    )
    error = None
    try:
        run = workload.run(variant, machine=machine, engine=engine)
    except ExecutionError as exc:
        # Escaped silent corruption can crash the program it reaches (a
        # flipped input byte driving a math builtin out of its domain).
        # The crash is itself the visible symptom the escape counter
        # reports, so record the scenario instead of aborting the
        # campaign; the finalize sweep below books the still-pending
        # corruption records as escapes.
        machine.finalize_integrity()
        error = str(exc)
        run = None
    return ScenarioOutcome(
        workload=name,
        scenario=k,
        plan_seed=plan_seed,
        baseline_time=baseline.time,
        time=machine.clock.now if run is None else run.time,
        identical=(
            run is not None
            and outputs_identical(baseline.outputs, run.outputs)
        ),
        stats=machine.fault_stats,
        error=error,
    )


#: Public name for single-cell execution — the campaign service runs
#: individual cells as jobs through the same code path the ``--jobs``
#: fan-out uses, so a service cell is bit-identical to a CLI cell.
scenario_cell = _scenario_cell


def validate_campaign_config(
    rates: Optional[Dict[str, float]],
    policy: ResiliencePolicy,
    devices: int = 1,
) -> None:
    """Reject rate/policy combinations the device context cannot honour.

    Every error names the offending key exactly as the user wrote it —
    including its ``devK:`` scope — so a multi-site plan cannot hide a
    bad device-scoped key behind a zero rate or a fleet-wide default.
    """
    if devices < 1:
        raise ValueError(f"device count must be >= 1, got {devices}")
    for key in sorted(rates or {}):
        dev_index, rest = split_device_key(key)
        site = rest.partition(":")[0]
        if dev_index is not None and dev_index >= devices:
            raise ValueError(
                f"fault rate key {key!r} targets device dev{dev_index}, but "
                f"the campaign runs {devices} device(s) (numbered dev0.."
                f"dev{devices - 1}); raise --devices or drop the key"
            )
        if dev_index is not None and devices == 1:
            raise ValueError(
                f"fault rate key {key!r} is scoped to dev{dev_index}, but a "
                f"one-card run draws its faults without a device index; "
                f"drop the 'dev{dev_index}:' prefix and write {rest!r}"
            )
        if (
            site == "device"
            and rates[key] > 0.0
            and devices == 1
            and policy.checkpoint_interval <= 0
        ):
            raise ValueError(
                f"rate key {key!r} schedules device resets but the "
                f"single-device policy has checkpointing disabled; set "
                f"checkpoint_interval > 0 (e.g. --policy "
                f"checkpoint_interval=4) so resets are survivable, or run "
                f"with --devices > 1 so failover replaces restart"
            )
    if (
        devices > 1
        and policy.backoff_max is not None
        and policy.backoff_max > PROBE_SEMANTICS.cost
    ):
        raise ValueError(
            f"backoff_max ({policy.backoff_max}) must not exceed the fleet's "
            f"re-admission probe cost ({PROBE_SEMANTICS.cost}) when running "
            f"with --devices {devices}: a retry pause longer than a probe "
            f"round trip starves the scheduler's health checks"
        )


def run_campaign(
    names: Optional[List[str]] = None,
    scenarios: int = 3,
    seed: int = 0,
    variant: str = "opt",
    engine: Optional[str] = None,
    rates: Optional[Dict[str, float]] = None,
    policy: Optional[ResiliencePolicy] = None,
    tracer_factory=None,
    jobs: int = 1,
    devices: int = 1,
) -> CampaignResult:
    """Run the fault campaign; returns outcomes for every cell.

    *tracer_factory*, when given, is called as ``factory(name, scenario)``
    per fault scenario and may return a :class:`repro.obs.Tracer`; the
    scenario then runs instrumented (fault firings and recovery actions
    become trace events).  Baseline runs are never traced.

    *devices* > 1 runs every scenario (and its baseline) on a simulated
    multi-card fleet with device-loss failover; device-scoped rate keys
    (``dev0:device``) are validated against the fleet size up front, and
    rejected on one card, whose draws carry no device index.

    *jobs* > 1 fans scenario cells out over a process pool.  Every
    cell's fault plan is seeded by :func:`scenario_seed` — a pure
    function of the campaign seed and the cell coordinates — and
    outcomes are collected in submission order, so the summary is
    byte-identical regardless of worker count.  ``KeyboardInterrupt`` or
    a worker crash cancels the outstanding cells and returns the
    completed prefix with :attr:`CampaignResult.partial` set.  Tracing
    is incompatible with fan-out (tracers cannot cross processes).

    The import of the workload registry is deferred so the faults
    package stays importable from the runtime layer without cycles.
    """
    from repro.workloads.suite import workload_names

    names = list(names) if names else workload_names()
    policy = policy or ResiliencePolicy()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs > 1 and tracer_factory is not None:
        raise ValueError(
            "campaign tracing requires --jobs 1: tracers record in-process "
            "and cannot be merged back from pool workers"
        )
    validate_campaign_config(rates, policy, devices)
    result = CampaignResult(
        seed=seed, scenarios=scenarios, variant=variant, engine=engine,
        devices=devices, policy=policy,
    )
    cells = [(name, k) for name in names for k in range(scenarios)]
    if jobs == 1:
        for name, k in cells:
            tracer = (
                tracer_factory(name, k) if tracer_factory is not None else None
            )
            result.outcomes.append(
                _scenario_cell(
                    name, k, seed, variant, engine, rates, policy, tracer,
                    devices,
                )
            )
        return result

    pool = _POOL_CLS(max_workers=jobs)
    try:
        futures = [
            pool.submit(
                _scenario_cell, name, k, seed, variant, engine, rates, policy,
                None, devices,
            )
            for name, k in cells
        ]
        # Collect in submission order — the same order the sequential
        # path appends — so worker count never reorders the summary.
        for future in futures:
            result.outcomes.append(future.result())
    except (KeyboardInterrupt, BrokenExecutor):
        # A dead worker (or the user's ^C) would otherwise leave the
        # remaining futures running/queued forever; cancel them and
        # report what finished as an explicitly partial campaign.
        pool.shutdown(wait=False, cancel_futures=True)
        result.partial = True
        return result
    finally:
        if not result.partial:
            pool.shutdown(wait=True, cancel_futures=False)
    return result
