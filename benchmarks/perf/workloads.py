"""The four benchmark workloads.

Each workload does its set-up in ``setup()``, which ``setup_s`` times,
then ``measure()`` drives public entry points for the given number of
seconds and returns a :class:`Measurement`.  All inputs derive from the
seed.  Outputs are checked outside the timed region of every operation.

* ``suite`` and ``vector-kernels`` run Table II benchmarks through
  ``Workload.run`` (cpu, mic and opt variants, engine ``auto``, one
  device);
* ``chaos-fleet`` runs ``run_campaign`` per benchmark on a three-card
  fleet with device loss, DMA faults and silent corruption;
* ``service-openloop`` drives an in-process ``CampaignService`` backed by
  a real process pool.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import sys
import time
import traceback
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.campaign import run_campaign
from repro.faults.policy import ResiliencePolicy
from repro.service.jobs import JobSpec, digest_arrays, execute_job
from repro.service.queue import AdmissionRejected
from repro.service.service import CampaignService
from repro.service.traffic import MINIC_TEMPLATES, TraceSpec, generate_trace
from repro.workloads.suite import get_workload, workload_names

from benchmarks.perf.golden import Checker, campaign_digest
from benchmarks.perf.layers import Recorder, layer_metrics
from benchmarks.perf.stats import median, nearest_rank, tail_percentile

VARIANTS = ("cpu", "mic", "opt")

#: Benchmarks whose parallel loops the codegen and batch tiers run; the
#: streamed ones among them are the DMA-heavy single-device workloads.
VECTOR_KERNELS = (
    "blackscholes", "streamcluster", "dedup", "kmeans", "cfd", "srad", "hotspot",
)

CHAOS_SCENARIOS = 3
CHAOS_DEVICES = 3
CHAOS_RATES = {"device": 0.1, "h2d": 0.05, "h2d:silent": 0.05, "kernel:sdc": 0.02}
CHAOS_POLICY = {"checkpoint_interval": 4, "integrity_mode": "full"}

#: Open-loop arrival rate (jobs/s), Poisson.
SERVICE_RATE = 100.0
#: Requests per trace seed.  Within one trace the quantized sizes make
#: keys recur; the next trace seed starts new keys.  At 35 requests per
#: trace, half of all requests repeat an earlier key.
SESSION_REQUESTS = 35
#: Run-time shares of the open loop and the inline re-execution.  At
#: 25 s the open loop sends ~2000 requests, ~1000 of which execute.
SERVICE_SHARES = (0.8, 0.2)
#: The service's operations count at this percentile, not the median;
#: see ``ServiceWorkload.measure``.
SERVICE_PERCENTILE = 10
#: The generator is too late to be trusted past this p99 lag.
MAX_GEN_LAG_MS = 20.0


class InvalidRun(RuntimeError):
    """The run's own conditions make its numbers untrustworthy."""


class Measurement:
    """Wall-time samples of one workload's operations.

    A pass is a fixed list of operations; its time is the sum of each
    operation's median (or other ``statistic``), so a run may end
    part-way through a pass.
    """

    def __init__(self, statistic: Callable[[List[float]], float] = median) -> None:
        self.op_s: Dict[str, List[float]] = defaultdict(list)
        self.compile_s: Dict[str, List[float]] = defaultdict(list)
        self.exec_s: Dict[str, List[float]] = defaultdict(list)
        #: How one operation's samples become its time in a pass.
        self.statistic = statistic
        self.attempted = 0
        self.passes = 0
        self.notes: List[str] = []

    def add(self, key: str, wall: float, compile_s: float, exec_s: float) -> None:
        self.op_s[key].append(wall)
        self.compile_s[key].append(compile_s)
        self.exec_s[key].append(exec_s)

    def pass_s(self) -> float:
        return sum(self.statistic(v) for v in self.op_s.values())

    def e2e(self) -> Dict[str, float]:
        return {
            "pass_s": self.pass_s(),
            "compile_s": sum(self.statistic(v) for v in self.compile_s.values()),
            "exec_s": sum(self.statistic(v) for v in self.exec_s.values()),
        }

    def samples(self) -> dict:
        """Every raw sample, for the result file."""
        return {"op_s": self.op_s, "compile_s": self.compile_s, "exec_s": self.exec_s}


def timed_op(checker: Checker, rec: Recorder, m: Measurement, key: str, call):
    """Run *call* as one timed operation; None when it raised."""
    c0, e0 = rec.snapshot()
    started = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # the benchmark keeps running and counts it
        traceback.print_exception(exc, file=sys.stderr)
        checker.fail(f"{key}: {type(exc).__name__}: {exc}")
        return None
    wall = time.perf_counter() - started
    c1, e1 = rec.snapshot()
    m.add(key, wall, c1 - c0, e1 - e0)
    return result


class PassWorkload:
    """A workload made of fixed passes over a list of operations.

    Untraced, it runs passes until the time is up (the first pass always
    completes).  Traced, it alternates whole untraced and traced passes.
    """

    def __init__(self, seed: int, checker: Checker) -> None:
        self.seed = seed
        self.checker = checker

    def setup(self) -> None:
        pass

    def run_pass(self, rec: Recorder, m: Measurement, deadline: Optional[float]) -> bool:
        """Run one pass; stop early (returning False) past *deadline*."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def measure(self, seconds: float, traced: bool):
        deadline = time.perf_counter() + seconds
        m = Measurement()
        if not traced:
            with Recorder() as rec:
                self.run_pass(rec, m, None)
                m.passes += 1
                while time.perf_counter() < deadline:
                    if self.run_pass(rec, m, deadline):
                        m.passes += 1
            return m, {}, None
        # Whole untraced and traced passes alternate, so the overhead
        # ratio compares passes run close together in time.
        base, base_rec, rec = Measurement(), Recorder(), Recorder(traced=True)
        while True:
            began = time.perf_counter()
            for recorder, sink in ((base_rec, base), (rec, m)):
                with recorder:
                    self.run_pass(recorder, sink, None)
                sink.passes += 1
            now = time.perf_counter()
            if now + (now - began) > deadline:
                break
        m.attempted += base.attempted
        layers = layer_metrics(rec, m.passes)
        layers["trace.overhead_ratio"] = m.pass_s() / base.pass_s()
        return m, layers, rec


class ProgramWorkload(PassWorkload):
    """Every variant of a list of Table II benchmarks, engine ``auto``."""

    def __init__(self, names, seed: int, checker: Checker) -> None:
        super().__init__(seed, checker)
        self.names = list(names)

    def setup(self) -> None:
        self.workloads = {n: get_workload(n, seed=self.seed) for n in self.names}

    def run_pass(self, rec, m, deadline) -> bool:
        for name, workload in self.workloads.items():
            runs = {}
            for variant in VARIANTS:
                if deadline is not None and time.perf_counter() >= deadline:
                    return False
                m.attempted += 1
                run = timed_op(
                    self.checker, rec, m, f"{name}/{variant}",
                    lambda: workload.run(variant, engine="auto"),
                )
                if run is not None:
                    self.checker.program(name, variant, run)
                    runs[variant] = run
            self.checker.variants(name, runs)
        return True


def chaos_campaign(name: str, seed: int, engine: Optional[str] = None):
    """One chaos-fleet operation: every scenario of one benchmark."""
    return run_campaign(
        [name], scenarios=CHAOS_SCENARIOS, seed=seed, variant="opt",
        engine=engine, rates=CHAOS_RATES,
        policy=ResiliencePolicy(**CHAOS_POLICY), devices=CHAOS_DEVICES,
    )


class ChaosWorkload(PassWorkload):
    """Seeded fault campaigns over the vector kernels on a 3-card fleet."""

    def run_pass(self, rec, m, deadline) -> bool:
        results = []
        for name in VECTOR_KERNELS:
            if deadline is not None and time.perf_counter() >= deadline:
                return False
            m.attempted += CHAOS_SCENARIOS
            result = timed_op(
                self.checker, rec, m, name, lambda: chaos_campaign(name, self.seed)
            )
            if result is None:
                continue
            if result.partial:
                self.checker.fail(f"{name}: campaign cut short")
            for outcome in result.outcomes:
                if not outcome.ok:
                    self.checker.fail(
                        f"{name}/s{outcome.scenario}: resilience contract violated"
                    )
            totals = result.totals
            rec.counts["faults.injected"] += totals.total_injected
            rec.counts["faults.host_fallbacks"] += totals.host_fallbacks
            results.append(result)
        if len(results) == len(VECTOR_KERNELS):
            self.checker.campaign(campaign_digest(results))
        return True


# -- service ------------------------------------------------------------------


def session_trace(seed: int, session: int) -> TraceSpec:
    """The run-job traffic of one trace seed, from the replay-trace model."""
    return TraceSpec(
        seed=seed * 10_000 + session, requests=SESSION_REQUESTS,
        base_rate=SERVICE_RATE, burst_factor=1.0, classes=(("run", 1.0),),
    )


def job_class(spec: JobSpec) -> str:
    """``template/n/optimize`` of a run job, e.g. ``scale/64/O1``."""
    n = int(spec.scalars[0].partition("=")[2])
    template = next(
        name for name, text in MINIC_TEMPLATES.items() if text.format(n=n) == spec.source
    )
    return f"{template}/{n}/O{int(spec.optimize)}"


def job_group(spec: JobSpec) -> str:
    """``plain`` or ``optimized``: what sets a run job's time.

    The sizes of the trace model barely matter; ``CompOptimizer`` makes
    a job over ten times slower.
    """
    return "optimized" if spec.optimize else "plain"


def _expected_outputs(cls: str) -> Dict[str, str]:
    """Digests numpy predicts for one run job: B = A*2 or A+3."""
    template, n, _ = cls.split("/")
    a = np.arange(int(n), dtype=np.float32)
    b = a * np.float32(2.0) if template == "scale" else a + np.float32(3.0)
    return digest_arrays({"A": a, "B": b})


class ServiceWorkload:
    """An open loop of MiniC run jobs against a process-pool service."""

    def __init__(self, seed: int, checker: Checker) -> None:
        self.workers = (os.cpu_count() or 1) - 1
        if self.workers < 1:
            raise InvalidRun("a process pool of nproc-1 workers needs nproc >= 2")
        self.seed = seed
        self.checker = checker
        self._class_of: Dict[JobSpec, str] = {}
        self._expected: Dict[str, Dict[str, str]] = {}

    # -- inputs -------------------------------------------------------------

    def _session(self, session: int):
        """Arrivals of one trace seed, with every job's class recorded."""
        arrivals = generate_trace(session_trace(self.seed, session))
        for arrival in arrivals:
            cls = self._class_of.setdefault(arrival.spec, job_class(arrival.spec))
            if cls not in self._expected:
                self._expected[cls] = _expected_outputs(cls)
        return arrivals

    def _schedule(self, duration: float) -> List[Tuple[float, JobSpec]]:
        """Poisson arrivals over *duration* seconds, one trace seed after another."""
        schedule, start = [], 0.0
        for session in itertools.count(1):
            arrivals = self._session(session)
            for arrival in arrivals:
                if start + arrival.t >= duration:
                    return schedule
                schedule.append((start + arrival.t, arrival.spec))
            start += arrivals[-1].t

    def _check(self, spec: JobSpec, result: Optional[dict]) -> None:
        if result is None or not result.get("ok"):
            self.checker.fail(f"run job {spec.key_id()}: no result")
        elif result["outputs"] != self._expected[self._class_of[spec]]:
            self.checker.fail(f"run job {spec.key_id()}: output differs from numpy")

    # -- lifecycle ----------------------------------------------------------

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.service = CampaignService(workers=self.workers, max_depth=1_000_000)
        self.loop.run_until_complete(self._warm())
        spawned = len(self.service.pool.worker_pids())
        if spawned > self.workers:
            raise InvalidRun(f"pool spawned {spawned} workers, limit nproc-1={self.workers}")

    async def _warm(self) -> None:
        """Start the pool and run trace seed 0, which the open loop never uses."""
        await self.service.start()
        specs = [arrival.spec for arrival in self._session(0)]
        jobs = [self.service.submit(spec) for spec in specs]
        results = await asyncio.gather(
            *(self.service.result(job) for job in jobs), return_exceptions=True
        )
        for spec, result in zip(specs, results):
            self._check(spec, None if isinstance(result, BaseException) else result)

    def close(self) -> None:
        self.loop.run_until_complete(self.service.close())
        self.loop.close()

    # -- phases -------------------------------------------------------------

    async def _follow(self, job, spec: JobSpec, due: float) -> dict:
        """Stamp every stream event of *job* as the client receives it."""
        stamps: Dict[str, float] = {}
        result = None
        async for event in self.service.stream(job):
            stamps[event["event"]] = time.perf_counter()
            if event["event"] == "result":
                result = event["result"]
                stamps["cached_result"] = event["cached"]
        latency_s = time.perf_counter() - due
        self._check(spec, result)
        return {"latency_s": latency_s, "spec": spec, "stamps": stamps}

    async def _open_loop(self, schedule) -> dict:
        tasks, lags, submit_ms = [], [], []
        start = time.perf_counter() + 0.01
        for offset, spec in schedule:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            lags.append((sent - due) * 1e3)
            try:
                job = self.service.submit(spec)
            except AdmissionRejected as exc:
                self.checker.fail(f"request rejected: {exc}")
                continue
            submit_ms.append((time.perf_counter() - sent) * 1e3)
            tasks.append(asyncio.create_task(self._follow(job, spec, due)))
        records = await asyncio.gather(*tasks)
        return {"records": records, "lags": lags, "submit_ms": submit_ms}

    def _inline_round(self, rec: Recorder, m: Measurement, specs: Dict[str, JobSpec]) -> None:
        """Re-run one job of every class in-process through execute_job."""
        with rec:
            for spec in specs.values():
                m.attempted += 1
                result = timed_op(
                    self.checker, rec, m, job_group(spec),
                    lambda: execute_job(spec.as_dict()),
                )
                if result is not None:
                    self._check(spec, result)
        m.passes += 1

    def measure(self, seconds: float, traced: bool):
        # Every service time is a 10th percentile: a request (or inline
        # job) that met neither a busy worker nor a slow spell of the
        # host.  Over ten seeds its spread was 5-16%, the median's
        # 14-27%: the median of plain jobs sits where queueing behind
        # optimized jobs begins.  Queueing is measured per layer instead.
        statistic = functools.partial(nearest_rank, p=SERVICE_PERCENTILE)
        m = Measurement(statistic)
        open_share, inline_share = SERVICE_SHARES
        schedule = self._schedule(seconds * open_share)

        # Inline rounds give compile_s and exec_s.  They run on both
        # sides of the open loop, so one slow spell of the host does not
        # cover them all.  Traced, untraced and traced rounds alternate.
        specs = dict(sorted({self._class_of[spec]: spec for _, spec in schedule}.items()))
        inline, base = Measurement(statistic), Measurement(statistic)
        rounds = [(Recorder(traced=traced), inline)]
        if traced:
            rounds.insert(0, (Recorder(), base))

        def inline_phase() -> None:
            end = time.perf_counter() + seconds * inline_share / 2
            while time.perf_counter() < end or not inline.passes:
                for recorder, sink in rounds:
                    self._inline_round(recorder, sink, specs)

        inline_phase()
        store_before = self.service.store.cache_stats()
        loop_out = self.loop.run_until_complete(self._open_loop(schedule))
        store_after = self.service.store.cache_stats()
        inline_phase()
        m.attempted += len(schedule) + inline.attempted + base.attempted
        m.compile_s, m.exec_s = inline.compile_s, inline.exec_s

        # A pass is one plain and one optimized request that a worker
        # executes, and one of each that the store serves (a hit or a
        # coalesced wait), each timed from its due time.  The four kinds
        # differ up to fortyfold, so each gets its own percentile.
        served = Counter()
        for r in loop_out["records"]:
            how = "stored" if r["stamps"].get("cached_result") else "executed"
            served[how] += 1
            m.op_s[f"{job_group(r['spec'])}/{how}"].append(r["latency_s"])

        rec, layers = None, {}
        if traced:
            rec = rounds[-1][0]
            # Per pass: one plain and one optimized job.
            layers = layer_metrics(rec, inline.attempted / len(inline.op_s))
            layers["trace.overhead_ratio"] = inline.pass_s() / base.pass_s()

        gen_lag_p99 = nearest_rank(loop_out["lags"], 99)
        if gen_lag_p99 > MAX_GEN_LAG_MS:
            raise InvalidRun(
                f"generator p99 lag {gen_lag_p99:.1f} ms exceeds {MAX_GEN_LAG_MS} ms"
            )
        layers.update(self._service_layers(loop_out, store_before, store_after, inline, m))
        layers["service.gen_lag_ms_p99"] = gen_lag_p99
        m.notes.append(
            f"open loop: {len(schedule)} requests at {SERVICE_RATE:g} jobs/s, "
            f"{served['executed']} executed, {served['stored']} from the store; "
            f"{inline.passes} inline rounds of {len(specs)} job classes"
        )
        return m, layers, rec

    def _service_layers(self, loop_out, before, after, inline, m) -> Dict[str, float]:
        """Latency and per-stage times of the open loop, from event stamps."""
        records = loop_out["records"]
        latency, waits = [], []
        executes: Dict[str, List[float]] = defaultdict(list)
        inline_ms = {group: median(v) * 1e3 for group, v in inline.op_s.items()}
        coalesced = 0
        for r in records:
            stamps = r["stamps"]
            latency.append(r["latency_s"] * 1e3)
            coalesced += "coalesced" in stamps
            if "queued" in stamps and "started" in stamps:
                waits.append((stamps["started"] - stamps["queued"]) * 1e3)
            if "started" in stamps and stamps.get("cached_result") is False:
                executes[job_group(r["spec"])].append(
                    (stamps["result"] - stamps["started"]) * 1e3
                )
        # Worker and IPC times are per pass, one job of each group: a
        # median over all jobs would land on one group or the other.
        ipc = sum(median(v) - inline_ms[group] for group, v in executes.items())
        all_executes = [v for values in executes.values() for v in values]
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        tails = {}
        for name, values in (("latency", latency), ("queue_wait", waits),
                             ("execute", all_executes)):
            p, tails[name] = tail_percentile(values)
            m.notes.append(f"service.{name}_ms_tail is p{p:g} of {len(values)} samples")
        return {
            "service.latency_ms_p50": median(latency),
            "service.latency_ms_tail": tails["latency"],
            "service.submit_ms": median(loop_out["submit_ms"]),
            "service.queue_wait_ms_p50": median(waits),
            "service.queue_wait_ms_tail": tails["queue_wait"],
            "service.execute_ms_p50": median(all_executes),
            "service.execute_ms_tail": tails["execute"],
            "service.worker_exec_ms": sum(inline_ms.values()),
            "service.ipc_ms": ipc,
            "service.store_hit_ratio": hits / lookups if lookups else 0.0,
            "service.coalesced_ratio": coalesced / len(records),
            "service.pool_restarts": self.service.supervisor.stats()["restarts"],
        }


WORKLOADS = {
    "suite": lambda seed, checker: ProgramWorkload(workload_names(), seed, checker),
    "vector-kernels": lambda seed, checker: ProgramWorkload(VECTOR_KERNELS, seed, checker),
    "chaos-fleet": ChaosWorkload,
    "service-openloop": ServiceWorkload,
}
