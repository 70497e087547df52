"""Traffic-trace scenario generator and deterministic trace replay.

This module gives the campaign service a chaos-testing harness: seeded
synthetic traffic traces with realistically ugly arrival patterns,
replayed against warm simulator workers, summarized in a document that
is **byte-identical for any worker count**.

A :class:`TraceSpec` describes a trace as data: a Markov-modulated
Poisson arrival process (a base rate multiplied by ``burst_factor``
during exponentially-distributed "on" bursts), a mixed job-class
distribution (MiniC runs, bench suites, fault-campaign cells — the
fault cells make the trace a chaos scenario when ``rates`` are set),
and a Zipf-skewed tenant population whose rank also skews request
sizes, so one heavy tenant dominates exactly the way real multi-tenant
traffic does.  :func:`generate_trace` expands the spec into concrete
arrivals, each carrying a full :class:`~repro.service.jobs.JobSpec`.

Replay runs in two phases so determinism and parallelism don't fight:

* **Phase A — execute.**  Every *unique* job spec (by provenance key)
  runs once through a :class:`~repro.service.service.CampaignService`
  with an effectively-unbounded queue.  Results are pure functions of
  the spec, so scheduling and worker count cannot affect them.
* **Phase B — model.**  Queueing behaviour (admission rejections, wait
  latencies, utilization) comes from a *virtual-time* discrete-event
  model with ``model_servers`` abstract servers, using each job's
  simulated time as its service time.  The model is plain arithmetic
  over Phase A's deterministic outputs — no wall clock, no thread
  interleaving — which is what makes the replay summary byte-stable.

Wall-clock service telemetry (actual queue latency, jobs/sec) still
exists — it lives in the service's metrics registry and in the
``service-openloop`` workload of ``python -m benchmarks.perf``, never in
replay summaries.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import heapq
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.service.jobs import JobSpec, _pairs, check_policy

#: Job-class priorities: interactive runs preempt batch suites, which
#: preempt chaos probes (lower value runs first).
CLASS_PRIORITY = {"run": 0, "bench": 1, "faults": 2}

#: MiniC templates for the interactive ("run") job class.  ``{n}`` is
#: the tenant-skewed request size.
MINIC_TEMPLATES = {
    "scale": """
void main() {{
#pragma offload target(mic:0) in(A : length({n})) in(n) out(B : length({n}))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {{
        B[i] = A[i] * 2.0;
    }}
}}
""",
    "offset": """
void main() {{
#pragma offload target(mic:0) in(A : length({n})) in(n) out(B : length({n}))
#pragma omp parallel for
    for (int i = 0; i < n; i++) {{
        B[i] = A[i] + 3.0;
    }}
}}
""",
}


@dataclass(frozen=True)
class TraceSpec:
    """A seeded synthetic traffic trace, as plain JSON-able data."""

    seed: int = 0
    #: Number of arrivals to generate.
    requests: int = 24
    #: Baseline arrival rate (jobs per virtual second) outside bursts.
    base_rate: float = 2.0
    #: Rate multiplier while the burst state machine is "on".
    burst_factor: float = 5.0
    #: Mean burst ("on") duration, virtual seconds (exponential).
    mean_on: float = 1.5
    #: Mean gap ("off") duration, virtual seconds (exponential).
    mean_off: float = 4.0
    #: Tenant population size; rank-r tenant gets weight 1/(r+1)^skew.
    tenants: int = 3
    tenant_skew: float = 1.1
    #: Job-class mix as (kind, weight) pairs.
    classes: Tuple[Tuple[str, float], ...] = (
        ("run", 4.0), ("bench", 3.0), ("faults", 3.0),
    )
    engine: Optional[str] = None
    devices: int = 1
    #: Fault-campaign cells draw scenario indices from [0, scenarios).
    scenarios: int = 2
    #: Fault rates for the chaos ("faults") class; empty = plan defaults.
    rates: Tuple[Tuple[str, float], ...] = ()
    #: ResiliencePolicy overrides for the chaos class.
    policy: Tuple[Tuple[str, object], ...] = ()
    #: Attach per-job Chrome trace events to results (for Perfetto export).
    traced: bool = False
    #: Abstract server count for the virtual-time queue model.  This is
    #: a *spec* parameter, deliberately independent of how many real
    #: workers execute Phase A, so summaries never depend on worker count.
    model_servers: int = 2
    #: Virtual admission control (see AdmissionQueue semantics).
    max_depth: int = 32
    high_water: Optional[int] = None
    #: Retry-after hint granularity for modelled rejections.
    est_service_seconds: float = 0.25
    #: Per-tenant isolation, modelled in virtual time (None = off): a
    #: token bucket of ``tenant_rate`` admissions/second (burst
    #: ``tenant_burst``) per tenant, and a circuit breaker opening
    #: after ``breaker_failures`` consecutive failed jobs for
    #: ``breaker_cooldown`` virtual seconds.  Same state machines as
    #: the live service (:mod:`repro.service.isolation`), driven by
    #: arrival times instead of the wall clock, so gating decisions are
    #: part of the deterministic summary.
    tenant_rate: Optional[float] = None
    tenant_burst: float = 4.0
    breaker_failures: Optional[int] = None
    breaker_cooldown: float = 5.0

    def __post_init__(self):
        object.__setattr__(
            self, "classes",
            tuple((str(kind), float(weight)) for kind, weight in self.classes),
        )
        object.__setattr__(self, "rates", _pairs(self.rates))
        object.__setattr__(self, "policy", _pairs(self.policy))
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.tenants < 1:
            raise ValueError(f"tenants must be >= 1, got {self.tenants}")
        if self.model_servers < 1:
            raise ValueError(
                f"model_servers must be >= 1, got {self.model_servers}"
            )
        if self.base_rate <= 0:
            raise ValueError(f"base_rate must be > 0, got {self.base_rate}")
        if self.tenant_rate is not None and self.tenant_rate <= 0:
            raise ValueError(
                f"tenant_rate must be > 0, got {self.tenant_rate}"
            )
        if self.breaker_failures is not None and self.breaker_failures < 1:
            raise ValueError(
                f"breaker_failures must be >= 1, got {self.breaker_failures}"
            )
        for kind, _ in self.classes:
            if kind not in CLASS_PRIORITY:
                raise ValueError(
                    f"unknown job class {kind!r}: valid classes are "
                    + ", ".join(sorted(CLASS_PRIORITY))
                )
        # The chaos class's jobs carry these; reject them here, with the
        # checks JobSpec.validate applies, before any job runs.
        from repro.faults.campaign import validate_campaign_config

        validate_campaign_config(
            dict(self.rates), check_policy(self.policy), self.devices
        )

    @property
    def effective_high_water(self) -> int:
        if self.high_water is not None:
            return self.high_water
        return max(1, (self.max_depth * 3) // 4)

    def as_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["classes"] = [list(pair) for pair in self.classes]
        payload["rates"] = [list(pair) for pair in self.rates]
        payload["policy"] = [list(pair) for pair in self.policy]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown trace spec fields {sorted(unknown)}; "
                f"know {sorted(known)}"
            )
        data = dict(payload)
        for name in ("classes", "rates", "policy"):
            if name in data and data[name] is not None:
                data[name] = tuple(tuple(pair) for pair in data[name])
        return cls(**data)


def load_trace_spec(path: str) -> TraceSpec:
    """Read a :class:`TraceSpec` from a JSON file."""
    with open(path) as fh:
        return TraceSpec.from_dict(json.load(fh))


def save_trace_spec(path: str, spec: TraceSpec) -> None:
    """Write a :class:`TraceSpec` to a JSON file."""
    with open(path, "w") as fh:
        json.dump(spec.as_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- generation ---------------------------------------------------------------


@dataclass(frozen=True)
class Arrival:
    """One generated request: a job spec plus its arrival metadata."""

    index: int
    #: Virtual arrival time (seconds since trace start).
    t: float
    tenant: str
    kind: str
    priority: int
    spec: JobSpec


def _tenant_weights(spec: TraceSpec) -> np.ndarray:
    weights = np.array(
        [1.0 / (rank + 1) ** spec.tenant_skew for rank in range(spec.tenants)]
    )
    return weights / weights.sum()


def _job(spec: TraceSpec, kind: str, tenant: int, **fields) -> JobSpec:
    """One arrival's job: *fields* plus what every class takes from the
    trace spec (seed, engine, fleet, tracing) and from its tenant."""
    return JobSpec(
        kind=kind,
        seed=spec.seed,
        engine=spec.engine,
        devices=spec.devices,
        trace=spec.traced,
        priority=CLASS_PRIORITY[kind],
        tenant=f"t{tenant}",
        **fields,
    )


def _run_spec(spec: TraceSpec, rng: np.random.Generator, tenant: int) -> JobSpec:
    """An interactive MiniC job with a tenant-skewed (quantized) size."""
    template_name = sorted(MINIC_TEMPLATES)[int(rng.integers(len(MINIC_TEMPLATES)))]
    # Rank-0 tenants send small requests, heavier ranks bigger ones;
    # sizes quantize to a small set so identical requests recur (and
    # exercise the shared result store).
    size = 32 * (tenant + 1) * int(2 ** rng.integers(0, 3))
    return _job(
        spec, "run", tenant,
        source=MINIC_TEMPLATES[template_name].format(n=size),
        arrays=(f"A={size}:float:arange", f"B={size}:float:zeros"),
        scalars=(f"n={size}",),
        optimize=bool(rng.integers(2)),
    )


def _bench_spec(spec: TraceSpec, rng: np.random.Generator, tenant: int) -> JobSpec:
    from repro.workloads.suite import workload_names

    names = sorted(workload_names())
    return _job(spec, "bench", tenant, workload=names[int(rng.integers(len(names)))])


def _faults_spec(spec: TraceSpec, rng: np.random.Generator, tenant: int) -> JobSpec:
    from repro.workloads.suite import workload_names

    names = sorted(workload_names())
    return _job(
        spec, "faults", tenant,
        workload=names[int(rng.integers(len(names)))],
        variant="opt",
        scenario=int(rng.integers(max(1, spec.scenarios))),
        rates=spec.rates,
        policy=spec.policy,
    )


_CLASS_BUILDERS = {
    "run": _run_spec,
    "bench": _bench_spec,
    "faults": _faults_spec,
}


def generate_trace(spec: TraceSpec) -> List[Arrival]:
    """Expand *spec* into concrete arrivals; pure function of the spec.

    Arrival times follow a Markov-modulated Poisson process: the trace
    alternates exponentially-distributed "off" (base rate) and "on"
    (rate × ``burst_factor``) phases, so load comes in bursts rather
    than a smooth stream.  Tenants are drawn Zipf-skewed; each arrival's
    class, priority, and size derive from its tenant and class draw.
    """
    rng = np.random.default_rng(spec.seed)
    tenant_p = _tenant_weights(spec)
    class_names = [kind for kind, _ in spec.classes]
    class_w = np.array([weight for _, weight in spec.classes])
    class_p = class_w / class_w.sum()

    arrivals: List[Arrival] = []
    t = 0.0
    burst_on = False
    phase_end = float(rng.exponential(spec.mean_off))
    for index in range(spec.requests):
        rate = spec.base_rate * (spec.burst_factor if burst_on else 1.0)
        t += float(rng.exponential(1.0 / rate))
        while t >= phase_end:
            burst_on = not burst_on
            mean = spec.mean_on if burst_on else spec.mean_off
            phase_end += float(rng.exponential(mean))
        tenant = int(rng.choice(spec.tenants, p=tenant_p))
        kind = str(rng.choice(class_names, p=class_p))
        job = _CLASS_BUILDERS[kind](spec, rng, tenant)
        arrivals.append(
            Arrival(
                index=index,
                t=round(t, 9),
                tenant=f"t{tenant}",
                kind=kind,
                priority=CLASS_PRIORITY[kind],
                spec=job,
            )
        )
    return arrivals


# -- virtual-time queue model -------------------------------------------------


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def simulate_queue(
    arrivals: List[Arrival],
    service_times: List[float],
    model_servers: int,
    high_water: int,
    est_service_seconds: float = 0.25,
) -> List[dict]:
    """Deterministic discrete-event model of the admission queue.

    *service_times* aligns with *arrivals* (duplicates carry 0.0 —
    cache hits are free).  ``model_servers`` abstract servers pull the
    highest-priority waiting job whenever one frees; an arrival seeing
    ``high_water`` jobs already waiting is rejected with the same
    retry-after hint the live queue computes.  Pure arithmetic over its
    inputs — the returned records are what makes replay summaries
    byte-stable across worker counts.
    """
    free_at = [0.0] * model_servers  # heap of server free times
    heapq.heapify(free_at)
    waiting: List[Tuple[int, int, int]] = []  # (priority, seq, arrival idx)
    records: List[Optional[dict]] = [None] * len(arrivals)

    def start_waiting(now: Optional[float]) -> None:
        # Hand waiting jobs to servers that free up to virtual time
        # `now` (None = drain everything at end of trace).
        while waiting and (now is None or free_at[0] <= now):
            free = heapq.heappop(free_at)
            _, _, idx = heapq.heappop(waiting)
            arrival = arrivals[idx]
            start = max(free, arrival.t)
            finish = start + service_times[idx]
            records[idx] = {
                "started": round(start, 9),
                "finished": round(finish, 9),
                "queue_latency": round(start - arrival.t, 9),
            }
            heapq.heappush(free_at, finish)

    for idx, arrival in enumerate(arrivals):
        start_waiting(arrival.t)
        depth = len(waiting)
        if depth >= high_water:
            over = depth - high_water + 1
            records[idx] = {
                "rejected": True,
                "depth": depth,
                "retry_after": round(max(1, over) * est_service_seconds, 6),
            }
            continue
        # Admit: run immediately if a server is idle, else wait.
        if free_at[0] <= arrival.t:
            free = heapq.heappop(free_at)
            finish = arrival.t + service_times[idx]
            records[idx] = {
                "started": arrival.t,
                "finished": round(finish, 9),
                "queue_latency": 0.0,
            }
            heapq.heappush(free_at, finish)
        else:
            heapq.heappush(waiting, (arrival.priority, idx, idx))
    start_waiting(None)
    return [record for record in records]


# -- replay -------------------------------------------------------------------


def _result_digest(result: dict) -> str:
    """Canonical digest of a job result (trace events excluded)."""
    slim = {k: v for k, v in result.items() if k != "trace_events"}
    blob = json.dumps(slim, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _job_summary(result: dict) -> dict:
    """The per-unique-job block the replay summary embeds."""
    entry = {
        "kind": result["kind"],
        "label": result["label"],
        "ok": result["ok"],
        "sim_time": result["sim_time"],
        "digest": _result_digest(result),
    }
    if "outputs" in result:
        entry["outputs"] = result["outputs"]
    if "variants" in result:
        entry["outputs"] = {
            variant: data["outputs"]
            for variant, data in sorted(result["variants"].items())
        }
    if "fault_stats" in result:
        entry["fault_stats"] = result["fault_stats"]
    return entry


async def _chaos_killer(service, kills: int, interval: float = 0.05) -> int:
    """Kill *kills* real pool workers, one every *interval* seconds.

    The chaos loop for ``repro replay-trace --kill-workers``: each kill
    breaks the executor mid-job, exercising the supervisor's
    rebuild-and-redispatch path while Phase A is still running.  Killed
    count is telemetry only — results are pure functions of specs, so
    the replay summary must come out byte-identical anyway.
    """
    killed = 0
    while killed < kills:
        await asyncio.sleep(interval)
        pid = service.pool.kill_one_worker()
        if pid is not None:
            killed += 1
    return killed


async def _execute_unique(
    unique: Dict[tuple, JobSpec],
    workers: int,
    pool_cls,
    metrics,
    kill_workers: int = 0,
    state_dir: Optional[str] = None,
    sync: str = "batch",
) -> Dict[tuple, dict]:
    from repro.service.service import CampaignService

    # The live queue must never reject during Phase A — admission is
    # modelled in virtual time, not measured — so size it above the
    # unique-job count (with headroom for journal-replayed re-admits).
    depth = max(64, 3 * len(unique) + 8)
    service = CampaignService(
        workers=workers,
        max_depth=depth,
        high_water=depth,
        metrics=metrics,
        pool_cls=pool_cls,
        state_dir=state_dir,
        sync=sync,
    )
    await service.start()
    killer = None
    try:
        jobs = {key: service.submit(spec) for key, spec in unique.items()}
        if kill_workers:
            killer = asyncio.create_task(
                _chaos_killer(service, kill_workers)
            )
        return {
            key: await service.result(job) for key, job in jobs.items()
        }
    finally:
        if killer is not None:
            killer.cancel()
            await asyncio.gather(killer, return_exceptions=True)
        await service.close()


def _gate_arrivals(
    spec: TraceSpec,
    arrivals: List[Arrival],
    results: Dict[tuple, dict],
) -> Tuple[List[Optional[str]], List[Optional[float]]]:
    """Virtual-time tenant-isolation pass over the trace.

    Replays the live service's token-bucket and circuit-breaker state
    machines (:mod:`repro.service.isolation`) at each arrival's virtual
    time.  Each admitted arrival's job outcome feeds the tenant's
    breaker immediately — a modelling simplification (completion is
    treated as instantaneous for breaker purposes) that keeps the pass
    a pure function of the trace.  Returns per-arrival reject reasons
    (None = admitted) and retry-after hints.
    """
    from repro.service.isolation import TenantGate
    from repro.service.queue import AdmissionRejected

    gate = TenantGate(
        rate=spec.tenant_rate,
        burst=spec.tenant_burst,
        breaker_failures=spec.breaker_failures,
        breaker_cooldown=spec.breaker_cooldown,
    )
    reasons: List[Optional[str]] = []
    retries: List[Optional[float]] = []
    for arrival in arrivals:
        try:
            gate.admit_at(arrival.tenant, arrival.t)
        except AdmissionRejected as exc:
            reasons.append(exc.reason)
            retries.append(exc.retry_after)
            continue
        reasons.append(None)
        retries.append(None)
        gate.record_at(
            arrival.tenant,
            ok=bool(results[arrival.spec.key()]["ok"]),
            now=arrival.t,
        )
    return reasons, retries


def replay_trace(
    spec: TraceSpec,
    workers: int = 0,
    pool_cls=None,
    metrics=None,
    trace_out: Optional[str] = None,
    kill_workers: int = 0,
    state_dir: Optional[str] = None,
    sync: str = "batch",
) -> dict:
    """Replay *spec* against the service; returns the summary document.

    Phase A executes each unique job spec once on *workers* warm
    workers (0 = inline); Phase B models queueing — and, when the spec
    enables them, per-tenant rate limits and circuit breakers — in
    virtual time.  The returned summary is a pure function of *spec* —
    byte-identical across repeats and worker counts.  *trace_out*
    (requires ``spec.traced``) additionally writes a merged
    Perfetto/Chrome trace of every executed job.

    *kill_workers* is the chaos knob: SIGKILL that many real pool
    workers while Phase A runs (requires ``workers > 0``).  The
    supervisor rebuilds the pool and redispatches interrupted jobs, so
    the summary must still come out byte-identical to an undisturbed
    replay — that equality is the worker-crash determinism check.

    *state_dir* runs Phase A on a durable service (write-ahead journal
    + persistent result store, fsync cadence *sync*): a replay SIGKILLed
    mid-trace and rerun on the same directory recovers journaled jobs
    and serves already-computed results from the warmed store instead of
    recomputing them.  Recovery shows up only in the metrics registry
    and the ``service.durability.*`` counters — never in the summary,
    which must stay byte-identical with or without a state dir.
    """
    if trace_out is not None and not spec.traced:
        raise ValueError(
            "trace output requested but the trace spec has traced=false"
        )
    if kill_workers < 0:
        raise ValueError(f"kill_workers must be >= 0, got {kill_workers}")
    if kill_workers and workers < 1:
        raise ValueError(
            "kill_workers needs a real worker pool (workers >= 1); "
            "inline mode has no processes to kill"
        )
    arrivals = generate_trace(spec)
    unique: Dict[tuple, JobSpec] = {}
    for arrival in arrivals:
        unique.setdefault(arrival.spec.key(), arrival.spec)
    results = asyncio.run(
        _execute_unique(
            unique, workers, pool_cls, metrics, kill_workers,
            state_dir=state_dir, sync=sync,
        )
    )

    # Tenant isolation gates arrivals before the queue model, exactly
    # as the live service gates submissions before queue admission.
    gate_reasons, gate_retries = _gate_arrivals(spec, arrivals, results)

    key_ids = {key: job.key_id() for key, job in unique.items()}
    first_seen: Dict[tuple, int] = {}
    admitted: List[Arrival] = []
    service_times: List[float] = []
    duplicates: List[bool] = []
    for arrival, reason in zip(arrivals, gate_reasons):
        if reason is not None:
            continue
        key = arrival.spec.key()
        duplicate = key in first_seen
        first_seen.setdefault(key, arrival.index)
        admitted.append(arrival)
        duplicates.append(duplicate)
        # Duplicates are served from the shared store: zero service time.
        service_times.append(
            0.0 if duplicate else float(results[key]["sim_time"])
        )

    queue_records = simulate_queue(
        admitted,
        service_times,
        spec.model_servers,
        spec.effective_high_water,
        spec.est_service_seconds,
    )

    arrival_rows = []
    latencies: List[float] = []
    classes: Dict[str, dict] = {}
    tenants: Dict[str, dict] = {}
    rejected = 0
    gated = 0
    gate_counts: Dict[str, int] = {"rate_limited": 0, "circuit_open": 0}
    busy = 0.0
    makespan = 0.0
    qi = 0
    for arrival, reason, gate_retry in zip(arrivals, gate_reasons, gate_retries):
        row = {
            "index": arrival.index,
            "t": arrival.t,
            "tenant": arrival.tenant,
            "kind": arrival.kind,
            "priority": arrival.priority,
            "key": key_ids[arrival.spec.key()],
        }
        for scope, name in ((classes, arrival.kind), (tenants, arrival.tenant)):
            bucket = scope.setdefault(
                name,
                {"arrivals": 0, "rejected": 0, "gated": 0, "sim_time": 0.0},
            )
            bucket["arrivals"] += 1
        if reason is not None:
            gated += 1
            gate_counts[reason] = gate_counts.get(reason, 0) + 1
            classes[arrival.kind]["gated"] += 1
            tenants[arrival.tenant]["gated"] += 1
            row.update({
                "duplicate": False,
                "rejected": True,
                "reject_reason": reason,
                "retry_after": gate_retry,
            })
            arrival_rows.append(row)
            continue
        record = queue_records[qi]
        duplicate = duplicates[qi]
        service_time = service_times[qi]
        qi += 1
        row["duplicate"] = duplicate
        row["rejected"] = bool(record.get("rejected"))
        if row["rejected"]:
            rejected += 1
            classes[arrival.kind]["rejected"] += 1
            tenants[arrival.tenant]["rejected"] += 1
            row["reject_reason"] = "backpressure"
            row["retry_after"] = record["retry_after"]
        else:
            row.update(record)
            row["service_time"] = round(service_time, 9)
            latencies.append(record["queue_latency"])
            busy += service_time
            makespan = max(makespan, record["finished"])
            classes[arrival.kind]["sim_time"] = round(
                classes[arrival.kind]["sim_time"] + service_time, 9
            )
            tenants[arrival.tenant]["sim_time"] = round(
                tenants[arrival.tenant]["sim_time"] + service_time, 9
            )
        arrival_rows.append(row)

    fault_totals: Dict[str, float] = {}
    for key in sorted(unique, key=lambda k: key_ids[k]):
        stats = results[key].get("fault_stats")
        if not stats:
            continue
        for name, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                fault_totals[name] = fault_totals.get(name, 0) + value

    latencies.sort()
    from repro.obs.provenance import build_provenance

    summary = {
        "schema": "repro.service.replay/1",
        "provenance": build_provenance(seed=spec.seed, engine=spec.engine),
        "spec": spec.as_dict(),
        "jobs": {
            key_ids[key]: _job_summary(results[key])
            for key in sorted(unique, key=lambda k: key_ids[k])
        },
        "arrivals": arrival_rows,
        "isolation": {
            "tenant_rate": spec.tenant_rate,
            "tenant_burst": spec.tenant_burst,
            "breaker_failures": spec.breaker_failures,
            "breaker_cooldown": spec.breaker_cooldown,
            "gated": gated,
            "rate_limited": gate_counts.get("rate_limited", 0),
            "circuit_open": gate_counts.get("circuit_open", 0),
        },
        "queue": {
            "model_servers": spec.model_servers,
            "max_depth": spec.max_depth,
            "high_water": spec.effective_high_water,
            "admitted": len(arrivals) - gated - rejected,
            "rejected": rejected,
            "gated": gated,
            "duplicates": sum(duplicates),
            "unique_jobs": len(unique),
            "p50_latency": round(_percentile(latencies, 50.0), 9),
            "p95_latency": round(_percentile(latencies, 95.0), 9),
            "max_latency": round(latencies[-1], 9) if latencies else 0.0,
            "makespan": round(makespan, 9),
            "utilization": round(
                busy / (spec.model_servers * makespan), 9
            ) if makespan else 0.0,
        },
        "classes": {name: classes[name] for name in sorted(classes)},
        "tenants": {name: tenants[name] for name in sorted(tenants)},
        "faults": {name: fault_totals[name] for name in sorted(fault_totals)},
        "ok": all(results[key]["ok"] for key in unique),
    }
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    summary["digest"] = hashlib.sha256(blob.encode()).hexdigest()

    if trace_out is not None:
        _write_replay_trace(trace_out, unique, key_ids, results)
    return summary


def _write_replay_trace(path, unique, key_ids, results) -> None:
    """Merge every executed job's trace events into one Perfetto file."""
    from repro.obs.export import sort_trace_events, write_chrome_trace

    events: List[dict] = []
    pid_base = 0
    for key in sorted(unique, key=lambda k: key_ids[k]):
        job_events = results[key].get("trace_events") or []
        max_pid = 0
        for event in job_events:
            shifted = dict(event)
            pid = int(shifted.get("pid", 0))
            max_pid = max(max_pid, pid)
            shifted["pid"] = pid_base + pid
            events.append(shifted)
        pid_base += max_pid + 1
    write_chrome_trace(path, sort_trace_events(events))


def summary_to_json(summary: dict) -> str:
    """The canonical byte form replay summaries are written in."""
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"
