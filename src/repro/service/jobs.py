"""Job model for the campaign service.

A :class:`JobSpec` describes one unit of work the service can execute —
a MiniC program run, a benchmark (all three Table II variants), or one
fault-campaign scenario cell — as plain data: JSON-able, hashable, and
picklable, so specs travel over the wire protocol and into pool workers
unchanged.

Two properties carry the whole determinism story:

* :meth:`JobSpec.key` is the same provenance tuple the experiments
  harness caches on — a pure function of every execution-relevant field
  (tenant and priority are scheduling hints, not provenance) — so the
  shared result store can serve identical submissions from cache across
  clients and across worker processes;
* :func:`execute_job` is a module-level pure function of the spec dict.
  Its result — output digests, op counters, simulated times, fault
  stats — is what the CLI computes for the same job by construction:
  ``repro run`` and ``repro trace`` build the spec ``submit --kind run``
  sends, check it with :meth:`JobSpec.validate` and execute it through
  :func:`run_job`, the function run jobs use, while bench and faults
  jobs call the harness entry points ``repro bench`` and ``repro
  faults`` call (``SuiteRunner.run_benchmark``, ``scenario_cell``).

:meth:`JobSpec.validate` is the one validator of a request: the service
applies it to every submission and the CLI to every spec it builds, so a
spec it accepts can fail only on its program, never on its input.

Workers stay warm: each pool process keeps memoized
:class:`~repro.experiments.harness.SuiteRunner` instances (whose caches
hold parsed programs and baseline runs) and the campaign layer's
baseline memo, so a stream of jobs against the same workload reuses the
simulator setup instead of rebuilding it per request.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

#: Job kinds the service executes.
JOB_KINDS = ("run", "bench", "faults")

_DTYPES = {
    "float": np.float32,
    "double": np.float64,
    "int": np.int32,
}

#: Array fills by KIND; ``random`` draws from the run's generator.
_FILLS = {"zeros": np.zeros, "ones": np.ones, "arange": np.arange}
_ARRAY_KINDS = (*_FILLS, "random")


# -- input-binding parsers ----------------------------------------------------
#
# The canonical parsers for the CLI's NAME=SIZE[:DTYPE[:KIND]] array and
# NAME=VALUE scalar specs.  They raise ValueError naming the flag, so
# programmatic callers (the service, the wire protocol) get a normal
# exception and the CLI prints the message as it is.


def split_array_spec(spec: str) -> Tuple[str, int, type, str]:
    """Split and check one ``NAME=SIZE[:DTYPE[:KIND]]`` array binding.

    Returns ``(name, size, dtype, kind)`` and allocates nothing, so the
    service can check a spec on its event loop.
    """
    name, _, rest = spec.partition("=")
    parts = rest.split(":")
    if not rest or len(parts) > 3:
        raise ValueError(
            f"bad --array spec {spec!r}: expected NAME=SIZE[:DTYPE[:KIND]]"
        )
    size_text, dtype, kind = parts + ["float", "random"][len(parts) - 1:]
    try:
        size = int(size_text)
    except ValueError:
        raise ValueError(
            f"bad --array spec {spec!r}: size {size_text!r} is not an integer"
        )
    if size < 0:
        raise ValueError(f"bad --array spec {spec!r}: size {size} is negative")
    for part, value, known in (("dtype", dtype, _DTYPES), ("kind", kind, _ARRAY_KINDS)):
        if value not in known:
            raise ValueError(
                f"bad --array spec {spec!r}: {part} {value!r} is not one of "
                + "|".join(known)
            )
    return name, size, _DTYPES[dtype], kind


def parse_array_spec(spec: str, rng: np.random.Generator) -> tuple:
    """Parse one ``NAME=SIZE[:DTYPE[:KIND]]`` array binding."""
    name, size, dtype, kind = split_array_spec(spec)
    if kind == "random":
        return name, (rng.random(size) * 100).astype(dtype)
    return name, _FILLS[kind](size, dtype=dtype)


def parse_scalar_spec(spec: str) -> tuple:
    """Parse one ``NAME=VALUE`` scalar binding."""
    name, _, rest = spec.partition("=")
    if not rest:
        raise ValueError(f"bad --scalar spec {spec!r}: expected NAME=VALUE")
    try:
        value: object = int(rest)
    except ValueError:
        try:
            value = float(rest)
        except ValueError:
            raise ValueError(
                f"bad --scalar spec {spec!r}: {rest!r} is not a number"
            )
    return name, value


def bind_inputs(spec: "JobSpec") -> Tuple[Dict[str, np.ndarray], dict]:
    """The ``(arrays, scalars)`` a run spec binds; random arrays draw, in
    order, from one generator seeded by the spec."""
    rng = np.random.default_rng(spec.seed or 0)
    arrays = dict(parse_array_spec(s, rng) for s in spec.arrays)
    scalars = dict(parse_scalar_spec(s) for s in spec.scalars)
    return arrays, scalars


def policy_default(knob: str) -> object:
    """The default of ResiliencePolicy knob *knob*, whose type an
    override must have; an unknown knob is a ``--policy`` error."""
    from repro.faults.policy import ResiliencePolicy

    defaults = {f.name: f.default for f in dataclasses.fields(ResiliencePolicy)}
    if knob not in defaults:
        raise ValueError(
            f"bad --policy spec {knob!r}: expected KEY=VAL with KEY one of "
            f"{sorted(defaults)}"
        )
    return defaults[knob]


def _fits(value: object, default: object) -> bool:
    """Whether *value* has the type of *default*; an int serves a float
    knob, and a number or None serves ``backoff_max``."""
    if isinstance(default, (bool, str)):
        return type(value) is type(default)
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, int)
    return isinstance(value, (int, float)) or (default is value is None)


def check_policy(pairs) -> "ResiliencePolicy":
    """The ResiliencePolicy that ``(knob, value)`` overrides describe;
    an unknown knob, a value of the wrong type or a combination the
    policy rejects is a ``--policy`` error."""
    from repro.faults.policy import ResiliencePolicy

    for knob, value in pairs:
        default = policy_default(knob)
        if not _fits(value, default):
            raise ValueError(
                f"bad --policy value {knob}={value!r}: expected a value "
                f"like the default {default!r}"
            )
    try:
        return ResiliencePolicy(**dict(pairs))
    except ValueError as exc:
        raise ValueError(f"bad --policy combination: {exc}")


def digest_array(value: np.ndarray) -> str:
    """A stable content digest of one array (dtype, shape, and bytes)."""
    h = hashlib.sha256()
    h.update(str(value.dtype).encode())
    h.update(str(value.shape).encode())
    h.update(np.ascontiguousarray(value).tobytes())
    return h.hexdigest()


def digest_arrays(arrays: Dict[str, np.ndarray]) -> Dict[str, str]:
    """Per-array digests, name-sorted so dict order is canonical."""
    return {name: digest_array(arrays[name]) for name in sorted(arrays)}


def _pairs(mapping) -> Tuple[Tuple[str, object], ...]:
    """A hashable, canonical view of a dict (or pair iterable)."""
    if mapping is None:
        return ()
    items = mapping.items() if isinstance(mapping, dict) else mapping
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class JobSpec:
    """One unit of service work, as plain (hashable, JSON-able) data."""

    kind: str = "bench"
    #: Benchmark/fault-cell workload name (``bench``/``faults`` kinds).
    workload: Optional[str] = None
    #: Benchmark variant for ``faults`` cells (``bench`` runs all three).
    variant: str = "opt"
    #: Scenario index of a ``faults`` cell.
    scenario: int = 0
    #: MiniC source text (``run`` kind).
    source: Optional[str] = None
    #: Array bindings, CLI ``NAME=SIZE[:DTYPE[:KIND]]`` syntax (``run``).
    arrays: Tuple[str, ...] = ()
    #: Scalar bindings, CLI ``NAME=VALUE`` syntax (``run``).
    scalars: Tuple[str, ...] = ()
    #: Apply the COMP pipeline before running (``run`` kind).
    optimize: bool = False
    #: Simulation scale factor (``run`` kind).
    scale: float = 1.0
    seed: Optional[int] = None
    engine: Optional[str] = None
    devices: int = 1
    #: Fault rates, ``(site, prob)`` pairs (``faults`` kind).
    rates: Tuple[Tuple[str, float], ...] = ()
    #: ResiliencePolicy overrides, ``(knob, value)`` pairs (``faults``).
    policy: Tuple[Tuple[str, object], ...] = ()
    #: Return the job's Chrome trace events with the result.
    trace: bool = False
    #: Scheduling hints — NOT part of the provenance key.
    priority: int = 1
    tenant: str = "default"
    #: Wall-clock deadline from submission (seconds); the service emits
    #: a terminal ``timeout`` event and abandons the job past it.  A
    #: service-level knob like priority/tenant: it bounds *whether* an
    #: answer arrives, never what it would be, so it stays out of the
    #: provenance key and cached results remain shareable.
    deadline_seconds: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "arrays", tuple(self.arrays))
        object.__setattr__(self, "scalars", tuple(self.scalars))
        object.__setattr__(self, "rates", _pairs(self.rates))
        object.__setattr__(self, "policy", _pairs(self.policy))

    # -- identity -----------------------------------------------------------

    def key(self) -> tuple:
        """The provenance tuple identical submissions share.

        Everything that determines the result participates; the
        scheduling hints (priority, tenant) deliberately do not, so two
        tenants asking the same question share one cached answer.
        """
        return (
            self.kind, self.workload, self.variant, self.scenario,
            self.source, self.arrays, self.scalars, self.optimize,
            self.scale, self.seed, self.engine, self.devices,
            self.rates, self.policy, self.trace,
        )

    def key_sha(self) -> str:
        """The full sha256 of :meth:`key`: the durable provenance id.

        This is the string the write-ahead journal and the persistent
        result store key on — unlike the provenance tuple it survives
        process boundaries and file round-trips unchanged.
        """
        return hashlib.sha256(repr(self.key()).encode()).hexdigest()

    def key_id(self) -> str:
        """A compact stable identifier of :meth:`key` for wire payloads."""
        return self.key_sha()[:16]

    def label(self) -> str:
        """Human-readable job label for logs and trace lanes."""
        if self.kind == "run":
            return f"run:{self.key_id()}"
        if self.kind == "bench":
            return f"bench:{self.workload}"
        return f"faults:{self.workload}/s{self.scenario}"

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Reject every spec :func:`execute_job` could fail only on its input.

        Errors name the offending field, by its CLI flag where it has one.
        The service runs this on its event loop for every submission, so
        it checks text and numbers only: it allocates no array and never
        parses the source.
        """
        from repro.runtime.executor import ENGINES
        from repro.workloads.suite import workload_names

        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}: valid kinds are "
                + ", ".join(JOB_KINDS)
            )
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}: valid engines are "
                + ", ".join(ENGINES)
            )
        if self.seed is not None and self.seed < 0:
            # Inputs and fault plans seed numpy generators, which refuse it.
            raise ValueError(f"--seed must be >= 0, got {self.seed}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        if self.kind == "run":
            if not self.source:
                raise ValueError("run job needs MiniC source text")
            for text in self.arrays:
                split_array_spec(text)
            for text in self.scalars:
                parse_scalar_spec(text)
        elif self.workload not in workload_names():
            raise ValueError(
                f"unknown workload {self.workload!r}; "
                f"know {sorted(workload_names())}"
            )
        if self.kind == "faults":
            if self.scenario < 0:
                raise ValueError(f"scenario must be >= 0, got {self.scenario}")
            if self.variant not in ("cpu", "mic", "opt"):
                raise ValueError(f"unknown variant {self.variant!r}")
            from repro.faults.campaign import validate_campaign_config

            # Also checks the device count, as a campaign does.
            validate_campaign_config(
                dict(self.rates), check_policy(self.policy), self.devices
            )
        elif self.devices < 1:
            raise ValueError(f"--devices must be >= 1, got {self.devices}")

    # -- wire format --------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-able view (tuples become lists)."""
        payload = dataclasses.asdict(self)
        payload["arrays"] = list(self.arrays)
        payload["scalars"] = list(self.scalars)
        payload["rates"] = [list(pair) for pair in self.rates]
        payload["policy"] = [list(pair) for pair in self.policy]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        """Inverse of :meth:`as_dict`; unknown fields are errors."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown job spec fields {sorted(unknown)}; "
                f"know {sorted(known)}"
            )
        data = dict(payload)
        for name in ("rates", "policy"):
            if name in data and data[name] is not None:
                data[name] = tuple(tuple(pair) for pair in data[name])
        return cls(**data)


# -- execution ----------------------------------------------------------------
#
# Module-level so pool workers receive the function by pickled reference;
# all state below is per-process warm cache, invisible in results.

#: Warm per-process SuiteRunner memo: a stream of bench jobs against the
#: same (engine, seed, devices) reuses one runner — and therefore its
#: result store, parse caches, and simulator setup.
_WARM_RUNNERS: Dict[tuple, object] = {}


def _warm_runner(engine, seed, devices):
    from repro.experiments.harness import SuiteRunner

    key = (engine, seed, devices)
    runner = _WARM_RUNNERS.get(key)
    if runner is None:
        runner = _WARM_RUNNERS[key] = SuiteRunner(
            engine=engine, seed=seed, devices=devices
        )
    return runner


def warm_stats() -> dict:
    """Diagnostic view of this process's warm state (not in results)."""
    from repro.faults import campaign

    return {
        "warm_runners": len(_WARM_RUNNERS),
        "warm_variants": sum(len(r._store) for r in _WARM_RUNNERS.values()),
        "baseline_memo": len(campaign._BASELINE_MEMO),
    }


def _stats_summary(stats) -> dict:
    """The JSON-able ExecutionStats subset job results report."""
    return {
        "total_time": stats.total_time,
        "device_compute_time": stats.device_compute_time,
        "transfer_to_device_time": stats.transfer_to_device_time,
        "transfer_from_device_time": stats.transfer_from_device_time,
        "bytes_to_device": stats.bytes_to_device,
        "bytes_from_device": stats.bytes_from_device,
        "kernel_launches": stats.kernel_launches,
        "kernel_signals": stats.kernel_signals,
        "offload_count": stats.offload_count,
        "device_peak_bytes": stats.device_peak_bytes,
        "ops": dataclasses.asdict(stats.ops),
    }


def tracer_factory(tracers: list, label: str):
    """A ``factory(name, part)`` giving each run of a multi-run job a
    tracer of its own, appended to *tracers* as ``label.format(name,
    part)``; :func:`merged_trace_events` folds them into one trace."""
    from repro.obs import Tracer

    def factory(name: str, part) -> Tracer:
        tracer = Tracer()
        tracers.append((label.format(name, part), tracer))
        return tracer

    return factory


def merged_trace_events(tracers) -> list:
    """Fold per-run tracers into one sorted event list (own pid each)."""
    from repro.obs.export import chrome_trace_events, sort_trace_events

    events: list = []
    for pid, (label, tracer) in enumerate(tracers):
        events.extend(chrome_trace_events(tracer, pid=pid, process_name=label))
    return sort_trace_events(events)


def run_job(spec: JobSpec, machine):
    """Run a ``run`` spec's program on *machine*; returns the
    :class:`~repro.runtime.executor.ExecutionResult`.

    Binds the spec's inputs, parses its source, applies the COMP pipeline
    if the spec asks, and executes.  The caller builds the machine: the
    service from the spec alone, ``repro run`` with its fault plan and
    tracer too.  ``parse`` and ``run_program`` are looked up at call
    time, so wrappers installed on their modules see every run.
    """
    from repro.minic.parser import parse
    from repro.runtime.executor import run_program
    from repro.transforms.pipeline import CompOptimizer

    arrays, scalars = bind_inputs(spec)
    program = parse(spec.source)
    if spec.optimize:
        CompOptimizer().optimize(program)
    return run_program(
        program, arrays=arrays, scalars=scalars, machine=machine,
        engine=spec.engine or "auto",
    )


def _job_tracer(spec: JobSpec, tracers: list):
    """The tracer of a traced one-run job, recorded in *tracers* under
    the job's label; None when the job is not traced."""
    if not spec.trace:
        return None
    from repro.obs import Tracer

    tracers.append((spec.label(), Tracer()))
    return tracers[-1][1]


def _execute_run(spec: JobSpec, tracers: list) -> dict:
    from repro.runtime.executor import Machine

    tracer = _job_tracer(spec, tracers)
    machine = Machine(scale=spec.scale, tracer=tracer, devices=spec.devices)
    result = run_job(spec, machine)
    return {
        "sim_time": result.stats.total_time,
        "outputs": digest_arrays(machine.host.arrays),
        "stats": _stats_summary(result.stats),
        "warm_sessions": machine.coi.live_persistent_sessions,
        "ok": True,
        "error": None,
    }


def _execute_bench(spec: JobSpec, tracers: list) -> dict:
    runner = _warm_runner(spec.engine, spec.seed, spec.devices)
    if spec.trace:
        # Traced bench runs bypass the warm runner: its cache would make
        # the trace depend on what previous jobs already ran.
        from repro.experiments.harness import SuiteRunner

        runner = SuiteRunner(
            engine=spec.engine, seed=spec.seed, devices=spec.devices,
            tracer_factory=tracer_factory(tracers, "{}/{}"),
        )
    result = runner.run_benchmark(spec.workload)
    variants = {}
    for variant, run in result.runs.items():
        variants[variant] = {
            "sim_time": run.time,
            "outputs": digest_arrays(run.outputs),
            "ops": dataclasses.asdict(run.stats.ops),
        }
    return {
        "sim_time": result.opt_time,
        "variants": variants,
        "unopt_speedup": result.unopt_speedup,
        "opt_speedup": result.opt_speedup,
        "relative_gain": result.relative_gain,
        "ok": result.outputs_match(),
        "error": None,
    }


def _execute_faults(spec: JobSpec, tracers: list) -> dict:
    from repro.faults.campaign import scenario_cell

    outcome = scenario_cell(
        spec.workload, spec.scenario, spec.seed or 0, spec.variant,
        spec.engine, dict(spec.rates) or None, check_policy(spec.policy),
        _job_tracer(spec, tracers), spec.devices,
    )
    return {
        "sim_time": outcome.time,
        "outcome": outcome.as_dict(),
        "fault_stats": outcome.stats.as_dict(),
        "ok": outcome.ok,
        "error": outcome.error,
    }


_EXECUTORS = {
    "run": _execute_run,
    "bench": _execute_bench,
    "faults": _execute_faults,
}


def execute_job(payload: dict) -> dict:
    """Execute one job spec dict; module-level and picklable.

    The result is a deterministic, JSON-able function of the spec —
    worker identity, warm-cache state, and wall-clock never leak in —
    so the service's shared store can serve it to any client and a
    trace replay is byte-identical for any worker count.
    """
    spec = JobSpec.from_dict(payload)
    spec.validate()
    tracers: list = []
    result = _EXECUTORS[spec.kind](spec, tracers)
    if spec.trace:
        result["trace_events"] = merged_trace_events(tracers)
    result["kind"] = spec.kind
    result["label"] = spec.label()
    result["key_id"] = spec.key_id()
    return result


@dataclass
class Job:
    """Service-side record of one submitted job (scheduling state)."""

    id: int
    spec: JobSpec
    #: queued -> running -> done | failed | timeout (rejections never
    #: make a Job).
    state: str = "queued"
    #: Wall-clock timestamps for live telemetry (never in summaries).
    submitted_wall: float = 0.0
    started_wall: float = 0.0
    finished_wall: float = 0.0
    result: Optional[dict] = None
    error: Optional[str] = None
    #: True when the result came from the shared store, not a worker.
    cached: bool = False
    #: Event sink, attached by the service (an asyncio.Queue).
    events: object = field(default=None, repr=False)
    #: Completion future, attached by the service.
    done: object = field(default=None, repr=False)
