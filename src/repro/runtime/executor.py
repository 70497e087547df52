"""The MiniC interpreter: executes programs against the simulated machine.

The interpreter serves two purposes at once:

1. **Correctness** — programs run concretely over numpy arrays, so a
   transformed program can be checked for bit-identical outputs against
   the original (our substitute for running the paper's benchmarks on
   real hardware).
2. **Timing** — every evaluated operation accrues dynamic counters
   (flops, loads/stores, bytes, irregularity); parallel loops convert
   counters to device time via the roofline model; LEO pragmas drive DMA
   transfers and kernel launches on the shared event timeline.  Simulated
   time is completely decoupled from wall-clock interpretation speed, and
   a *scale* factor lets a workload execute at a reduced element count
   while being timed (and memory-checked) at paper scale.

Execution contexts: code runs on the **host** until an offload pragma is
reached; the annotated loop or block is interpreted in a **device**
context whose name resolution is restricted to data actually transferred
by the clauses (a missing clause raises
:class:`~repro.errors.MissingTransferError`).  Serial statements inside a
device context are timed at MIC serial speed — which is how offload
merging's cost ("we may increase the sequential execution on MIC") shows
up naturally.

Statements and expressions run as closures that
:mod:`repro.runtime.lower` builds the first time this executor reaches
them (the scalar interpreter).  The executor keeps what surrounds them:
machine state, scopes (:class:`Env`), the timing contexts, parallel-loop
and offload machinery, and the entry points (``_exec_stmt``,
``_run_loop``, ``_eval``, ``_eval_clause``, ``_call_function``) that
the vector engines and the offload paths call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import (
    DeviceLost,
    DeviceOutOfMemory,
    ExecutionError,
    MissingTransferError,
    OffloadTimeout,
    RuntimeFault,
)
from repro.analysis.array_access import (
    AccessKind,
    extract_linear_form,
)
from repro.errors import NotAffineError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.policy import ResiliencePolicy
from repro.faults.stats import FaultStats
from repro.analysis.vectorize import _loop_var_name, is_vectorizable
from repro.hardware.device import ComputeDevice, OpCounters
from repro.hardware.event_sim import Clock, Event, Timeline
from repro.hardware.spec import MachineSpec, paper_machine
from repro.minic import ast_nodes as ast
from repro.minic.parser import parse
from repro.minic.visitor import walk as walk_nodes
from repro.runtime import mathops
from repro.obs.tracer import NULL_TRACER
from repro.runtime import batch_exec
from repro.runtime import codegen
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.coi import CoiRuntime
from repro.runtime.fleet import DeviceFleet
from repro.runtime.integrity import IntegrityManager
from repro.runtime.lower import Lowerer, _not_an_array, _stmts
from repro.runtime.values import DeviceSpace, HostSpace

# Flop costs of builtin math calls (rough icc/SVML-like latencies).
BUILTIN_COSTS = {
    "exp": 10.0,
    "log": 10.0,
    "sqrt": 4.0,
    "fabs": 1.0,
    "abs": 1.0,
    "pow": 14.0,
    "sin": 10.0,
    "cos": 10.0,
    "floor": 1.0,
    "ceil": 1.0,
    "min": 1.0,
    "max": 1.0,
}

_BUILTIN_IMPL = {
    "exp": mathops.scalar_exp,
    "log": mathops.scalar_log,
    "sqrt": math.sqrt,
    "fabs": abs,
    "abs": abs,
    "pow": mathops.scalar_pow,
    "sin": mathops.scalar_sin,
    "cos": mathops.scalar_cos,
    "floor": math.floor,
    "ceil": math.ceil,
    "min": min,
    "max": max,
}

_NUMPY_TYPES = {
    "float": np.float32,
    "double": np.float64,
    "int": np.int32,
    "char": np.int8,
}


# ==========================================================================
# Machine: everything the executor runs against
# ==========================================================================


@dataclass
class Machine:
    """One simulated host+coprocessor machine instance."""

    spec: MachineSpec = field(default_factory=paper_machine)
    scale: float = 1.0
    #: Optional deterministic fault schedule for this run.
    fault_plan: Optional[FaultPlan] = None
    #: Recovery policy; defaults to :class:`ResiliencePolicy` when a
    #: fault plan is given.  A policy without a plan enables the
    #: resilient code paths (OOM demotion, host fallback) for *genuine*
    #: faults without injecting any.
    resilience: Optional[ResiliencePolicy] = None
    #: Observability sink (:class:`repro.obs.Tracer`).  The default null
    #: tracer makes every instrumentation hook a no-op, so untraced runs
    #: stay bit-identical to uninstrumented ones.
    tracer: Optional[object] = None
    #: Number of coprocessor cards; None defers to ``spec.devices``.
    #: Every machine runs on a :class:`~repro.runtime.fleet.DeviceFleet`;
    #: with 1 (the default everywhere) it is a fleet of one, which keeps
    #: the one-card lane names, fault streams and restart-in-place.
    devices: Optional[int] = None

    def __post_init__(self) -> None:
        self.timeline = Timeline()
        self.clock = Clock()
        self.host = HostSpace()
        self.device = DeviceSpace()
        if self.tracer is None:
            self.tracer = NULL_TRACER
        if self.devices is None:
            self.devices = self.spec.devices
        self.coi = CoiRuntime(
            self.spec,
            self.timeline,
            self.clock,
            self.host,
            self.device,
            scale=self.scale,
            tracer=self.tracer,
        )
        self.cpu_model = ComputeDevice(self.spec.cpu)
        self.mic_model = ComputeDevice(self.spec.mic)
        self.fault_stats = FaultStats()
        if self.fault_plan is not None and self.resilience is None:
            self.resilience = ResiliencePolicy()
        if self.resilience is not None:
            self.coi.resilience = self.resilience
            self.coi.fault_stats = self.fault_stats
        self.fleet = DeviceFleet(
            self.spec,
            self.scale,
            self.devices,
            seed=None if self.fault_plan is None else self.fault_plan.seed,
            policy=(
                self.resilience if self.resilience is not None
                else ResiliencePolicy()
            ),
            stats=self.fault_stats,
            tracer=self.tracer,
        )
        self.coi.fleet = self.fleet
        if self.fault_plan is not None:
            injector = FaultInjector(self.fault_plan, self.fault_stats)
            injector.tracer = self.tracer
            injector.clock = self.clock
            self.coi.injector = injector
            for dev in self.fleet.devices:
                dev.memory.injector = injector
        # Checkpoint/restart is opt-in via the policy: without it the
        # COI note hooks are never reached and a device reset is fatal.
        self.checkpoint = None
        if self.resilience is not None and self.resilience.checkpoint_interval > 0:
            self.checkpoint = CheckpointManager(
                self.resilience, self.fault_stats, tracer=self.tracer
            )
            self.coi.checkpoint = self.checkpoint
        # The integrity layer rides along whenever silent faults could
        # be injected (a fault plan is present) or verification was
        # asked for; in "off" mode with no plan it is never attached and
        # every hook site stays on the original code path.
        self.integrity = None
        mode = "off" if self.resilience is None else self.resilience.integrity_mode
        if self.fault_plan is not None or mode != "off":
            self.integrity = IntegrityManager(
                self.resilience if self.resilience is not None
                else ResiliencePolicy(),
                self.fault_stats,
                tracer=self.tracer,
            )
            self.coi.integrity = self.integrity
        # Shared-memory runtimes for programs using the Section V
        # allocation intrinsics, created lazily.
        self._myo = None
        self._arena = None

    def device_stats(self) -> dict:
        """The fleet-wide device fields of :class:`ExecutionStats`.

        Each card has its own compute lane and DMA engines, so busy
        times sum over the cards, as does the memory peak.
        """
        busy = self.timeline.busy_time
        cards = self.fleet.devices
        return dict(
            device_busy_time=sum(busy(d.compute_track) for d in cards),
            transfer_to_device_time=sum(busy(d.h2d_track) for d in cards),
            transfer_from_device_time=sum(busy(d.d2h_track) for d in cards),
            device_peak_bytes=self.fleet.peak_bytes(),
            devices=self.devices,
        )

    def finalize_integrity(self) -> None:
        """Run the integrity layer's end-of-run sweep (idempotent).

        ``full`` mode verifies every remaining reference checksum;
        every mode then counts still-unresolved corruption records as
        SDC escapes.  Workload drivers call this once outputs are final.
        """
        if self.integrity is not None:
            self.integrity.finalize(self.coi)

    @property
    def myo(self):
        """Lazily created MYO runtime for shared-malloc intrinsics."""
        if self._myo is None:
            from repro.runtime.myo import MyoRuntime

            self._myo = MyoRuntime(self.coi)
        return self._myo

    @property
    def arena(self):
        """Lazily created arena allocator for arena_alloc intrinsics."""
        if self._arena is None:
            from repro.runtime.arena import ArenaAllocator

            self._arena = ArenaAllocator()
            self._arena.tracer = self.tracer
            if self.checkpoint is not None:
                self.checkpoint.register_arena(self._arena)
        return self._arena


# ==========================================================================
# Environments
# ==========================================================================


class Env:
    """A lexical scope chain ending in a memory-space root."""

    __slots__ = ("parent", "vars")

    def __init__(self, parent: Optional["Env"] = None):
        self.parent = parent
        self.vars: Dict[str, object] = {}

    def declare(self, name: str, value: object) -> None:
        """Bind *name* in this scope."""
        self.vars[name] = value

    def get(self, name: str) -> object:
        """Resolve *name* through the scope chain."""
        if name in self.vars:
            value = self.vars[name]
            if value is None:
                raise ExecutionError(f"variable {name!r} used uninitialized")
            return value
        if self.parent is not None:
            return self.parent.get(name)
        raise self._missing(name)

    def set(self, name: str, value: object) -> None:
        """Assign to an existing binding in the scope chain."""
        if name in self.vars:
            self.vars[name] = value
            return
        if self.parent is not None:
            self.parent.set(name, value)
            return
        raise self._missing(name)

    def has(self, name: str) -> bool:
        """True when *name* resolves somewhere in the chain."""
        if name in self.vars:
            return True
        return self.parent is not None and self.parent.has(name)

    def _missing(self, name: str) -> Exception:
        return ExecutionError(f"undefined variable {name!r}")

    def root(self) -> "Env":
        """The chain's root scope (file-scope storage)."""
        env = self
        while env.parent is not None:
            env = env.parent
        return env

    def _own_int_bindings(self) -> Dict[str, int]:
        return {
            k: int(v)
            for k, v in self.vars.items()
            if isinstance(v, (int, np.integer))
        }

    def int_bindings(self) -> Dict[str, int]:
        """All integer-valued scalars visible here (for access analysis)."""
        bindings: Dict[str, int] = {}
        env: Optional[Env] = self
        while env is not None:
            for key, value in env._own_int_bindings().items():
                if key not in bindings:
                    bindings[key] = value
            env = env.parent
        return bindings


class _HostRootEnv(Env):
    """Root scope over the host memory space."""

    def __init__(self, host: HostSpace):
        super().__init__()
        self.host = host

    def declare(self, name, value):
        if isinstance(value, np.ndarray):
            self.host.arrays[name] = value
        else:
            self.host.scalars[name] = value

    def get(self, name):
        if name in self.host.arrays:
            return self.host.arrays[name]
        if name in self.host.scalars:
            return self.host.scalars[name]
        raise self._missing(name)

    def set(self, name, value):
        if name in self.host.arrays:
            if not isinstance(value, np.ndarray):
                raise _not_an_array(name)
            self.host.arrays[name] = value
        else:
            self.host.scalars[name] = value

    def has(self, name):
        return name in self.host.arrays or name in self.host.scalars

    def _own_int_bindings(self):
        return {
            k: int(v)
            for k, v in self.host.scalars.items()
            if isinstance(v, (int, np.integer))
        }


class _DeviceRootEnv(Env):
    """Root scope over the device memory space: strict name resolution."""

    def __init__(self, device: DeviceSpace):
        super().__init__()
        self.device = device

    def declare(self, name, value):
        if isinstance(value, np.ndarray):
            self.device.arrays[name] = value
        else:
            self.device.scalars[name] = value

    def get(self, name):
        if name in self.device.arrays:
            return self.device.arrays[name]
        if name in self.device.scalars:
            return self.device.scalars[name]
        raise self._missing(name)

    def set(self, name, value):
        if name in self.device.arrays:
            if not isinstance(value, np.ndarray):
                raise _not_an_array(name)
            self.device.arrays[name] = value
        else:
            self.device.scalars[name] = value

    def has(self, name):
        return name in self.device.arrays or name in self.device.scalars

    def _missing(self, name):
        return MissingTransferError(
            f"device code touched {name!r}, which was never transferred "
            f"to the coprocessor (missing in/inout clause?)"
        )

    def _own_int_bindings(self):
        return {
            k: int(v)
            for k, v in self.device.scalars.items()
            if isinstance(v, (int, np.integer))
        }


# ==========================================================================
# Execution contexts (timing accumulators)
# ==========================================================================


class _TimedContext:
    """Accumulates compute time for one processor."""

    def __init__(
        self,
        model: ComputeDevice,
        scale: float,
        is_device: bool,
        sink: Optional[OpCounters] = None,
        record: Optional[list] = None,
        tracer=None,
    ):
        self.model = model
        self.scale = scale
        self.is_device = is_device
        self.pending = OpCounters()
        self.seconds = 0.0
        self.in_parallel = False
        #: Run-wide counter total (shared across host and device contexts).
        self.sink = sink
        #: Optional ``(kind, counters, trip, vectorizable)`` trace of the
        #: timing charges, so the resilience layer can re-price the same
        #: work on another device (host fallback) without re-interpreting.
        self.record = record
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def flush_serial(self) -> None:
        if self.pending.work_ops or self.pending.total_bytes:
            self.seconds += self.model.compute_time(
                self.pending.scaled(self.scale), serial=True
            )
            if self.record is not None:
                self.record.append(("serial", self.pending, 0.0, False))
        if self.sink is not None:
            self.sink.add(self.pending)
        self.pending = OpCounters()

    def add_parallel(
        self, counters: OpCounters, trip: float, vectorizable: bool
    ) -> None:
        if self.sink is not None:
            self.sink.add(counters)
        if self.record is not None:
            self.record.append(("parallel", counters, trip, vectorizable))
        self.seconds += self.model.compute_time(
            counters.scaled(self.scale),
            parallel_iterations=trip * self.scale,
            vectorizable=vectorizable,
        )
        if self.tracer.enabled:
            # Annotate the enclosing span with the roofline verdict: which
            # bound the loop sat on, thread count, SIMD applicability.
            info = self.model.explain(
                counters.scaled(self.scale),
                parallel_iterations=trip * self.scale,
                vectorizable=vectorizable,
            )
            self.tracer.annotate(
                **{f"loop.{key}": value for key, value in info.items()}
            )
            self.tracer.metrics.histogram(
                "exec.parallel_loop_seconds"
            ).observe(info["seconds"])

    def take_seconds(self) -> float:
        self.flush_serial()
        seconds, self.seconds = self.seconds, 0.0
        return seconds


# ==========================================================================
# Results
# ==========================================================================


@dataclass
class ExecutionStats:
    """Timing and traffic breakdown of one program run (simulated units)."""

    total_time: float = 0.0
    host_compute_time: float = 0.0
    device_busy_time: float = 0.0
    #: Kernel compute only, without launch/signal overheads (Figure 4's
    #: "calculation time").
    device_compute_time: float = 0.0
    transfer_to_device_time: float = 0.0
    transfer_from_device_time: float = 0.0
    bytes_to_device: float = 0.0
    bytes_from_device: float = 0.0
    kernel_launches: int = 0
    kernel_signals: int = 0
    offload_count: int = 0
    device_peak_bytes: int = 0
    #: Coprocessor cards the run was configured with (fleet size).
    devices: int = 1
    #: Dynamic operation totals across the whole run (host + device),
    #: excluding uncharged clause/loop-control evaluation.
    ops: OpCounters = field(default_factory=OpCounters)
    #: Parallel-loop entries each execution tier ran (codegen, batch,
    #: tree).  Engagement differs by engine, so this and
    #: ``codegen_rejections`` stay out of equality and job results.
    engine_loops: Dict[str, int] = field(default_factory=dict, compare=False)
    #: Parallel-loop entries codegen did not run, per rejection reason.
    codegen_rejections: Dict[str, int] = field(
        default_factory=dict, compare=False
    )

    @property
    def transfer_time(self) -> float:
        """Host-to-device plus device-to-host DMA time."""
        return self.transfer_to_device_time + self.transfer_from_device_time


@dataclass
class ExecutionResult:
    """Final host memory plus the stats of the run."""

    host: HostSpace
    stats: ExecutionStats
    return_value: object = None

    def array(self, name: str) -> np.ndarray:
        """A named host array after execution."""
        return self.host.array(name)

    def scalar(self, name: str) -> object:
        """A named host scalar after execution."""
        return self.host.scalars[name]


# ==========================================================================
# The executor
# ==========================================================================


#: Execution engines, fastest first.  ``auto`` walks the ladder per
#: loop: codegen where the emitter proves eligibility, batch for the
#: general vector cases, tree for everything else.
ENGINES = ("auto", "codegen", "batch", "tree")


class Executor:
    """Interprets one program on one machine."""

    def __init__(
        self,
        program: Union[ast.Program, str],
        machine: Optional[Machine] = None,
        engine: str = "auto",
    ):
        if isinstance(program, str):
            program = parse(program)
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}: valid engines are "
                + ", ".join(ENGINES)
            )
        self.program = program
        self.machine = machine or Machine()
        self.engine = engine
        self.functions = {f.name: f for f in program.functions() if f.body}
        self.structs = {s.name: s for s in program.structs()}
        self._access_cache: Dict[Tuple[int, str], AccessKind] = {}
        self._ops_total = OpCounters()
        self._host_ctx = _TimedContext(
            self.machine.cpu_model,
            self.machine.scale,
            is_device=False,
            sink=self._ops_total,
            tracer=self.machine.tracer,
        )
        self._ctx = self._host_ctx
        self._loop_vars: List[str] = []
        self._host_root = _HostRootEnv(self.machine.host)
        self._device_root = _DeviceRootEnv(self.machine.device)
        # Batched execution: per-loop static verdicts and engagement
        # telemetry (how many parallel loops ran batched vs fell back).
        self._batch_static_cache: Dict[int, object] = {}
        self._batch_stats = {"batched": 0, "fallback": 0}
        # Codegen execution: per-loop static verdicts plus engagement and
        # compile-cache telemetry for the generated-kernel tier.
        self._codegen_static_cache: Dict[int, object] = {}
        self._codegen_stats = {
            "ran": 0,
            "fallback": 0,
            "compiled": 0,
            "cache_hits": 0,
        }
        #: Parallel-loop entries codegen did not run, per reason.
        self._codegen_rejections: Dict[str, int] = {}
        #: Parallel-loop entries the tree walker ran.
        self._tree_loops = 0
        # Vectorizability memo: per-loop relevant symbol names plus the
        # verdict per concrete binding of those names.
        self._vec_meta: Dict[int, Tuple[List[str], List[str]]] = {}
        self._vec_cache: Dict[Tuple, bool] = {}
        #: Closures this executor runs, lowered on first use; they live
        #: for the duration of one run().
        self._lower: Optional[Lowerer] = None

    # -- public API ---------------------------------------------------------

    def run(
        self,
        entry: str = "main",
        arrays: Optional[Dict[str, np.ndarray]] = None,
        scalars: Optional[Dict[str, object]] = None,
    ) -> ExecutionResult:
        """Execute function *entry* with the given host bindings."""
        host = self.machine.host
        for name, value in (arrays or {}).items():
            host.arrays[name] = value
        for name, value in (scalars or {}).items():
            host.scalars[name] = value
        self._lower = Lowerer(self)
        try:
            for decl in self.program.decls:
                if isinstance(decl, ast.GlobalDecl):
                    self._exec_global(decl.decl)

            func = self.functions.get(entry)
            if func is None:
                raise ExecutionError(f"no function {entry!r} in program")
            args = []
            for param in func.params:
                if not self._host_root.has(param.name):
                    raise ExecutionError(
                        f"entry parameter {param.name!r} was not bound"
                    )
                args.append(self._host_root.get(param.name))
            value = self._call_function(func, args, env_parent=self._host_root)
        finally:
            # The closures bind this executor.  Dropping them leaves no
            # reference cycle, so a finished executor (and its machine's
            # arrays) is freed as soon as its caller lets go of it.
            self._lower.release()
            self._lower = None

        self._drain_host()
        self.machine.finalize_integrity()
        return ExecutionResult(
            host=host, stats=self._collect_stats(), return_value=value
        )

    # -- stats --------------------------------------------------------------------

    def _collect_stats(self) -> ExecutionStats:
        machine = self.machine
        coi = machine.coi
        timeline = machine.timeline
        return ExecutionStats(
            # Asynchronous tails (pipelined regularization, unwaited
            # transfers) bound completion even when the host got ahead.
            total_time=max(machine.clock.now, timeline.finish_time()),
            host_compute_time=timeline.busy_time("cpu")
            + self._host_seconds_total,
            device_compute_time=coi.stats.kernel_compute_seconds,
            bytes_to_device=coi.stats.bytes_to_device,
            bytes_from_device=coi.stats.bytes_from_device,
            kernel_launches=coi.stats.kernel_launches,
            kernel_signals=coi.stats.kernel_signals,
            offload_count=self._offload_count,
            ops=self._ops_total.copy(),
            engine_loops={
                "codegen": self._codegen_stats["ran"],
                "batch": self._batch_stats["batched"],
                "tree": self._tree_loops,
            },
            codegen_rejections=dict(self._codegen_rejections),
            **machine.device_stats(),
        )

    _host_seconds_total: float = 0.0
    _offload_count: int = 0

    def _drain_host(self) -> None:
        seconds = self._host_ctx.take_seconds()
        self._host_seconds_total += seconds
        clock = self.machine.clock
        start = clock.now
        clock.advance(seconds)
        if seconds > 0 and self.machine.tracer.enabled:
            self.machine.tracer.span("host-compute", "cpu", start, clock.now)

    # -- globals ------------------------------------------------------------------

    def _exec_global(self, decl: ast.VarDecl) -> None:
        if self._host_root.has(decl.name):
            return  # bound by the caller
        if isinstance(decl.type, ast.ArrayType):
            self._host_root.declare(decl.name, self._make_local_array(decl.type))
        elif decl.init is not None:
            self._host_root.declare(decl.name, self._eval(decl.init, self._host_root))
        else:
            self._host_root.declare(decl.name, 0)

    def _make_local_array(self, typ: ast.ArrayType):
        size = self._eval(typ.size, self._host_root) if typ.size is not None else 0
        base = typ.base
        dtype = _NUMPY_TYPES.get(getattr(base, "name", "float"), np.float64)
        return np.zeros(int(size), dtype=dtype)

    # -- entry points into the lowered interpreter -----------------------------------
    #
    # Each looks up (lowering on first use) the closure for its node; see
    # repro.runtime.lower.

    def _call_function(self, func: ast.FuncDef, args, env_parent: Env):
        return self._lower.function(func)(args, env_parent)

    def _exec_stmt(self, stmt: ast.Stmt, env: Env) -> None:
        self._lower.statement(stmt)(env)

    def _run_loop(self, loop: ast.For, env: Env) -> int:
        """Interpret a loop sequentially; returns the trip count.

        Loop-control overhead (condition, increment) is not charged: it is
        negligible next to real body work, and charging it would wrongly
        scale an outer loop's bookkeeping by the simulation scale factor.
        """
        return self._lower.loop(loop)(env)

    def _eval(self, expr: ast.Expr, env: Env):
        return self._lower.expression(expr, clause=False)(env)

    def _eval_clause(self, expr: ast.Expr, env: Env):
        """Evaluate *expr* without charging its operations."""
        return self._lower.expression(expr, clause=True)(env)

    #: Share of a pipelined regularization loop that delays the program:
    #: "the only extra overhead caused by regularization is the time taken
    #: to regularize the first data block" (Section IV).
    PIPELINED_FIRST_BLOCK = 1.0 / 20.0

    def _exec_parallel_for(self, loop: ast.For, env: Env, run_loop=None) -> None:
        """Interpret a parallel loop and time it with the roofline model.

        *run_loop* is the loop's sequential runner lowered in the scope
        of the statement that reached it (the tree tier's fallback);
        without one the loop is lowered on its own.
        """
        ctx = self._ctx
        ctx.flush_serial()
        outer_pending = ctx.pending
        ctx.pending = OpCounters()
        ctx.in_parallel = True
        try:
            trips = None
            if self.engine in ("auto", "codegen"):
                trips = codegen.try_run_parallel_for(self, loop, env)
            if trips is None and self.engine != "tree":
                trips = batch_exec.try_run_parallel_for(self, loop, env)
            if trips is None:
                if run_loop is None:
                    trips = self._run_loop(loop, env)
                else:
                    trips = run_loop(env)
                self._tree_loops += 1
        finally:
            ctx.in_parallel = False
            loop_counters = ctx.pending
            ctx.pending = outer_pending
        vectorizable = self._is_vectorizable(loop, env)

        omp = next(
            (p for p in loop.pragmas if isinstance(p, ast.OmpParallelFor)), None
        )
        if omp is not None and omp.pipelined and not ctx.is_device:
            # Pipelined regularization: the gather overlaps downstream
            # transfer/compute on a spare host thread; only the first
            # block's share delays issue.  The full cost still occupies
            # the regularizer resource and bounds total program time.
            duration = ctx.model.compute_time(
                loop_counters.scaled(ctx.scale),
                parallel_iterations=trips * ctx.scale,
                vectorizable=vectorizable,
            )
            if ctx.sink is not None:
                ctx.sink.add(loop_counters)
            self._drain_host()
            event = self.machine.timeline.schedule(
                "cpu:regularize",
                duration,
                not_before=self.machine.clock.now,
                label="pipelined-regularize",
            )
            tracer = self.machine.tracer
            if tracer.enabled:
                tracer.span(
                    "pipelined-regularize", "cpu:regularize",
                    event.time - duration, event.time,
                    first_block_share=self.PIPELINED_FIRST_BLOCK,
                )
                tracer.metrics.counter("exec.pipelined_regularizations").inc()
            self.machine.clock.advance(duration * self.PIPELINED_FIRST_BLOCK)
            return
        ctx.add_parallel(loop_counters, trips, vectorizable)

    # -- vectorizability ------------------------------------------------------------------------

    def _is_vectorizable(self, loop: ast.For, env: Env) -> bool:
        """Delegate to the vectorizability analysis with the concrete
        integer bindings visible at loop entry, so expressions like
        ``i * cols + j`` resolve to unit stride in ``j``.

        The analysis consults bindings only for symbols appearing in
        subscript index expressions, so the verdict is memoized per
        (loop node, values of those symbols) — repeated offloads of the
        same loop skip the re-analysis entirely.
        """
        meta = self._vec_meta.get(id(loop))
        if meta is None:
            nest_vars = []
            for f in [loop] + [
                s for s in _stmts(loop.body) if isinstance(s, ast.For)
            ]:
                name = _loop_var_name(f)
                if name is not None:
                    nest_vars.append(name)
            index_names = set()
            for node in walk_nodes(loop):
                if isinstance(node, ast.Subscript):
                    index_names.update(
                        n.name
                        for n in walk_nodes(node.index)
                        if isinstance(n, ast.Ident)
                    )
            meta = (nest_vars, sorted(index_names - set(nest_vars)))
            self._vec_meta[id(loop)] = meta
        nest_vars, index_names = meta
        bindings = env.int_bindings()
        # Override any stale values for the nest's own induction
        # variables: they are constants from the innermost perspective.
        for name in nest_vars:
            bindings[name] = 0
        key = (id(loop), tuple(bindings.get(n) for n in index_names))
        cached = self._vec_cache.get(key)
        if cached is None:
            cached = is_vectorizable(loop, bindings)
            self._vec_cache[key] = cached
        return cached

    # -- offload ------------------------------------------------------------------------------------

    def _exec_offload(
        self,
        pragma: ast.OffloadPragma,
        body: ast.Stmt,
        env: Env,
        loop: Optional[ast.For],
    ) -> None:
        tracer = self.machine.tracer
        if not tracer.enabled:
            self._exec_offload_inner(pragma, body, env, loop)
            return
        # Drain pre-offload host work first so its span is a sibling of
        # (not a child of) the offload phase about to open.
        self._drain_host()
        tracer.metrics.counter("exec.offloads").inc()
        with tracer.phase(
            "offload",
            self.machine.clock,
            index=self._offload_count,
            persistent=bool(pragma.persistent),
        ):
            self._exec_offload_inner(pragma, body, env, loop)

    def _exec_offload_inner(
        self,
        pragma: ast.OffloadPragma,
        body: ast.Stmt,
        env: Env,
        loop: Optional[ast.For],
    ) -> None:
        self._drain_host()
        self._offload_count += 1
        coi = self.machine.coi
        resilience = coi.resilience
        fleet = self.machine.fleet

        # Fleet sharding: deal this block to a healthy card (probing
        # quarantined ones first).
        self._deal_block()

        # The device site is consulted once per offload entry — the one
        # boundary where all device state is quiescent, so a full reset
        # can be recovered without tearing a transfer or kernel in half.
        # The draw rides the *assigned* card's stream.  A failover
        # re-deals the block without a second draw (one consult per
        # offload entry); a lone card restarts in place and keeps it.
        if coi.injector is not None:
            reset = coi.injector.draw("device", device=fleet.current().stream)
            if reset is not None:
                fleet.handle_device_loss(coi, reset)
                if fleet.active is None:
                    self._deal_block()
        integrity = coi.integrity
        if integrity is not None:
            integrity.maybe_scrub(coi)

        deps: List[Event] = []
        if pragma.wait is not None:
            tag = self._eval_clause(pragma.wait, env)
            deps.extend(coi.take_signal(tag))

        if resilience is None:
            transfer_events, freed_after = self._do_in_clauses(
                pragma.clauses, env, deps
            )
        else:
            try:
                transfer_events, freed_after = self._do_in_clauses(
                    pragma.clauses, env, deps
                )
            except DeviceOutOfMemory as oom:
                if self._recover_offload_oom(oom, pragma, body, env, loop, deps):
                    return
                # Transient injected OOM on a non-demotable offload: the
                # backoff is charged; re-issue with injection silenced.
                with coi.injector_suspended():
                    transfer_events, freed_after = self._do_in_clauses(
                        pragma.clauses, env, deps
                    )

        # Input buffers must be verified before the body is interpreted:
        # the simulator computes eagerly, so repair has to land before
        # corrupted input bytes could propagate into outputs.
        if integrity is not None:
            integrity.pre_kernel_verify(
                coi, self._clause_device_names(pragma.clauses)
            )

        # Interpret the body on the device, accumulating device time.
        record = [] if resilience is not None else None
        kernel_seconds = self._interpret_device_body(body, env, loop, record)
        if integrity is not None:
            integrity.note_kernel_writes(coi)

        persistent_key = None
        if pragma.persistent:
            persistent_key = pragma.session or f"offload@{id(pragma)}"
        if coi.fallback_mode:
            # Fleet exhausted: the body was interpreted for correctness
            # above; its cost is charged as host re-execution.
            self._charge_host_fallback(record)
            kernel_event = None
        else:
            try:
                kernel_event = coi.launch_kernel(
                    kernel_seconds,
                    deps=deps + transfer_events,
                    label="offload",
                    persistent_key=persistent_key,
                )
            except OffloadTimeout:
                if resilience is None or not resilience.host_fallback:
                    raise
                # The device already holds the (correct) results — the
                # simulator decouples correctness from timing — so fallback
                # charges the host re-execution cost and the out clauses
                # below deliver exactly what host execution would have.
                self._charge_host_fallback(record)
                kernel_event = None

        if integrity is not None and kernel_event is not None:
            integrity.kernel_completed(
                coi, self._clause_out_names(pragma.clauses), kernel_seconds
            )

        out_deps = (
            [kernel_event] if kernel_event is not None else list(transfer_events)
        )
        out_events = self._do_out_clauses(pragma.clauses, env, out_deps)
        for name in freed_after:
            coi.free_buffer(name)

        final = out_events[-1] if out_events else kernel_event
        if pragma.signal is not None:
            tag = self._eval_clause(pragma.signal, env)
            coi.post_signal(tag, [final] if final is not None else [])
        elif final is not None:
            self.machine.clock.wait_until(final)

        if coi.checkpoint is not None:
            coi.checkpoint.block_completed(
                coi, kernel_seconds, session=persistent_key
            )

    def _interpret_device_body(
        self,
        body: ast.Stmt,
        env: Env,
        loop: Optional[ast.For],
        record: Optional[list] = None,
    ) -> float:
        """Interpret an offload body in a device context; returns seconds."""
        device_env = Env(parent=self._device_root)
        saved_ctx = self._ctx
        self._ctx = _TimedContext(
            self.machine.mic_model,
            self.machine.scale,
            is_device=True,
            sink=self._ops_total,
            record=record,
            tracer=self.machine.tracer,
        )
        try:
            if loop is not None:
                omp = next(
                    (p for p in loop.pragmas if isinstance(p, ast.OmpParallelFor)),
                    None,
                )
                if omp is not None:
                    self._exec_parallel_for(loop, device_env)
                else:
                    self._run_loop(loop, device_env)
            else:
                self._exec_stmt(body, device_env)
            return self._ctx.take_seconds()
        finally:
            self._ctx = saved_ctx

    # -- fault recovery ---------------------------------------------------------------------------

    def _deal_block(self) -> None:
        """Assign the current offload block to a card.

        Nothing is dealt once the run fell back to the host; a fleet
        with no card left to deal to is exhausted.
        """
        coi = self.machine.coi
        if not coi.fallback_mode and self.machine.fleet.begin_block(coi) is None:
            self._fleet_exhausted()

    def _fleet_exhausted(self) -> None:
        """Every fleet card is evicted: host fallback or give up.

        With ``host_fallback`` enabled the run enters permanent
        fallback mode — data ops stay eager (correctness is unaffected)
        and every remaining offload is charged as host re-execution.
        Otherwise the run dies with :class:`~repro.errors.DeviceLost`,
        which by the fleet invariant can only happen when every device
        is gone.
        """
        coi = self.machine.coi
        policy = coi.resilience
        stats = coi.fault_stats
        if policy is None or not policy.host_fallback:
            raise DeviceLost(
                f"all {self.machine.devices} fleet devices permanently "
                f"evicted by offload #{self._offload_count - 1} and host "
                f"fallback is disabled"
            )
        coi.enter_fallback_mode()
        if stats is not None:
            stats.record_action("device", "fleet_exhausted")
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.instant(
                "fleet:exhausted", self.machine.clock.now, track="cpu",
                devices=self.machine.devices,
            )
            tracer.metrics.counter("fleet.exhausted").inc()

    def _recover_offload_oom(
        self,
        oom: DeviceOutOfMemory,
        pragma: ast.OffloadPragma,
        body: ast.Stmt,
        env: Env,
        loop: Optional[ast.For],
        deps: List[Event],
    ) -> bool:
        """Decide how an offload survives a device OOM.

        Returns True when the offload has been fully executed through a
        recovery path (streamed demotion or host fallback); False when
        the OOM was transient (injected) and the caller should simply
        retry the in-clauses.  A genuine OOM with no recovery path
        re-raises.
        """
        coi = self.machine.coi
        policy = coi.resilience
        stats = coi.fault_stats
        simple = self._demotable(pragma, env)
        if policy.demote_on_oom and simple and loop is not None:
            self._exec_offload_demoted(pragma, body, env, loop, deps)
            return True
        if oom.injected:
            pause = policy.backoff(0)
            self.machine.clock.advance(pause)
            stats.backoff_seconds += pause
            stats.retries += 1
            stats.record_action("alloc", "retry")
            return False
        if policy.host_fallback and simple:
            self._exec_offload_on_host(pragma, body, env, loop)
            return True
        raise oom

    def _demotable(self, pragma: ast.OffloadPragma, env: Env) -> bool:
        """True when every clause moves a whole host value with default
        alloc/free semantics — the shape the runtime can transparently
        replay in streamed (block-granular) form, or hand to the host."""
        for clause in pragma.clauses:
            if clause.direction == "nocopy":
                return False
            if clause.into is not None or clause.start is not None:
                return False
            if clause.alloc_if is not None or clause.free_if is not None:
                return False
            value = self._lookup_host(clause.var, env, allow_missing=True)
            if value is None:
                return False
            if isinstance(value, np.ndarray) and clause.length is not None:
                if self._eval_clause_int(clause.length, env, len(value)) != len(
                    value
                ):
                    return False
        return True

    def _charge_host_fallback(
        self, record: Optional[list], fraction: float = 1.0
    ) -> None:
        """Charge the cost of abandoning device work to the host CPU:
        the policy's migration penalty plus re-executing *fraction* of
        the recorded kernel work at host speed."""
        coi = self.machine.coi
        policy = coi.resilience
        stats = coi.fault_stats
        replay = (
            self.machine.cpu_model.replay_time(record or [], self.machine.scale)
            * fraction
        )
        cost = policy.fallback_penalty + replay
        self.machine.clock.advance(cost)
        stats.host_fallbacks += 1
        stats.fallback_seconds += cost
        stats.record_action("kernel", "host_fallback")
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.instant(
                "recovery:host-fallback", self.machine.clock.now, track="cpu",
                cost=cost, fraction=fraction,
            )
            tracer.metrics.counter("faults.host_fallbacks").inc()

    def _exec_offload_on_host(
        self,
        pragma: ast.OffloadPragma,
        body: ast.Stmt,
        env: Env,
        loop: Optional[ast.For],
    ) -> None:
        """Graceful degradation: run the offload region on the host CPU.

        The body is interpreted with the *current* environment in the
        host context, so results land directly in host memory; in-only
        clause values are snapshotted and restored, matching the device
        semantics where writes to in-only data are discarded.
        """
        coi = self.machine.coi
        policy = coi.resilience
        stats = coi.fault_stats
        start_clock = self.machine.clock.now
        self.machine.clock.advance(policy.fallback_penalty)

        saved_arrays = []
        saved_scalars = []
        for clause in pragma.clauses:
            if clause.direction != "in":
                continue
            value = self._lookup_host(clause.var, env, allow_missing=True)
            if isinstance(value, np.ndarray):
                saved_arrays.append((value, value.copy()))
            elif value is not None:
                saved_scalars.append((clause.var, value))
        try:
            if loop is not None:
                omp = next(
                    (p for p in loop.pragmas if isinstance(p, ast.OmpParallelFor)),
                    None,
                )
                if omp is not None:
                    self._exec_parallel_for(loop, env)
                else:
                    self._run_loop(loop, env)
            else:
                self._exec_stmt(body, env)
        finally:
            for array, snapshot in saved_arrays:
                array[:] = snapshot
            for name, value in saved_scalars:
                env.set(name, value)
        self._drain_host()

        stats.host_fallbacks += 1
        stats.fallback_seconds += self.machine.clock.now - start_clock
        stats.record_action("alloc", "host_fallback")
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.instant(
                "recovery:host-fallback", self.machine.clock.now, track="cpu",
                cost=self.machine.clock.now - start_clock,
            )
            tracer.metrics.counter("faults.host_fallbacks").inc()
        if pragma.signal is not None:
            tag = self._eval_clause(pragma.signal, env)
            coi.post_signal(tag, [])

    def _exec_offload_demoted(
        self,
        pragma: ast.OffloadPragma,
        body: ast.Stmt,
        env: Env,
        loop: ast.For,
        deps: List[Event],
    ) -> None:
        """Replay an un-streamed offload that hit device OOM in streamed
        form: block-granular transfers with only two blocks of each array
        resident, the kernel chopped into per-block chunks on a
        persistent session.

        Unlike the compiler's streaming transform, the demoted schedule
        is deliberately conservative — every kernel chunk waits for all
        in-transfers and chunks are serialized — so recovery is never
        faster than the healthy offload it replaces.
        """
        from repro.transforms.streaming import choose_demotion_blocks

        coi = self.machine.coi
        policy = coi.resilience
        stats = coi.fault_stats
        stats.oom_demotions += 1
        stats.record_action("alloc", "demotion")
        tracer = self.machine.tracer
        if tracer.enabled:
            tracer.instant(
                "recovery:oom-demotion", self.machine.clock.now, track="cpu",
            )
            tracer.metrics.counter("faults.oom_demotions").inc()

        array_clauses = []
        for clause in pragma.clauses:
            value = self._lookup_host(clause.var, env)
            if isinstance(value, np.ndarray):
                array_clauses.append((clause, value))
            elif clause.direction in ("in", "inout"):
                self.machine.device.scalars[clause.var] = value
            else:
                self.machine.device.scalars.setdefault(
                    clause.var, value if value is not None else 0
                )
        # Drop whatever the failed full-size attempt left allocated.
        mem = self.machine.fleet.current().memory
        for clause, value in array_clauses:
            if mem.holds(clause.var):
                coi.free_buffer(clause.var)
        footprint = sum(value.nbytes for _, value in array_clauses)
        nblocks = choose_demotion_blocks(
            footprint * mem.scale, mem.capacity - mem.in_use
        )

        def block_len(value: np.ndarray) -> int:
            return max(1, math.ceil(len(value) / nblocks))

        in_events: List[Event] = []
        with coi.injector_suspended():
            for clause, value in array_clauses:
                resident = 1 if clause.direction == "out" else 2
                coi.alloc_buffer(
                    clause.var,
                    len(value),
                    dtype=value.dtype,
                    account_elems=resident * block_len(value),
                )
        for clause, value in array_clauses:
            if clause.direction not in ("in", "inout"):
                continue
            step = block_len(value)
            for start in range(0, len(value), step):
                stop = min(start + step, len(value))
                in_events.append(
                    coi.write_buffer(
                        clause.var,
                        start,
                        value[start:stop],
                        deps=deps,
                        sync=False,
                        block=True,
                    )
                )

        integrity = coi.integrity
        if integrity is not None:
            integrity.pre_kernel_verify(
                coi, [clause.var for clause, _ in array_clauses]
            )

        record: list = []
        kernel_seconds = self._interpret_device_body(body, env, loop, record)
        if integrity is not None:
            integrity.note_kernel_writes(coi)

        session = f"demote@{id(pragma)}"
        chunk = kernel_seconds / nblocks
        kernel_event: Optional[Event] = None
        for i in range(nblocks):
            kdeps = list(deps) + in_events
            if kernel_event is not None:
                kdeps.append(kernel_event)
            try:
                kernel_event = coi.launch_kernel(
                    chunk,
                    deps=kdeps,
                    label="offload~demoted",
                    persistent_key=session,
                )
            except OffloadTimeout:
                if not policy.host_fallback:
                    coi.end_persistent(session)
                    raise
                self._charge_host_fallback(record, fraction=(nblocks - i) / nblocks)
                kernel_event = None
                break
        coi.end_persistent(session)

        if integrity is not None and kernel_event is not None:
            integrity.kernel_completed(
                coi,
                [
                    clause.var
                    for clause, _ in array_clauses
                    if clause.direction in ("out", "inout")
                ],
                kernel_seconds,
            )

        out_deps = [kernel_event] if kernel_event is not None else list(in_events)
        out_events: List[Event] = []
        for clause, value in array_clauses:
            if clause.direction not in ("out", "inout"):
                continue
            step = block_len(value)
            for start in range(0, len(value), step):
                stop = min(start + step, len(value))
                out_events.append(
                    coi.read_buffer(
                        clause.var,
                        start,
                        stop - start,
                        value,
                        start,
                        deps=out_deps,
                        sync=False,
                        block=True,
                    )
                )
        for clause in pragma.clauses:
            if clause.direction not in ("out", "inout"):
                continue
            if clause.var in self.machine.device.scalars and not isinstance(
                self._lookup_host(clause.var, env, allow_missing=True), np.ndarray
            ):
                value = self.machine.device.scalars[clause.var]
                if env.has(clause.var):
                    env.set(clause.var, value)
                else:
                    env.declare(clause.var, value)
        for clause, value in array_clauses:
            coi.free_buffer(clause.var)

        final = out_events[-1] if out_events else kernel_event
        if pragma.signal is not None:
            tag = self._eval_clause(pragma.signal, env)
            coi.post_signal(tag, [final] if final is not None else [])
        elif final is not None:
            self.machine.clock.wait_until(final)

        if coi.checkpoint is not None:
            coi.checkpoint.block_completed(coi, kernel_seconds, session=session)

    def _exec_pragma_stmt(self, pragma: ast.Pragma, env: Env) -> None:
        coi = self.machine.coi
        if isinstance(pragma, ast.OffloadWaitPragma):
            self._drain_host()
            tag = self._eval_clause(pragma.wait, env)
            coi.wait_signal(tag)
            return
        if isinstance(pragma, ast.OffloadTransferPragma):
            self._drain_host()
            try:
                events, freed = self._do_in_clauses(pragma.clauses, env, deps=[])
            except DeviceOutOfMemory as oom:
                # A standalone transfer pragma (streamed code's block
                # traffic) has no demotion shape; an injected OOM is
                # transient — back off and re-issue.  Genuine OOM here is
                # a real capacity failure and propagates.
                if coi.resilience is None or not oom.injected:
                    raise
                pause = coi.resilience.backoff(0)
                self.machine.clock.advance(pause)
                coi.fault_stats.backoff_seconds += pause
                coi.fault_stats.retries += 1
                coi.fault_stats.record_action("alloc", "retry")
                with coi.injector_suspended():
                    events, freed = self._do_in_clauses(
                        pragma.clauses, env, deps=[]
                    )
            events += self._do_out_clauses(pragma.clauses, env, deps=[])
            for name in freed:
                coi.free_buffer(name)
            if pragma.signal is not None:
                tag = self._eval_clause(pragma.signal, env)
                coi.post_signal(tag, events)
            else:
                for event in events:
                    self.machine.clock.wait_until(event)
            return
        raise ExecutionError(f"cannot execute pragma {type(pragma).__name__}")

    # -- clause processing ------------------------------------------------------------------------

    def _do_in_clauses(
        self, clauses: List[ast.TransferClause], env: Env, deps: List[Event]
    ) -> Tuple[List[Event], List[str]]:
        """Handle in/inout/nocopy clauses; returns (events, buffers to free)."""
        coi = self.machine.coi
        events: List[Event] = []
        freed_after: List[str] = []
        for clause in clauses:
            if clause.direction == "out":
                # Allocation side of an out clause: ensure the device buffer
                # exists (freshly written by the kernel).
                self._prepare_out_buffer(clause, env, freed_after)
                continue
            alloc = self._flag(clause.alloc_if, env, default=True)
            free = self._flag(clause.free_if, env, default=clause.direction != "nocopy")
            if clause.direction == "nocopy":
                # Pure device-buffer management: the name may have no host
                # counterpart (double-buffering's sptprice1/sptprice2).
                dest = clause.into or clause.var
                host_value = self._lookup_host(clause.var, env, allow_missing=True)
                dtype = (
                    host_value.dtype
                    if isinstance(host_value, np.ndarray)
                    else np.float32
                )
                if alloc:
                    length = self._eval_clause_int(clause.length, env, 0)
                    coi.alloc_buffer(dest, length, dtype=dtype)
                if free:
                    freed_after.append(dest)
                continue
            src_value = self._lookup_host(clause.var, env)
            if isinstance(src_value, np.ndarray):
                dest = clause.into or clause.var
                start = self._eval_clause_int(clause.start, env, 0)
                length = (
                    self._eval_clause_int(clause.length, env, len(src_value) - start)
                )
                if clause.into is None:
                    # in(A[s:l]): the device mirror keeps the host layout.
                    into_start = start
                else:
                    into_start = self._eval_clause_int(clause.into_start, env, 0)
                if start < 0 or start + length > len(src_value):
                    raise RuntimeFault(
                        f"clause section [{start}:{start + length}) out of range "
                        f"for host array {clause.var!r} of {len(src_value)}"
                    )
                if alloc:
                    coi.alloc_buffer(
                        dest, into_start + length, dtype=src_value.dtype
                    )
                if clause.direction in ("in", "inout"):
                    events.append(
                        coi.write_buffer(
                            dest,
                            into_start,
                            src_value[start : start + length],
                            deps=deps,
                            sync=False,
                            # Sectioned transfers are a streamed loop's
                            # blocks; their fault replays are what the
                            # block-restart counter reports.
                            block=clause.into is not None
                            or start != 0
                            or length != len(src_value),
                        )
                    )
                if free:
                    freed_after.append(dest)
            else:
                # Scalar: copied at allocation time (Section III-A); the
                # cost rides along with the kernel launch.
                if clause.direction in ("in", "inout"):
                    self.machine.device.scalars[clause.var] = src_value
        return events, freed_after

    def _prepare_out_buffer(
        self, clause: ast.TransferClause, env: Env, freed_after: List[str]
    ) -> None:
        coi = self.machine.coi
        alloc = self._flag(clause.alloc_if, env, default=True)
        free = self._flag(clause.free_if, env, default=True)
        host_side = clause.into or clause.var
        host_value = self._lookup_host(host_side, env, allow_missing=True)
        if not isinstance(host_value, np.ndarray):
            # Scalar out: pre-seed the device scalar so kernel writes land
            # in device space (and can be copied back afterwards).
            self.machine.device.scalars.setdefault(
                clause.var, host_value if host_value is not None else 0
            )
            return
        start = self._eval_clause_int(clause.start, env, 0)
        length = self._eval_clause_int(clause.length, env, len(host_value) - start)
        if alloc and not self.machine.device.holds(clause.var):
            coi.alloc_buffer(clause.var, start + length, dtype=host_value.dtype)
        elif alloc:
            coi.alloc_buffer(
                clause.var,
                max(start + length, len(self.machine.device.array(clause.var))),
                dtype=host_value.dtype,
            )
        if free:
            freed_after.append(clause.var)

    def _do_out_clauses(
        self, clauses: List[ast.TransferClause], env: Env, deps: List[Event]
    ) -> List[Event]:
        coi = self.machine.coi
        events: List[Event] = []
        for clause in clauses:
            if clause.direction not in ("out", "inout"):
                continue
            if clause.direction == "inout":
                src_name = clause.into or clause.var
                host_name = clause.var
            else:
                src_name = clause.var
                host_name = clause.into or clause.var
            host_value = self._lookup_host(host_name, env, allow_missing=True)
            if isinstance(host_value, np.ndarray):
                if clause.direction == "inout":
                    dev_start = self._eval_clause_int(clause.into_start, env, 0)
                    host_start = self._eval_clause_int(clause.start, env, 0)
                else:
                    dev_start = self._eval_clause_int(clause.start, env, 0)
                    if clause.into is None:
                        # out(B[s:l]): same section on both sides.
                        host_start = dev_start
                    else:
                        host_start = self._eval_clause_int(
                            clause.into_start, env, 0
                        )
                length = self._eval_clause_int(
                    clause.length, env, len(host_value) - host_start
                )
                events.append(
                    coi.read_buffer(
                        src_name,
                        dev_start,
                        length,
                        host_value,
                        host_start,
                        deps=deps,
                        sync=False,
                        block=clause.into is not None
                        or host_start != 0
                        or length != len(host_value),
                    )
                )
            else:
                # Scalar out: copy the device scalar back to the host scope.
                if clause.var in self.machine.device.scalars:
                    value = self.machine.device.scalars[clause.var]
                    if env.has(clause.var):
                        env.set(clause.var, value)
                    else:
                        env.declare(clause.var, value)
        return events

    @staticmethod
    def _clause_device_names(clauses: List[ast.TransferClause]) -> List[str]:
        """Device buffer names an offload's clauses refer to (any direction)."""
        names = []
        for clause in clauses:
            if clause.direction == "out":
                names.append(clause.var)
            else:
                names.append(clause.into or clause.var)
        return names

    @staticmethod
    def _clause_out_names(clauses: List[ast.TransferClause]) -> List[str]:
        """Device buffer names an offload's kernel writes (out/inout)."""
        names = []
        for clause in clauses:
            if clause.direction == "out":
                names.append(clause.var)
            elif clause.direction == "inout":
                names.append(clause.into or clause.var)
        return names

    def _lookup_host(self, name: str, env: Env, allow_missing: bool = False):
        if env.has(name):
            return env.get(name)
        if allow_missing:
            return None
        raise RuntimeFault(f"offload clause names unknown host variable {name!r}")

    def _flag(self, expr: Optional[ast.Expr], env: Env, default: bool) -> bool:
        if expr is None:
            return default
        return bool(self._eval_clause(expr, env))

    def _eval_clause_int(
        self, expr: Optional[ast.Expr], env: Env, default: int
    ) -> int:
        if expr is None:
            return int(default)
        return int(self._eval_clause(expr, env))

    def _call_root_env(self) -> Env:
        """The root scope function calls resolve against (context-based)."""
        return self._device_root if self._ctx.is_device else self._host_root

    # -- access accounting -------------------------------------------------------------------------------

    #: Arrays whose (simulated) size fits comfortably in cache are charged
    #: no memory traffic and no locality penalty: centroid tables,
    #: dictionaries and other small lookup structures live in L1/L2.
    CACHED_ARRAY_BYTES = 256 << 10

    @staticmethod
    def _classify_site(
        index: ast.Expr, var: str, bindings: Dict[str, int]
    ) -> AccessKind:
        if any(isinstance(n, ast.Subscript) for n in walk_nodes(index)):
            return AccessKind.INDIRECT
        bindings = dict(bindings)
        bindings.pop(var, None)
        try:
            form = extract_linear_form(index, var, bindings)
        except NotAffineError:
            return AccessKind.NONLINEAR
        if form.coeff == 0:
            return AccessKind.INVARIANT
        if abs(form.coeff) == 1:
            return AccessKind.UNIT
        return AccessKind.AFFINE

def run_program(
    source: Union[str, ast.Program],
    arrays: Optional[Dict[str, np.ndarray]] = None,
    scalars: Optional[Dict[str, object]] = None,
    machine: Optional[Machine] = None,
    entry: str = "main",
    engine: str = "auto",
) -> ExecutionResult:
    """Convenience wrapper: parse (if needed), execute, return the result."""
    executor = Executor(source, machine, engine=engine)
    return executor.run(entry=entry, arrays=arrays, scalars=scalars)
