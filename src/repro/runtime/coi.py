"""COI-like low-level offload runtime.

The paper drops below LEO for thread reuse: "In our implementation, we use
lower-level COI library to control the synchronization between CPU and
MIC."  This module is that layer for the simulated machine: device buffer
management, DMA transfers (sync and async), kernel launches with launch
overhead, the persistent-kernel signal fast path, and named signals for
``signal``/``wait`` clauses.

Data movement is performed eagerly on the numpy buffers (program order
equals issue order in our interpreter), while *timing* is scheduled on the
shared :class:`~repro.hardware.event_sim.Timeline`, so transfer/compute
overlap shows up in simulated time without affecting correctness.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.errors import OffloadTimeout, RuntimeFault
from repro.hardware.event_sim import Clock, Event, Timeline
from repro.hardware.pcie import dma_transfer_time, transfer_breakdown
from repro.hardware.spec import MachineSpec
from repro.obs.tracer import NULL_TRACER
from repro.runtime.values import DeviceSpace, HostSpace

DMA_TO_DEVICE = "dma:h2d"
DMA_FROM_DEVICE = "dma:d2h"
DEVICE = "mic"
HOST = "cpu"


@dataclass
class CoiStats:
    """Counters the experiment harness reports."""

    bytes_to_device: float = 0.0
    bytes_from_device: float = 0.0
    transfers_to_device: int = 0
    transfers_from_device: int = 0
    kernel_launches: int = 0
    kernel_signals: int = 0
    allocations: int = 0
    #: Pure kernel compute time, excluding launch/signal overheads.
    kernel_compute_seconds: float = 0.0


class CoiRuntime:
    """Low-level runtime bound to one simulated machine."""

    def __init__(
        self,
        spec: MachineSpec,
        timeline: Timeline,
        clock: Clock,
        host: HostSpace,
        device: DeviceSpace,
        scale: float = 1.0,
        tracer=None,
    ):
        self.spec = spec
        self.timeline = timeline
        self.clock = clock
        self.host = host
        self.device = device
        self.scale = scale
        #: Observability sink; the null tracer makes every hook a no-op.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = CoiStats()
        self.signals: Dict[object, List[Event]] = {}
        self._persistent_live: set = set()
        #: Optional fault-injection hooks, attached by the Machine when a
        #: fault plan is configured.  Both None ⇒ the original code paths
        #: run unchanged (bit-identical timing and counters).
        self.injector = None
        self.resilience = None
        self.fault_stats = None
        #: COI session epoch: bumped by every full device reset.  Signals
        #: and persistent sessions belong to an epoch and do not survive
        #: into the next one.
        self.epoch = 0
        #: Optional checkpoint manager (attached by the Machine when the
        #: policy enables checkpoint/restart).  None ⇒ every note hook
        #: below is skipped and a device reset is unrecoverable.
        self.checkpoint = None
        #: Optional integrity manager (attached by the Machine when a
        #: fault plan or a verifying ``integrity_mode`` is configured).
        #: None ⇒ no silent-corruption injection and no verification.
        self.integrity = None
        #: The :class:`~repro.runtime.fleet.DeviceFleet` whose cards own
        #: device memory, compute lanes and DMA channels; attached by the
        #: Machine.  A one-card machine is a fleet of one.
        self.fleet = None
        #: True once every fleet device has been evicted and the policy's
        #: host fallback took over: data ops stay eager (correctness) but
        #: schedule nothing and charge nothing device-side — the executor
        #: charges host re-execution per offload instead.
        self.fallback_mode = False

    # -- fleet routing -------------------------------------------------------

    def device_index_of(self, name: str) -> Optional[int]:
        """Fault-stream index of the card owning buffer *name*.

        None when the buffer is unplaced, and always on a lone card.
        """
        owner = self.fleet.owner_of(name)
        return None if owner is None else owner.stream

    def resident_device_bytes(self) -> int:
        """Simulated bytes resident device-side, across the fleet."""
        if self.fallback_mode:
            return 0
        return self.fleet.resident_bytes()

    @property
    def live_persistent_sessions(self) -> int:
        """Persistent kernel sessions currently resident on the fleet."""
        return len(self._persistent_live)

    def drop_persistent_sessions(self, prefix: str) -> None:
        """Kill every persistent session whose key starts with *prefix*."""
        self._persistent_live = {
            key for key in self._persistent_live if not key.startswith(prefix)
        }

    def enter_fallback_mode(self) -> None:
        """Switch to host-only execution after fleet exhaustion.

        Correctness continues on the shared numpy buffers; injection and
        checkpointing stop (there is no device left to fail or restore),
        while the integrity manager stays attached so its reference
        checksums keep tracking the buffers it will verify at finalize.
        """
        self.fallback_mode = True
        self.injector = None
        self.checkpoint = None

    def injector_suspended(self):
        """Context manager silencing injection while recovery re-issues."""
        if self.injector is None:
            return nullcontext()
        return self.injector.suspended()

    # -- buffers ------------------------------------------------------------

    def alloc_buffer(
        self,
        name: str,
        count: int,
        dtype=np.float32,
        account_elems: Optional[int] = None,
    ) -> np.ndarray:
        """Allocate (or reuse) a device buffer of *count* elements.

        *account_elems* caps the simulated-memory charge below the numpy
        buffer size: a demoted (streamed) offload keeps the full array for
        correctness but only holds ``account_elems`` resident on the
        simulated device at any instant.
        """
        itemsize = np.dtype(dtype).itemsize
        charged = count if account_elems is None else min(account_elems, count)
        # After fleet exhaustion there is no device memory left to
        # charge: host arrays only.
        if not self.fallback_mode:
            self.fleet.allocate(name, charged * itemsize)
        existing = self.device.arrays.get(name)
        if existing is None or len(existing) < count or existing.dtype != dtype:
            if existing is not None and self.integrity is not None:
                # The old array object (and its contents) is dropped:
                # settle its checksum state before it goes.
                self.integrity.on_realloc(self, name)
            self.device.arrays[name] = np.zeros(count, dtype=dtype)
        self.stats.allocations += 1
        if self.checkpoint is not None:
            self.checkpoint.note_alloc(name, charged * itemsize)
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.counter("coi.allocations").inc()
            metrics.gauge("device.mem_in_use").set(self.fleet.resident_bytes())
            metrics.gauge("device.mem_peak").set(self.fleet.peak_bytes())
        return self.device.arrays[name]

    def free_buffer(self, name: str) -> None:
        """Free the device buffer and its memory accounting."""
        if self.integrity is not None and name in self.device.arrays:
            self.integrity.on_free(self, name)
        # After fleet exhaustion the device-side accounting is gone.
        if not self.fallback_mode:
            self.fleet.free(name)
        self.device.arrays.pop(name, None)
        if self.checkpoint is not None:
            self.checkpoint.note_free(name)

    # -- transfers ------------------------------------------------------------

    def _trace_dma(
        self,
        channel: str,
        label: str,
        event: Event,
        duration: float,
        nbytes: float,
        status: str = "ok",
    ) -> None:
        """Record one scheduled DMA operation as a span (tracing only).

        The operation occupies its channel contiguously for *duration*,
        so the span start is the completion time minus the duration.
        """
        attrs = transfer_breakdown(nbytes, self.spec.pcie)
        attrs["status"] = status
        self.tracer.span(label, channel, event.time - duration, event.time, **attrs)
        # Fleet channels are prefixed ("dev2:dma:h2d"), so the site is
        # identified by suffix, not equality.
        site = "h2d" if channel.endswith(DMA_TO_DEVICE) else "d2h"
        self.tracer.metrics.histogram(f"coi.dma.{site}.seconds").observe(duration)

    def _dma_schedule(
        self,
        channel: str,
        duration: float,
        deps: Iterable[Event],
        label: str,
        block: bool = False,
        nbytes: float = 0.0,
        device: Optional[int] = None,
    ) -> Event:
        """Schedule one DMA transfer, surviving injected link faults.

        Without an injector this is exactly one timeline schedule — the
        pre-fault code path, bit for bit.  With one, a faulted attempt
        (corrupt payload or stalled engine) burns simulated channel time,
        the host detects it and retries after exponential backoff; a
        transfer that exhausts its retries is pushed through at the
        policy's degraded link rate rather than lost.  *block* marks a
        sectioned (block-granular) transfer, whose replays are what the
        streaming restart counter reports.
        """
        tracer = self.tracer
        if self.injector is None:
            event = self.timeline.schedule(
                channel, duration, deps=deps, label=label,
                not_before=self.clock.now,
            )
            if tracer.enabled:
                self._trace_dma(channel, label, event, duration, nbytes)
            return event
        site = "h2d" if channel.endswith(DMA_TO_DEVICE) else "d2h"
        policy = self.resilience
        stats = self.fault_stats
        attempt = 0
        while True:
            fault = self.injector.draw(site, device=device)
            if fault is None:
                event = self.timeline.schedule(
                    channel, duration, deps=deps, label=label,
                    not_before=self.clock.now,
                )
                if tracer.enabled:
                    self._trace_dma(channel, label, event, duration, nbytes)
                return event
            if fault.kind == "stall":
                # Engine wedged mid-transfer; host watchdog fires.
                wasted = duration * fault.severity + policy.transfer_timeout
                stats.timeouts += 1
            else:
                # Corruption is detected after the full transfer lands.
                wasted = duration
            failed = self.timeline.schedule(
                channel, wasted, deps=deps, label=f"{label}!{fault.kind}",
                not_before=self.clock.now,
            )
            self.clock.wait_until(failed)
            stats.recovery_seconds += wasted
            if block:
                stats.blocks_replayed += 1
            if tracer.enabled:
                self._trace_dma(
                    channel, f"{label}!{fault.kind}", failed, wasted, nbytes,
                    status=fault.kind,
                )
            if attempt >= policy.max_retries:
                stats.degraded_transfers += 1
                stats.record_action(site, "degraded")
                event = self.timeline.schedule(
                    channel, duration * policy.degraded_factor, deps=deps,
                    label=f"{label}~degraded", not_before=self.clock.now,
                )
                if tracer.enabled:
                    self._trace_dma(
                        channel, f"{label}~degraded", event,
                        duration * policy.degraded_factor, nbytes,
                        status="degraded",
                    )
                    tracer.instant(
                        "recovery:degraded", self.clock.now, track=channel,
                        site=site, label=label,
                    )
                    tracer.metrics.counter("faults.degraded_transfers").inc()
                return event
            pause = policy.backoff(attempt)
            self.clock.advance(pause)
            stats.backoff_seconds += pause
            stats.retries += 1
            stats.record_action(site, "retry")
            if tracer.enabled:
                tracer.instant(
                    "recovery:retry", self.clock.now, track=channel,
                    site=site, attempt=attempt, backoff=pause, label=label,
                )
                tracer.metrics.counter("faults.retries").inc()
            attempt += 1

    def write_buffer(
        self,
        dest: str,
        dest_start: int,
        data: np.ndarray,
        deps: Iterable[Event] = (),
        sync: bool = True,
        block: bool = False,
    ) -> Event:
        """Copy host *data* into device buffer *dest* at *dest_start*.

        The copy happens immediately (issue order is program order); the
        DMA time is scheduled on the host-to-device channel.  When *sync*
        the host clock blocks on completion, otherwise the returned event
        is the dependency later operations use.
        """
        buf = self.device.array(dest)
        if dest_start < 0 or dest_start + len(data) > len(buf):
            raise RuntimeFault(
                f"h2d transfer into buffer {dest!r} out of range: "
                f"[{dest_start}, {dest_start + len(data)}) of {len(buf)}"
            )
        buf[dest_start : dest_start + len(data)] = data
        if self.checkpoint is not None:
            self.checkpoint.note_write(dest, dest_start, len(data), data.nbytes)
        if self.integrity is not None:
            self.integrity.on_write(self, dest, dest_start, len(data))
        if self.fallback_mode:
            # Host-only: the eager copy above is the whole operation.
            return Event(self.clock.now, f"h2d:{dest}")
        owner = self.fleet.device_for_alloc(dest)
        nbytes = data.nbytes * self.scale
        event = self._dma_schedule(
            owner.h2d_track,
            dma_transfer_time(nbytes, self.spec.pcie),
            deps=deps,
            label=f"h2d:{dest}",
            block=block,
            nbytes=nbytes,
            device=owner.stream,
        )
        self.stats.bytes_to_device += nbytes
        self.stats.transfers_to_device += 1
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.counter("coi.bytes_to_device").inc(nbytes)
            metrics.counter("coi.transfers_to_device").inc()
        if sync:
            self.clock.wait_until(event)
        return event

    def read_buffer(
        self,
        src: str,
        src_start: int,
        count: int,
        into: np.ndarray,
        into_start: int,
        deps: Iterable[Event] = (),
        sync: bool = True,
        block: bool = False,
    ) -> Event:
        """Copy *count* elements of device buffer *src* back to host."""
        buf = self.device.array(src)
        if src_start < 0 or src_start + count > len(buf):
            raise RuntimeFault(
                f"d2h transfer from buffer {src!r} out of range: "
                f"[{src_start}, {src_start + count}) of {len(buf)}"
            )
        into[into_start : into_start + count] = buf[src_start : src_start + count]
        if self.integrity is not None:
            self.integrity.on_read(self, src, src_start, count, into, into_start)
        if self.fallback_mode:
            return Event(self.clock.now, f"d2h:{src}")
        owner = self.fleet.device_for_alloc(src)
        nbytes = count * buf.dtype.itemsize * self.scale
        event = self._dma_schedule(
            owner.d2h_track,
            dma_transfer_time(nbytes, self.spec.pcie),
            deps=deps,
            label=f"d2h:{src}",
            block=block,
            nbytes=nbytes,
            device=owner.stream,
        )
        self.stats.bytes_from_device += nbytes
        self.stats.transfers_from_device += 1
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.counter("coi.bytes_from_device").inc(nbytes)
            metrics.counter("coi.transfers_from_device").inc()
        if sync:
            self.clock.wait_until(event)
        return event

    def raw_transfer(
        self,
        nbytes: float,
        to_device: bool,
        deps: Iterable[Event] = (),
        sync: bool = True,
        label: str = "raw",
        block: bool = False,
        channel: Optional[str] = None,
        device: Optional[int] = None,
    ) -> Event:
        """Schedule transfer time without touching named buffers.

        Used by the shared-memory runtimes, whose data lives in arena /
        page objects rather than named numpy buffers, and by the recovery
        paths (*channel* pins the transfer to a specific fleet device's
        DMA engine; by default it rides the current card's channel).
        """
        if self.fallback_mode:
            return Event(self.clock.now, label)
        if channel is None:
            card = self.fleet.current()
            channel = card.h2d_track if to_device else card.d2h_track
            if device is None:
                device = card.stream
        event = self._dma_schedule(
            channel,
            dma_transfer_time(nbytes * self.scale, self.spec.pcie),
            deps=deps,
            label=label,
            block=block,
            nbytes=nbytes * self.scale,
            device=device,
        )
        if to_device:
            self.stats.bytes_to_device += nbytes * self.scale
            self.stats.transfers_to_device += 1
        else:
            self.stats.bytes_from_device += nbytes * self.scale
            self.stats.transfers_from_device += 1
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            direction = "to" if to_device else "from"
            metrics.counter(f"coi.bytes_{direction}_device").inc(nbytes * self.scale)
            metrics.counter(f"coi.transfers_{direction}_device").inc()
        if sync:
            self.clock.wait_until(event)
        return event

    # -- kernels ---------------------------------------------------------------

    def launch_kernel(
        self,
        duration: float,
        deps: Iterable[Event] = (),
        label: str = "kernel",
        persistent_key: Optional[str] = None,
    ) -> Event:
        """Run device work of *duration* seconds (already scaled).

        A fresh launch pays the LEO/COI kernel launch overhead K.  With a
        *persistent_key*, only the first launch pays K; subsequent work
        under the same key pays the much smaller signal overhead — the
        thread-reuse optimization of Section III-C.  The work lands on
        the current card's compute track, and persistent sessions are
        scoped to that card (a session cannot follow a block to a
        different device).
        """
        if self.fallback_mode:
            return Event(self.clock.now, label)
        card = self.fleet.current()
        track = card.compute_track
        key = None
        if persistent_key is not None:
            key = f"{card.device_id}:{persistent_key}"
        if self.injector is None:
            overhead = self._launch_overhead(key)
            self.stats.kernel_compute_seconds += duration
            event = self.timeline.schedule(
                track,
                overhead + duration,
                deps=deps,
                label=label,
                not_before=self.clock.now,
            )
            if self.tracer.enabled:
                self._trace_kernel(label, event, overhead, duration, track=track)
            return event
        return self._launch_kernel_resilient(duration, deps, label, key, card)

    def _launch_overhead(self, persistent_key: Optional[str]) -> float:
        """Overhead of the next launch, counted in the stats."""
        mic = self.spec.mic
        metrics = self.tracer.metrics
        if persistent_key is None:
            self.stats.kernel_launches += 1
            metrics.counter("coi.kernel_launches").inc()
            return mic.kernel_launch_overhead
        if persistent_key not in self._persistent_live:
            self._persistent_live.add(persistent_key)
            self.stats.kernel_launches += 1
            metrics.counter("coi.kernel_launches").inc()
            return mic.kernel_launch_overhead
        self.stats.kernel_signals += 1
        metrics.counter("coi.kernel_signals").inc()
        return mic.signal_overhead

    def _trace_kernel(
        self,
        label: str,
        event: Event,
        overhead: float,
        duration: float,
        track: str,
        status: str = "ok",
    ) -> None:
        """Record one kernel occupancy as a device-track span."""
        total = overhead + duration
        self.tracer.span(
            label, track, event.time - total, event.time,
            overhead=overhead, compute=duration, status=status,
        )
        metrics = self.tracer.metrics
        metrics.histogram("coi.kernel_compute_seconds").observe(duration)
        metrics.histogram("coi.kernel_launch_overhead_seconds").observe(overhead)

    def _launch_kernel_resilient(
        self,
        duration: float,
        deps: Iterable[Event],
        label: str,
        persistent_key: Optional[str],
        card,
    ) -> Event:
        """Launch under fault injection: crashes and hangs are retried.

        A hung kernel burns the watchdog timeout; a crashed one burns the
        severity-fraction of its runtime.  Either way a persistent session
        dies with the kernel, so the retry pays a full launch.  When the
        retry budget is exhausted the offload is abandoned with
        :class:`OffloadTimeout` — the executor decides whether the policy
        allows falling back to the host.
        """
        policy = self.resilience
        stats = self.fault_stats
        track = card.compute_track
        attempt = 0
        while True:
            fault = self.injector.draw("kernel", device=card.stream)
            if fault is None:
                overhead = self._launch_overhead(persistent_key)
                self.stats.kernel_compute_seconds += duration
                event = self.timeline.schedule(
                    track,
                    overhead + duration,
                    deps=deps,
                    label=label,
                    not_before=self.clock.now,
                )
                if self.tracer.enabled:
                    self._trace_kernel(
                        label, event, overhead, duration, track=track
                    )
                return event
            overhead = self._launch_overhead(persistent_key)
            if fault.kind == "hang":
                wasted = overhead + policy.kernel_timeout
                stats.timeouts += 1
            else:
                wasted = overhead + duration * fault.severity
            failed = self.timeline.schedule(
                track,
                wasted,
                deps=deps,
                label=f"{label}!{fault.kind}",
                not_before=self.clock.now,
            )
            self.clock.wait_until(failed)
            stats.recovery_seconds += wasted
            if self.tracer.enabled:
                self.tracer.span(
                    f"{label}!{fault.kind}", track,
                    failed.time - wasted, failed.time,
                    status=fault.kind,
                )
            if persistent_key is not None:
                self._persistent_live.discard(persistent_key)
            if attempt >= policy.max_retries:
                raise OffloadTimeout(
                    f"offload kernel {label!r} abandoned after "
                    f"{attempt + 1} attempts (last fault: {fault.kind})"
                )
            pause = policy.backoff(attempt)
            self.clock.advance(pause)
            stats.backoff_seconds += pause
            stats.retries += 1
            stats.record_action("kernel", "retry")
            if self.tracer.enabled:
                self.tracer.instant(
                    "recovery:retry", self.clock.now, track=track,
                    site="kernel", attempt=attempt, backoff=pause, label=label,
                )
                self.tracer.metrics.counter("faults.retries").inc()
            attempt += 1

    def end_persistent(self, key: str) -> None:
        """Terminate a persistent kernel (next use pays a full launch)."""
        # The session may live on any card (scoped key).
        for dev in self.fleet.devices:
            self._persistent_live.discard(f"{dev.device_id}:{key}")

    # -- device reset -----------------------------------------------------------

    def reset_device(self) -> None:
        """Wipe every piece of resident device state (a full reset).

        Resident numpy buffers, device scalars, in-flight signals,
        persistent kernel sessions, and the memory accounting all go;
        the session epoch is bumped so state rebuilt afterwards is
        distinguishable from pre-reset state.  The caller (the
        checkpoint manager's restore path) is responsible for rebuilding
        whatever must survive — this method only destroys.
        """
        self.device.arrays.clear()
        self.device.scalars.clear()
        self.signals.clear()
        self._persistent_live.clear()
        for dev in self.fleet.devices:
            dev.memory.reset()
        self.epoch += 1
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.counter("coi.device_resets").inc()
            metrics.gauge("coi.epoch").set(self.epoch)
            metrics.gauge("device.mem_in_use").set(self.fleet.resident_bytes())

    # -- signals -----------------------------------------------------------------

    def post_signal(self, tag: object, events: Iterable[Event]) -> None:
        """Record completion events under *tag* for a later wait."""
        self.signals.setdefault(tag, []).extend(events)

    def take_signal(self, tag: object) -> List[Event]:
        """Pop the events posted under *tag*, surviving a lost signal.

        An injected "lost" fault models a dropped completion notification:
        the waiter times out and re-polls the signal word, which costs the
        policy's signal timeout but still observes the posted events.
        """
        events = self.signals.pop(tag, [])
        if events and self.injector is not None:
            fault = self.injector.draw("signal")
            if fault is not None:
                policy = self.resilience
                stats = self.fault_stats
                stats.signals_lost += 1
                stats.timeouts += 1
                stats.record_action("signal", "repoll")
                self.clock.advance(policy.signal_timeout)
                stats.recovery_seconds += policy.signal_timeout
                if self.tracer.enabled:
                    self.tracer.instant(
                        "recovery:signal-repoll", self.clock.now,
                        track=HOST, tag=str(tag),
                        timeout=policy.signal_timeout,
                    )
                    self.tracer.metrics.counter("faults.signals_lost").inc()
        return events

    def wait_signal(self, tag: object) -> None:
        """Block the host until everything posted under *tag* completes."""
        for event in self.take_signal(tag):
            self.clock.wait_until(event)
