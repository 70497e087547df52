"""Multi-device fleet: block sharding, health tracking, and failover.

One simulated machine can carry N coprocessor cards
(``MachineSpec.devices``).  Each :class:`FleetDevice` owns its *timing*
resources — a memory manager, a compute track, and a DMA channel pair on
the shared :class:`~repro.hardware.event_sim.Timeline` — while the
*correctness* layer (the eager host-ordered numpy arrays in
``coi.device.arrays``) stays shared, exactly the decoupling the rest of
the simulator relies on.  That split is what makes the fleet invariant
cheap to state and possible to test: outputs and op counters are
bit-identical to the fault-free single-device run for any device count
and any survivable fault schedule, because sharding only ever moves
*time* between tracks.

The :class:`DeviceFleet` is the block-sharding scheduler plus the
failover layer:

* **sharding** — each offload entry (a streamed loop's block) is dealt
  round-robin over the currently healthy devices; buffers are placed on
  the device that first allocates them and their DMA rides that owner's
  channel from then on.
* **health** — every device carries a
  :class:`~repro.hardware.device.DeviceHealth` ledger.  A ``device:reset``
  drawn on a device's own fault stream quarantines it (or evicts it
  permanently once its ``max_resets`` budget is spent).  Quarantined
  cards are re-probed with seeded re-admission coin flips
  (:class:`~repro.hardware.device.ProbeSemantics`) before later blocks
  are assigned — but never by the re-assignment of the very block they
  just dropped.
* **failover** — a lost device's buffers are redistributed round-robin
  over the survivors.  With a :class:`~repro.runtime.checkpoint
  .CheckpointManager` attached, only the *live write windows* its shadow
  records for those buffers are re-uploaded (the same bookkeeping the
  lone-card restart path uses); without one the full charged
  footprint is conservatively re-sent.  Kernel seconds of the lost
  device's blocks completed since the last commit are re-executed on a
  survivor's compute track.  All of it is charged to the simulated
  clock — degraded-mode capacity is accounted honestly, never waved
  away.

Exhaustion semantics: the run raises
:class:`~repro.errors.DeviceLost` only when *every* device has been
permanently evicted and the policy disables host fallback.  With
fallback enabled the run completes on the host (correctness is
unaffected; the fallback time is charged per offload).  Quarantine alone
can never wedge a run: when no healthy device exists but non-evicted
quarantined ones do, the least-failed card is force-readmitted (its
probe cost still charged).

A single card is a fleet of one, and this module is the one place that
decides how a lone card differs from a card among peers:

* its lanes are unprefixed (``mic``, ``dma:h2d``, ``dma:d2h``), so
  one-card traces name the paper's single coprocessor;
* its fault draws carry no device index, so a one-card run keeps the
  device-less fault streams;
* a device loss has no survivor to fail over to, so the card restarts
  in place from the checkpoint (or the run dies with
  :class:`~repro.errors.DeviceLost` when checkpointing is off).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import DeviceLost
from repro.hardware.device import (
    PROBE_SEMANTICS,
    RESET_SEMANTICS,
    DeviceHealth,
    ProbeSemantics,
)
from repro.hardware.memory import DeviceMemoryManager
from repro.obs.tracer import NULL_TRACER
from repro.runtime.coi import DMA_FROM_DEVICE, DMA_TO_DEVICE, DEVICE

#: Entropy discriminator for the per-device re-admission probe streams.
#: Far outside the fault-site index range (0..6), so probe coins can
#: never collide with any fault stream of any device.
_PROBE_STREAM_TAG = 101


class FleetDevice:
    """One card of the fleet: its identity, timing resources, health."""

    def __init__(self, index: int, spec, scale: float):
        self.index = index
        self.device_id = f"dev{index}"
        #: Fault-stream index this card's draws carry.
        self.stream: Optional[int] = index
        self.memory = DeviceMemoryManager(
            capacity=spec.mic.usable_memory, scale=scale, device_index=index
        )
        self.health = DeviceHealth()
        #: Blocks the sharding scheduler assigned to this device.
        self.blocks_assigned = 0
        #: Buffers this device absorbed from lost peers.
        self.blocks_absorbed = 0
        #: Timeline resource names.  Tracks are created lazily by the
        #: shared Timeline, so a fleet needs no event-sim changes.
        self.compute_track = f"{self.device_id}:{DEVICE}"
        self.h2d_track = f"{self.device_id}:{DMA_TO_DEVICE}"
        self.d2h_track = f"{self.device_id}:{DMA_FROM_DEVICE}"

    def make_lone(self) -> None:
        """Turn this card into the only card of a fleet of one.

        A lone card is the one-card machine: its lanes drop the ``devK:``
        prefix and its draws (memory allocations included) use the
        device-less fault streams.
        """
        self.stream = None
        self.memory.device_index = None
        self.compute_track = DEVICE
        self.h2d_track = DMA_TO_DEVICE
        self.d2h_track = DMA_FROM_DEVICE


class DeviceFleet:
    """Block-sharding scheduler and failover layer over N devices."""

    def __init__(
        self,
        spec,
        scale: float,
        count: int,
        seed=None,
        policy=None,
        stats=None,
        tracer=None,
        probe: ProbeSemantics = PROBE_SEMANTICS,
    ):
        if count < 1:
            raise ValueError(f"device count must be >= 1, got {count}")
        self.spec = spec
        self.policy = policy
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.probe = probe
        self.devices: List[FleetDevice] = [
            FleetDevice(i, spec, scale) for i in range(count)
        ]
        if count == 1:
            self.devices[0].make_lone()
        self.seed = seed
        self._probe_rngs: Dict[int, np.random.Generator] = {}
        #: Buffer name → owning device index (placement map).
        self.placement: Dict[str, int] = {}
        #: Buffer name → unscaled charged bytes.  Kept fleet-side because
        #: :class:`Allocation` footprints are already scaled while the
        #: checkpoint shadow (and the re-allocation API) work unscaled.
        self._charged: Dict[str, float] = {}
        #: Fleet-wide block assignment ordinal (drives round-robin and
        #: the probe-eligibility rule).
        self.total_assigned = 0
        #: Device the current offload block is assigned to.
        self.active: Optional[FleetDevice] = None

    # -- health / scheduling ---------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when every device has been permanently evicted."""
        return all(d.health.evicted for d in self.devices)

    def healthy_devices(self) -> List[FleetDevice]:
        """The devices currently accepting blocks, in index order."""
        return [d for d in self.devices if d.health.healthy]

    def _quarantined_devices(self) -> List[FleetDevice]:
        return [d for d in self.devices if d.health.state == "quarantined"]

    def _probe_rng(self, device: int) -> np.random.Generator:
        rng = self._probe_rngs.get(device)
        if rng is None:
            seed = 0 if self.seed is None else self.seed
            if isinstance(seed, (tuple, list)):
                entropy = tuple(seed) + (_PROBE_STREAM_TAG, device)
            else:
                entropy = (seed, _PROBE_STREAM_TAG, device)
            rng = np.random.default_rng(entropy)
            self._probe_rngs[device] = rng
        return rng

    def _charge_probe(self, coi, dev: FleetDevice) -> None:
        coi.clock.advance(self.probe.cost)
        dev.health.probes_sent += 1
        if self.stats is not None:
            self.stats.readmission_probes += 1
            self.stats.recovery_seconds += self.probe.cost
            self.stats.record_action(f"{dev.device_id}:device", "probe")
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet:probe", coi.clock.now, track="cpu",
                device=dev.device_id, probes=dev.health.probes_sent,
            )
            self.tracer.metrics.counter("fleet.readmission_probes").inc()

    def _readmit(self, coi, dev: FleetDevice) -> None:
        dev.health.state = "healthy"
        dev.health.consecutive_failures = 0
        dev.health.quarantined_at = None
        if self.stats is not None:
            self.stats.readmissions += 1
            self.stats.record_action(f"{dev.device_id}:device", "readmitted")
        if self.tracer.enabled:
            self.tracer.instant(
                "fleet:readmit", coi.clock.now, track="cpu",
                device=dev.device_id,
            )
            self.tracer.metrics.counter("fleet.readmissions").inc()

    def _probe_quarantined(self, coi) -> None:
        """Offer every eligible quarantined device a re-admission probe.

        Eligibility requires at least one block assigned *since* the
        quarantine, so the re-assignment of the block a device just
        dropped can never immediately re-admit it.
        """
        for dev in self._quarantined_devices():
            at = dev.health.quarantined_at
            if at is not None and self.total_assigned <= at:
                continue
            self._charge_probe(coi, dev)
            coin = float(self._probe_rng(dev.index).random())
            if coin < self.probe.readmit_probability:
                self._readmit(coi, dev)

    def _force_readmit(self, coi) -> Optional[FleetDevice]:
        """Re-admit the least-failed quarantined card unconditionally.

        Called when no healthy device exists: waiting out quarantine
        would wedge the run, and the card with the fewest survived
        resets is the best bet.  The probe cost is still charged.
        """
        candidates = self._quarantined_devices()
        if not candidates:
            return None
        dev = min(
            candidates, key=lambda d: (d.health.resets_survived, d.index)
        )
        self._charge_probe(coi, dev)
        self._readmit(coi, dev)
        return dev

    def begin_block(self, coi) -> Optional[FleetDevice]:
        """Assign the next offload block to a healthy device.

        Probes eligible quarantined cards first, then deals the block
        round-robin over the healthy pool.  Returns None only when the
        fleet is exhausted (every card evicted) — the caller decides
        between :class:`~repro.errors.DeviceLost` and host fallback.
        """
        self._probe_quarantined(coi)
        healthy = self.healthy_devices()
        if not healthy:
            forced = self._force_readmit(coi)
            if forced is None:
                self.active = None
                return None
            healthy = [forced]
        dev = healthy[self.total_assigned % len(healthy)]
        self.total_assigned += 1
        dev.blocks_assigned += 1
        dev.health.consecutive_failures = 0
        self.active = dev
        return dev

    # -- placement bookkeeping -------------------------------------------------

    def current(self) -> FleetDevice:
        """The card unplaced work lands on.

        That is the active device (the one executing the current block);
        outside any block it is the first healthy device.
        """
        if self.active is not None and self.active.health.healthy:
            return self.active
        healthy = self.healthy_devices()
        return healthy[0] if healthy else self.devices[0]

    def device_for_alloc(self, name: str) -> FleetDevice:
        """The device buffer *name* lives (or will live) on.

        Existing placement wins — a buffer's DMA always rides its
        owner's channel.  New buffers land on the :meth:`current` card.
        """
        owner = self.placement.get(name)
        if owner is not None:
            return self.devices[owner]
        return self.current()

    def allocate(self, name: str, unscaled_nbytes: float) -> None:
        """Charge *name*'s memory to the card it lives on and place it."""
        owner = self.device_for_alloc(name)
        owner.memory.allocate(name, unscaled_nbytes)
        self.note_alloc(name, owner, unscaled_nbytes)

    def free(self, name: str) -> None:
        """Release whatever memory *name* holds and forget its placement."""
        owner = self.owner_of(name)
        if owner is not None and owner.memory.holds(name):
            owner.memory.free(name)
        self.note_free(name)

    def note_alloc(self, name: str, dev: FleetDevice, unscaled_nbytes: float) -> None:
        """Record placement and the unscaled footprint of an allocation."""
        self.placement[name] = dev.index
        self._charged[name] = max(self._charged.get(name, 0.0), float(unscaled_nbytes))

    def note_free(self, name: str) -> None:
        """Forget placement and footprint of a freed buffer."""
        self.placement.pop(name, None)
        self._charged.pop(name, None)

    def owner_of(self, name: str) -> Optional[FleetDevice]:
        """The owning device of buffer *name*, or None if unplaced."""
        owner = self.placement.get(name)
        return None if owner is None else self.devices[owner]

    def resident_bytes(self) -> int:
        """Simulated bytes resident across the whole fleet."""
        return sum(d.memory.in_use for d in self.devices)

    def peak_bytes(self) -> int:
        """Summed per-device memory peaks (the fleet footprint)."""
        return sum(d.memory.peak for d in self.devices)

    # -- failover ----------------------------------------------------------------

    def _restart_in_place(self, coi, fault) -> None:
        """Restart a lone card from the checkpoint.

        Without a checkpoint manager there is nothing to resume from:
        the device state is gone and the run dies with
        :class:`~repro.errors.DeviceLost`.
        """
        if coi.checkpoint is None:
            if self.stats is not None:
                self.stats.device_resets += 1
            raise DeviceLost(
                f"device reset at offload #{self.total_assigned - 1} with "
                f"checkpointing disabled; set "
                f"ResiliencePolicy.checkpoint_interval > 0 to make "
                f"streamed offloads resumable"
            )
        coi.checkpoint.handle_reset(coi, fault)

    def handle_device_loss(self, coi, fault=None) -> None:
        """Ride out a ``device:reset`` on the active device.

        Charges the detection + re-init dead time, quarantines or
        permanently evicts the lost card, and redistributes its buffers
        to the survivors: re-allocate on the absorbing device, re-upload
        the live state over the absorber's own h2d channel (checkpoint
        write windows when a manager is attached, the full charged
        footprint otherwise), and re-execute the lost card's uncommitted
        kernel seconds on a survivor's compute track.  Values need no
        restoring — the correctness layer is eager host-ordered numpy —
        so only *time* and *accounting* move here.

        A lone card has no survivor and restarts in place instead.
        """
        if len(self.devices) == 1:
            self._restart_in_place(coi, fault)
            return
        lost = self.active if self.active is not None else self.devices[0]
        stats = self.stats
        policy = self.policy
        started = coi.clock.now
        tracer = self.tracer

        # 1. Dead time: watchdog detection + driver/thread-pool re-init.
        overhead = RESET_SEMANTICS.overhead(self.spec.mic.threads_used)
        coi.clock.advance(overhead)
        if stats is not None:
            stats.timeouts += 1
            stats.device_resets += 1
            stats.recovery_seconds += overhead

        # 2. Health transition: eviction once the reset budget is spent
        # (mirrors the lone-card rule: max_resets=0 means the first
        # reset is fatal for the card), quarantine otherwise.
        max_resets = policy.max_resets if policy is not None else 0
        health = lost.health
        if health.resets_survived >= max_resets:
            health.state = "evicted"
            if stats is not None:
                stats.device_evictions += 1
                stats.record_action(f"{lost.device_id}:device", "evicted")
        else:
            health.resets_survived += 1
            health.consecutive_failures += 1
            health.state = "quarantined"
            health.quarantined_at = self.total_assigned
            if stats is not None:
                stats.quarantines += 1
                stats.record_action(f"{lost.device_id}:device", "reset_survived")
        if tracer.enabled:
            tracer.instant(
                "fleet:device-loss", coi.clock.now, track=lost.compute_track,
                device=lost.device_id, state=health.state,
                resets=health.resets_survived,
            )
            self.tracer.metrics.counter("fleet.device_losses").inc()

        # 3. The card's state is gone: wipe its memory accounting and
        # kill its persistent kernel sessions.  The shared numpy arrays
        # are untouched — they are the host-ordered correctness layer,
        # the same "the host still has the values" property the
        # lone-card restart path leans on.
        lost.memory.reset()
        coi.drop_persistent_sessions(f"{lost.device_id}:")

        # 4. Redistribute the lost card's buffers to the survivors.
        lost_names = [
            name for name, idx in self.placement.items() if idx == lost.index
        ]
        survivors = self.healthy_devices()
        if lost_names and not survivors:
            forced = self._force_readmit(coi)
            if forced is not None:
                survivors = [forced]
        ckpt = coi.checkpoint
        reuploaded = 0
        if lost_names and survivors:
            events = []
            with coi.injector_suspended():
                for i, name in enumerate(sorted(lost_names)):
                    target = survivors[i % len(survivors)]
                    unscaled = self._charged.get(name, 0.0)
                    target.memory.allocate(name, unscaled)
                    self.placement[name] = target.index
                    target.blocks_absorbed += 1
                    if stats is not None:
                        stats.record_action(
                            f"{target.device_id}:device", "absorbed_block"
                        )
                    record = None if ckpt is None else ckpt.buffer_record(name)
                    if record is not None and record.writes:
                        # Only the live write windows the checkpoint
                        # shadow knows the host holds — the streamed
                        # case re-sends resident slots, not whole arrays.
                        for (start, _count), nbytes in record.writes.items():
                            events.append(
                                coi.raw_transfer(
                                    nbytes, to_device=True, sync=False,
                                    label=f"failover:reupload:{name}@{start}",
                                    block=True, channel=target.h2d_track,
                                )
                            )
                            reuploaded += 1
                    elif unscaled > 0:
                        # No shadow: conservatively re-send the full
                        # charged footprint.
                        events.append(
                            coi.raw_transfer(
                                unscaled, to_device=True, sync=False,
                                label=f"failover:reupload:{name}",
                                block=True, channel=target.h2d_track,
                            )
                        )
                        reuploaded += 1
                for event in events:
                    coi.clock.wait_until(event)

                # 5. Re-execute the lost card's uncommitted kernel work
                # on a survivor's compute track.
                recomputed = 0
                if ckpt is not None:
                    entries = ckpt.take_uncommitted(lost.device_id)
                    recomputed = len(entries)
                    redo_seconds = sum(seconds for _, seconds in entries)
                    if redo_seconds > 0.0:
                        redo = coi.timeline.schedule(
                            survivors[0].compute_track, redo_seconds,
                            label="failover:replay", not_before=coi.clock.now,
                        )
                        coi.clock.wait_until(redo)
        else:
            recomputed = 0
            if ckpt is not None:
                # Nothing to move, but the lost card's uncommitted work
                # must not leak into a later device's reset accounting.
                entries = ckpt.take_uncommitted(lost.device_id)
                recomputed = len(entries)

        if stats is not None:
            stats.blocks_reuploaded += reuploaded
            stats.blocks_recomputed += recomputed
            stats.recovery_seconds += coi.clock.now - started - overhead
        if tracer.enabled:
            tracer.span(
                "recovery:failover", lost.compute_track, started, coi.clock.now,
                device=lost.device_id, state=health.state,
                buffers_moved=len(lost_names), windows_reuploaded=reuploaded,
                blocks_recomputed=recomputed,
            )
            metrics = self.tracer.metrics
            metrics.counter("fleet.blocks_redistributed").inc(len(lost_names))
        self.active = None
