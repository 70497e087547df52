"""Checkpoint/restart recovery for streamed offloads.

A ``device:reset`` fault is the failure mode of last resort: the card
drops off the bus and *everything* resident on it — named buffers, arena
segments, persistent kernel threads, in-flight signals — is gone (see
:class:`~repro.hardware.device.ResetSemantics` for the timing model and
:meth:`~repro.runtime.coi.CoiRuntime.reset_device` for the wipe).  The
per-operation recovery ladder (retry → degrade → demote → host fallback)
cannot ride that out, because there is no device state left to retry
against.

This module adds the missing rung.  A :class:`CheckpointManager`
shadows the COI runtime's buffer bookkeeping:

* every allocation / free is noted, so the manager always knows the set
  of *live* device buffers and their simulated footprints;
* every host→device write is noted by ``(start, count)`` window, so the
  manager knows which byte ranges of each live buffer the host has an
  authoritative copy of (later writes to the same window supersede
  earlier ones — a streamed loop's slot re-uploads only its resident
  block, never the whole array);
* every completed offload block reports in, and every
  ``checkpoint_interval``-th block commits a checkpoint (costing
  ``checkpoint_cost`` simulated seconds of host time).

On a reset of a lone card (a fleet of several cards fails over to a
survivor instead, see :mod:`repro.runtime.fleet`) the manager restores
the session in place: charge the detection + re-init dead time, wipe
the device, re-open the epoch, re-upload only the live write windows,
rebuild registered arenas (re-deriving their augmented-pointer deltas),
and re-charge the kernel time of blocks completed since the last
committed checkpoint.  Recovery runs with injection suspended — it
cannot recursively fault.

Correctness and timing stay decoupled, as everywhere in the simulator:
data movement is eager numpy in program order, so the *values* lost in
the wipe are restored from the host snapshot bit for bit, while the
*time* of recovery is priced from the recorded live windows and replayed
kernel seconds.  A resumed run therefore produces bit-identical outputs
and op counters to an uninterrupted one; only simulated time differs.
With ``checkpoint_interval`` left at 0 (the default) no manager is ever
attached and every hook is skipped — the seed's timing is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import DeviceLost
from repro.hardware.device import RESET_SEMANTICS
from repro.obs.tracer import NULL_TRACER
from repro.runtime.coi import HOST, CoiRuntime


@dataclass
class _BufferRecord:
    """Live-buffer shadow: simulated footprint + host-known windows."""

    #: Simulated bytes charged to device memory (already scaled by the
    #: alloc path's ``account_elems`` cap for demoted offloads).
    charged_nbytes: int = 0
    #: Host-authoritative byte ranges, keyed ``(start, count)`` in
    #: elements → unscaled payload bytes.  Insertion-ordered; a repeated
    #: window replaces its payload size in place.
    writes: Dict[Tuple[int, int], int] = field(default_factory=dict)


@dataclass
class Checkpoint:
    """One committed recovery point."""

    #: Index of the last offload block covered by this checkpoint.
    block: int
    #: Arena generation at commit time (rebuilds bump it).
    arena_generation: int
    #: Simulated time of the commit.
    committed_at: float


class CheckpointManager:
    """Records recovery points and restores the session after a reset.

    Attached by the Machine only when
    ``ResiliencePolicy.checkpoint_interval > 0``; the COI runtime's
    ``note_*`` hooks are a dict lookup + assignment each, and are never
    reached at all when no manager is attached.
    """

    def __init__(self, policy, stats, tracer=None):
        self.policy = policy
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._buffers: Dict[str, _BufferRecord] = {}
        self._arenas: List[object] = []
        #: Kernel seconds of blocks completed since the last commit —
        #: the work a reset forces the device to redo.  Each entry is
        #: ``(device_id, seconds)``; the card's id lets a failover pull
        #: only the *lost* card's blocks.
        self._uncommitted: List[Tuple[str, float]] = []
        #: Persistent-session keys seen since the last commit, so the
        #: restore knows which thread-reuse sessions to re-prime.
        self._sessions: Dict[str, int] = {}
        self.blocks_completed = 0
        self.last_checkpoint: Optional[Checkpoint] = None
        self.resets_survived = 0

    # -- shadow bookkeeping (called from CoiRuntime) -------------------------

    def note_alloc(self, name: str, charged_nbytes: int) -> None:
        """A device buffer was (re)allocated with the given footprint."""
        record = self._buffers.get(name)
        if record is None:
            record = _BufferRecord()
            self._buffers[name] = record
        record.charged_nbytes = max(record.charged_nbytes, int(charged_nbytes))

    def note_free(self, name: str) -> None:
        """A device buffer was freed: nothing of it needs restoring."""
        self._buffers.pop(name, None)

    def note_write(self, name: str, start: int, count: int, nbytes: int) -> None:
        """The host wrote ``[start, start+count)`` into buffer *name*.

        *nbytes* is the unscaled payload size; the restore path's
        ``raw_transfer`` applies the simulation scale exactly as the
        original ``write_buffer`` did.
        """
        record = self._buffers.get(name)
        if record is None:
            record = _BufferRecord()
            self._buffers[name] = record
        record.writes[(start, count)] = int(nbytes)

    def register_arena(self, arena) -> None:
        """Track an arena allocator for post-reset rebuild."""
        if arena not in self._arenas:
            self._arenas.append(arena)

    def buffer_record(self, name: str) -> Optional[_BufferRecord]:
        """The live-buffer shadow for *name* (None when not live).

        The fleet's failover path uses this to re-upload only the write
        windows the host is authoritative for, exactly like the
        lone-card restore below.
        """
        return self._buffers.get(name)

    def take_uncommitted(self, device_id: str) -> List[Tuple[str, float]]:
        """Pop the uncommitted entries charged to *device_id*.

        The fleet failover re-executes only the lost card's blocks on a
        survivor; other devices' uncommitted work stays pending for
        their own (hypothetical) later resets.
        """
        taken = [e for e in self._uncommitted if e[0] == device_id]
        self._uncommitted = [e for e in self._uncommitted if e[0] != device_id]
        return taken

    # -- checkpoints ---------------------------------------------------------

    def block_completed(
        self,
        coi: CoiRuntime,
        kernel_seconds: float,
        session: Optional[str] = None,
    ) -> None:
        """One offload block finished; commit if the interval says so."""
        self.blocks_completed += 1
        card = coi.fleet.current()
        self._uncommitted.append((card.device_id, float(kernel_seconds)))
        if session is not None:
            self._sessions[session] = self.blocks_completed
        interval = self.policy.checkpoint_interval
        if interval > 0 and self.blocks_completed % interval == 0:
            self.commit(coi)

    def commit(self, coi: CoiRuntime) -> None:
        """Record a recovery point, charging the checkpoint cost.

        A checkpoint that certified corrupted state would replay that
        corruption on every restore, so in ``full`` integrity mode the
        resident buffers are checksum-verified *before* the commit is
        declared good.
        """
        if coi.integrity is not None:
            coi.integrity.on_checkpoint_commit(coi)
        cost = self.policy.checkpoint_cost
        if cost > 0.0:
            coi.clock.advance(cost)
        generation = max(
            (getattr(a, "generation", 0) for a in self._arenas), default=0
        )
        self.last_checkpoint = Checkpoint(
            block=self.blocks_completed,
            arena_generation=generation,
            committed_at=coi.clock.now,
        )
        self._uncommitted.clear()
        stats = self.stats
        if stats is not None:
            stats.checkpoints_committed += 1
            stats.checkpoint_seconds += cost
        if self.tracer.enabled:
            self.tracer.instant(
                "checkpoint:commit", coi.clock.now, track=HOST,
                block=self.blocks_completed, cost=cost,
            )
            self.tracer.metrics.counter("checkpoint.commits").inc()

    # -- reset recovery ------------------------------------------------------

    def handle_reset(self, coi: CoiRuntime, fault=None) -> None:
        """Ride out a full device reset and resume from the checkpoint.

        Raises :class:`~repro.errors.DeviceLost` when the reset budget
        (``ResiliencePolicy.max_resets``) is exhausted — at that point
        the device is presumed genuinely dead, not transiently wedged.
        """
        policy = self.policy
        stats = self.stats
        if self.resets_survived >= policy.max_resets:
            raise DeviceLost(
                f"device reset #{self.resets_survived + 1} exceeds the "
                f"policy's max_resets={policy.max_resets}: giving the "
                f"device up for dead"
            )
        started = coi.clock.now
        tracer = self.tracer
        track = coi.fleet.current().compute_track

        # 1. Dead time: watchdog detection + driver/thread-pool re-init.
        threads = coi.spec.mic.threads_used
        overhead = RESET_SEMANTICS.overhead(threads)
        coi.clock.advance(overhead)
        if stats is not None:
            stats.timeouts += 1
            stats.recovery_seconds += overhead
            stats.device_resets += 1

        # 2. The wipe.  Snapshot the numpy state first: the simulator's
        # correctness layer is eager host-ordered data movement, so the
        # host still "has" these values — re-inserting them restores the
        # exact pre-reset image while the *cost* of getting them back is
        # charged from the recorded live windows below.
        arrays_snapshot = dict(coi.device.arrays)
        scalars_snapshot = dict(coi.device.scalars)
        if tracer.enabled:
            tracer.instant(
                "device:reset", coi.clock.now, track=track,
                epoch=coi.epoch, buffers_lost=len(arrays_snapshot),
            )
        coi.reset_device()
        coi.device.arrays.update(arrays_snapshot)
        coi.device.scalars.update(scalars_snapshot)

        # 3. Rebuild, with injection suspended (recovery cannot
        # recursively fault).  Only *live* buffers and only their
        # host-known windows are re-uploaded — for a streamed offload
        # that is the resident slots, not the whole array.
        reuploaded = 0
        with coi.injector_suspended():
            events = []
            for name, record in self._buffers.items():
                coi.fleet.allocate(name, record.charged_nbytes)
                for (start, count), nbytes in record.writes.items():
                    events.append(
                        coi.raw_transfer(
                            nbytes,
                            to_device=True,
                            sync=False,
                            label=f"ckpt:reupload:{name}@{start}",
                            block=True,
                        )
                    )
                    reuploaded += 1
            for event in events:
                coi.clock.wait_until(event)
            for arena in self._arenas:
                arena.rebuild_on_device(coi)

            # 4. Re-charge the kernel time of blocks completed since the
            # last commit: their *results* survive in the host-ordered
            # numpy state, but the simulated device must spend the time
            # recomputing them.
            recomputed = len(self._uncommitted)
            redo_seconds = sum(seconds for _, seconds in self._uncommitted)
            if redo_seconds > 0.0:
                redo = coi.timeline.schedule(
                    track, redo_seconds, label="ckpt:replay",
                    not_before=coi.clock.now,
                )
                coi.clock.wait_until(redo)

        if stats is not None:
            stats.blocks_reuploaded += reuploaded
            stats.blocks_recomputed += recomputed
            stats.recovery_seconds += coi.clock.now - started - overhead
            stats.record_action("device", "reset_survived")

        # The restore itself is a consistent recovery point.
        self._uncommitted.clear()
        self._sessions.clear()
        generation = max(
            (getattr(a, "generation", 0) for a in self._arenas), default=0
        )
        self.last_checkpoint = Checkpoint(
            block=self.blocks_completed,
            arena_generation=generation,
            committed_at=coi.clock.now,
        )
        self.resets_survived += 1

        if tracer.enabled:
            tracer.span(
                "recovery:device-reset", track, started, coi.clock.now,
                epoch=coi.epoch, buffers_reuploaded=reuploaded,
                blocks_recomputed=recomputed, overhead=overhead,
            )
            metrics = tracer.metrics
            metrics.counter("checkpoint.device_resets").inc()
            metrics.counter("checkpoint.blocks_reuploaded").inc(reuploaded)
            metrics.counter("checkpoint.blocks_recomputed").inc(recomputed)
