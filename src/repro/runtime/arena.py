"""Segmented arena allocation for shared pointer-based structures (§V-A).

The paper's buffer-allocation strategy: "we create one buffer with a
predefined size at the beginning.  When the buffer is full, we create
another one of the same size to hold new objects."  Small structures use
one modest buffer; large structures grow buffer by buffer up to the whole
device memory; nothing is ever moved, so pointers into a buffer stay valid
and each buffer can be DMA-copied to the device wholesale.

Objects are allocated bump-pointer style inside the current buffer and
registered by CPU address so that simulated dereferences can find their
payloads.  Pointer fields hold :class:`~repro.runtime.smartptr.SharedPtr`
values; scalar fields hold numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import DeviceOutOfMemory, PointerTranslationError, RuntimeFault
from repro.obs.tracer import NULL_TRACER
from repro.runtime.coi import CoiRuntime
from repro.runtime.smartptr import MAX_BUFFERS, DeltaTable, SharedPtr

#: Simulated CPU virtual-address stride between arena buffers; generous so
#: buffers never overlap.
_CPU_REGION_STRIDE = 1 << 40
_CPU_REGION_BASE = 1 << 44
_MIC_REGION_BASE = 1 << 20


@dataclass
class ArenaBuffer:
    """One fixed-size arena segment."""

    bid: int
    cpu_base: int
    size: int
    used: int = 0

    @property
    def free(self) -> int:
        """Bytes still unallocated in this segment."""
        return self.size - self.used


@dataclass
class SharedObject:
    """One object allocated in an arena: payload fields + its pointer."""

    ptr: SharedPtr
    size: int
    fields: Dict[str, object] = field(default_factory=dict)


class ArenaAllocator:
    """The paper's segmented shared-memory allocator."""

    #: Observability sink, replaced by the owning Machine's tracer.
    tracer = NULL_TRACER

    def __init__(self, chunk_bytes: int = 64 << 20):
        if chunk_bytes <= 0:
            raise ValueError("chunk size must be positive")
        self.chunk_bytes = chunk_bytes
        self.buffers: List[ArenaBuffer] = []
        self.objects: Dict[int, SharedObject] = {}  # by CPU address
        self.delta = DeltaTable()
        self.alloc_count = 0
        self._copied_bids: set = set()
        #: Device bytes each copied buffer occupies (full or used size,
        #: per the copy_full_buffers knob) — what a rebuild re-uploads.
        self._copied_nbytes: Dict[int, int] = {}
        #: Bumped on every device-side rebuild; pointers translated under
        #: an old generation were validated against a dead device image.
        self.generation = 0

    # -- allocation -----------------------------------------------------------

    def _new_buffer(self, at_least: int) -> ArenaBuffer:
        if len(self.buffers) >= MAX_BUFFERS:
            raise RuntimeFault(
                f"arena exceeded {MAX_BUFFERS} buffers (bid is one byte): "
                f"cannot place a {at_least}-byte object after "
                f"{self.alloc_count} allocations totalling "
                f"{self.total_used} bytes"
            )
        size = max(self.chunk_bytes, at_least)
        bid = len(self.buffers)
        buf = ArenaBuffer(
            bid=bid,
            cpu_base=_CPU_REGION_BASE + bid * _CPU_REGION_STRIDE,
            size=size,
        )
        self.buffers.append(buf)
        return buf

    def allocate(self, size: int, **fields) -> SharedObject:
        """Allocate one shared object of *size* bytes."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if not self.buffers or self.buffers[-1].free < size:
            self._new_buffer(size)
        buf = self.buffers[-1]
        addr = buf.cpu_base + buf.used
        buf.used += size
        self.alloc_count += 1
        obj = SharedObject(ptr=SharedPtr(addr, buf.bid), size=size, fields=dict(fields))
        self.objects[addr] = obj
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.counter("arena.allocations").inc()
            metrics.histogram("arena.object_bytes").observe(float(size))
            metrics.gauge("arena.reserved_bytes").set(self.total_reserved)
        return obj

    @property
    def total_used(self) -> int:
        """Bytes handed out across all buffers."""
        return sum(b.used for b in self.buffers)

    @property
    def total_reserved(self) -> int:
        """Bytes reserved across all buffers."""
        return sum(b.size for b in self.buffers)

    # -- device copy -------------------------------------------------------------

    def copy_to_device(
        self, coi: CoiRuntime, copy_full_buffers: bool = True
    ) -> None:
        """Bulk-DMA every arena buffer to the device and build the deltas.

        The paper copies "entire data structures (i.e., entire preallocated
        buffers)"; *copy_full_buffers*=False copies only the used bytes —
        an ablation knob.
        """
        for buf in self.buffers:
            mic_base = _MIC_REGION_BASE + buf.bid * _CPU_REGION_STRIDE
            if buf.bid not in self.delta:
                self.delta.register(buf.bid, buf.cpu_base, mic_base, buf.size)
            nbytes = buf.size if copy_full_buffers else buf.used
            self._allocate_resilient(coi, f"arena:{buf.bid}", nbytes)
            coi.raw_transfer(
                nbytes, to_device=True, label=f"arena:{buf.bid}"
            )
            if coi.integrity is not None:
                coi.integrity.on_arena_upload(coi, self, buf, nbytes)
            self._copied_bids.add(buf.bid)
            self._copied_nbytes[buf.bid] = nbytes
            if self.tracer.enabled:
                metrics = self.tracer.metrics
                metrics.counter("arena.buffers_copied").inc()
                metrics.counter("arena.bytes_copied").inc(float(nbytes))

    def rebuild_on_device(self, coi: CoiRuntime) -> int:
        """Rebuild the device image after a full device reset.

        Every previously copied buffer is re-allocated and re-uploaded
        wholesale (the reset freed the device memory accounting along
        with the data), and its augmented-pointer delta is re-derived
        for the fresh placement.  Returns the number of buffers rebuilt.
        The caller runs this with injection suspended — recovery cannot
        recursively fault.
        """
        rebuilt = 0
        for buf in self.buffers:
            if buf.bid not in self._copied_bids:
                continue
            nbytes = self._copied_nbytes.get(buf.bid, buf.size)
            mic_base = _MIC_REGION_BASE + buf.bid * _CPU_REGION_STRIDE
            coi.fleet.allocate(f"arena:{buf.bid}", nbytes)
            coi.raw_transfer(
                nbytes, to_device=True, label=f"arena:{buf.bid}~rebuild"
            )
            self.delta.refresh(buf.bid, buf.cpu_base, mic_base)
            rebuilt += 1
        self.generation += 1
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.counter("arena.rebuilds").inc()
            metrics.counter("arena.buffers_rebuilt").inc(rebuilt)
            metrics.gauge("arena.generation").set(self.generation)
        return rebuilt

    @staticmethod
    def _allocate_resilient(coi: CoiRuntime, name: str, nbytes: int) -> None:
        """Allocate device memory for an arena buffer, riding out an
        injected OOM (back off once, re-issue with injection suspended).
        A genuine capacity OOM still propagates — arena buffers cannot be
        streamed, so there is no demotion path for them."""
        try:
            coi.fleet.allocate(name, nbytes)
        except DeviceOutOfMemory as exc:
            if not exc.injected or coi.resilience is None:
                raise
            pause = coi.resilience.backoff(0)
            coi.clock.advance(pause)
            stats = coi.fault_stats
            if stats is not None:
                stats.backoff_seconds += pause
                stats.retries += 1
                stats.record_action("alloc", "retry")
            with coi.injector_suspended():
                coi.fleet.allocate(name, nbytes)

    def free_on_device(self, coi: CoiRuntime) -> None:
        """Release the device copies of every buffer."""
        for buf in self.buffers:
            if buf.bid in self._copied_bids:
                coi.fleet.free(f"arena:{buf.bid}")
        self._copied_bids.clear()
        self._copied_nbytes.clear()

    # -- dereference -----------------------------------------------------------------

    def deref(self, ptr: SharedPtr, on_mic: bool = False) -> SharedObject:
        """Follow a shared pointer, on the host or on the coprocessor.

        On the MIC the access requires the pointee's buffer to have been
        copied; translation is the O(1) bid + delta scheme.  No per-access
        state check is needed ("our method does not need to check its
        state, since the entire object has been copied").
        """
        if on_mic:
            if ptr.bid not in self._copied_bids:
                raise PointerTranslationError(
                    f"buffer {ptr.bid} not resident on the device"
                )
            self.delta.translate(ptr)  # raises if unregistered
        obj = self.objects.get(ptr.addr)
        if obj is None:
            raise PointerTranslationError(f"no object at address {ptr.addr:#x}")
        return obj
