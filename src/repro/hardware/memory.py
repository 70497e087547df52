"""Coprocessor memory manager.

The MIC has no disk and no swap (Section II-A / III-B): once the 8 GB of
GDDR5 minus the OS reservation is exhausted, an allocation fails — in the
paper's words, "MIC will give out a runtime error".  The manager tracks
named allocations, enforces the capacity, and records the peak usage that
Figure 13 reports.

A *scale* factor converts executed sizes into simulated sizes: workloads
run at a reduced element count for tractable interpretation while memory
accounting (and timing) reflect the paper-scale inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import DeviceOutOfMemory, HardwareError


@dataclass
class Allocation:
    name: str
    nbytes: int


@dataclass
class DeviceMemoryManager:
    """Tracks allocations against a hard capacity."""

    capacity: int
    scale: float = 1.0
    allocations: Dict[str, Allocation] = field(default_factory=dict)
    in_use: int = 0
    peak: int = 0
    total_allocated: int = 0
    alloc_count: int = 0
    #: Optional fault injector; when set, allocations may be failed with
    #: an injected :class:`DeviceOutOfMemory` (site ``"alloc"``).
    injector: Optional[object] = None
    #: Full device resets this manager has been wiped by.
    device_resets: int = 0
    #: Fault-stream index of the card this manager belongs to, carried
    #: by its ``alloc`` draws; ``None`` for the lone card of a one-card
    #: machine, which draws from the device-less stream.
    device_index: Optional[int] = None

    def allocate(self, name: str, nbytes: float) -> Allocation:
        """Allocate *nbytes* (executed scale) under *name*.

        Allocating an existing name grows it to the larger size (matching
        LEO's ``alloc_if`` semantics where re-offloads reuse buffers).
        """
        scaled = int(nbytes * self.scale)
        if scaled < 0:
            raise HardwareError(f"negative allocation for {name!r}")
        if self.injector is not None and (
            self.injector.draw("alloc", device=self.device_index) is not None
        ):
            raise DeviceOutOfMemory(
                scaled, self.in_use, self.capacity, name=name, injected=True
            )
        existing = self.allocations.get(name)
        if existing is not None:
            growth = max(0, scaled - existing.nbytes)
            self._charge(growth, name)
            existing.nbytes = max(existing.nbytes, scaled)
            return existing
        self._charge(scaled, name)
        alloc = Allocation(name, scaled)
        self.allocations[name] = alloc
        self.alloc_count += 1
        return alloc

    def _charge(self, nbytes: int, name: str = None) -> None:
        if self.in_use + nbytes > self.capacity:
            raise DeviceOutOfMemory(nbytes, self.in_use, self.capacity, name=name)
        self.in_use += nbytes
        self.total_allocated += nbytes
        self.peak = max(self.peak, self.in_use)

    def free(self, name: str) -> None:
        """Release the named allocation."""
        alloc = self.allocations.pop(name, None)
        if alloc is None:
            raise HardwareError(f"free of unknown allocation {name!r}")
        self.in_use -= alloc.nbytes

    def free_all(self) -> None:
        """Release every allocation (program teardown)."""
        self.allocations.clear()
        self.in_use = 0

    def reset(self) -> None:
        """Wipe every allocation after a full device reset.

        Unlike :meth:`free_all` this is a *failure*, not a teardown: the
        reset count is recorded, and peak/total accounting is preserved —
        Figure 13's peak usage spans the whole run, resets included.
        """
        self.allocations.clear()
        self.in_use = 0
        self.device_resets += 1

    def holds(self, name: str) -> bool:
        """True when *name* is currently allocated."""
        return name in self.allocations

    def resident_bytes(self) -> int:
        """Simulated bytes currently resident on the device.

        This is what a background integrity scrub has to scan — every
        live allocation at its charged (scaled) size.
        """
        return self.in_use

    def size_of(self, name: str) -> int:
        """Bytes held by *name* (0 when absent)."""
        alloc = self.allocations.get(name)
        return 0 if alloc is None else alloc.nbytes
