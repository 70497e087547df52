"""The injector: one fault plan bound to one run's stats.

The runtime never talks to a :class:`~repro.faults.plan.FaultPlan`
directly — it asks the injector, which counts what it injects and can be
*suspended* while a recovery path re-issues work (a demoted offload's
re-allocations must succeed, or recovery could recurse forever).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from repro.faults.plan import Fault, FaultPlan
from repro.faults.stats import FaultStats
from repro.obs.tracer import NULL_TRACER


class FaultInjector:
    """Draws faults from a plan and records them in the run's stats."""

    def __init__(self, plan: FaultPlan, stats: Optional[FaultStats] = None):
        self.plan = plan
        self.stats = stats if stats is not None else FaultStats()
        self._suspend = 0
        #: Observability hooks, attached by the Machine: fault firings
        #: become instant events at the simulated time of the draw.
        self.tracer = NULL_TRACER
        self.clock = None

    def draw(self, site: str, device: Optional[int] = None) -> Optional[Fault]:
        """The fault (if any) for the next operation at *site*.

        *device* scopes the draw to one fleet device's stream; the lone
        card of a one-card machine passes nothing.
        """
        if self._suspend:
            return None
        fault = self.plan.draw(site, device=device)
        if fault is not None:
            self.stats.record_injected(fault)
            if self.tracer.enabled and self.clock is not None:
                self.tracer.instant(
                    f"fault:{site}:{fault.kind}", self.clock.now, track="cpu",
                    site=site, kind=fault.kind, severity=fault.severity,
                )
                self.tracer.metrics.counter(f"faults.injected.{site}").inc()
        return fault

    def draw_silent(self, site: str, device: Optional[int] = None) -> Optional[Fault]:
        """The silent fault (if any) for the next payload at *site*.

        Suspension short-circuits *before* the plan is consulted, so a
        recovery re-issue consumes no silent-stream draws and per-site
        determinism is preserved.
        """
        if self._suspend:
            return None
        fault = self.plan.draw_silent(site, device=device)
        if fault is not None:
            self.stats.record_injected(fault)
            if self.tracer.enabled and self.clock is not None:
                self.tracer.instant(
                    f"fault:{site}:{fault.kind}", self.clock.now, track="cpu",
                    site=site, kind=fault.kind, severity=fault.severity,
                )
                self.tracer.metrics.counter(f"faults.injected.{site}").inc()
        return fault

    @contextmanager
    def suspended(self):
        """Context in which no faults are injected (recovery re-issues)."""
        self._suspend += 1
        try:
            yield self
        finally:
            self._suspend -= 1
