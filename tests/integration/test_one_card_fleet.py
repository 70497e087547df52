"""A single card is a fleet of one.

The one-card machine the paper evaluates runs on the same
:class:`~repro.runtime.fleet.DeviceFleet` as an N-card machine.  These
tests pin what that lone card must keep from the original one-card
model: unprefixed lanes, device-less fault streams, restart-in-place on
device loss, and therefore byte-identical campaigns, traces and metrics.

The digests cover simulated quantities only (times, counters, trace
events and metrics), never output bytes, so they do not depend on the
platform's floating-point results.
"""

import hashlib
import json

from repro.faults import FaultPlan, FaultSpec
from repro.faults.campaign import run_campaign
from repro.faults.policy import ResiliencePolicy
from repro.obs.export import chrome_trace_events, metrics_snapshot
from repro.obs.tracer import Tracer
from repro.runtime.executor import Machine
from repro.runtime.fleet import DeviceFleet
from repro.workloads.suite import get_workload

CAMPAIGN_RATES = {
    **{
        key: 0.05
        for key in (
            "device", "h2d", "alloc", "signal",
            "h2d:silent", "d2h:silent", "arena:bitflip",
        )
    },
    "kernel:sdc": 0.02,
}
CAMPAIGN_POLICY = dict(checkpoint_interval=2, max_resets=32, integrity_mode="full")

#: sha256 digests recorded with the pre-fleet one-card runtime.
CAMPAIGN_DIGEST = "698d6b9133a015f9c22757dd4a4c4050f314cccca965ed73f5bc285e7bbc4f1f"
TRACE_DIGESTS = {
    "fault-free": (
        "ebd4c64a714445ffb59ee9d0bb327c7e26b18a3a81838f930f777ee341b79b48",
        "f15d273311c7835043a016560b617faceabf46618e541581d43780548ea83c2e",
    ),
    "scripted-reset": (
        "4aa686d5fd89c582fa83d03bcc0f02d93bc4066638fdda0af4a3135d6f877321",
        "d74d8dcc248209401ba8824f8ce3c36044dc3c1dda8fd2c12149638b0c6d5a8c",
    ),
}


def _sha256(payload) -> str:
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _engine_neutral(snapshot: dict) -> dict:
    """The metrics snapshot without the engine-engagement counters: they
    say which execution tier ran each parallel loop (``codegen.*``,
    ``batch.*``), not what the loop computed or cost."""
    counters = {
        name: value
        for name, value in snapshot["counters"].items()
        if not name.startswith(("codegen.", "batch."))
    }
    return {**snapshot, "counters": counters}


def trace_digests(scenario: str):
    """(trace events, metrics snapshot) digests of a traced one-card run."""
    plan = policy = None
    if scenario == "scripted-reset":
        plan = FaultPlan(
            seed=1, rates={}, scripted=[FaultSpec("device", 2, kind="reset")]
        )
        policy = ResiliencePolicy(checkpoint_interval=4)
    workload = get_workload("blackscholes")
    tracer = Tracer()
    machine = workload.machine(
        fault_plan=plan, resilience=policy, tracer=tracer, devices=1
    )
    workload.run("opt", machine=machine)
    return (
        _sha256(chrome_trace_events(tracer)),
        _sha256(_engine_neutral(metrics_snapshot(tracer.metrics))),
    )


class _DrawLog:
    """Wraps a fault plan and records the device index of every draw."""

    def __init__(self, plan):
        self.plan = plan
        self.devices = []

    def draw(self, site, device=None):
        self.devices.append(device)
        return self.plan.draw(site, device=device)

    def draw_silent(self, site, device=None):
        self.devices.append(device)
        return self.plan.draw_silent(site, device=device)


class TestFleetOfOne:
    def test_machine_builds_a_fleet_of_one(self):
        machine = Machine(devices=1)
        assert machine.coi.fleet is machine.fleet
        (card,) = machine.fleet.devices
        assert (card.compute_track, card.h2d_track, card.d2h_track) == (
            "mic", "dma:h2d", "dma:d2h",
        )
        assert card.stream is None and card.memory.device_index is None
        lone = DeviceFleet(machine.spec, machine.scale, 1)
        assert [d.h2d_track for d in lone.devices] == ["dma:h2d"]

    def test_draws_carry_no_device_index(self):
        """Offload, transfer, allocation and arena draws all ride the
        device-less streams on one card."""
        rates = {key: 0.2 for key in CAMPAIGN_RATES}
        policy = ResiliencePolicy(**CAMPAIGN_POLICY)
        for name in ("blackscholes", "ferret"):
            workload = get_workload(name)
            machine = workload.machine(
                fault_plan=FaultPlan(seed=4, rates=rates), resilience=policy,
                devices=1,
            )
            log = _DrawLog(machine.coi.injector.plan)
            machine.coi.injector.plan = log
            workload.run("opt", machine=machine)
            assert log.devices and set(log.devices) == {None}
            assert machine.fault_stats.total_injected > 0


class TestOneCardDigests:
    """Byte identity with the original one-card runtime."""

    def test_faulted_campaign(self):
        result = run_campaign(
            ["blackscholes", "nn", "ferret"], scenarios=2, seed=1, devices=1,
            rates=CAMPAIGN_RATES, policy=ResiliencePolicy(**CAMPAIGN_POLICY),
        )
        totals = result.totals
        assert result.ok
        assert totals.device_resets == 13
        assert totals.silent_detected == totals.silent_injected == 51
        digest = _sha256([o.as_dict() for o in result.outcomes])
        assert digest == CAMPAIGN_DIGEST

    def test_fault_free_trace_and_metrics(self):
        assert trace_digests("fault-free") == TRACE_DIGESTS["fault-free"]

    def test_scripted_reset_trace_and_metrics(self):
        assert trace_digests("scripted-reset") == TRACE_DIGESTS["scripted-reset"]
