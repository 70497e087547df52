"""Multi-device offload differential: fleet size must be invisible.

The fleet layer shards streamed blocks over N simulated devices but the
correctness engine stays eager and host-ordered, so for ANY device count
— and any survivable fault schedule — outputs and dynamic op counters
must be bit-identical to the fault-free single-device run.  Device loss
only moves *timing* (quarantine, probes, block redistribution);
``DeviceLost`` may surface only when every card is permanently evicted
and host fallback is disabled.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.faults.policy import ResiliencePolicy
from repro.errors import DeviceLost
from repro.obs.tracer import Tracer
from repro.workloads.suite import get_workload

WORKLOADS = ["blackscholes", "nn"]


def _run(name, devices=1, plan=None, policy=None):
    workload = get_workload(name)
    machine = workload.machine(
        fault_plan=plan, resilience=policy, devices=devices
    )
    run = workload.run("opt", machine=machine)
    return run, machine


def _assert_bit_identical(run, baseline):
    assert run.outputs.keys() == baseline.outputs.keys()
    for key, want in baseline.outputs.items():
        np.testing.assert_array_equal(run.outputs[key], want)


def _assert_same_work(run, baseline):
    """Op counters and issue counts: the fleet re-times, never re-computes.

    ``kernel_launches`` may exceed the baseline — thread-reuse sessions
    are per card, so each device hosting blocks spawns its own
    persistent worker pool — but never shrink.
    """
    assert run.stats.ops.as_dict() == baseline.stats.ops.as_dict()
    assert run.stats.offload_count == baseline.stats.offload_count
    assert run.stats.kernel_launches >= baseline.stats.kernel_launches


class TestFaultFreeDifferential:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("devices", [2, 4])
    def test_fleet_matches_single_device(self, name, devices):
        baseline, _ = _run(name, devices=1)
        fleet_run, machine = _run(name, devices=devices)
        _assert_bit_identical(fleet_run, baseline)
        _assert_same_work(fleet_run, baseline)
        assert fleet_run.stats.devices == devices
        assert machine.fleet is not None
        # Sharding actually happened: more than one card saw blocks.
        active = [d for d in machine.fleet.devices if d.blocks_assigned]
        assert len(active) > 1

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_single_device_has_no_fleet(self, name):
        """--devices 1 runs on a fleet of one that leaves no fleet trace:
        the lone card takes every block on the unprefixed lanes."""
        workload = get_workload(name)
        tracer = Tracer()
        machine = workload.machine(tracer=tracer, devices=1)
        run = workload.run("opt", machine=machine)
        assert machine.coi.fleet is machine.fleet
        (card,) = machine.fleet.devices
        assert run.stats.devices == 1
        assert card.blocks_assigned == machine.fleet.total_assigned > 0
        lanes = {s.track for s in tracer.spans}
        assert {"mic", "dma:h2d", "dma:d2h"} <= lanes
        assert not any(lane.startswith("dev") for lane in lanes), lanes


class TestSharedMemoryOnFleet:
    """The arena runtime charges the fleet's cards, like named buffers."""

    @pytest.mark.parametrize("name", ["ferret", "freqmine"])
    def test_arena_runs_on_the_fleet(self, name):
        baseline, _ = _run(name, devices=1)
        run, machine = _run(name, devices=2)
        _assert_bit_identical(run, baseline)
        assert run.time == baseline.time
        assert run.stats.devices == 2
        peak = machine.fleet.peak_bytes()
        assert run.stats.device_peak_bytes == peak > 0
        assert run.stats.device_busy_time == baseline.stats.device_busy_time


class TestSurvivableDeviceLoss:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("devices", [2, 4])
    def test_scripted_reset_is_bit_identical(self, name, devices):
        baseline, _ = _run(name, devices=1)
        plan = FaultPlan(
            seed=11, rates={}, scripted=[FaultSpec("device", 2, kind="reset")]
        )
        policy = ResiliencePolicy(checkpoint_interval=4)
        run, machine = _run(name, devices=devices, plan=plan, policy=policy)
        _assert_bit_identical(run, baseline)
        _assert_same_work(run, baseline)
        stats = machine.fault_stats
        assert stats.device_resets == 1
        assert stats.quarantines == 1
        assert stats.host_fallbacks == 0
        assert stats.recovery_seconds > 0.0

    def test_lost_blocks_land_in_survivor_histograms(self):
        plan = FaultPlan(
            seed=11, rates={}, scripted=[FaultSpec("device", 2, kind="reset")]
        )
        policy = ResiliencePolicy(checkpoint_interval=4)
        _, machine = _run(
            "blackscholes", devices=2, plan=plan, policy=policy
        )
        actions = machine.fault_stats.recovery_actions
        survived = [
            site for site, acts in actions.items()
            if site.startswith("dev") and "reset_survived" in acts
        ]
        absorbed = [
            site for site, acts in actions.items()
            if site.startswith("dev") and "absorbed_block" in acts
        ]
        assert len(survived) == 1, actions
        assert absorbed and survived[0] not in absorbed, actions
        absorbed_total = sum(
            acts.get("absorbed_block", 0) for acts in actions.values()
        )
        fleet = machine.fleet
        assert absorbed_total == sum(d.blocks_absorbed for d in fleet.devices)
        assert absorbed_total > 0

    def test_seeded_chaos_is_bit_identical(self):
        """Seeded device-loss chaos (not just one scripted reset) must
        still reproduce the fault-free answer bit for bit."""
        baseline, _ = _run("nn", devices=1)
        plan = FaultPlan(seed=5, rates={"device": 0.1})
        policy = ResiliencePolicy(checkpoint_interval=4)
        run, machine = _run("nn", devices=4, plan=plan, policy=policy)
        _assert_bit_identical(run, baseline)
        _assert_same_work(run, baseline)
        assert machine.fault_stats.device_resets > 0
        assert machine.fault_stats.host_fallbacks == 0


class TestFleetExhaustion:
    def _eviction_plan(self):
        # max_resets=0 evicts on first loss; two scripted resets kill
        # both cards of a 2-device fleet.
        return FaultPlan(
            seed=3,
            rates={},
            scripted=[
                FaultSpec("device", 1, kind="reset", device=0),
                FaultSpec("device", 1, kind="reset", device=1),
            ],
        )

    def test_all_devices_lost_raises_when_fallback_disabled(self):
        policy = ResiliencePolicy(
            checkpoint_interval=4, max_resets=0, host_fallback=False
        )
        with pytest.raises(DeviceLost, match="fleet devices permanently evicted"):
            _run(
                "blackscholes",
                devices=2,
                plan=self._eviction_plan(),
                policy=policy,
            )

    def test_all_devices_lost_falls_back_to_host_bit_identically(self):
        baseline, _ = _run("blackscholes", devices=1)
        policy = ResiliencePolicy(checkpoint_interval=4, max_resets=0)
        run, machine = _run(
            "blackscholes",
            devices=2,
            plan=self._eviction_plan(),
            policy=policy,
        )
        _assert_bit_identical(run, baseline)
        stats = machine.fault_stats
        assert stats.device_evictions == 2
        assert stats.host_fallbacks > 0
        assert machine.fleet.exhausted
        assert stats.recovery_actions["device"]["fleet_exhausted"] == 1
