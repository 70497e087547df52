"""Fleet-layer unit tests: sharding, health transitions, failover.

These drive :class:`~repro.runtime.fleet.DeviceFleet` directly against a
real machine's COI runtime (clock, timeline, DMA channels) so the
accounting the integration differential relies on — probe charges,
quarantine eligibility, eviction budgets, redistribution footprints — is
pinned at the unit level.
"""

import pytest

from repro.errors import DeviceLost
from repro.faults.policy import ResiliencePolicy
from repro.faults.stats import FaultStats
from repro.hardware.device import PROBE_SEMANTICS, RESET_SEMANTICS, ProbeSemantics
from repro.runtime.executor import Machine
from repro.runtime.fleet import DeviceFleet

ALWAYS = ProbeSemantics(cost=0.010, readmit_probability=1.0)
NEVER = ProbeSemantics(cost=0.010, readmit_probability=0.0)


def _fleet(count=2, seed=None, policy=None, probe=PROBE_SEMANTICS, stats=None):
    """The fleet of a fresh *count*-card machine, with its COI runtime."""
    machine = Machine(devices=count)
    fleet = machine.fleet
    fleet.seed = seed
    fleet.policy = policy if policy is not None else ResiliencePolicy()
    fleet.stats = stats
    fleet.probe = probe
    return fleet, machine.coi


def _quarantine(fleet, dev):
    dev.health.state = "quarantined"
    dev.health.resets_survived += 1
    dev.health.quarantined_at = fleet.total_assigned


class TestConstruction:
    def test_rejects_single_device(self):
        """A lone card is no failover source: with no survivor to absorb
        its buffers, a loss without checkpointing ends the run in place
        of quarantine and redistribution.  Construction itself now only
        rejects an empty fleet."""
        stats = FaultStats()
        fleet, coi = _fleet(count=1, stats=stats)
        fleet.begin_block(coi)
        with pytest.raises(DeviceLost, match="checkpointing disabled"):
            fleet.handle_device_loss(coi)
        (card,) = fleet.devices
        assert card.health.healthy
        assert stats.device_resets == 1
        assert stats.quarantines == stats.device_evictions == 0
        assert not stats.recovery_actions
        machine = Machine(devices=1)
        with pytest.raises(ValueError, match=">= 1"):
            DeviceFleet(machine.spec, machine.scale, 0)

    def test_machine_builds_fleet_only_above_one(self):
        """Only above one card do the fleet's devK: lanes and per-card
        fault streams show; one card keeps the one-card identity."""
        (lone,) = Machine(devices=1).fleet.devices
        assert (lone.device_id, lone.compute_track, lone.stream) == (
            "dev0", "mic", None,
        )
        machine = Machine(devices=3)
        cards = machine.fleet.devices
        assert [d.device_id for d in cards] == ["dev0", "dev1", "dev2"]
        assert [d.compute_track for d in cards] == [
            "dev0:mic", "dev1:mic", "dev2:mic",
        ]
        assert [d.stream for d in cards] == [0, 1, 2]


class TestSharding:
    def test_blocks_deal_round_robin(self):
        fleet, coi = _fleet(count=3)
        order = [fleet.begin_block(coi).index for _ in range(6)]
        assert order == [0, 1, 2, 0, 1, 2]
        assert all(d.blocks_assigned == 2 for d in fleet.devices)

    def test_quarantined_device_receives_no_blocks(self):
        fleet, coi = _fleet(count=3, probe=NEVER)
        _quarantine(fleet, fleet.devices[1])
        order = [fleet.begin_block(coi).index for _ in range(4)]
        assert 1 not in order

    def test_placement_sticks_to_first_owner(self):
        fleet, coi = _fleet(count=2)
        fleet.begin_block(coi)  # dev0 active
        first = fleet.device_for_alloc("A")
        fleet.note_alloc("A", first, 1024.0)
        fleet.begin_block(coi)  # dev1 active
        assert fleet.device_for_alloc("A") is first
        assert fleet.owner_of("A") is first
        fleet.note_free("A")
        assert fleet.owner_of("A") is None


class TestQuarantineAndProbes:
    def test_probe_waits_for_a_newer_block(self):
        """The re-assignment of the dropped block itself must never
        re-admit the card that just dropped it."""
        fleet, coi = _fleet(count=2, probe=ALWAYS)
        dev0 = fleet.devices[0]
        _quarantine(fleet, dev0)
        fleet.begin_block(coi)  # same ordinal: not yet eligible
        assert dev0.health.state == "quarantined"
        assert dev0.health.probes_sent == 0
        fleet.begin_block(coi)  # one newer block assigned: eligible now
        assert dev0.health.state == "healthy"
        assert dev0.health.probes_sent == 1

    def test_probe_charges_time_and_stats(self):
        stats = FaultStats()
        fleet, coi = _fleet(count=2, probe=NEVER, stats=stats)
        _quarantine(fleet, fleet.devices[0])
        fleet.total_assigned += 1  # make the probe eligible
        before = coi.clock.now
        fleet.begin_block(coi)
        assert coi.clock.now == pytest.approx(before + NEVER.cost)
        assert stats.readmission_probes == 1
        assert stats.recovery_seconds == pytest.approx(NEVER.cost)
        assert stats.recovery_actions["dev0:device"]["probe"] == 1
        assert fleet.devices[0].health.state == "quarantined"

    def test_probe_coins_are_seed_deterministic(self):
        first, _ = _fleet(count=2, seed=42)
        second, _ = _fleet(count=2, seed=42)
        for device in (0, 1):
            a = [float(first._probe_rng(device).random()) for _ in range(8)]
            b = [float(second._probe_rng(device).random()) for _ in range(8)]
            assert a == b
        # ... and decorrelated across devices.
        third, _ = _fleet(count=2, seed=42)
        assert [float(third._probe_rng(0).random()) for _ in range(8)] != [
            float(third._probe_rng(1).random()) for _ in range(8)
        ]

    def test_force_readmit_picks_least_failed_card(self):
        stats = FaultStats()
        fleet, coi = _fleet(count=3, probe=NEVER, stats=stats)
        for index, resets in ((0, 3), (1, 1), (2, 2)):
            dev = fleet.devices[index]
            _quarantine(fleet, dev)
            dev.health.resets_survived = resets
        dev = fleet.begin_block(coi)
        assert dev.index == 1  # fewest survived resets wins
        assert dev.health.state == "healthy"
        assert stats.readmissions == 1
        # The forced probe is still paid for.
        assert stats.recovery_actions["dev1:device"]["probe"] == 1


class TestFailover:
    def test_loss_within_budget_quarantines(self):
        stats = FaultStats()
        fleet, coi = _fleet(
            count=2, policy=ResiliencePolicy(max_resets=8), stats=stats
        )
        lost = fleet.begin_block(coi)
        fleet.handle_device_loss(coi)
        assert lost.health.state == "quarantined"
        assert lost.health.quarantined_at == fleet.total_assigned
        assert stats.quarantines == 1
        assert stats.device_resets == 1
        assert fleet.active is None

    def test_loss_past_budget_evicts(self):
        stats = FaultStats()
        fleet, coi = _fleet(
            count=2, policy=ResiliencePolicy(max_resets=0), stats=stats
        )
        lost = fleet.begin_block(coi)
        fleet.handle_device_loss(coi)
        assert lost.health.evicted
        assert stats.device_evictions == 1
        assert stats.recovery_actions["dev0:device"]["evicted"] == 1
        assert not fleet.exhausted
        fleet.begin_block(coi)
        fleet.handle_device_loss(coi)
        assert fleet.exhausted
        assert fleet.begin_block(coi) is None

    def test_loss_charges_reset_overhead(self):
        fleet, coi = _fleet(count=2)
        fleet.begin_block(coi)
        before = coi.clock.now
        fleet.handle_device_loss(coi)
        overhead = RESET_SEMANTICS.overhead(fleet.spec.mic.threads_used)
        assert coi.clock.now >= before + overhead

    def test_buffers_redistribute_to_survivor(self):
        stats = FaultStats()
        fleet, coi = _fleet(count=2, stats=stats)
        lost = fleet.begin_block(coi)
        for name in ("A", "B", "C"):
            lost.memory.allocate(name, 4096.0)
            fleet.note_alloc(name, lost, 4096.0)
        survivor = fleet.devices[1]
        fleet.handle_device_loss(coi)
        assert lost.memory.in_use == 0  # the card's state is gone
        for name in ("A", "B", "C"):
            assert fleet.owner_of(name) is survivor
        assert survivor.blocks_absorbed == 3
        assert survivor.memory.in_use > 0
        assert stats.blocks_reuploaded == 3  # full-footprint resends
        assert stats.recovery_actions["dev1:device"]["absorbed_block"] == 3

    def test_charged_footprint_survives_the_move(self):
        """A buffer absorbed once must keep its unscaled footprint so a
        second loss re-sends the right byte count."""
        fleet, coi = _fleet(count=3)
        dev0 = fleet.begin_block(coi)
        dev0.memory.allocate("A", 8192.0)
        fleet.note_alloc("A", dev0, 8192.0)
        fleet.handle_device_loss(coi)
        assert fleet._charged["A"] == 8192.0
        owner = fleet.owner_of("A")
        assert owner is not None and owner is not dev0
