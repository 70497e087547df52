"""Unit tests for checkpoint/restart recovery (repro.runtime.checkpoint).

The checkpoint manager shadows the COI runtime's buffer bookkeeping and,
on a full device reset, restores the session: charge the dead time,
re-upload only the live write windows, rebuild arenas, and re-charge
uncommitted kernel work.  These tests exercise the manager against a
bare :class:`Machine` — the workload-level contract (bit-identical
outputs across a mid-pipeline reset) lives in
``tests/integration/test_device_reset.py``.
"""

import numpy as np
import pytest

from repro.errors import DeviceLost, PointerTranslationError
from repro.faults import FaultPlan, FaultSpec, ResiliencePolicy
from repro.hardware.device import RESET_SEMANTICS, ResetSemantics
from repro.runtime.checkpoint import CheckpointManager
from repro.runtime.executor import Machine


def checkpointed_machine(interval=2, **policy_kwargs):
    policy = ResiliencePolicy(checkpoint_interval=interval, **policy_kwargs)
    return Machine(fault_plan=FaultPlan(scripted=[]), resilience=policy)


class TestPolicyKnobs:
    def test_checkpointing_disabled_by_default(self):
        policy = ResiliencePolicy()
        assert policy.checkpoint_interval == 0
        machine = Machine(resilience=policy)
        assert machine.checkpoint is None
        assert machine.coi.checkpoint is None

    def test_manager_attached_when_interval_positive(self):
        machine = checkpointed_machine(interval=3)
        assert isinstance(machine.checkpoint, CheckpointManager)
        assert machine.coi.checkpoint is machine.checkpoint

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_interval"):
            ResiliencePolicy(checkpoint_interval=-1)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_cost"):
            ResiliencePolicy(checkpoint_cost=-0.5)

    def test_negative_reset_budget_rejected(self):
        with pytest.raises(ValueError, match="max_resets"):
            ResiliencePolicy(max_resets=-1)


class TestBackoffMax:
    def test_uncapped_by_default(self):
        policy = ResiliencePolicy()
        assert policy.backoff_max is None
        # Historical behaviour: pure exponential growth.
        assert policy.backoff(5) == policy.backoff_base * policy.backoff_factor**5

    def test_cap_applies(self):
        policy = ResiliencePolicy(backoff_max=0.002)
        assert policy.backoff(0) == policy.backoff_base
        for attempt in range(10):
            assert policy.backoff(attempt) <= 0.002

    def test_cap_below_base_rejected(self):
        with pytest.raises(ValueError, match="backoff_max"):
            ResiliencePolicy(backoff_base=0.01, backoff_max=0.001)

    def test_cap_above_guarding_timeout_rejected(self):
        # Backing off for longer than it takes to detect the next
        # failure is never useful; the policy refuses the combination.
        policy = ResiliencePolicy()
        ceiling = min(
            policy.transfer_timeout, policy.kernel_timeout, policy.signal_timeout
        )
        with pytest.raises(ValueError, match="backoff_max"):
            ResiliencePolicy(backoff_max=ceiling * 2)


class TestShadowBookkeeping:
    def test_alloc_write_free_cycle(self):
        machine = checkpointed_machine()
        manager = machine.checkpoint
        coi = machine.coi
        coi.alloc_buffer("A", 100)
        coi.write_buffer("A", 0, np.ones(50, dtype=np.float32))
        assert "A" in manager._buffers
        assert (0, 50) in manager._buffers["A"].writes
        coi.free_buffer("A")
        assert "A" not in manager._buffers

    def test_repeated_window_supersedes(self):
        """A streamed slot re-written per block keeps ONE record, so a
        restore re-uploads only the resident block, not the history."""
        machine = checkpointed_machine()
        manager = machine.checkpoint
        coi = machine.coi
        coi.alloc_buffer("slot", 10)
        for _ in range(7):
            coi.write_buffer("slot", 0, np.ones(10, dtype=np.float32))
        assert len(manager._buffers["slot"].writes) == 1

    def test_commit_every_interval(self):
        machine = checkpointed_machine(interval=3)
        manager = machine.checkpoint
        coi = machine.coi
        for _ in range(7):
            manager.block_completed(coi, kernel_seconds=0.001)
        assert machine.fault_stats.checkpoints_committed == 2
        assert manager.last_checkpoint.block == 6
        # Blocks 7 is uncommitted — a reset would recompute exactly it.
        assert len(manager._uncommitted) == 1

    def test_commit_charges_host_time(self):
        machine = checkpointed_machine(interval=1, checkpoint_cost=0.5)
        before = machine.clock.now
        machine.checkpoint.block_completed(machine.coi, kernel_seconds=0.0)
        assert machine.clock.now == pytest.approx(before + 0.5)
        assert machine.fault_stats.checkpoint_seconds == pytest.approx(0.5)


class TestResetRecovery:
    def test_restore_rebuilds_device_state(self):
        machine = checkpointed_machine()
        coi = machine.coi
        payload = np.arange(64, dtype=np.float32)
        coi.alloc_buffer("A", 64)
        coi.write_buffer("A", 0, payload)
        memory = machine.fleet.devices[0].memory
        in_use_before = memory.in_use
        machine.checkpoint.handle_reset(coi)
        assert coi.epoch == 1
        assert np.array_equal(coi.device.arrays["A"], payload)
        assert memory.in_use == in_use_before
        assert memory.holds("A")
        assert machine.fault_stats.device_resets == 1
        assert machine.fault_stats.blocks_reuploaded == 1
        assert machine.fault_stats.recovery_actions == {
            "device": {"reset_survived": 1}
        }

    def test_reset_charges_detection_and_reinit(self):
        machine = checkpointed_machine()
        before = machine.clock.now
        machine.checkpoint.handle_reset(machine.coi)
        overhead = RESET_SEMANTICS.overhead(machine.spec.mic.threads_used)
        assert machine.clock.now >= before + overhead

    def test_uncommitted_blocks_recomputed(self):
        machine = checkpointed_machine(interval=10)
        manager = machine.checkpoint
        coi = machine.coi
        for _ in range(4):
            manager.block_completed(coi, kernel_seconds=0.25)
        before = machine.clock.now
        manager.handle_reset(coi)
        assert machine.fault_stats.blocks_recomputed == 4
        # The redo work occupies the device for at least the replayed
        # kernel seconds on top of the reset overhead.
        overhead = RESET_SEMANTICS.overhead(machine.spec.mic.threads_used)
        assert machine.clock.now >= before + overhead + 4 * 0.25
        # The restore itself is a consistent recovery point.
        assert not manager._uncommitted

    def test_reset_budget_exhaustion_raises(self):
        machine = checkpointed_machine(max_resets=2)
        manager = machine.checkpoint
        manager.handle_reset(machine.coi)
        manager.handle_reset(machine.coi)
        with pytest.raises(DeviceLost, match="max_resets"):
            manager.handle_reset(machine.coi)

    def test_reset_without_checkpointing_is_fatal(self):
        machine = Machine(
            fault_plan=FaultPlan(scripted=[FaultSpec("device", 0, "reset")]),
            resilience=ResiliencePolicy(),
        )
        from repro import run_source

        source = """
        void main() {
        #pragma offload target(mic:0) in(A : length(n)) in(n) out(B : length(n))
        #pragma omp parallel for
            for (int i = 0; i < n; i++) { B[i] = A[i] * 2.0; }
        }
        """
        with pytest.raises(DeviceLost, match="checkpoint_interval"):
            run_source(
                source,
                arrays={
                    "A": np.ones(8, dtype=np.float32),
                    "B": np.zeros(8, dtype=np.float32),
                },
                scalars={"n": 8},
                machine=machine,
            )
        assert machine.fault_stats.device_resets == 1

    def test_arena_rebuilt_with_fresh_deltas(self):
        machine = checkpointed_machine()
        coi = machine.coi
        arena = machine.arena
        obj = arena.allocate(1024, x=1.0)
        arena.copy_to_device(coi)
        generation = arena.generation
        machine.checkpoint.handle_reset(coi)
        assert arena.generation == generation + 1
        # Pointers still translate after the rebuild.
        assert arena.delta.translate(obj.ptr) == obj.ptr.addr + arena.delta._delta[
            obj.ptr.bid
        ]
        assert machine.fleet.devices[0].memory.holds(f"arena:{obj.ptr.bid}")

    def test_delta_refresh_requires_registration(self):
        from repro.runtime.smartptr import DeltaTable

        table = DeltaTable()
        with pytest.raises(PointerTranslationError, match="never registered"):
            table.refresh(0, 1 << 44, 1 << 20)


class TestResetSemantics:
    def test_overhead_composition(self):
        semantics = ResetSemantics()
        assert semantics.overhead(200) == pytest.approx(
            semantics.detection_timeout
            + semantics.reinit_base
            + 200 * semantics.reinit_per_thread
        )

    def test_reset_is_costlier_than_per_op_recovery(self):
        """A whole-device loss must dwarf the per-operation timeouts —
        it is the failure mode of last resort, not a cheap retry."""
        policy = ResiliencePolicy()
        assert RESET_SEMANTICS.overhead(0) > 4 * max(
            policy.transfer_timeout, policy.kernel_timeout
        )

    def test_memory_manager_reset_preserves_peak(self):
        machine = checkpointed_machine()
        coi = machine.coi
        coi.alloc_buffer("A", 1000)
        memory = machine.fleet.devices[0].memory
        peak = memory.peak
        coi.reset_device()
        assert memory.in_use == 0
        assert memory.peak == peak
        assert memory.device_resets == 1
