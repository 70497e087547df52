"""Tests for the COI-like low-level runtime."""

import numpy as np
import pytest

from repro.errors import MissingTransferError, RuntimeFault
from repro.hardware.event_sim import Event
from repro.runtime.executor import Machine


@pytest.fixture
def machine():
    return Machine()


@pytest.fixture
def coi(machine):
    return machine.coi


class TestBuffers:
    def test_alloc_creates_device_array(self, coi, machine):
        buf = coi.alloc_buffer("A", 16)
        assert len(buf) == 16
        assert machine.device.holds("A")
        assert machine.fleet.devices[0].memory.size_of("A") == 64

    def test_alloc_dtype(self, coi):
        buf = coi.alloc_buffer("D", 4, dtype=np.float64)
        assert buf.dtype == np.float64

    def test_realloc_keeps_contents_when_large_enough(self, coi):
        buf = coi.alloc_buffer("A", 8)
        buf[:] = 7.0
        again = coi.alloc_buffer("A", 8)
        assert np.all(again == 7.0)

    def test_realloc_grows(self, coi):
        coi.alloc_buffer("A", 8)
        buf = coi.alloc_buffer("A", 32)
        assert len(buf) == 32

    def test_free(self, coi, machine):
        coi.alloc_buffer("A", 8)
        coi.free_buffer("A")
        assert not machine.device.holds("A")
        assert machine.fleet.devices[0].memory.in_use == 0

    def test_free_unknown_is_noop(self, coi):
        coi.free_buffer("never-existed")


class TestTransfers:
    def test_write_copies_data(self, coi, machine):
        coi.alloc_buffer("A", 8)
        coi.write_buffer("A", 2, np.arange(4, dtype=np.float32))
        assert list(machine.device.array("A")[2:6]) == [0, 1, 2, 3]

    def test_write_advances_clock_when_sync(self, coi, machine):
        coi.alloc_buffer("A", 1024)
        before = machine.clock.now
        coi.write_buffer("A", 0, np.zeros(1024, dtype=np.float32))
        assert machine.clock.now > before

    def test_async_write_does_not_block(self, coi, machine):
        coi.alloc_buffer("A", 1024)
        before = machine.clock.now
        event = coi.write_buffer(
            "A", 0, np.zeros(1024, dtype=np.float32), sync=False
        )
        assert machine.clock.now == before
        assert event.time > before

    def test_write_range_check(self, coi):
        coi.alloc_buffer("A", 4)
        with pytest.raises(RuntimeFault):
            coi.write_buffer("A", 2, np.zeros(4, dtype=np.float32))

    def test_write_to_missing_buffer(self, coi):
        with pytest.raises(MissingTransferError):
            coi.write_buffer("ghost", 0, np.zeros(4, dtype=np.float32))

    def test_read_copies_back(self, coi):
        buf = coi.alloc_buffer("A", 8)
        buf[:] = np.arange(8)
        host = np.zeros(8, dtype=np.float32)
        coi.read_buffer("A", 4, 4, host, 0)
        assert list(host[:4]) == [4, 5, 6, 7]

    def test_read_range_check(self, coi):
        coi.alloc_buffer("A", 4)
        with pytest.raises(RuntimeFault):
            coi.read_buffer("A", 2, 4, np.zeros(8, dtype=np.float32), 0)

    def test_stats_accumulate(self, coi):
        coi.alloc_buffer("A", 256)
        coi.write_buffer("A", 0, np.zeros(256, dtype=np.float32))
        coi.read_buffer("A", 0, 256, np.zeros(256, dtype=np.float32), 0)
        assert coi.stats.bytes_to_device == 1024
        assert coi.stats.bytes_from_device == 1024
        assert coi.stats.transfers_to_device == 1
        assert coi.stats.transfers_from_device == 1

    def test_scale_multiplies_bytes(self):
        machine = Machine(scale=10.0)
        machine.coi.alloc_buffer("A", 16)
        machine.coi.write_buffer("A", 0, np.zeros(16, dtype=np.float32))
        assert machine.coi.stats.bytes_to_device == 640

    def test_raw_transfer_directions(self, coi):
        coi.raw_transfer(1 << 20, to_device=True)
        coi.raw_transfer(1 << 19, to_device=False)
        assert coi.stats.bytes_to_device == 1 << 20
        assert coi.stats.bytes_from_device == 1 << 19


class TestKernels:
    def test_launch_charges_overhead(self, coi, machine):
        event = coi.launch_kernel(0.001)
        assert event.time == pytest.approx(
            0.001 + machine.spec.mic.kernel_launch_overhead
        )
        assert coi.stats.kernel_launches == 1

    def test_persistent_first_launch_pays_k(self, coi, machine):
        event = coi.launch_kernel(0.0, persistent_key="loop1")
        assert event.time == pytest.approx(
            machine.spec.mic.kernel_launch_overhead
        )

    def test_persistent_reuse_pays_signal(self, coi, machine):
        coi.launch_kernel(0.0, persistent_key="loop1")
        second = coi.launch_kernel(0.0, persistent_key="loop1")
        expected = (
            machine.spec.mic.kernel_launch_overhead
            + machine.spec.mic.signal_overhead
        )
        assert second.time == pytest.approx(expected)
        assert coi.stats.kernel_signals == 1

    def test_distinct_sessions_each_pay_k(self, coi):
        coi.launch_kernel(0.0, persistent_key="a")
        coi.launch_kernel(0.0, persistent_key="b")
        assert coi.stats.kernel_launches == 2

    def test_end_persistent_forces_relaunch(self, coi):
        coi.launch_kernel(0.0, persistent_key="a")
        coi.end_persistent("a")
        coi.launch_kernel(0.0, persistent_key="a")
        assert coi.stats.kernel_launches == 2

    def test_kernel_compute_seconds_excludes_overhead(self, coi):
        coi.launch_kernel(0.25)
        assert coi.stats.kernel_compute_seconds == pytest.approx(0.25)

    def test_kernel_waits_for_deps(self, coi, machine):
        transfer = machine.timeline.schedule("dma:h2d", 1.0)
        kernel = coi.launch_kernel(0.5, deps=[transfer])
        assert kernel.time >= 1.5


class TestSignals:
    def test_post_and_wait(self, coi, machine):
        coi.post_signal("tag", [Event(5.0)])
        coi.wait_signal("tag")
        assert machine.clock.now == 5.0

    def test_wait_unknown_tag_is_noop(self, coi, machine):
        coi.wait_signal("never-posted")
        assert machine.clock.now == 0.0

    def test_signals_accumulate_per_tag(self, coi, machine):
        coi.post_signal("t", [Event(1.0)])
        coi.post_signal("t", [Event(3.0)])
        coi.wait_signal("t")
        assert machine.clock.now == 3.0

    def test_wait_consumes_the_tag(self, coi, machine):
        coi.post_signal("t", [Event(2.0)])
        coi.wait_signal("t")
        machine.clock.now = 0.0
        coi.wait_signal("t")
        assert machine.clock.now == 0.0
