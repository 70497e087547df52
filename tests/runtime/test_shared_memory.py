"""Tests for the Section V shared-memory machinery: augmented pointers,
delta table, arena allocator, and the MYO baseline."""

import pytest

from repro.errors import MyoLimitError, PointerTranslationError, RuntimeFault
from repro.runtime.arena import ArenaAllocator
from repro.runtime.executor import Machine
from repro.runtime.myo import MyoRuntime
from repro.runtime.smartptr import MAX_BUFFERS, NULL, DeltaTable, SharedPtr


class TestSharedPtr:
    def test_fields(self):
        ptr = SharedPtr(addr=0x1000, bid=3)
        assert ptr.addr == 0x1000
        assert ptr.bid == 3

    def test_bid_must_fit_one_byte(self):
        with pytest.raises(PointerTranslationError):
            SharedPtr(addr=1, bid=256)

    def test_null(self):
        assert NULL.is_null()
        assert not SharedPtr(1, 0).is_null()

    def test_pointer_copy_is_plain_assignment(self):
        """Table I: p1 = p2 is identical on CPU and MIC."""
        p2 = SharedPtr(0x2000, 1)
        p1 = p2
        assert p1 == p2


class TestDeltaTable:
    def make_table(self):
        table = DeltaTable()
        table.register(bid=0, cpu_base=0x10000, mic_base=0x500, size=0x1000)
        table.register(bid=1, cpu_base=0x20000, mic_base=0x9000, size=0x1000)
        return table

    def test_translate(self):
        table = self.make_table()
        ptr = SharedPtr(0x10010, 0)
        assert table.translate(ptr) == 0x500 + 0x10

    def test_translate_second_buffer(self):
        table = self.make_table()
        ptr = SharedPtr(0x20004, 1)
        assert table.translate(ptr) == 0x9000 + 4

    def test_translate_unknown_buffer_raises(self):
        with pytest.raises(PointerTranslationError):
            self.make_table().translate(SharedPtr(0x1, 5))

    def test_translate_null_raises(self):
        with pytest.raises(PointerTranslationError):
            self.make_table().translate(NULL)

    def test_linear_translation_matches_bid_translation(self):
        table = self.make_table()
        ptr = SharedPtr(0x20008, 1)
        linear_addr, comparisons = table.translate_linear(ptr)
        assert linear_addr == table.translate(ptr)
        assert comparisons == 2  # walked both buffers

    def test_linear_translation_cost_grows(self):
        table = DeltaTable()
        for bid in range(100):
            table.register(bid, 0x100000 * (bid + 1), 0x10 * bid, 0x1000)
        ptr = SharedPtr(0x100000 * 100 + 4, 99)
        __, comparisons = table.translate_linear(ptr)
        assert comparisons == 100

    def test_take_address_on_cpu(self):
        """Table I: p = &obj on CPU stores the plain address."""
        table = self.make_table()
        ptr = table.take_address(obj_addr=0x10020, obj_bid=0, on_mic=False)
        assert ptr == SharedPtr(0x10020, 0)

    def test_take_address_on_mic_subtracts_delta(self):
        """Table I: p = &obj on MIC stores &obj - delta[bid], so the pointer
        still holds a CPU address."""
        table = self.make_table()
        mic_addr = table.translate(SharedPtr(0x10020, 0))
        ptr = table.take_address(obj_addr=mic_addr, obj_bid=0, on_mic=True)
        assert ptr == SharedPtr(0x10020, 0)

    def test_roundtrip_translate_take_address(self):
        table = self.make_table()
        original = SharedPtr(0x20040, 1)
        device_addr = table.translate(original)
        assert table.take_address(device_addr, 1, on_mic=True) == original


class TestArenaAllocator:
    def test_single_buffer_until_full(self):
        arena = ArenaAllocator(chunk_bytes=1024)
        for _ in range(4):
            arena.allocate(256)
        assert len(arena.buffers) == 1
        arena.allocate(16)
        assert len(arena.buffers) == 2

    def test_buffers_never_move(self):
        """Unlike grow-and-copy, full buffers keep their base addresses."""
        arena = ArenaAllocator(chunk_bytes=128)
        first = arena.allocate(100)
        base_before = arena.buffers[0].cpu_base
        arena.allocate(100)  # spills into a second buffer
        assert arena.buffers[0].cpu_base == base_before
        assert arena.objects[first.ptr.addr] is first

    def test_oversized_allocation_gets_own_buffer(self):
        arena = ArenaAllocator(chunk_bytes=64)
        obj = arena.allocate(1000)
        assert arena.buffers[obj.ptr.bid].size == 1000

    def test_small_structure_uses_one_small_buffer(self):
        """Section V-A condition (1): minimal memory when data is small."""
        arena = ArenaAllocator(chunk_bytes=1 << 20)
        arena.allocate(100)
        assert arena.total_reserved == 1 << 20
        assert len(arena.buffers) == 1

    def test_object_fields(self):
        arena = ArenaAllocator()
        node = arena.allocate(16, value=1.5, next=NULL)
        assert node.fields["value"] == 1.5

    def test_linked_list_traversal_on_host(self):
        arena = ArenaAllocator(chunk_bytes=64)
        head = arena.allocate(16, value=1.0, next=NULL)
        second = arena.allocate(16, value=2.0, next=NULL)
        head.fields["next"] = second.ptr
        total, ptr = 0.0, head.ptr
        while not ptr.is_null():
            obj = arena.deref(ptr)
            total += obj.fields["value"]
            ptr = obj.fields["next"]
        assert total == 3.0

    def test_alloc_count(self):
        arena = ArenaAllocator()
        for _ in range(10):
            arena.allocate(8)
        assert arena.alloc_count == 10

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            ArenaAllocator().allocate(0)

    def test_buffer_limit_enforced(self):
        arena = ArenaAllocator(chunk_bytes=8)
        with pytest.raises(RuntimeFault):
            for _ in range(MAX_BUFFERS + 1):
                arena.allocate(8)


class TestArenaDeviceCopy:
    def test_device_deref_requires_copy(self):
        machine = Machine()
        arena = ArenaAllocator(chunk_bytes=256)
        obj = arena.allocate(16, value=7.0)
        with pytest.raises(PointerTranslationError):
            arena.deref(obj.ptr, on_mic=True)
        arena.copy_to_device(machine.coi)
        assert arena.deref(obj.ptr, on_mic=True).fields["value"] == 7.0

    def test_copy_charges_dma(self):
        machine = Machine()
        arena = ArenaAllocator(chunk_bytes=1 << 20)
        arena.allocate(64)
        arena.copy_to_device(machine.coi)
        assert machine.coi.stats.bytes_to_device == 1 << 20

    def test_copy_used_only_mode(self):
        machine = Machine()
        arena = ArenaAllocator(chunk_bytes=1 << 20)
        arena.allocate(64)
        arena.copy_to_device(machine.coi, copy_full_buffers=False)
        assert machine.coi.stats.bytes_to_device == 64

    def test_device_memory_accounted_and_freed(self):
        machine = Machine()
        arena = ArenaAllocator(chunk_bytes=4096)
        arena.allocate(64)
        arena.copy_to_device(machine.coi)
        memory = machine.fleet.devices[0].memory
        assert memory.in_use == 4096
        arena.free_on_device(machine.coi)
        assert memory.in_use == 0

    def test_traversal_on_device_after_copy(self):
        machine = Machine()
        arena = ArenaAllocator(chunk_bytes=48)
        nodes = [arena.allocate(16, value=float(i), next=NULL) for i in range(10)]
        for a, b in zip(nodes, nodes[1:]):
            a.fields["next"] = b.ptr
        arena.copy_to_device(machine.coi)
        total, ptr = 0.0, nodes[0].ptr
        while not ptr.is_null():
            obj = arena.deref(ptr, on_mic=True)
            total += obj.fields["value"]
            ptr = obj.fields["next"]
        assert total == sum(range(10))


class TestMyoRuntime:
    def make_myo(self, **kwargs):
        machine = Machine()
        return machine, MyoRuntime(machine.coi, **kwargs)

    def test_shared_malloc_returns_distinct_addresses(self):
        __, myo = self.make_myo()
        a = myo.shared_malloc(100)
        b = myo.shared_malloc(100)
        assert a != b

    def test_allocation_limit(self):
        __, myo = self.make_myo(max_allocations=10)
        for _ in range(10):
            myo.shared_malloc(8)
        with pytest.raises(MyoLimitError):
            myo.shared_malloc(8)

    def test_total_size_limit(self):
        __, myo = self.make_myo(max_total_bytes=1000)
        myo.shared_malloc(900)
        with pytest.raises(MyoLimitError):
            myo.shared_malloc(200)

    def test_ferret_allocation_count_fails(self):
        """Table III: ferret's 80,298 runtime allocations exceed MYO."""
        __, myo = self.make_myo()
        with pytest.raises(MyoLimitError):
            for _ in range(80_298):
                myo.shared_malloc(1024)

    def test_freqmine_allocation_count_fits(self):
        """Table III: freqmine's 912 allocations run under MYO."""
        __, myo = self.make_myo()
        for _ in range(912):
            myo.shared_malloc(8192)
        assert myo.stats.allocations == 912

    def test_first_touch_faults(self):
        machine, myo = self.make_myo()
        addr = myo.shared_malloc(100)
        before = machine.clock.now
        myo.device_access(addr, 4)
        assert myo.stats.page_faults == 1
        assert machine.clock.now > before

    def test_repeat_touch_no_fault(self):
        __, myo = self.make_myo()
        addr = myo.shared_malloc(100)
        myo.device_access(addr, 4)
        myo.device_access(addr + 8, 4)
        assert myo.stats.page_faults == 1

    def test_spanning_access_faults_both_pages(self):
        __, myo = self.make_myo()
        addr = myo.shared_malloc(10_000)
        myo.device_access(addr, 8000)
        assert myo.stats.page_faults == 2

    def test_offload_boundary_invalidates(self):
        __, myo = self.make_myo()
        addr = myo.shared_malloc(100)
        myo.device_access(addr, 4)
        myo.offload_boundary()
        myo.device_access(addr, 4)
        assert myo.stats.page_faults == 2

    def test_myo_slower_than_arena_for_bulk_data(self):
        """The core Table III comparison at the runtime level."""
        nbytes = 1 << 20
        machine_m, myo = self.make_myo()
        addr = myo.shared_malloc(nbytes)
        myo.device_access(addr, nbytes)
        myo_time = machine_m.clock.now

        machine_a = Machine()
        arena = ArenaAllocator(chunk_bytes=nbytes)
        arena.allocate(nbytes)
        arena.copy_to_device(machine_a.coi)
        arena_time = machine_a.clock.now
        assert myo_time > 5 * arena_time
