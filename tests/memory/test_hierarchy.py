"""Integration-level tests for the full memory hierarchy
(repro.memory.hierarchy.MemorySystem)."""

import numpy as np
import pytest

from cache_lines import line_at

from repro.core import IMP, IMPConfig
from repro.mem_image import MemoryImage
from repro.memory.hierarchy import MemorySystem
from repro.prefetchers.base import PrefetchRequest
from repro.sim.config import CacheConfig, SystemConfig


def make_config(**overrides) -> SystemConfig:
    defaults = dict(n_cores=4,
                    l1d=CacheConfig(size_bytes=4 * 1024, associativity=4),
                    l2_total_mb_at_1core=0.0625)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def make_system(**overrides) -> MemorySystem:
    return MemorySystem(make_config(**overrides))


def access(system: MemorySystem, core_id: int, addr: int, now: float,
           pc: int = 0x400, write: bool = False, size: int = 8):
    """One demand access: ``(latency, l1_hit, l2_hit, covered_by_prefetch,
    late_prefetch_cycles)``."""
    return system.access_fast(core_id, pc, addr, size, write, now)


class TestDemandPath:
    def test_cold_miss_then_hit(self):
        system = make_system()
        latency, l1_hit, *_ = access(system, 0, 0x10000, now=0)
        assert not l1_hit
        assert latency > 1
        second, l1_hit, *_ = access(system, 0, 0x10008, now=latency + 1)
        assert l1_hit
        assert second == pytest.approx(1)

    def test_l2_hit_faster_than_dram(self):
        system = make_system()
        cold, *_ = access(system, 0, 0x20000, now=0)       # DRAM fill
        # Another core misses in its L1 but hits the shared L2.
        warm, l1_hit, l2_hit, *_ = access(system, 1, 0x20000, now=cold + 10)
        assert not l1_hit
        assert l2_hit
        assert warm < cold

    def test_miss_counts_recorded_per_core(self):
        system = make_system()
        access(system, 2, 0x30000, now=0)
        stats = system.stats.cores[2]
        assert system.l1[2].misses == 1
        assert stats.l2_misses == 1

    def test_ideal_memory_mode_never_misses(self):
        system = make_system(ideal_memory=True)
        for i in range(50):
            latency, l1_hit, *_ = access(system, 0, 0x40000 + i * 64, now=i)
            assert l1_hit
            assert latency == 1
        assert system.stats.traffic.dram_bytes == 0
        assert system.stats.traffic.noc_messages == 0

    def test_perfect_prefetch_hides_latency_when_bandwidth_available(self):
        system = make_system(perfect_prefetch=True)
        latency, *_ = access(system, 0, 0x50000, now=10_000)
        assert latency <= system.config.l1d.hit_latency + 1
        # Traffic is still generated (finite bandwidth is the whole point).
        assert system.stats.traffic.dram_bytes > 0

    def test_dirty_eviction_writes_back(self):
        config = make_config(l1d=CacheConfig(size_bytes=128, associativity=1,
                                             line_size=64))
        system = MemorySystem(config)
        set_stride = system.l1[0].num_sets * 64
        access(system, 0, 0x0, now=0, write=True)
        before = system.stats.traffic.noc_bytes
        access(system, 0, set_stride, now=1000)       # evicts the dirty line
        after = system.stats.traffic.noc_bytes
        assert after > before


class TestPrefetchPath:
    def test_prefetch_installs_line_and_later_access_hits(self):
        system = make_system()
        completion = system.issue_prefetch(0, PrefetchRequest(addr=0x60000),
                                           now=0)
        assert completion > 0
        _, l1_hit, _, covered, _ = access(system, 0, 0x60000,
                                          now=completion + 1)
        assert l1_hit
        assert covered
        assert system.stats.cores[0].prefetches_useful == 1

    def test_late_prefetch_pays_remaining_latency(self):
        system = make_system()
        completion = system.issue_prefetch(0, PrefetchRequest(addr=0x70000),
                                           now=0)
        # Long before the prefetch is done.
        latency, l1_hit, _, _, late = access(system, 0, 0x70000, now=1)
        assert l1_hit
        assert late == pytest.approx(completion - 1)
        assert latency > 1

    def test_duplicate_prefetch_of_resident_line_not_counted(self):
        system = make_system()
        system.issue_prefetch(0, PrefetchRequest(addr=0x80000), now=0)
        issued_before = system.stats.cores[0].prefetches_issued
        system.issue_prefetch(0, PrefetchRequest(addr=0x80000), now=1)
        assert system.stats.cores[0].prefetches_issued == issued_before

    def test_indirect_prefetches_counted_separately(self):
        system = make_system()
        system.issue_prefetch(0, PrefetchRequest(addr=0x90000, is_indirect=True),
                              now=0)
        system.issue_prefetch(0, PrefetchRequest(addr=0xA0000, is_indirect=False),
                              now=0)
        stats = system.stats.cores[0]
        assert stats.indirect_prefetches_issued == 1
        assert stats.stream_prefetches_issued == 1

    def test_software_prefetch_counts_and_installs(self):
        system = make_system()
        system.software_prefetch(0, 0xB0000, now=0)
        assert system.stats.cores[0].sw_prefetches_issued == 1
        assert line_at(system.l1[0], 0xB0000) is not None


class TestPartialAccessing:
    def test_partial_prefetch_moves_fewer_noc_bytes(self):
        full_system = make_system()
        partial_system = make_system(partial_noc=True, partial_dram=True)
        # Pick an address whose home L2 slice is a remote tile so the data
        # response actually crosses the mesh.
        addr = 0xC0000
        while full_system.home_tile(addr) == 0:
            addr += 64
        full_system.issue_prefetch(0, PrefetchRequest(addr=addr, size=64,
                                                      is_indirect=True), now=0)
        partial_system.issue_prefetch(0, PrefetchRequest(addr=addr, size=8,
                                                         is_indirect=True), now=0)
        assert (partial_system.stats.traffic.noc_bytes
                < full_system.stats.traffic.noc_bytes)
        assert (partial_system.stats.traffic.dram_bytes
                <= full_system.stats.traffic.dram_bytes)

    def test_partial_prefetch_installs_only_requested_sectors(self):
        system = make_system(partial_noc=True, partial_dram=True)
        system.issue_prefetch(0, PrefetchRequest(addr=0xD0000, size=8,
                                                 is_indirect=True), now=0)
        line = line_at(system.l1[0], 0xD0000)
        assert line is not None
        assert line.sector_valid == 0b1
        # An access to an absent sector is a sector miss.
        _, l1_hit, *_ = access(system, 0, 0xD0020, now=1_000)
        assert not l1_hit
        assert system.l1[0].sector_misses == 1

    def test_dram_granularity_respected_for_partial_fetches(self):
        system = make_system(partial_noc=True, partial_dram=True)
        system.issue_prefetch(0, PrefetchRequest(addr=0xE0000, size=8,
                                                 is_indirect=True), now=0)
        # 8 bytes requested, but DRAM moves at least one 32-byte burst.
        assert system.stats.traffic.dram_bytes == 32


class TestCoherenceIntegration:
    def test_write_after_remote_read_generates_invalidation(self):
        system = make_system()
        access(system, 0, 0xF0000, now=0)
        access(system, 1, 0xF0000, now=100)
        before = system.stats.traffic.invalidations
        access(system, 2, 0xF0000, now=200, write=True)
        assert system.stats.traffic.invalidations > before

    def test_read_after_remote_write_triggers_owner_writeback(self):
        system = make_system()
        access(system, 0, 0x110000, now=0, write=True)
        messages_before = system.stats.traffic.noc_messages
        _, l1_hit, *_ = access(system, 1, 0x110000, now=500)
        assert system.stats.traffic.noc_messages > messages_before + 2
        assert not l1_hit


class TestAddressMapping:
    def test_home_tiles_cover_all_tiles(self):
        system = make_system()
        homes = {system.home_tile(i * 64) for i in range(64)}
        assert homes == set(range(system.config.n_cores))

    def test_memory_controller_mapping_stable(self):
        system = make_system()
        index, tile = system.memory_controller(0x12345)
        assert 0 <= index < system.config.num_memory_controllers
        assert tile in system.config.memory_controller_tiles()
        assert system.memory_controller(0x12345) == (index, tile)


class TestIMPIntegration:
    def test_imp_attached_to_hierarchy_detects_and_prefetches(self):
        rng = np.random.default_rng(1)
        image = MemoryImage()
        image.add_array("B", rng.integers(0, 4096, 512, dtype=np.int32))
        image.add_array("A", np.zeros(4096, dtype=np.float64))
        config = make_config()
        imp_config = IMPConfig()
        system = MemorySystem(config, image,
                              prefetcher_factory=lambda c: IMP(imp_config, image))
        indices = image.data("B")
        now = 0.0
        for i in range(256):
            now += access(system, 0, image.addr_of("B", i), now, pc=0x500,
                          size=4)[0]
            now += access(system, 0, image.addr_of("A", int(indices[i])), now,
                          pc=0x508)[0]
        imp = system.prefetchers[0]
        assert imp.patterns_detected >= 1
        assert system.stats.cores[0].indirect_prefetches_issued > 0
        assert system.stats.cores[0].prefetch_covered_misses > 0
