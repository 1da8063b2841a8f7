"""Tests for explicit cache hierarchies (HierarchyConfig + the extended
MemorySystem level chain)."""

import pytest

from cache_lines import line_at

from repro.memory.hierarchy import MemorySystem
from repro.prefetchers.base import PrefetchRequest
from repro.sim.config import (
    CacheConfig,
    HierarchyConfig,
    LevelConfig,
    PrefetcherAttach,
    SystemConfig,
)


def three_level(prefetch_level="l2") -> HierarchyConfig:
    return HierarchyConfig(prefetch_level=prefetch_level, levels=(
        LevelConfig(name="l1", size_bytes=4 * 1024, associativity=4,
                    hit_latency=1),
        LevelConfig(name="l2", size_bytes=16 * 1024, associativity=8,
                    hit_latency=4),
        LevelConfig(name="l3", size_bytes=32 * 1024, associativity=8,
                    scope="shared", hit_latency=8),
    ))


def make_config(hierarchy=None, **overrides) -> SystemConfig:
    defaults = dict(n_cores=4,
                    l1d=CacheConfig(size_bytes=4 * 1024, associativity=4),
                    l2_total_mb_at_1core=0.0625,
                    hierarchy=hierarchy)
    defaults.update(overrides)
    return SystemConfig(**defaults)


def access(system, core_id, addr, now, pc=0x400, write=False, size=8):
    """One demand access: ``(latency, l1_hit, l2_hit, covered_by_prefetch,
    late_prefetch_cycles)``."""
    return system.access_fast(core_id, pc, addr, size, write, now)


class TestHierarchyConfigValidation:
    def test_needs_two_levels(self):
        with pytest.raises(ValueError, match="at least two levels"):
            HierarchyConfig(levels=(
                LevelConfig(name="l1", size_bytes=4096, associativity=4,
                            scope="shared"),))

    def test_last_level_must_be_shared(self):
        with pytest.raises(ValueError, match="must be shared"):
            HierarchyConfig(levels=(
                LevelConfig(name="l1", size_bytes=4096, associativity=4),
                LevelConfig(name="l2", size_bytes=8192, associativity=8),))

    def test_only_last_level_may_be_shared(self):
        with pytest.raises(ValueError, match="only the last"):
            HierarchyConfig(levels=(
                LevelConfig(name="l1", size_bytes=4096, associativity=4,
                            scope="shared"),
                LevelConfig(name="l2", size_bytes=8192, associativity=8,
                            scope="shared"),))

    def test_duplicate_level_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            HierarchyConfig(levels=(
                LevelConfig(name="l1", size_bytes=4096, associativity=4),
                LevelConfig(name="l1", size_bytes=8192, associativity=8,
                            scope="shared"),))

    def test_line_sizes_must_agree(self):
        with pytest.raises(ValueError, match="line size"):
            HierarchyConfig(levels=(
                LevelConfig(name="l1", size_bytes=4096, associativity=4,
                            line_size=32),
                LevelConfig(name="l2", size_bytes=8192, associativity=8,
                            scope="shared"),))

    def test_prefetch_level_must_be_private(self):
        with pytest.raises(ValueError, match="private level"):
            three_level(prefetch_level="l3")

    def test_bad_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            LevelConfig(name="l1", size_bytes=4096, associativity=4,
                        scope="global")

    def test_dict_levels_coerced(self):
        hierarchy = HierarchyConfig(levels=(
            {"name": "l1", "size_bytes": 4096, "associativity": 4},
            {"name": "l2", "size_bytes": 8192, "associativity": 8,
             "scope": "shared"},
        ))
        assert all(isinstance(lvl, LevelConfig) for lvl in hierarchy.levels)

    def test_roundtrip_through_dict(self):
        hierarchy = three_level()
        assert HierarchyConfig.from_dict(hierarchy.to_dict()) == hierarchy

    def test_helpers(self):
        hierarchy = three_level()
        assert hierarchy.level_names() == ["l1", "l2", "l3"]
        assert hierarchy.shared_level.name == "l3"
        assert [lvl.name for lvl in hierarchy.private_levels] == ["l1", "l2"]
        # The legacy prefetch_level spelling normalises into the attach
        # list (and the field itself is normalised away).
        assert hierarchy.attach == (PrefetcherAttach(level="l2"),)
        assert hierarchy.prefetch_level is None
        assert hierarchy.level_index("l2") == 1
        assert hierarchy.private_attaches == hierarchy.attach
        assert hierarchy.shared_attaches == ()

    def test_attach_spelling_equals_legacy_spelling(self):
        legacy = three_level(prefetch_level="l2")
        explicit = HierarchyConfig(attach=({"level": "l2"},),
                                   levels=legacy.levels)
        assert legacy == explicit
        assert hash(legacy) == hash(explicit)


class TestSystemConfigIntegration:
    def test_resolved_hierarchy_for_classic_shape(self):
        config = make_config()
        resolved = config.resolved_hierarchy()
        assert resolved.level_names() == ["l1", "l2"]
        assert resolved.shared_level.scope == "shared"
        assert resolved.shared_level.size_bytes == config.l2_slice_bytes
        assert resolved.attach == (PrefetcherAttach(level="l1"),)

    def test_resolved_hierarchy_passthrough(self):
        hierarchy = three_level()
        config = make_config(hierarchy=hierarchy)
        assert config.resolved_hierarchy() is hierarchy

    def test_serialisation_roundtrip(self):
        config = make_config(hierarchy=three_level())
        rebuilt = SystemConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.hierarchy == config.hierarchy

    def test_serialisation_roundtrip_without_hierarchy(self):
        config = make_config()
        rebuilt = SystemConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.hierarchy is None


class TestExtendedMemorySystem:
    def test_levels_constructed(self):
        system = MemorySystem(make_config(hierarchy=three_level()))
        assert len(system._private_caches) == 2
        assert len(system._private_caches[0]) == 4
        assert len(system._private_caches[1]) == 4
        assert system.l1 is system._private_caches[0]
        # Shared slices take the l2 attribute (the fetch path's home-tile
        # machinery); their geometry is the l3 LevelConfig's.
        assert system.l2[0].config.size_bytes == 32 * 1024

    def test_miss_walks_all_levels_and_hits_dram(self):
        system = MemorySystem(make_config(hierarchy=three_level()))
        _, l1_hit, *_ = access(system, 0, 0x10000, now=0)
        assert not l1_hit
        stats = system.stats.cores[0]
        assert stats.l2_misses == 1       # private L2
        assert stats.l3_misses == 1       # shared L3
        assert system.stats.traffic.dram_bytes > 0

    def test_l1_hit_after_fill(self):
        system = MemorySystem(make_config(hierarchy=three_level()))
        first, *_ = access(system, 0, 0x10000, now=0)
        second, l1_hit, *_ = access(system, 0, 0x10008, now=first + 1)
        assert l1_hit
        assert second == pytest.approx(1)

    def test_private_l2_hit_cheaper_than_l3(self):
        hierarchy = three_level()
        config = make_config(hierarchy=hierarchy)
        system = MemorySystem(config)
        access(system, 0, 0x20000, now=0)
        # Evict the line from the small L1 by covering every set with
        # conflicting lines; the larger private L2 keeps it.
        l1 = system.l1[0]
        stride = l1.num_sets * l1.line_size
        for way in range(1, l1.assoc + 2):
            access(system, 0, 0x20000 + way * stride, now=1000 + way)
        warm, l1_hit, l2_hit, *_ = access(system, 0, 0x20000, now=10_000)
        assert not l1_hit
        assert l2_hit
        # Latency: L1 probe + private L2 hit, no NoC round trip.
        assert warm == pytest.approx(1 + 4)
        assert system.stats.cores[0].l2_hits >= 1

    def test_shared_l3_hit_counted(self):
        system = MemorySystem(make_config(hierarchy=three_level()))
        cold, *_ = access(system, 0, 0x30000, now=0)
        # A different core misses privately but hits the shared L3.
        warm, l1_hit, l2_hit, *_ = access(system, 1, 0x30000, now=cold + 10)
        assert not l1_hit
        assert l2_hit          # satisfied on-chip
        assert system.stats.cores[1].l3_hits == 1
        assert warm < cold

    def test_prefetch_fills_attachment_level_only(self):
        system = MemorySystem(make_config(hierarchy=three_level()))
        completion = system.issue_prefetch(
            0, PrefetchRequest(addr=0x40000), now=0)
        assert completion > 0
        # The line sits in the private L2 (the attachment level), not L1.
        assert line_at(system._private_caches[1][0], 0x40000) is not None
        assert line_at(system.l1[0], 0x40000) is None
        _, l1_hit, _, covered, _ = access(system, 0, 0x40000,
                                          now=completion + 1)
        assert not l1_hit
        assert covered
        assert system.stats.cores[0].prefetches_useful == 1

    def test_duplicate_prefetch_not_recounted(self):
        system = MemorySystem(make_config(hierarchy=three_level()))
        system.issue_prefetch(0, PrefetchRequest(addr=0x50000), now=0)
        before = system.stats.cores[0].prefetches_issued
        system.issue_prefetch(0, PrefetchRequest(addr=0x50000), now=1)
        assert system.stats.cores[0].prefetches_issued == before

    def test_dirty_l1_eviction_writes_back_into_l2(self):
        system = MemorySystem(make_config(hierarchy=three_level()))
        access(system, 0, 0x0, now=0, write=True)
        l1 = system.l1[0]
        stride = l1.num_sets * l1.line_size
        noc_before = system.stats.traffic.noc_bytes
        for way in range(1, l1.assoc + 2):
            access(system, 0, way * stride, now=100 + way)
        # The dirty line moved into the private L2 locally: the write-back
        # itself must not have crossed the NoC (fills for the new lines
        # do).  The line must still be dirty somewhere private.
        l2_line = line_at(system._private_caches[1][0], 0x0)
        assert l2_line is not None and l2_line.dirty
        assert system.stats.traffic.noc_bytes >= noc_before

    def test_ideal_memory_short_circuits(self):
        system = MemorySystem(make_config(hierarchy=three_level(),
                                          ideal_memory=True))
        for index in range(20):
            latency, l1_hit, *_ = access(system, 0, 0x60000 + index * 64,
                                         now=index)
            assert l1_hit
            assert latency == 1
        assert system.stats.traffic.dram_bytes == 0


class TestInclusionAndCoherence:
    def test_outer_eviction_back_invalidates_inner_levels(self):
        """A line evicted from the outermost private level must leave the
        inner levels too: the directory stops tracking this core, so a
        surviving L1 copy would go stale under remote writes."""
        system = MemorySystem(make_config(hierarchy=three_level()))
        access(system, 0, 0x70000, now=0)
        l1 = system.l1[0]
        l2 = system._private_caches[1][0]
        stride = l2.num_sets * l2.line_size
        # Fill the L2 set with conflicting lines while keeping 0x70000 MRU
        # in the L1 (so only back-invalidation can remove it from there).
        for way in range(1, l2.assoc):
            access(system, 0, 0x70000 + way * stride, now=100 + way)
            access(system, 0, 0x70008, now=200 + way)
        assert line_at(l1, 0x70000) is not None
        access(system, 0, 0x70000 + l2.assoc * stride, now=1000)
        assert line_at(l2, 0x70000) is None
        assert line_at(l1, 0x70000) is None

    def test_four_level_chain_is_legal(self):
        """Chains deeper than three levels are supported: levels past the
        third account into CoreStats' dynamic lN_* counters."""
        hierarchy = HierarchyConfig(prefetch_level="l2", levels=(
            LevelConfig(name="l1", size_bytes=4096, associativity=4),
            LevelConfig(name="l2", size_bytes=8192, associativity=8,
                        hit_latency=2),
            LevelConfig(name="l3", size_bytes=8192, associativity=8,
                        hit_latency=4),
            LevelConfig(name="l4", size_bytes=16384, associativity=8,
                        scope="shared", hit_latency=8),))
        system = MemorySystem(make_config(hierarchy=hierarchy))
        _, l1_hit, *_ = access(system, 0, 0x90000, now=0)
        assert not l1_hit
        stats = system.stats.cores[0]
        assert stats.l2_misses == 1              # private L2
        assert stats.l3_misses == 1              # private L3
        assert stats.level_misses(4) == 1        # shared L4 (dynamic key)
        assert stats.extra_levels == {"l4_misses": 1}
        # A second core's fetch finds the line in the shared L4.
        access(system, 1, 0x90000, now=10_000)
        assert system.stats.cores[1].level_hits(4) == 1

    def test_l1_attached_prefetch_fills_outer_levels_too(self):
        """With the prefetcher at L1 in a 3-level chain, prefetches must
        install in the private L2 as well (inclusion): a line resident
        only in L1 would escape the directory's outermost-level
        bookkeeping on eviction."""
        system = MemorySystem(make_config(
            hierarchy=three_level(prefetch_level="l1")))
        completion = system.issue_prefetch(
            0, PrefetchRequest(addr=0x80000), now=0)
        assert completion > 0
        assert line_at(system.l1[0], 0x80000) is not None
        assert line_at(system._private_caches[1][0], 0x80000) is not None
