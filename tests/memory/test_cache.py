"""Unit tests for the set-associative cache model (repro.memory.cache)."""

import pytest

from cache_lines import line_at

from repro.memory.cache import FLAG_DIRTY, Cache, full_mask
from repro.sim.config import CacheConfig


def make_cache(size=1024, assoc=2, line=64, sector=0) -> Cache:
    return Cache(CacheConfig(size_bytes=size, associativity=assoc,
                             line_size=line, sector_size=sector))


class TestGeometry:
    def test_num_sets(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        assert cache.num_sets == 8
        assert cache.capacity_lines == 16

    @pytest.mark.parametrize("geometry", [
        dict(size_bytes=1000, associativity=3, line_size=64),
        dict(size_bytes=1024, associativity=0, line_size=64),
        dict(size_bytes=1024, associativity=2, line_size=0),
        dict(size_bytes=0, associativity=2, line_size=64),
        dict(size_bytes=-8192, associativity=4, line_size=64),
        dict(size_bytes=1024, associativity=2, line_size=64, sector_size=-8),
    ], ids=["indivisible", "associativity-0", "line-size-0", "size-0",
            "size-negative", "sector-negative"])
    def test_invalid_geometry_rejected(self, geometry):
        with pytest.raises(ValueError):
            CacheConfig(**geometry)

    def test_line_addr_and_tag(self):
        cache = make_cache()
        assert cache.line_addr(0x12345) == 0x12340
        assert cache.set_index(0x12340) == (0x12340 // 64) % cache.num_sets


class TestBasicAccess:
    def test_miss_then_fill_then_hit(self):
        cache = make_cache()
        assert cache.access_fast(0x1000, 8, False, now=0) is None
        cache.fill_fast(0x1000, now=1, ready_time=10)
        hit = cache.access_fast(0x1008, 8, False, now=2)   # same line
        assert hit is not None
        ready_time, _ = hit
        assert ready_time == 10

    def test_write_sets_dirty(self):
        cache = make_cache()
        cache.fill_fast(0x1000, now=0, ready_time=0)
        cache.access_fast(0x1000, 8, True, now=1)
        assert line_at(cache, 0x1000).dirty

    def test_different_lines_do_not_alias(self):
        cache = make_cache()
        cache.fill_fast(0x1000, now=0, ready_time=0)
        assert cache.access_fast(0x2000, 8, False, now=1) is None

    def test_statistics_counted(self):
        cache = make_cache()
        cache.access_fast(0x1000, 8, False, now=0)
        cache.fill_fast(0x1000, now=0, ready_time=0)
        cache.access_fast(0x1000, 8, False, now=1)
        assert cache.accesses == 2
        assert cache.misses == 1
        assert cache.hits == 1


class TestReplacement:
    def test_lru_eviction_within_set(self):
        cache = make_cache(size=256, assoc=2, line=64)   # 2 sets
        set_stride = cache.num_sets * 64
        a, b, c = 0x0, set_stride, 2 * set_stride        # all map to set 0
        cache.fill_fast(a, now=0, ready_time=0)
        cache.fill_fast(b, now=1, ready_time=1)
        cache.access_fast(a, 8, False, now=2)            # a is now MRU
        assert cache.fill_fast(c, now=3, ready_time=3)   # evicts
        assert cache.victim_addr == b                    # LRU victim
        assert line_at(cache, a) is not None
        assert line_at(cache, b) is None

    def test_occupancy_never_exceeds_capacity(self):
        cache = make_cache(size=512, assoc=2, line=64)
        for i in range(100):
            cache.fill_fast(i * 64, now=i, ready_time=i)
        assert cache.occupancy() <= cache.capacity_lines

    def test_unused_prefetch_eviction_counted(self):
        cache = make_cache(size=128, assoc=1, line=64)   # 2 sets, direct mapped
        cache.fill_fast(0x0, now=0, ready_time=0, is_prefetch=True)
        cache.fill_fast(0x80, now=1, ready_time=1)       # evicts the prefetch
        assert cache.unused_prefetch_evictions == 1

    def test_invalidate_removes_line(self):
        cache = make_cache()
        cache.fill_fast(0x1000, now=0, ready_time=0, is_write=True)
        flags = cache.invalidate_fast(0x1000)
        assert flags is not None
        assert flags & FLAG_DIRTY
        assert line_at(cache, 0x1000) is None
        assert cache.invalidate_fast(0x1000) is None


class TestPrefetchTracking:
    def test_first_demand_touch_of_prefetched_line_flagged(self):
        cache = make_cache()
        cache.fill_fast(0x1000, now=0, ready_time=5, is_prefetch=True)
        _, first = cache.access_fast(0x1000, 8, False, now=1)
        _, second = cache.access_fast(0x1000, 8, False, now=2)
        assert first
        assert not second

    def test_demand_fill_not_flagged_as_prefetch(self):
        cache = make_cache()
        cache.fill_fast(0x1000, now=0, ready_time=0, is_prefetch=False)
        _, was_prefetched = cache.access_fast(0x1000, 8, False, now=1)
        assert not was_prefetched


class TestSectorCache:
    def test_sector_mask_computation(self):
        cache = make_cache(sector=8)
        assert cache.sector_mask(0x1000, 8) == 0b1
        assert cache.sector_mask(0x1008, 8) == 0b10
        assert cache.sector_mask(0x1000, 64) == full_mask(8)
        assert cache.sector_mask(0x1006, 8) == 0b11    # spans two sectors

    def test_partial_fill_then_sector_miss(self):
        cache = make_cache(sector=8)
        cache.fill_fast(0x1000, now=0, ready_time=0, sectors=0b1)
        assert cache.access_fast(0x1000, 8, False, now=1) is not None
        # Sector 4 is not present: a miss on a resident line.
        assert cache.access_fast(0x1020, 8, False, now=2) is None
        assert line_at(cache, 0x1020) is not None
        assert cache.sector_misses == 1

    def test_sector_fill_extends_existing_line(self):
        cache = make_cache(sector=8)
        cache.fill_fast(0x1000, now=0, ready_time=0, sectors=0b1)
        cache.fill_fast(0x1020, now=1, ready_time=1, sectors=0b10000)
        assert line_at(cache, 0x1000).sector_valid == 0b10001
        assert cache.access_fast(0x1020, 8, False, now=2) is not None

    def test_non_sectored_cache_has_single_sector(self):
        cache = make_cache(sector=0)
        assert cache.sectors_per_line == 1
        assert cache.sector_mask(0x1000, 8) == 0b1
