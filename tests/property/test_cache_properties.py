"""Property-based tests for the cache model invariants."""

from hypothesis import given, settings, strategies as st

from cache_lines import resident_lines

from repro.memory.cache import Cache
from repro.sim.config import CacheConfig


def make_cache(sector=0) -> Cache:
    return Cache(CacheConfig(size_bytes=1024, associativity=2, line_size=64,
                             sector_size=sector))


addresses = st.integers(min_value=0, max_value=0xF_FFFF)
address_lists = st.lists(addresses, min_size=1, max_size=200)


@given(addrs=address_lists)
@settings(max_examples=60)
def test_occupancy_never_exceeds_capacity(addrs):
    cache = make_cache()
    for now, addr in enumerate(addrs):
        if cache.access_fast(addr, 8, False, now) is None:
            cache.fill_fast(addr, now, now)
    assert cache.occupancy() <= cache.capacity_lines


@given(addrs=address_lists)
@settings(max_examples=60)
def test_access_immediately_after_fill_hits(addrs):
    cache = make_cache()
    for now, addr in enumerate(addrs):
        cache.fill_fast(addr, now, now)
        assert cache.access_fast(addr, 1, False, now) is not None


@given(addrs=address_lists)
@settings(max_examples=60)
def test_hits_plus_misses_equals_accesses(addrs):
    cache = make_cache()
    for now, addr in enumerate(addrs):
        if cache.access_fast(addr, 8, False, now) is None:
            cache.fill_fast(addr, now, now)
    assert cache.hits + cache.misses == cache.accesses


@given(addrs=address_lists)
@settings(max_examples=60)
def test_resident_lines_have_distinct_line_addresses(addrs):
    cache = make_cache()
    for now, addr in enumerate(addrs):
        cache.fill_fast(addr, now, now)
    lines = [line.addr for line in resident_lines(cache)]
    assert len(lines) == len(set(lines))


@given(addrs=address_lists, sizes=st.lists(st.integers(1, 64), min_size=1,
                                           max_size=200))
@settings(max_examples=60)
def test_sector_masks_within_line_bounds(addrs, sizes):
    cache = make_cache(sector=8)
    for addr, size in zip(addrs, sizes):
        mask = cache.sector_mask(addr, size)
        assert 0 < mask < (1 << cache.sectors_per_line) or mask == (
            (1 << cache.sectors_per_line) - 1)
        assert mask.bit_length() <= cache.sectors_per_line
