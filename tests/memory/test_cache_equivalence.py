"""Equivalence tests: flat-column cache vs the object-per-line reference.

The flat-array rewrite of :class:`repro.memory.cache.Cache` must be a pure
representation change.  ``ReferenceCache`` below re-implements the
pre-rewrite semantics — one ``{tag: line}`` dict per set, true-LRU
victim selection via ``min(..., key=last_use)`` over the dict's insertion
order — and randomized access/fill/invalidate streams drive both
implementations in lockstep, asserting bit-identical outcomes: hit/miss
results, LRU victim order, sector-mask fills, dirty write-back state,
statistics counters and resident-line state (read from the flat columns
through the ``cache_lines`` test helper).
"""

import random

import pytest

from cache_lines import line_at, resident_lines

from repro.memory.cache import FLAG_DIRTY, Cache
from repro.sim.config import CacheConfig


class _RefLine:
    __slots__ = ("tag", "addr", "dirty", "ready_time", "last_use",
                 "from_prefetch", "prefetch_referenced", "sector_valid")

    def __init__(self, tag, addr, ready_time, last_use, from_prefetch,
                 sector_valid):
        self.tag = tag
        self.addr = addr
        self.dirty = False
        self.ready_time = ready_time
        self.last_use = last_use
        self.from_prefetch = from_prefetch
        self.prefetch_referenced = False
        self.sector_valid = sector_valid


class ReferenceCache:
    """The pre-flat-column cache model (dict of line objects per set)."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.line_size = config.line_size
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        self.sector_size = config.sector_size
        self.sectors_per_line = config.sectors_per_line
        self._sets = [dict() for _ in range(self.num_sets)]
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.sector_misses = 0
        self.evictions = 0
        self.prefetch_fills = 0
        self.unused_prefetch_evictions = 0

    # -- address helpers (division forms: work for any geometry) --------
    def line_addr(self, addr):
        return addr - (addr % self.line_size)

    def set_index(self, addr):
        return (addr // self.line_size) % self.num_sets

    def tag_of(self, addr):
        return addr // (self.line_size * self.num_sets)

    def sector_mask(self, addr, size):
        if not self.sector_size:
            return 1
        offset = addr % self.line_size
        first = offset // self.sector_size
        last = min(self.line_size - 1,
                   offset + max(1, size) - 1) // self.sector_size
        return ((1 << (last - first + 1)) - 1) << first

    def _full_mask(self):
        return (1 << self.sectors_per_line) - 1

    # -- operations -----------------------------------------------------
    def access_fast(self, addr, size, is_write, now):
        self.accesses += 1
        line = self._sets[self.set_index(addr)].get(self.tag_of(addr))
        if line is None:
            self.misses += 1
            return None
        if self.sector_size:
            mask = self.sector_mask(addr, size)
            if (line.sector_valid & mask) != mask:
                self.sector_misses += 1
                self.misses += 1
                return None
        self.hits += 1
        line.last_use = now
        if is_write:
            line.dirty = True
        if line.from_prefetch:
            was_prefetched = not line.prefetch_referenced
            line.prefetch_referenced = True
            return line.ready_time, was_prefetched
        return line.ready_time, False

    def fill_fast(self, addr, now, ready_time, is_prefetch=False,
                  is_write=False, sectors=None):
        cache_set = self._sets[self.set_index(addr)]
        tag = self.tag_of(addr)
        if sectors is None:
            sectors = self._full_mask()
        line = cache_set.get(tag)
        evicted = None
        if line is None:
            if len(cache_set) >= self.assoc:
                victim_tag = min(cache_set,
                                 key=lambda t: cache_set[t].last_use)
                evicted = cache_set.pop(victim_tag)
                self.evictions += 1
                if evicted.from_prefetch and not evicted.prefetch_referenced:
                    self.unused_prefetch_evictions += 1
            line = _RefLine(tag, self.line_addr(addr), ready_time, now,
                            is_prefetch, sectors)
            cache_set[tag] = line
            if is_prefetch:
                self.prefetch_fills += 1
        else:
            line.sector_valid |= sectors
            line.ready_time = max(line.ready_time, ready_time)
            line.last_use = now
        if is_write:
            line.dirty = True
        if not is_prefetch:
            line.prefetch_referenced = True
        return evicted

    def invalidate(self, addr):
        return self._sets[self.set_index(addr)].pop(self.tag_of(addr), None)

    def resident_lines(self):
        return [line for cache_set in self._sets
                for line in cache_set.values()]

    def occupancy(self):
        return sum(len(cache_set) for cache_set in self._sets)


def _state_of(cache):
    """Canonical (sorted) full-state snapshot of either implementation."""
    lines = []
    for line in (cache.resident_lines() if isinstance(cache, ReferenceCache)
                 else resident_lines(cache)):
        lines.append((line.addr, bool(line.dirty), line.ready_time,
                      line.last_use, bool(line.from_prefetch),
                      bool(line.prefetch_referenced), line.sector_valid))
    return sorted(lines)


def _counters_of(cache):
    return (cache.accesses, cache.hits, cache.misses, cache.sector_misses,
            cache.evictions, cache.prefetch_fills,
            cache.unused_prefetch_evictions)


def _drive(config: CacheConfig, seed: int, steps: int = 2500,
           addr_space_lines: int = 96):
    """Drive both implementations through one randomized stream in
    lockstep, asserting equivalent outcomes at every step.

    The mix mirrors the hierarchy's usage: demand accesses whose misses
    fill (demand fills), standalone prefetch fills (sometimes partial
    sector masks), and occasional invalidations.  The address space is a
    small multiple of the capacity so conflict evictions are constant.
    """
    rng = random.Random(seed)
    flat = Cache(config)
    reference = ReferenceCache(config)
    line_size = config.line_size
    now = 0.0
    for step in range(steps):
        # Fractional times exercise float LRU stamps; repeated identical
        # stamps (every ~7th step keeps `now` unchanged) exercise the
        # insertion-order tie-break.
        if step % 7:
            now += rng.choice((0.5, 1.0, 1.0, 2.25))
        addr = (rng.randrange(addr_space_lines) * line_size
                + rng.randrange(line_size))
        op = rng.random()
        if op < 0.55:
            size = rng.choice((1, 4, 8, 16, 64))
            is_write = rng.random() < 0.3
            got = flat.access_fast(addr, size, is_write, now)
            want = reference.access_fast(addr, size, is_write, now)
            assert got == want, f"step {step}: access {got} != {want}"
            if got is None:
                ready = now + rng.choice((1.0, 12.0, 40.0))
                evicted_flat = flat.fill_fast(addr, now, ready, False,
                                              is_write)
                evicted_ref = reference.fill_fast(addr, now, ready, False,
                                                  is_write)
                _check_eviction(flat, evicted_flat, evicted_ref, step)
        elif op < 0.85:
            ready = now + rng.choice((4.0, 25.0))
            sectors = None
            if config.sector_size and rng.random() < 0.6:
                sectors = flat.sector_mask(addr, rng.choice((1, 8, 16)))
            evicted_flat = flat.fill_fast(addr, now, ready, True, False,
                                          sectors)
            evicted_ref = reference.fill_fast(addr, now, ready, True,
                                              False, sectors)
            _check_eviction(flat, evicted_flat, evicted_ref, step)
        else:
            line = line_at(flat, addr)
            got = flat.invalidate_fast(addr)
            want = reference.invalidate(addr)
            assert (got is None) == (want is None), f"step {step}"
            if got is not None:
                assert line.addr == want.addr
                assert bool(got & FLAG_DIRTY) == bool(want.dirty)
                assert line.sector_valid == want.sector_valid
                assert line_at(flat, addr) is None
        if step % 97 == 0:
            assert _state_of(flat) == _state_of(reference), f"step {step}"
    assert _state_of(flat) == _state_of(reference)
    assert _counters_of(flat) == _counters_of(reference)
    assert flat.occupancy() == reference.occupancy()


def _check_eviction(flat, evicted_flat, evicted_ref, step):
    """The flat cache reports victims via scalar scratch fields; compare
    them to the reference's victim object."""
    assert bool(evicted_flat) == (evicted_ref is not None), f"step {step}"
    if evicted_ref is not None:
        assert flat.victim_addr == evicted_ref.addr, f"step {step}"
        assert bool(flat.victim_dirty) == bool(evicted_ref.dirty), \
            f"step {step}"


GEOMETRIES = [
    pytest.param(CacheConfig(size_bytes=4096, associativity=4,
                             line_size=64), id="4way-nonsectored"),
    pytest.param(CacheConfig(size_bytes=4096, associativity=8,
                             line_size=64), id="8way-nonsectored"),
    pytest.param(CacheConfig(size_bytes=2048, associativity=2, line_size=64,
                             sector_size=8), id="2way-sectored"),
    pytest.param(CacheConfig(size_bytes=1536, associativity=3,
                             line_size=64), id="3way-odd-geometry"),
    pytest.param(CacheConfig(size_bytes=512, associativity=1, line_size=64,
                             sector_size=16), id="direct-mapped-sectored"),
]


@pytest.mark.parametrize("config", GEOMETRIES)
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_randomized_stream_equivalence(config, seed):
    _drive(config, seed)


def test_lru_victim_order_matches_reference():
    """Deterministic check of the (last_use, insertion-order) tie-break:
    lines filled at identical times must evict in fill order."""
    config = CacheConfig(size_bytes=512, associativity=4, line_size=64)
    flat, reference = Cache(config), ReferenceCache(config)
    stride = config.num_sets * 64
    # Four fills into set 0, all at now=0 (tied LRU stamps).
    for way in range(4):
        flat.fill_fast(way * stride, 0.0, 0.0, False, False)
        reference.fill_fast(way * stride, 0.0, 0.0, False, False)
    # Touch way 0 later so it is MRU; the tie among ways 1..3 must break
    # by insertion order in both implementations.
    flat.access_fast(0, 8, False, 1.0)
    reference.access_fast(0, 8, False, 1.0)
    for fill in range(4, 7):
        assert flat.fill_fast(fill * stride, 1.0, 1.0, False, False)
        evicted = reference.fill_fast(fill * stride, 1.0, 1.0, False, False)
        assert flat.victim_addr == evicted.addr == (fill - 3) * stride
        assert _state_of(flat) == _state_of(reference)
    # All stamps tied at 1.0 again: the next victim is the earliest
    # insertion, the line at address 0.
    assert flat.fill_fast(7 * stride, 1.0, 1.0, False, False)
    evicted = reference.fill_fast(7 * stride, 1.0, 1.0, False, False)
    assert flat.victim_addr == evicted.addr == 0
    assert _state_of(flat) == _state_of(reference)


def test_resident_lines_and_invalidate_api_parity():
    config = CacheConfig(size_bytes=1024, associativity=2, line_size=64,
                         sector_size=8)
    flat, reference = Cache(config), ReferenceCache(config)
    rng = random.Random(5)
    for step in range(300):
        addr = rng.randrange(64) * 64
        flat.fill_fast(addr, float(step), float(step), step % 3 == 0,
                       step % 5 == 0,
                       flat.sector_mask(addr, 8) if step % 2 else None)
        reference.fill_fast(addr, float(step), float(step), step % 3 == 0,
                            step % 5 == 0,
                            reference.sector_mask(addr, 8) if step % 2
                            else None)
    assert _state_of(flat) == _state_of(reference)
    for addr in range(0, 64 * 64, 64):
        got = flat.invalidate_fast(addr)
        want = reference.invalidate(addr)
        assert (got is None) == (want is None)
        if got is not None:
            assert bool(got & FLAG_DIRTY) == want.dirty
    assert flat.occupancy() == reference.occupancy() == 0
    assert resident_lines(flat) == []
