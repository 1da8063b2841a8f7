"""Set-associative cache model with optional sector support.

The cache stores tags and per-line metadata only (the simulator reads data
values through :class:`repro.mem_image.MemoryImage`).  Lines track:

* LRU position (true LRU within a set),
* dirty bit,
* ``ready_time`` — the cycle at which an in-flight fill completes, so that a
  demand access hitting a line that a prefetch is still bringing in pays the
  remaining latency (a *late prefetch*, Section 6.1.1),
* whether the line was brought in by a prefetch and whether it has been
  referenced since (for prefetch accuracy accounting),
* a valid-bit mask over sectors when the cache is sectored (Section 4.1).

The cache sits on the hot path of every simulated memory reference, so
its storage is **flat preallocated columns**, not objects: one slot per
(set, way) in parallel columns holding tag, line address, ready time, LRU
stamp, insertion sequence number, packed status flags and the sector
valid mask.  A per-set ``{tag: way}`` dict provides the O(1) probe; misses,
fills and evictions move integers and floats between the columns and
allocate nothing.  (The columns are plain Python lists rather than
``array('q')``/``array('d')`` buffers: ``array`` re-boxes a fresh
int/float object on *every* subscript read, which measures ~40% slower on
the miss-heavy fill/evict loop this layout exists for.)

The API is scalar throughout: :meth:`Cache.access_fast` /
:meth:`Cache.access_hit` for demand lookups, :meth:`Cache.fill_fast` for
fills and :meth:`Cache.invalidate_fast` for invalidations.  Eviction
victims are exposed as the ``victim_addr`` / ``victim_dirty`` scalar
scratch fields, valid until the next fill into the same cache.  No
per-line object exists; whoever needs a line's state reads the columns
at the slot :meth:`Cache._way_of` returns.

Victim selection is true LRU with the insertion-order tie-break of the
previous dict-of-line-objects representation: the per-line ``seq``
column carries a monotonically increasing fill sequence number, and the
victim is the minimum of ``(last_use, seq)`` — bit-identical to
``min(cache_set, key=last_use)`` over an insertion-ordered dict.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.config import CacheConfig

#: Packed per-line status flags (the ``_flags`` column).
FLAG_DIRTY = 1
FLAG_FROM_PREFETCH = 2
FLAG_PREFETCH_REFERENCED = 4


def full_mask(num_sectors: int) -> int:
    """Bit mask with ``num_sectors`` low bits set."""
    return (1 << num_sectors) - 1


def _shift_of(value: int) -> Optional[int]:
    """log2 of ``value`` when it is a power of two, else None."""
    if value > 0 and (value & (value - 1)) == 0:
        return value.bit_length() - 1
    return None


class Cache:
    """A single level of cache (one L1, or one slice of the shared L2)."""

    __slots__ = ("config", "line_size", "num_sets", "assoc", "sector_size",
                 "sectors_per_line", "_index", "_free", "_tags", "_addrs",
                 "_ready", "_last_use", "_seq", "_flags", "_sector_valid",
                 "_fill_seq", "_full_sectors",
                 "_line_shift", "_set_shift", "_offset_mask", "_set_mask",
                 "_tag_shift", "_sector_mask_cache", "accesses", "hits",
                 "misses", "sector_misses", "evictions", "prefetch_fills",
                 "unused_prefetch_evictions", "victim_addr", "victim_dirty")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.line_size = config.line_size
        self.num_sets = config.num_sets
        self.assoc = config.associativity
        self.sector_size = config.sector_size
        self.sectors_per_line = config.sectors_per_line
        slots = self.num_sets * self.assoc
        # Flat per-(set, way) columns; slot s*assoc+w belongs to set s.
        self._tags: List[int] = [-1] * slots
        self._addrs: List[int] = [0] * slots
        self._ready: List[float] = [0.0] * slots
        self._last_use: List[float] = [0.0] * slots
        self._seq: List[int] = [0] * slots
        self._flags: List[int] = [0] * slots
        self._sector_valid: List[int] = [0] * slots
        # O(1) probe index: one {tag: way} dict per set.  Slots not in the
        # index are free and listed (in reverse so pop() hands them out in
        # way order) in the per-set free list.
        self._index: List[Dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._free: List[List[int]] = [
            list(range((s + 1) * self.assoc - 1, s * self.assoc - 1, -1))
            for s in range(self.num_sets)]
        #: Monotonic fill counter: the LRU tie-break (insertion order).
        self._fill_seq = 0
        self._full_sectors = full_mask(self.sectors_per_line)
        # Scratch fields describing the victim of the most recent evicting
        # fill (valid until the next fill into this cache).
        self.victim_addr = 0
        self.victim_dirty = 0
        # Shift/mask addressing for power-of-two geometries (the normal
        # case); division/modulo fallbacks keep odd geometries working.
        self._line_shift = _shift_of(self.line_size)
        self._set_shift = _shift_of(self.num_sets)
        if self._line_shift is not None:
            self._offset_mask = self.line_size - 1
        else:
            self._offset_mask = None
        if self._line_shift is not None and self._set_shift is not None:
            self._set_mask = self.num_sets - 1
            self._tag_shift = self._line_shift + self._set_shift
        else:
            self._set_mask = None
            self._tag_shift = None
        # Sector masks for every (line offset, access size) pair seen so far.
        # The per-access loop over sectors this replaces showed up in every
        # profile of partial-cacheline runs.
        self._sector_mask_cache: Dict[int, int] = {}
        # Statistics owned by the cache itself.
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.sector_misses = 0
        self.evictions = 0
        self.prefetch_fills = 0
        self.unused_prefetch_evictions = 0

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_addr(self, addr: int) -> int:
        """Base address of the line containing ``addr``."""
        if self._line_shift is not None:
            return addr & ~self._offset_mask
        return addr - (addr % self.line_size)

    def set_index(self, addr: int) -> int:
        if self._tag_shift is not None:
            return (addr >> self._line_shift) & self._set_mask
        return (addr // self.line_size) % self.num_sets

    def tag_of(self, addr: int) -> int:
        if self._tag_shift is not None:
            return addr >> self._tag_shift
        return addr // (self.line_size * self.num_sets)

    def sector_mask(self, addr: int, size: int) -> int:
        """Mask of sectors covered by an access of ``size`` bytes at ``addr``."""
        if not self.sector_size:
            return 1
        offset = (addr & self._offset_mask if self._line_shift is not None
                  else addr % self.line_size)
        key = (offset << 16) | min(size, 0xFFFF)
        mask = self._sector_mask_cache.get(key)
        if mask is None:
            first = offset // self.sector_size
            last = min(self.line_size - 1,
                       offset + max(1, size) - 1) // self.sector_size
            mask = (full_mask(last - first + 1)) << first
            self._sector_mask_cache[key] = mask
        return mask

    # ------------------------------------------------------------------
    # Lookup / access
    # ------------------------------------------------------------------
    def _way_of(self, addr: int) -> Optional[int]:
        """Slot of the resident line containing ``addr``, or None."""
        if self._tag_shift is not None:
            return self._index[(addr >> self._line_shift)
                               & self._set_mask].get(addr >> self._tag_shift)
        return self._index[self.set_index(addr)].get(self.tag_of(addr))

    def access_fast(self, addr: int, size: int, is_write: bool, now: float):
        """Demand access: ``(ready_time, was_prefetched)`` on a hit, ``None``
        on a miss (including a sector miss: the line is present but a
        requested sector is not).

        A hit updates LRU, dirty and touch state.  A miss leaves the lines
        unmodified; the caller calls :meth:`fill_fast` once the data has
        been fetched.  ``was_prefetched`` is True on the first demand hit
        of a prefetch-installed line."""
        self.accesses += 1
        if self._tag_shift is not None:
            way = self._index[(addr >> self._line_shift)
                              & self._set_mask].get(addr >> self._tag_shift)
        else:
            way = self._index[self.set_index(addr)].get(self.tag_of(addr))
        if way is None:
            self.misses += 1
            return None
        if self.sector_size:
            mask = self.sector_mask(addr, size)
            if (self._sector_valid[way] & mask) != mask:
                # Line present but the requested sector(s) are not.
                self.sector_misses += 1
                self.misses += 1
                return None
        self.hits += 1
        self._last_use[way] = now
        flags = self._flags[way]
        if is_write:
            flags |= FLAG_DIRTY
        if flags & FLAG_FROM_PREFETCH:
            was_prefetched = not flags & FLAG_PREFETCH_REFERENCED
            self._flags[way] = flags | FLAG_PREFETCH_REFERENCED
            return self._ready[way], was_prefetched
        self._flags[way] = flags
        return self._ready[way], False

    def access_hit(self, addr: int, size: int, is_write: bool,
                   now: float) -> bool:
        """:meth:`access_fast` for callers that only need the hit/miss
        outcome (the shared-level lookup): same state transitions and
        counters, no ``(ready_time, was_prefetched)`` tuple built."""
        self.accesses += 1
        if self._tag_shift is not None:
            way = self._index[(addr >> self._line_shift)
                              & self._set_mask].get(addr >> self._tag_shift)
        else:
            way = self._index[self.set_index(addr)].get(self.tag_of(addr))
        if way is None:
            self.misses += 1
            return False
        if self.sector_size:
            mask = self.sector_mask(addr, size)
            if (self._sector_valid[way] & mask) != mask:
                self.sector_misses += 1
                self.misses += 1
                return False
        self.hits += 1
        self._last_use[way] = now
        flags = self._flags[way]
        if is_write:
            flags |= FLAG_DIRTY
        if flags & FLAG_FROM_PREFETCH:
            self._flags[way] = flags | FLAG_PREFETCH_REFERENCED
        else:
            self._flags[way] = flags
        return True

    # ------------------------------------------------------------------
    # Fill / eviction
    # ------------------------------------------------------------------
    def fill_fast(self, addr: int, now: float, ready_time: float,
                  is_prefetch: bool = False, is_write: bool = False,
                  sectors: Optional[int] = None) -> bool:
        """Install (or extend) the line containing ``addr``.

        ``sectors`` is the mask of sectors being brought in; ``None`` means
        the full line.  Returns True when a line was evicted, in which case
        ``victim_addr`` / ``victim_dirty`` describe the victim (valid until
        the next fill; the caller charges write-back traffic for dirty
        victims).  Allocates nothing.

        The victim of a full set is its true-LRU line: the minimum
        ``(last_use, seq)``, where the ``seq`` tie-break reproduces the
        insertion-order iteration of the previous dict-of-lines
        representation."""
        if self._tag_shift is not None:
            set_i = (addr >> self._line_shift) & self._set_mask
            tag = addr >> self._tag_shift
        else:
            set_i = self.set_index(addr)
            tag = self.tag_of(addr)
        index = self._index[set_i]
        way = index.get(tag)
        if way is not None:
            # Sector fill into an already-resident line.
            if sectors is None:
                sectors = self._full_sectors
            self._sector_valid[way] |= sectors
            if ready_time > self._ready[way]:
                self._ready[way] = ready_time
            self._last_use[way] = now
            flags = self._flags[way]
            if is_write:
                flags |= FLAG_DIRTY
            if not is_prefetch:
                flags |= FLAG_PREFETCH_REFERENCED
            self._flags[way] = flags
            return False
        flag_col = self._flags
        last_use = self._last_use
        free = self._free[set_i]
        evicted = False
        if free:
            way = free.pop()
        else:
            # LRU victim scan (per steady-state miss).
            seq_col = self._seq
            base = set_i * self.assoc
            way = base
            best = last_use[base]
            best_seq = seq_col[base]
            for slot in range(base + 1, base + self.assoc):
                stamp = last_use[slot]
                if stamp < best or (stamp == best and seq_col[slot] < best_seq):
                    best = stamp
                    best_seq = seq_col[slot]
                    way = slot
            flags = flag_col[way]
            self.evictions += 1
            if flags & FLAG_FROM_PREFETCH \
                    and not flags & FLAG_PREFETCH_REFERENCED:
                self.unused_prefetch_evictions += 1
            self.victim_addr = self._addrs[way]
            self.victim_dirty = flags & FLAG_DIRTY
            del index[self._tags[way]]
            evicted = True
        self._fill_seq = seq = self._fill_seq + 1
        self._tags[way] = tag
        if self._line_shift is not None:
            self._addrs[way] = addr & ~self._offset_mask
        else:
            self._addrs[way] = addr - (addr % self.line_size)
        self._ready[way] = ready_time
        last_use[way] = now
        self._seq[way] = seq
        flags = 0
        if is_write:
            flags = FLAG_DIRTY
        if is_prefetch:
            flags |= FLAG_FROM_PREFETCH
            self.prefetch_fills += 1
        else:
            flags |= FLAG_PREFETCH_REFERENCED
        flag_col[way] = flags
        self._sector_valid[way] = (self._full_sectors if sectors is None
                                   else sectors)
        index[tag] = way
        return evicted

    def invalidate_fast(self, addr: int) -> Optional[int]:
        """Invalidate the line containing ``addr``: returns its flags (test
        ``FLAG_DIRTY`` for write-back) or None when it was absent."""
        way = self._way_of(addr)
        if way is None:
            return None
        flags = self._flags[way]
        set_i = self.set_index(addr)
        del self._index[set_i][self._tags[way]]
        self._free[set_i].append(way)
        return flags

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(index) for index in self._index)

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.assoc
