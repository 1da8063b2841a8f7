"""The full memory system: per-core private caches, distributed shared last
level, directory coherence, mesh NoC and DRAM, plus attached prefetchers.

This is the component the cores talk to.  For every demand reference it
returns the access latency, performing along the way all the side effects a
real hierarchy would have: cache fills and evictions, directory updates,
NoC messages (with contention) and DRAM requests (with bandwidth limits).
Prefetch requests walk the same path but do not stall the core.

Idealised configurations of Section 5.4 are supported directly:

* ``ideal_memory`` — every access costs one L1 hit and moves no traffic,
* ``perfect_prefetch`` — every miss behaves as if a magic prefetcher issued
  the fill ``perfect_prefetch_lead`` cycles earlier; latency is hidden unless
  the NoC/DRAM are so congested that even that lead time is not enough,
  which is exactly what makes *PerfPref* fall behind *Ideal* at high core
  counts in the paper (Section 2.2).

The hierarchy *shape* is ``config.resolved_hierarchy()`` (a
:class:`~repro.sim.config.HierarchyConfig`): a chain of private per-core
levels (arbitrarily deep; levels past the third account into dynamic
``lN_*`` counters) under one shared, distributed last level, with zero or
more prefetchers attachable per level (``HierarchyConfig.attach``).  The
default ``hierarchy=None`` resolves to the paper's Table 1 shape — private
L1s under a shared L2, the mode's prefetcher attached at the L1 — and is
simulated by the same walk as every explicit chain.

A private-level attachment is per-core and observes the access stream
reaching its level; a shared-level attachment is per-slice — each slice of
the distributed last level carries its own prefetcher instance observing
the demand fetches that arrive at that slice, and its prefetches fill the
slice from DRAM (their NoC/DRAM traffic and slice capacity are their
cost; they complete after the demand they trained on, so they never
shorten that demand's latency).  Attachment points may name a registered
prefetcher explicitly (hybrid stream@L1 + IMP@L2) or inherit the
experiment mode's choice.

Hot-path notes: cores call :meth:`MemorySystem.access_fast` with plain
scalars read from the trace columns (no object is built per dynamic
reference); the in-order core serves plain L1 hits itself (see
:class:`repro.sim.core_model.InOrderCore`), so ``access_fast`` mostly sees
L1 misses.  One :class:`AccessContext` per memory system is reused across
prefetcher notifications, and attachments whose prefetcher can never issue
anything (the ``NullPrefetcher`` baseline) skip the notification
machinery entirely.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.mem_image import MemoryImage
from repro.memory.cache import Cache, full_mask
from repro.memory.coherence import Directory
from repro.memory.dram import make_dram
from repro.noc.mesh import MeshNoC
from repro.prefetchers.base import AccessContext, PrefetcherBase, PrefetchRequest
from repro.prefetchers.factory import make_prefetcher_factory
from repro.prefetchers.null import NullPrefetcher
from repro.sim.config import SystemConfig
from repro.sim.stats import CoreStats, SystemStats, TrafficStats


#: Size in bytes of a coherence/request header message on the NoC.
CONTROL_MESSAGE_BYTES = 8


class _Attach:
    """One resolved prefetcher attachment: a bank of prefetcher instances
    (per core for private levels, per slice for the shared level), the
    caches they fill, and the precomputed per-instance gates the access
    walk consults.

    ``notify_enabled`` skips the whole AccessContext path for the "none"
    baseline; ``notify_hits`` lets miss-stream-only prefetchers
    (``observes_hits`` False, e.g. the classic GHB) keep cache hits
    entirely core-local; ``has_on_fill`` marks the ``on_fill`` chaining
    hook no stock prefetcher implements; ``has_on_eviction`` marks an
    eviction observer (only IMP's granularity predictor)."""

    __slots__ = ("level_index", "shared", "caches", "prefetchers",
                 "notify_enabled", "notify_hits", "has_on_fill",
                 "has_on_eviction")

    def __init__(self, level_index: int, shared: bool, caches: List[Cache],
                 prefetchers: List[PrefetcherBase]) -> None:
        self.level_index = level_index
        self.shared = shared
        self.caches = caches
        self.prefetchers = prefetchers
        self.notify_enabled = [not _prefetcher_is_inert(p)
                               for p in prefetchers]
        self.notify_hits = [enabled and getattr(p, "observes_hits", True)
                            for enabled, p in zip(self.notify_enabled,
                                                  prefetchers)]
        self.has_on_fill = [type(p).on_fill is not PrefetcherBase.on_fill
                            for p in prefetchers]
        self.has_on_eviction = [
            type(p).on_eviction is not PrefetcherBase.on_eviction
            and getattr(p, "observes_evictions", True)
            for p in prefetchers]


PrefetcherFactory = Callable[[int], PrefetcherBase]


def _prefetcher_is_inert(prefetcher: PrefetcherBase) -> bool:
    """True when ``on_access`` can never produce work (no-prefetch baselines)."""
    if isinstance(prefetcher, NullPrefetcher):
        return True
    return type(prefetcher).on_access is PrefetcherBase.on_access


class MemorySystem:
    """Cache hierarchy + interconnect + DRAM for the whole chip."""

    __slots__ = ("config", "mem_image", "stats", "traffic", "noc", "dram",
                 "_mc_tiles", "_num_mcs", "l1", "l2", "directories",
                 "prefetchers", "line_size", "_line_shift", "_line_mask",
                 "_cores_pow2_mask", "_hit_latency", "_l2_hit_latency",
                 "_ctx", "_private_caches", "_private_latencies",
                 "_pf_level", "_outermost_private", "_shared_pos",
                 "_attaches", "_shared_attaches")

    def __init__(self, config: SystemConfig, mem_image: Optional[MemoryImage] = None,
                 prefetcher_factory: Optional[PrefetcherFactory] = None,
                 stats: Optional[SystemStats] = None,
                 named_prefetcher_factory=None) -> None:
        self.config = config
        self.mem_image = mem_image or MemoryImage()
        n = config.n_cores
        self.stats = stats or SystemStats(
            cores=[CoreStats(core_id=i) for i in range(n)])
        if len(self.stats.cores) != n:
            raise ValueError("stats must have one CoreStats per core")
        self.traffic: TrafficStats = self.stats.traffic
        self.noc = MeshNoC(n, config.noc, traffic=self.traffic)
        self.dram = make_dram(config.dram, config.num_memory_controllers,
                              traffic=self.traffic)
        self._mc_tiles = config.memory_controller_tiles()
        self._num_mcs = len(self._mc_tiles)
        factory = prefetcher_factory or (lambda core_id: PrefetcherBase())
        if named_prefetcher_factory is None:
            # Attach entries that name a prefetcher explicitly resolve
            # through the registry against this system's memory image
            # (System passes a resolver that also shares its IMP config).
            named_prefetcher_factory = (
                lambda name: make_prefetcher_factory(name, self.mem_image))
        # A chain of private levels under one shared, distributed last
        # level (see HierarchyConfig).
        hierarchy = config.resolved_hierarchy()
        partial = config.partial_noc or config.partial_dram
        privates = hierarchy.private_levels
        shared = hierarchy.shared_level
        private_attaches = hierarchy.private_attaches
        #: Level index of the *primary* attachment (the innermost private
        #: attach): the target of software prefetches and of the public
        #: issue_prefetch API, and — under partial accessing — the private
        #: level that gets sectored.
        self._pf_level = (hierarchy.level_index(private_attaches[0].level)
                          if private_attaches else 0)
        self._outermost_private = len(privates) - 1
        self._private_caches = []
        self._private_latencies = []
        for index, level in enumerate(privates):
            sector = level.sector_size
            if not sector and partial and index == self._pf_level:
                sector = config.l1_sector_size
            level_cfg = level.cache_config(sector_size=sector)
            self._private_caches.append([Cache(level_cfg) for _ in range(n)])
            self._private_latencies.append(level.hit_latency)
        self.l1 = self._private_caches[0]
        shared_sector = shared.sector_size or (
            config.l2_sector_size if partial else 0)
        l2_cfg = shared.cache_config(sector_size=shared_sector)
        self.l2 = [Cache(l2_cfg) for _ in range(n)]
        self._shared_pos = len(hierarchy.levels)
        # One _Attach per attachment point.  Private banks are per-core;
        # shared banks are per-slice.  ``private_attaches`` is already
        # sorted inner-level-first, which fixes notification order.
        def build_attach(spec):
            level_index = hierarchy.level_index(spec.level)
            shared_bank = level_index == len(privates)
            make = (factory if spec.prefetcher is None
                    else named_prefetcher_factory(spec.prefetcher))
            return _Attach(level_index, shared_bank,
                           (self.l2 if shared_bank
                            else self._private_caches[level_index]),
                           [make(i) for i in range(n)])

        self._attaches = tuple(build_attach(spec)
                               for spec in private_attaches)
        self._shared_attaches = tuple(build_attach(spec)
                                      for spec in hierarchy.shared_attaches)
        # Flat instance list (attach-major): what System introspects for
        # IMP state; the per-core list when one private attachment exists.
        self.prefetchers: List[PrefetcherBase] = [
            p for a in self._attaches + self._shared_attaches
            for p in a.prefetchers]
        self.directories = [Directory(tile, config.ackwise_pointers, self.traffic)
                            for tile in range(n)]
        self.line_size = l2_cfg.line_size
        # ----- hot-path precomputation ---------------------------------
        line_size = self.line_size
        if line_size > 0 and (line_size & (line_size - 1)) == 0:
            self._line_shift = line_size.bit_length() - 1
            self._line_mask = ~(line_size - 1)
        else:
            self._line_shift = None
            self._line_mask = None
        self._cores_pow2_mask = (n - 1) if (n & (n - 1)) == 0 else None
        self._hit_latency = self._private_latencies[0]
        self._l2_hit_latency = l2_cfg.hit_latency
        # One reusable AccessContext: fields are rebound per access instead
        # of allocating a context (plus a read_value closure) per reference.
        self._ctx = AccessContext(core_id=0, pc=0, addr=0, size=0,
                                  is_write=False, hit=False, now=0.0)
        read_value = self.mem_image.read_value
        ctx = self._ctx
        self._ctx.read_value = lambda: read_value(ctx.addr)

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def line_addr(self, addr: int) -> int:
        if self._line_shift is not None:
            return addr & self._line_mask
        return addr - (addr % self.line_size)

    def home_tile(self, addr: int) -> int:
        """L2 slice (and directory) holding this line: line interleaving."""
        if self._line_shift is not None:
            line_no = addr >> self._line_shift
        else:
            line_no = addr // self.line_size
        if self._cores_pow2_mask is not None:
            return line_no & self._cores_pow2_mask
        return line_no % self.config.n_cores

    def memory_controller(self, addr: int) -> tuple:
        """Return ``(controller_index, controller_tile)`` for an address."""
        if self._line_shift is not None:
            index = (addr >> self._line_shift) % self._num_mcs
        else:
            index = (addr // self.line_size) % self._num_mcs
        return index, self._mc_tiles[index]

    # ------------------------------------------------------------------
    # Demand access path
    # ------------------------------------------------------------------
    def access_fast(self, core_id: int, pc: int, addr: int, size: int,
                    is_write: bool, now: float):
        """Scalar demand-access entry point (the hot path).

        Walks the private levels inside-out, then fetches through the
        shared last level (directory + NoC + DRAM).  Every attached
        prefetcher observes the access stream reaching its level — an
        attachment at level *i* sees the accesses that missed levels
        0..i-1 (all of them at the L1) — and its prefetches install at its
        level.  Attachments are notified inner levels first; shared-level
        attachments observe slice-local fetches inside :meth:`_fetch_line`.

        Returns ``(latency, l1_hit, l2_hit, covered_by_prefetch,
        late_prefetch_cycles)``.  Core models read only the first two
        elements, so a test double standing in for this class may return
        any indexable with latency at [0] and the L1-hit flag at [1].
        """
        config = self.config
        attaches = self._attaches
        if config.ideal_memory:
            for attach in attaches:
                if attach.level_index != 0:
                    break
                if attach.notify_hits[core_id]:
                    self._notify_attach(attach, core_id, pc, addr, size,
                                        is_write, hit=True, now=now)
            return self._hit_latency, True, False, False, 0.0

        levels = self._private_caches
        latencies = self._private_latencies
        core_stats = self.stats.cores[core_id]
        n_private = len(levels)
        latency = 0.0
        hit = None
        hit_level = -1
        for index in range(n_private):
            latency += latencies[index]
            hit = levels[index][core_id].access_fast(addr, size, is_write,
                                                     now)
            if hit is not None:
                hit_level = index
                break
            if index:     # (L1 misses are the core model's to count)
                if index == 1:
                    core_stats.l2_misses += 1
                elif index == 2:
                    core_stats.l3_misses += 1
                else:
                    core_stats.bump_level(index + 1, hit=False)

        if hit is not None:
            ready, covered = hit
            late = ready - now
            if late > 0.0:
                latency += late
            else:
                late = 0.0
            if hit_level:
                if hit_level == 1:
                    core_stats.l2_hits += 1
                elif hit_level == 2:
                    core_stats.l3_hits += 1
                else:
                    core_stats.bump_level(hit_level + 1, hit=True)
            if covered:
                core_stats.prefetch_covered_misses += 1
                core_stats.prefetches_useful += 1
                core_stats.prefetch_late_cycles += int(late)
            arrival = now + latency
            # Pull the line into every inner level (inclusive fill).
            for index in range(hit_level - 1, -1, -1):
                if levels[index][core_id].fill_fast(addr, now, arrival,
                                                    False, is_write):
                    self._handle_private_eviction(core_id, index, now)
            for attach in attaches:
                level = attach.level_index
                if level > hit_level:
                    break     # sorted inner-first: nothing deeper saw it
                if not attach.notify_enabled[core_id]:
                    continue
                # A hit *at* the attachment level is a hit notification,
                # which miss-stream-only prefetchers skip; inner levels'
                # misses are miss notifications for deeper attachments.
                if level == hit_level and not attach.notify_hits[core_id]:
                    continue
                self._notify_attach(attach, core_id, pc, addr, size,
                                    is_write, hit=level == hit_level,
                                    now=now)
            return (latency, hit_level == 0, hit_level > 0, covered, late)

        # Missed every private level: fetch through the shared level.
        issue_time = now
        if config.perfect_prefetch:
            issue_time = now - config.perfect_prefetch_lead
        arrival, shared_hit = self._fetch_line(core_id, addr, issue_time,
                                               is_write=is_write,
                                               fetch_bytes=self.line_size,
                                               sectors=None,
                                               pc=pc, size=size, demand=True)
        for index in range(n_private - 1, -1, -1):
            if levels[index][core_id].fill_fast(addr, now, arrival,
                                                False, is_write):
                self._handle_private_eviction(core_id, index, now)
        latency += max(0.0, arrival - now)
        for attach in attaches:
            if attach.notify_enabled[core_id]:
                self._notify_attach(attach, core_id, pc, addr, size,
                                    is_write, hit=False, now=now)
        return latency, False, shared_hit, False, 0.0

    # ------------------------------------------------------------------
    # Prefetch path
    # ------------------------------------------------------------------
    def issue_prefetch(self, core_id: int, request: PrefetchRequest,
                       now: float, level: Optional[int] = None) -> float:
        """Issue one prefetch for ``core_id`` into private level ``level``
        (default: the primary attachment level, the L1 of the classic
        shape); return its completion time.

        The prefetch does not stall the core; its cost is the NoC/DRAM
        traffic it generates and the capacity it occupies at its target
        level.
        """
        if self.config.ideal_memory:
            return now
        if level is None:
            level = self._pf_level
        cache = self._private_caches[level][core_id]
        addr = request.addr
        # Inlined cache way lookup (most prefetches find the line already
        # resident).
        if cache._tag_shift is not None:
            way = cache._index[(addr >> cache._line_shift)
                               & cache._set_mask].get(addr >> cache._tag_shift)
        else:
            way = cache._way_of(addr)
        size = request.size
        line_size = self.line_size
        fetch_bytes = size if size < line_size else line_size
        sectors = None
        if cache.sector_size:
            sectors = self._sector_mask_for_prefetch(cache, addr, fetch_bytes)
        if way is not None:
            if not cache.sector_size:
                return now  # already resident, nothing to do
            if (cache._sector_valid[way] & sectors) == sectors:
                return now
        core_stats = self.stats.cores[core_id]
        core_stats.prefetches_issued += 1
        if request.is_indirect:
            core_stats.indirect_prefetches_issued += 1
        else:
            core_stats.stream_prefetches_issued += 1
        noc_bytes = fetch_bytes if self.config.partial_noc else line_size
        dram_bytes = fetch_bytes if self.config.partial_dram else line_size
        arrival, _ = self._fetch_line(core_id, addr, now,
                                      is_write=request.exclusive,
                                      fetch_bytes=noc_bytes,
                                      dram_bytes=dram_bytes,
                                      sectors=sectors)
        # Fill every private level outside the target (outermost first),
        # then the target: the chain is inclusive, and a line resident
        # only in an inner level would break the directory bookkeeping,
        # which tracks the outermost private level.
        if level < self._outermost_private:
            for outer in range(self._outermost_private, level, -1):
                if self._private_caches[outer][core_id].fill_fast(
                        addr, now, arrival, True, False):
                    self._handle_private_eviction(core_id, outer, now)
        if cache.fill_fast(addr, now, arrival, True, False, sectors):
            self._handle_private_eviction(core_id, level, now)
        return arrival

    def _sector_mask_for_prefetch(self, l1: Cache, addr: int,
                                  fetch_bytes: int) -> int:
        """Sectors fetched by a partial prefetch of ``fetch_bytes`` bytes."""
        if fetch_bytes >= self.line_size:
            return full_mask(l1.sectors_per_line)
        return l1.sector_mask(addr, fetch_bytes)

    # ------------------------------------------------------------------
    # Shared fetch path (private miss or prefetch): L2 + directory + DRAM
    # ------------------------------------------------------------------
    def _fetch_line(self, core_id: int, addr: int, issue_time: float, *,
                    is_write: bool, fetch_bytes: int,
                    dram_bytes: Optional[int] = None,
                    sectors: Optional[int],
                    pc: int = 0, size: int = 0,
                    demand: bool = False) -> tuple:
        """Fetch a line (or sectors of it) for a core; return
        ``(arrival_time, l2_hit)``.

        ``demand`` marks a demand fetch (not a prefetch): when the shared
        level carries per-slice prefetchers, demand fetches are what they
        observe (``pc``/``size`` feed their access context).  Slice
        prefetchers are notified after the demand's response is scheduled,
        so their requests never shorten the triggering fetch."""
        core_stats = self.stats.cores[core_id]
        # line_addr / home_tile, inlined for power-of-two geometries.
        if self._line_shift is not None:
            line = addr & self._line_mask
            line_no = addr >> self._line_shift
        else:
            line = self.line_addr(addr)
            line_no = addr // self.line_size
        if self._cores_pow2_mask is not None:
            home = line_no & self._cores_pow2_mask
        else:
            home = line_no % self.config.n_cores
        directory = self.directories[home]
        l2 = self.l2[home]
        if dram_bytes is None:
            dram_bytes = fetch_bytes
        noc_send = self.noc.send_fast

        # Request message: core tile -> home tile.
        time = noc_send(core_id, home, CONTROL_MESSAGE_BYTES, issue_time)

        # Directory consultation and coherence actions.
        if is_write:
            extra = directory.write(line, core_id, self.config.n_cores,
                                    self.line_size).extra_hops_messages
        else:
            extra = directory.read_fast(line, core_id, self.config.n_cores,
                                        self.line_size)
        if extra:
            coherence_done = time
            for src, dst, payload in extra:
                sent = noc_send(src, dst, payload, time)
                if sent > coherence_done:
                    coherence_done = sent
            if coherence_done > time:
                time = coherence_done

        # L2 slice lookup at the home tile.
        shared_attaches = self._shared_attaches
        if shared_attaches:
            # Same state transitions and counters as access_hit, plus the
            # first-touch flag that credits a slice prefetcher whose line
            # a fetch found resident.
            hit_state = l2.access_fast(addr,
                                       fetch_bytes if fetch_bytes > 1 else 1,
                                       is_write, time)
            l2_hit = hit_state is not None
            if l2_hit and hit_state[1]:
                self.stats.cores[home].prefetches_useful += 1
        else:
            l2_hit = l2.access_hit(addr,
                                   fetch_bytes if fetch_bytes > 1 else 1,
                                   is_write, time)
        time += self._l2_hit_latency
        lookup_done = time
        shared_pos = self._shared_pos
        if l2_hit:
            if shared_pos == 2:
                core_stats.l2_hits += 1
            elif shared_pos == 3:
                core_stats.l3_hits += 1
            else:
                core_stats.bump_level(shared_pos, hit=True)
        else:
            if shared_pos == 2:
                core_stats.l2_misses += 1
            elif shared_pos == 3:
                core_stats.l3_misses += 1
            else:
                core_stats.bump_level(shared_pos, hit=False)
            # Miss in the shared level: go to the memory controller and DRAM.
            mc_index, mc_tile = self.memory_controller(addr)
            time = noc_send(home, mc_tile, CONTROL_MESSAGE_BYTES, time)
            time = self.dram.access(mc_index, line, dram_bytes, time,
                                    is_write=False)
            time = noc_send(mc_tile, home, dram_bytes, time)
            l2_sectors = None
            if l2.sector_size:
                l2_sectors = (l2.sector_mask(addr, dram_bytes)
                              if dram_bytes < self.line_size
                              else full_mask(l2.sectors_per_line))
            if l2.fill_fast(addr, time, time, False, is_write, l2_sectors):
                self._handle_l2_eviction(home, l2, time)

        # Data response: home tile -> requesting core.
        time = noc_send(home, core_id, fetch_bytes, time)
        if demand and shared_attaches:
            # The slice's prefetchers observe the demand fetch that just
            # consulted it; their requests issue at the slice's lookup
            # time, after the demand's own reservations.
            self._notify_shared(home, pc, addr, size, is_write,
                                hit=l2_hit, now=lookup_done)
        return time, l2_hit

    # ------------------------------------------------------------------
    # Evictions and write-backs
    # ------------------------------------------------------------------
    def _handle_private_eviction(self, core_id: int, level_index: int,
                                 now: float) -> None:
        """Eviction from one private level.

        The victim is described by the evicting cache's ``victim_*``
        scratch fields (captured into locals first: cascading write-backs
        below may evict again and overwrite deeper levels' scratch, and the
        write-back fills the home slice, whose own scratch this must not
        confuse with the private victim's).

        Outermost private evictions leave the core's domain: the line is
        back-invalidated from every inner private level (the chain is
        inclusive, and the directory tracks the outermost level — an inner
        copy surviving the directory's ``evict`` would go stale), then the
        directory is told and dirty lines ride the NoC to their home slice
        of the shared level.  Inner evictions stay local: a dirty victim
        is written back into the next private level (which may cascade).
        """
        cache = self._private_caches[level_index][core_id]
        victim_addr = cache.victim_addr
        victim_dirty = cache.victim_dirty
        for attach in self._attaches:
            if (attach.level_index == level_index
                    and attach.has_on_eviction[core_id]):
                attach.prefetchers[core_id].on_eviction(victim_addr, now)
        if level_index == self._outermost_private:
            for inner in range(level_index):
                flags = self._private_caches[inner][core_id].invalidate_fast(
                    victim_addr)
                if flags is not None and flags & 1:   # FLAG_DIRTY
                    victim_dirty = True
            # home_tile / line_addr, inlined for power-of-two geometries
            # (this runs once per steady-state miss).
            if self._line_shift is not None:
                line = victim_addr & self._line_mask
                line_no = victim_addr >> self._line_shift
            else:
                line = self.line_addr(victim_addr)
                line_no = victim_addr // self.line_size
            if self._cores_pow2_mask is not None:
                home = line_no & self._cores_pow2_mask
            else:
                home = line_no % self.config.n_cores
            self.directories[home].evict(line, core_id)
            if victim_dirty:
                # Write the dirty line back to its home slice.  (A dirty
                # slice victim of this fill is dropped: the write-back path
                # never charges nested shared-level evictions.)
                self.noc.send_fast(core_id, home, self.line_size, now)
                self.l2[home].fill_fast(victim_addr, now, now, False, True)
            return
        if victim_dirty:
            if self._private_caches[level_index + 1][core_id].fill_fast(
                    victim_addr, now, now, False, True):
                self._handle_private_eviction(core_id, level_index + 1, now)

    def _handle_l2_eviction(self, home: int, cache, now: float) -> None:
        for attach in self._shared_attaches:
            if attach.has_on_eviction[home]:
                attach.prefetchers[home].on_eviction(cache.victim_addr, now)
        if not cache.victim_dirty:
            return
        victim_addr = cache.victim_addr
        # memory_controller, inlined (no tuple built).
        if self._line_shift is not None:
            mc_index = (victim_addr >> self._line_shift) % self._num_mcs
        else:
            mc_index = (victim_addr // self.line_size) % self._num_mcs
        self.noc.send_fast(home, self._mc_tiles[mc_index], self.line_size,
                           now)
        self.dram.access(mc_index, victim_addr, self.line_size, now,
                         is_write=True)

    # ------------------------------------------------------------------
    # Prefetcher plumbing
    # ------------------------------------------------------------------
    def _notify_attach(self, attach: _Attach, core_id: int, pc: int,
                       addr: int, size: int, is_write: bool, hit: bool,
                       now: float) -> None:
        ctx = self._ctx
        ctx.core_id = core_id
        ctx.pc = pc
        ctx.addr = addr
        ctx.size = size
        ctx.is_write = is_write
        ctx.hit = hit
        ctx.now = now
        requests = attach.prefetchers[core_id].on_access(ctx)
        if requests:
            self._issue_bank_requests(attach, core_id, requests, now)

    def _notify_shared(self, home: int, pc: int, addr: int, size: int,
                       is_write: bool, hit: bool, now: float) -> None:
        """Notify the home slice's prefetchers of a demand fetch."""
        ctx = self._ctx
        for attach in self._shared_attaches:
            if not attach.notify_enabled[home]:
                continue
            if hit and not attach.notify_hits[home]:
                continue
            ctx.core_id = home
            ctx.pc = pc
            ctx.addr = addr
            ctx.size = size
            ctx.is_write = is_write
            ctx.hit = hit
            ctx.now = now
            requests = attach.prefetchers[home].on_access(ctx)
            if requests:
                self._issue_bank_requests(attach, home, requests, now)

    def _issue_bank_requests(self, attach: _Attach, owner: int,
                             requests: List[PrefetchRequest],
                             now: float) -> None:
        """Issue the requests one attachment's instance ``owner`` (a core,
        or a slice of a shared bank) returned: ``depends_on_previous``
        chaining and ``on_fill`` follow-on requests.  A request whose line
        is already resident in a non-sectored target cache completes at its
        issue time with no other effect — the early-out of the issue
        routines — and most generated requests are exactly that, so it is
        skipped here (except for ``on_fill`` prefetchers, which observe
        every request)."""
        cache = attach.caches[owner]
        has_on_fill = attach.has_on_fill[owner]
        index = None
        if (not has_on_fill and not cache.sector_size
                and cache._tag_shift is not None):
            index = cache._index
            line_shift = cache._line_shift
            set_mask = cache._set_mask
            tag_shift = cache._tag_shift
        level = attach.level_index
        shared = attach.shared
        previous_completion = now
        for request in requests:
            issue_at = (previous_completion
                        if request.depends_on_previous else now)
            if index is not None:
                addr = request.addr
                if index[(addr >> line_shift) & set_mask].get(
                        addr >> tag_shift) is not None:
                    previous_completion = issue_at
                    continue
            if shared:
                completion = self._issue_shared_prefetch(owner, request,
                                                         issue_at)
            else:
                completion = self.issue_prefetch(owner, request, issue_at,
                                                 level)
            previous_completion = completion
            if has_on_fill:
                follow_on = attach.prefetchers[owner].on_fill(request.addr,
                                                              completion)
                if follow_on:
                    self._issue_bank_requests(attach, owner, follow_on,
                                              completion)

    def _issue_shared_prefetch(self, home: int, request: PrefetchRequest,
                               now: float) -> float:
        """Issue one slice-local prefetch: fetch from DRAM into the home
        slice of the shared level.  The slice is the line's coherence home,
        so no directory interaction is needed (private copies are
        unaffected); the cost is MC/DRAM traffic and slice capacity.
        Issue/usefulness statistics account to the slice's tile."""
        if self.config.ideal_memory:
            return now
        l2 = self.l2[home]
        addr = request.addr
        if l2._tag_shift is not None:
            way = l2._index[(addr >> l2._line_shift)
                            & l2._set_mask].get(addr >> l2._tag_shift)
        else:
            way = l2._way_of(addr)
        size = request.size
        line_size = self.line_size
        fetch_bytes = size if size < line_size else line_size
        sectors = None
        if l2.sector_size:
            sectors = self._sector_mask_for_prefetch(l2, addr, fetch_bytes)
        if way is not None:
            if not l2.sector_size:
                return now  # already resident in the slice
            if (l2._sector_valid[way] & sectors) == sectors:
                return now
        slice_stats = self.stats.cores[home]
        slice_stats.prefetches_issued += 1
        if request.is_indirect:
            slice_stats.indirect_prefetches_issued += 1
        else:
            slice_stats.stream_prefetches_issued += 1
        noc_bytes = fetch_bytes if self.config.partial_noc else line_size
        dram_bytes = fetch_bytes if self.config.partial_dram else line_size
        if self._line_shift is not None:
            line = addr & self._line_mask
            mc_index = (addr >> self._line_shift) % self._num_mcs
        else:
            line = self.line_addr(addr)
            mc_index = (addr // self.line_size) % self._num_mcs
        mc_tile = self._mc_tiles[mc_index]
        noc_send = self.noc.send_fast
        time = noc_send(home, mc_tile, CONTROL_MESSAGE_BYTES, now)
        time = self.dram.access(mc_index, line, dram_bytes, time,
                                is_write=False)
        time = noc_send(mc_tile, home, noc_bytes, time)
        if l2.fill_fast(addr, now, time, True, False, sectors):
            self._handle_l2_eviction(home, l2, time)
        return time

    def software_prefetch(self, core_id: int, addr: int, now: float) -> float:
        """Issue a software prefetch (non-binding, full line)."""
        self.stats.cores[core_id].sw_prefetches_issued += 1
        request = PrefetchRequest(addr=addr, size=self.line_size)
        return self.issue_prefetch(core_id, request, now)
