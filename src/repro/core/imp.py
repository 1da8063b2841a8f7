"""The Indirect Memory Prefetcher (IMP) — Section 3 of the paper.

IMP is attached to one L1 data cache and snoops its access and miss stream.
It composes four hardware structures:

* an embedded **stream prefetcher** (the Stream Table half of the Prefetch
  Table) that detects the sequential scan of the index array ``B``,
* the **Indirect Pattern Detector** that learns ``(shift, BaseAddr)``,
* the **Prefetch Table** that stores detected patterns, builds confidence
  with a saturating counter, and links secondary indirections,
* the **Granularity Predictor** used when partial cacheline accessing is
  enabled.

The only thing IMP needs beyond the access stream is the *value* returned by
index loads (hardware sees those on the fill/response path).  In this
reproduction values are read through the workload's
:class:`repro.mem_image.MemoryImage`.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

from repro.core.address import coefficient_of, predict_address
from repro.core.config import IMPConfig
from repro.core.granularity import GranularityPredictor
from repro.core.ipd import DetectedPattern, IndirectPatternDetector
from repro.core.prefetch_table import IndirectType, PrefetchTable, PTEntry
from repro.mem_image import MemoryImage
from repro.prefetchers.base import AccessContext, PrefetcherBase, PrefetchRequest
from repro.prefetchers.stream import StreamEntry, StreamPrefetcher

#: Shared empty result for the no-prefetch case (never mutated; callers
#: treat the return value of ``on_access`` as read-only).
_NO_REQUESTS: List[PrefetchRequest] = []


# IPD stream keys.  The IPD accepts any hashable key; IMP packs the key kind
# into the low bits of an integer because these keys are built (and hashed)
# on every index access — tuple keys showed up in profiles.
_KEY_PRIMARY = 0
_KEY_WAY = 1
_KEY_LEVEL = 2
_KEY_KIND_MASK = 3


def _primary_key(pc: int) -> Hashable:
    return (pc << 2) | _KEY_PRIMARY


def _way_key(pc: int) -> Hashable:
    return (pc << 2) | _KEY_WAY


def _level_key(entry_id: int) -> Hashable:
    return (entry_id << 2) | _KEY_LEVEL


class IMP(PrefetcherBase):
    """Indirect Memory Prefetcher attached to one L1 data cache."""

    __slots__ = ("config", "mem_image", "stream", "pt", "ipd", "gp",
                 "patterns_detected", "secondary_patterns_detected",
                 "indirect_prefetches_generated",
                 "stream_prefetches_generated", "_partial_enabled",
                 "_adaptive_distance", "_max_ways", "_confidence_threshold",
                 "_two_level", "_rw_predictor", "_rw_write_threshold",
                 "observes_evictions")

    name = "imp"

    def __init__(self, config: Optional[IMPConfig] = None,
                 mem_image: Optional[MemoryImage] = None) -> None:
        self.config = config or IMPConfig()
        self.mem_image = mem_image or MemoryImage()
        self.stream = StreamPrefetcher(self.config.stream)
        self.pt = PrefetchTable(self.config)
        self.ipd = IndirectPatternDetector(self.config)
        self.gp = GranularityPredictor(self.config)
        # IMPConfig is frozen; hoist the flags consulted on every access.
        self._partial_enabled = self.config.partial_enabled
        self._adaptive_distance = self.config.adaptive_distance
        self._max_ways = self.config.max_indirect_ways
        self._confidence_threshold = self.config.confidence_threshold
        self._two_level = self.config.max_indirect_levels >= 2
        self._rw_predictor = self.config.rw_predictor
        self._rw_write_threshold = self.config.rw_write_threshold
        # The granularity predictor (and with it on_eviction) only runs in
        # partial-cacheline mode; let the memory system skip the call.
        self.observes_evictions = self.config.partial_enabled
        # Statistics about the prefetcher itself.
        self.patterns_detected = 0
        self.secondary_patterns_detected = 0
        self.indirect_prefetches_generated = 0
        self.stream_prefetches_generated = 0

    # ------------------------------------------------------------------
    # Main entry point: one L1 access
    # ------------------------------------------------------------------
    def on_access(self, ctx: AccessContext) -> List[PrefetchRequest]:
        if self._partial_enabled:
            self.gp.on_demand_access(ctx.addr, ctx.size)
        if self._adaptive_distance:
            self._track_prefetch_usefulness(ctx)

        # 1. Check this access against outstanding indirect predictions
        #    (confidence building, Section 3.2.3), and feed second-level
        #    detection with the values loaded by recognised indirect
        #    accesses.  The _check_confidence loop is inlined: it runs on
        #    every single access once a pattern is enabled.
        pt = self.pt
        entries = pt._enabled_cache
        if entries is None:
            entries = pt.enabled_entries()
        if entries:
            addr = ctx.addr
            for entry in entries:
                if not entry.pending_match:
                    continue
                value = entry.index_value
                if value is None:
                    continue
                shift = entry.shift
                if shift >= 0:
                    offset = addr - ((value << shift) + entry.base_addr)
                    tolerance = 1 << shift
                else:
                    offset = addr - ((value >> -shift) + entry.base_addr)
                    tolerance = 1
                if 0 <= offset < tolerance:
                    # PrefetchTable.confirm_match and _update_rw_predictor,
                    # inlined (they run once per recognised indirect
                    # access).
                    hit_cnt = entry.hit_cnt + 1
                    if hit_cnt <= pt.config.max_confidence:
                        entry.hit_cnt = hit_cnt
                    entry.pending_match = False
                    if self._rw_predictor:
                        if ctx.is_write:
                            if entry.write_cnt < self.config.rw_max_count:
                                entry.write_cnt += 1
                        elif entry.write_cnt > 0:
                            entry.write_cnt -= 1
                    self._feed_second_level(entry, ctx)

        # 2. Cache misses train the IPD (they are candidate indirect
        #    addresses for whatever index values were recently recorded).
        if not ctx.hit:
            for pattern in self.ipd.on_miss(ctx.addr, ctx.now):
                self._install_pattern(pattern, ctx.now)

        # 3. Stream detection: is this access part of a (word-granularity)
        #    sequential scan?  If so it is a candidate index access.  The
        #    request list is only materialised once there is something to
        #    issue — the overwhelmingly common outcome of an access is no
        #    prefetch at all.
        stream_entry = self.stream.observe(ctx.pc, ctx.addr, ctx.now)
        if stream_entry is None:
            return _NO_REQUESTS
        requests = self.stream.prefetches_for(stream_entry, ctx.addr)
        self.stream_prefetches_generated += len(requests)
        if not ctx.is_write:
            indirect = self._handle_index_access(ctx, stream_entry)
            if indirect:
                if requests:
                    requests.extend(indirect)
                else:
                    requests = indirect
        return requests

    # ------------------------------------------------------------------
    # Index-access handling
    # ------------------------------------------------------------------
    def _handle_index_access(self, ctx: AccessContext,
                             stream_entry: StreamEntry) -> List[PrefetchRequest]:
        # Read through the prefetcher's own memory image (the same image
        # the context's read_value closure wraps) — skips a lambda hop on
        # a per-index-access call.
        value = self.mem_image.read_value(ctx.addr)
        pc = ctx.pc
        # allocate_primary's existing-entry fast path, inlined (one lookup
        # per recognised index access).
        pt_entry = self.pt._by_pc.get(pc)
        if pt_entry is None:
            pt_entry = self.pt.allocate_primary(pc, ctx.now)
            if pt_entry is None:
                return _NO_REQUESTS
        pt_entry.last_use = ctx.now
        if not pt_entry.enabled:
            # No indirect pattern yet: keep feeding the IPD.
            self.ipd.on_index_access((pc << 2) | _KEY_PRIMARY, value, ctx.now)
            return _NO_REQUESTS
        if value is None:
            return _NO_REQUESTS
        # Known pattern: record the index value for confidence tracking
        # (PrefetchTable.observe_index inlined; the enabled guard is already
        # established above).
        if pt_entry.pending_match:
            # The previous index was overwritten before its indirect access
            # was seen: lose confidence.
            if pt_entry.hit_cnt:
                pt_entry.hit_cnt -= 1
        pt_entry.index_value = value
        pt_entry.pending_match = True
        pt_entry.last_use = ctx.now
        # Try to discover a second way sharing this index array (with the
        # IPD backoff short-circuit — see _feed_second_level).
        if len(pt_entry.next_ways) + 1 < self._max_ways:
            ipd = self.ipd
            key = (pc << 2) | _KEY_WAY
            if key in ipd._entries:
                ipd.on_index_access(key, value, ctx.now)
            else:
                backoff = ipd._backoff.get(key)
                if backoff is None or ctx.now >= backoff.blocked_until:
                    ipd.on_index_access(key, value, ctx.now)
        if not (pt_entry.enabled
                and pt_entry.hit_cnt >= self._confidence_threshold):
            return _NO_REQUESTS
        return self._generate_prefetches(pt_entry, stream_entry, ctx)

    # ------------------------------------------------------------------
    # Confidence building and second-level index extraction
    # ------------------------------------------------------------------
    def _match_tolerance(self, shift: int) -> int:
        """Allowed byte offset between prediction and access (struct fields)."""
        return max(1, int(coefficient_of(shift)))

    def _update_rw_predictor(self, entry: PTEntry, ctx: AccessContext) -> None:
        """Track whether this pattern's demand accesses are writes, so later
        prefetches can request the line in Exclusive state (Section 3.2.3)."""
        if not self.config.rw_predictor:
            return
        if ctx.is_write:
            entry.write_cnt = min(self.config.rw_max_count, entry.write_cnt + 1)
        elif entry.write_cnt > 0:
            entry.write_cnt -= 1

    def _wants_exclusive(self, entry: PTEntry) -> bool:
        return (self.config.rw_predictor
                and entry.write_cnt >= self.config.rw_write_threshold)

    # ------------------------------------------------------------------
    # Adaptive prefetch-distance throttling (Section 6.3.2 future work)
    # ------------------------------------------------------------------
    def _track_prefetch_usefulness(self, ctx: AccessContext) -> None:
        """Credit a demand access against the recently prefetched lines of
        whichever pattern brought them in."""
        line = ctx.addr - (ctx.addr % self.config.line_size)
        for entry in self.pt.enabled_entries():
            if entry.consume_prefetched_line(line):
                entry.window_useful += 1
                if not ctx.hit:
                    entry.window_late += 1
                break

    def _maybe_throttle(self, entry: PTEntry) -> None:
        """After every throttle window of issued prefetches, shrink the
        distance cap when most of them were never referenced (loop
        overshoot), or raise it again when the consumed ones keep arriving
        late (the stream is long and needs more lead time)."""
        cfg = self.config
        if not cfg.adaptive_distance or entry.window_issued < cfg.throttle_window:
            return
        cap = entry.distance_cap or cfg.max_prefetch_distance
        useful_ratio = entry.window_useful / max(1, entry.window_issued)
        if useful_ratio < cfg.throttle_low_ratio:
            cap = max(1, cap // 2)
        elif entry.window_late > entry.window_useful // 2:
            cap = min(cfg.max_prefetch_distance, cap + 2)
        entry.distance_cap = cap
        if entry.prefetch_distance > cap:
            entry.prefetch_distance = cap
        entry.window_issued = 0
        entry.window_useful = 0
        entry.window_late = 0

    def _feed_second_level(self, entry: PTEntry, ctx: AccessContext) -> None:
        """The access was recognised as an indirect access of ``entry``;
        its loaded value may be the index of a second-level pattern."""
        if not self._two_level or ctx.is_write:
            return
        if entry.next_level is not None:
            return
        if entry.ind_type is IndirectType.SECOND_LEVEL:
            return                        # bounded at two levels (Table 2)
        # IPD backoff short-circuit: when the second-level stream key has
        # no in-flight detection and is inside its backoff window, feeding
        # it is a provable no-op — skip the value read and the call.
        ipd = self.ipd
        key = (entry.entry_id << 2) | _KEY_LEVEL
        if key not in ipd._entries:
            backoff = ipd._backoff.get(key)
            if backoff is not None and ctx.now < backoff.blocked_until:
                return
        value = self.mem_image.read_value(ctx.addr)
        if value is None:
            return
        ipd.on_index_access(key, value, ctx.now)

    # ------------------------------------------------------------------
    # Pattern installation (IPD -> PT)
    # ------------------------------------------------------------------
    def _install_pattern(self, pattern: DetectedPattern, now: float) -> None:
        key = pattern.stream_key
        if not isinstance(key, int):
            return
        kind = key & _KEY_KIND_MASK
        ident = key >> 2
        if kind == _KEY_PRIMARY:
            self._install_primary(ident, pattern, now)
        elif kind == _KEY_WAY:
            self._install_second_way(ident, pattern, now)
        elif kind == _KEY_LEVEL:
            self._install_second_level(ident, pattern, now)

    def _install_primary(self, pc: int, pattern: DetectedPattern,
                         now: float) -> None:
        entry = self.pt.allocate_primary(pc, now)
        if entry is None:
            return
        self.pt.activate(entry.entry_id, pattern.shift, pattern.base_addr)
        self.patterns_detected += 1
        # The primary pattern must not be re-detected as a "second way".
        self.ipd.add_known_pattern(_way_key(pc), pattern.shift, pattern.base_addr)
        if self.config.partial_enabled:
            self.gp.allocate(entry.entry_id)

    def _install_second_way(self, pc: int, pattern: DetectedPattern,
                            now: float) -> None:
        parent = self.pt.lookup_by_pc(pc)
        if parent is None or not parent.enabled:
            return
        child = self.pt.allocate_secondary(parent.entry_id,
                                           IndirectType.SECOND_WAY, now)
        if child is None:
            return
        self.pt.activate(child.entry_id, pattern.shift, pattern.base_addr)
        # Secondary patterns piggyback on the parent's confidence.
        child.hit_cnt = self.config.confidence_threshold
        self.secondary_patterns_detected += 1
        self.ipd.add_known_pattern(_way_key(pc), pattern.shift, pattern.base_addr)
        if self.config.partial_enabled:
            self.gp.allocate(child.entry_id)

    def _install_second_level(self, parent_id: int, pattern: DetectedPattern,
                              now: float) -> None:
        parent = self.pt.get(parent_id)
        if parent is None or not parent.enabled:
            return
        child = self.pt.allocate_secondary(parent_id, IndirectType.SECOND_LEVEL,
                                           now)
        if child is None:
            return
        self.pt.activate(child.entry_id, pattern.shift, pattern.base_addr)
        child.hit_cnt = self.config.confidence_threshold
        self.secondary_patterns_detected += 1
        if self.config.partial_enabled:
            self.gp.allocate(child.entry_id)

    # ------------------------------------------------------------------
    # Prefetch generation (Section 3.2.3 and 3.3.2)
    # ------------------------------------------------------------------
    def _generate_prefetches(self, entry: PTEntry, stream_entry: StreamEntry,
                             ctx: AccessContext) -> List[PrefetchRequest]:
        cfg = self.config
        # The prefetch distance starts small and grows linearly with hits,
        # bounded by the (possibly throttled) distance cap.
        cap = cfg.max_prefetch_distance
        if cfg.adaptive_distance and entry.distance_cap:
            cap = min(cap, entry.distance_cap)
        if entry.prefetch_distance < cap:
            entry.prefetch_distance += 1
        elif entry.prefetch_distance > cap:
            entry.prefetch_distance = cap
        stride = stream_entry.stride
        if stride == 0:
            return []
        future_index_addr = ctx.addr + entry.prefetch_distance * stride
        future_value = self.mem_image.read_value(future_index_addr)
        if future_value is None:
            return []
        requests = self._pattern_requests(entry, future_value)
        # Second-way children share the same index value (Section 3.3.2).
        if entry.next_ways:
            for child in self.pt.children_of(entry):
                if child.enabled:
                    requests.extend(self._pattern_requests(child, future_value))
        return requests

    def _pattern_requests(self, entry: PTEntry,
                          index_value: int) -> List[PrefetchRequest]:
        cfg = self.config
        shift = entry.shift
        if shift >= 0:
            addr = (index_value << shift) + entry.base_addr
        else:
            addr = (index_value >> -shift) + entry.base_addr
        if addr < 0:
            return []
        size = cfg.line_size
        if self._partial_enabled:
            size = self.gp.granularity_bytes(entry.entry_id)
            self.gp.maybe_sample(entry.entry_id, addr)
        entry.prefetches_issued += 1
        if self._adaptive_distance:
            entry.window_issued += 1
            entry.record_prefetched_line(addr - (addr % cfg.line_size))
            self._maybe_throttle(entry)
        self.indirect_prefetches_generated += 1
        # _wants_exclusive, inlined (per generated request).
        exclusive = (self._rw_predictor
                     and entry.write_cnt >= self._rw_write_threshold)
        requests = [PrefetchRequest(addr=addr, size=size, is_indirect=True,
                                    exclusive=exclusive)]
        # Second-level indirection: the child prefetch needs the value the
        # parent prefetch returns, so it is issued dependent on the parent.
        if entry.next_level is None:
            return requests
        child = self.pt.level_child(entry)
        if child is not None and child.enabled:
            parent_value = self.mem_image.read_value(addr)
            if parent_value is not None:
                child_addr = predict_address(parent_value, child.shift,
                                             child.base_addr)
                if child_addr >= 0:
                    child_size = cfg.line_size
                    if cfg.partial_enabled:
                        child_size = self.gp.granularity_bytes(child.entry_id)
                        self.gp.maybe_sample(child.entry_id, child_addr)
                    child.prefetches_issued += 1
                    self.indirect_prefetches_generated += 1
                    requests.append(PrefetchRequest(addr=child_addr,
                                                    size=child_size,
                                                    is_indirect=True,
                                                    depends_on_previous=True))
        return requests

    # ------------------------------------------------------------------
    # Eviction hook (Granularity Predictor)
    # ------------------------------------------------------------------
    def on_eviction(self, addr: int, now: float) -> None:
        if self.config.partial_enabled:
            self.gp.on_eviction(addr)

    def reset(self) -> None:
        self.stream.reset()
        self.pt.reset()
        self.ipd.reset()
        self.gp.reset()
        self.patterns_detected = 0
        self.secondary_patterns_detected = 0
        self.indirect_prefetches_generated = 0
        self.stream_prefetches_generated = 0


# ----------------------------------------------------------------------
# Registry entry (kept here, next to the implementation, so that adding a
# prefetcher stays a one-file change — see repro.registry).
# ----------------------------------------------------------------------
def _make_imp(core_id, mem_image=None, imp_config=None, **_):
    return IMP(imp_config or IMPConfig(), mem_image)


from repro.registry import PREFETCHERS  # noqa: E402

PREFETCHERS.register(
    "imp", _make_imp,
    description="Indirect Memory Prefetcher (the paper's contribution)",
    config_cls=IMPConfig)
