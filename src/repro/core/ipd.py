"""Indirect Pattern Detector (IPD) — Section 3.2.2 and Figure 4.

The IPD learns the ``(shift, BaseAddr)`` parameters of an indirect pattern by
pairing two consecutive index values with the cache misses that follow them:

1. On a candidate index access (anything detected as a streaming access) that
   is not yet associated with an indirect pattern, the IPD allocates an entry
   and records the index value in ``idx1``.
2. For each of the first few cache misses after that access, it computes, for
   every candidate shift, ``BaseAddr = miss_addr - (idx1 << shift)`` and
   stores them in the entry's BaseAddr array.
3. When the next index in that stream (``idx2``) is seen, later misses are
   paired with ``idx2`` the same way, and each resulting BaseAddr is compared
   against the stored ones with the same shift.  A match means both misses
   satisfy Equation 2 with the same parameters — a detected pattern.
4. If the third index arrives with no detection, the entry is released and
   the stream backs off exponentially before trying again (to avoid
   thrashing the small IPD).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.address import solve_base_addr
from repro.core.config import IMPConfig


@dataclass(frozen=True)
class DetectedPattern:
    """The result of a successful detection."""

    stream_key: int          # identifier of the index stream (PC or pattern id)
    shift: int
    base_addr: int


@dataclass(slots=True)
class IPDEntry:
    """One in-flight detection (one row of Figure 4)."""

    stream_key: int
    idx1: int
    idx2: Optional[int] = None
    #: Candidate BaseAddrs computed from idx1, one list per shift value.
    baseaddrs: Dict[int, List[int]] = field(default_factory=dict)
    misses_after_idx1: int = 0
    misses_after_idx2: int = 0
    allocated_at: float = 0.0


@dataclass(slots=True)
class _BackoffState:
    failures: int = 0
    blocked_until: float = 0.0


class IndirectPatternDetector:
    """Fixed-size table of in-flight indirect pattern detections."""

    __slots__ = ("config", "_entries", "_backoff", "_known", "detections",
                 "failed_detections")

    def __init__(self, config: Optional[IMPConfig] = None) -> None:
        self.config = config or IMPConfig()
        self._entries: Dict[int, IPDEntry] = {}
        self._backoff: Dict[int, _BackoffState] = {}
        # Patterns already known for a stream, so re-detection can be skipped
        # and second-way detection does not re-find the primary pattern.
        self._known: Dict[int, List[Tuple[int, int]]] = {}
        self.detections = 0
        self.failed_detections = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entry_for(self, stream_key: int) -> Optional[IPDEntry]:
        """Return the in-flight entry for a stream, if any."""
        return self._entries.get(stream_key)

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def known_patterns(self, stream_key: int) -> List[Tuple[int, int]]:
        """(shift, base_addr) pairs already detected for this stream."""
        return list(self._known.get(stream_key, []))

    def add_known_pattern(self, stream_key: int, shift: int, base_addr: int) -> None:
        """Record an externally known pattern so it is not re-detected."""
        self._known.setdefault(stream_key, []).append((shift, base_addr))

    # ------------------------------------------------------------------
    # Index-access handling
    # ------------------------------------------------------------------
    def on_index_access(self, stream_key: int, value: Optional[int],
                        now: float) -> None:
        """Observe a candidate index access with the loaded ``value``."""
        if value is None:
            return
        entry = self._entries.get(stream_key)
        if entry is None:
            self._maybe_allocate(stream_key, value, now)
            return
        if entry.idx2 is None:
            if value != entry.idx1:
                entry.idx2 = value
                entry.misses_after_idx2 = 0
            return
        # Third index access without a detection: give up on this attempt.
        self._release(stream_key, failed=True, now=now)

    def _maybe_allocate(self, stream_key: int, value: int, now: float) -> None:
        backoff = self._backoff.get(stream_key)
        if backoff is not None and now < backoff.blocked_until:
            return
        if len(self._entries) >= self.config.ipd_size:
            return
        self._entries[stream_key] = IPDEntry(stream_key=stream_key, idx1=value,
                                             allocated_at=now)

    # ------------------------------------------------------------------
    # Miss handling
    # ------------------------------------------------------------------
    def on_miss(self, addr: int, now: float) -> List[DetectedPattern]:
        """Observe a cache miss; return any patterns detected by it."""
        if not self._entries:
            return []
        detected: List[DetectedPattern] = []
        for stream_key in list(self._entries):
            entry = self._entries[stream_key]
            if entry.idx2 is None:
                self._record_phase1(entry, addr)
            else:
                pattern = self._match_phase2(entry, addr)
                if pattern is not None:
                    detected.append(pattern)
                    self._known.setdefault(stream_key, []).append(
                        (pattern.shift, pattern.base_addr))
                    self._release(stream_key, failed=False, now=now)
        return detected

    def _record_phase1(self, entry: IPDEntry, addr: int) -> None:
        if entry.misses_after_idx1 >= self.config.baseaddr_array_len:
            return
        entry.misses_after_idx1 += 1
        for shift in self.config.shift_values:
            base = solve_base_addr(entry.idx1, addr, shift)
            entry.baseaddrs.setdefault(shift, []).append(base)

    def _match_phase2(self, entry: IPDEntry, addr: int) -> Optional[DetectedPattern]:
        if entry.misses_after_idx2 >= self.config.baseaddr_array_len:
            return None
        entry.misses_after_idx2 += 1
        known = self._known.get(entry.stream_key, [])
        for shift in self.config.shift_values:
            base = solve_base_addr(entry.idx2, addr, shift)
            if (shift, base) in known:
                continue           # already-detected pattern (e.g. the primary)
            if base in entry.baseaddrs.get(shift, []):
                self.detections += 1
                return DetectedPattern(stream_key=entry.stream_key,
                                       shift=shift, base_addr=base)
        return None

    # ------------------------------------------------------------------
    # Release / back-off
    # ------------------------------------------------------------------
    def _release(self, stream_key: int, failed: bool, now: float) -> None:
        self._entries.pop(stream_key, None)
        if not failed:
            self._backoff.pop(stream_key, None)
            return
        self.failed_detections += 1
        state = self._backoff.setdefault(stream_key, _BackoffState())
        delay = min(self.config.max_backoff,
                    self.config.backoff_base * (2 ** state.failures))
        state.failures += 1
        state.blocked_until = now + delay

    def reset(self) -> None:
        self._entries.clear()
        self._backoff.clear()
        self._known.clear()
        self.detections = 0
        self.failed_detections = 0
