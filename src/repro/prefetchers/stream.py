"""PC-associated stream/stride prefetcher (the paper's baseline).

Each L1 in the baseline system has "a traditional stream prefetcher working
at word granularity" (Section 3.2).  The implementation here follows the
classic reference-prediction-table design of Chen & Baer:

* a small table of entries indexed by the PC of the load,
* each entry tracks the last address, the detected stride and a confidence
  counter (``hit_cnt``),
* once confidence reaches a threshold the prefetcher issues prefetches a
  growing distance ahead of the demand stream, one cache line at a time,
* the prefetch distance ramps up linearly with further stream hits.

This same component is embedded inside IMP as the *Stream Table* half of the
Prefetch Table (Figure 5); IMP composes it rather than re-implementing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.contract import NON_NEGATIVE, POSITIVE, check
from repro.prefetchers.base import AccessContext, PrefetcherBase, PrefetchRequest


@dataclass
class StreamPrefetcherConfig:
    """Tuning knobs for the stream prefetcher."""

    table_size: int = 16
    train_threshold: int = 2       # stream hits before prefetching starts
    initial_distance: int = 1      # lines ahead when prefetching starts
    max_distance: int = 4          # maximum lines ahead
    degree: int = 1                # lines issued per trigger
    line_size: int = 64
    max_hit_cnt: int = 15          # saturating counter ceiling

    RANGES = {"table_size": POSITIVE, "train_threshold": NON_NEGATIVE,
              "initial_distance": POSITIVE, "max_distance": POSITIVE,
              "degree": POSITIVE, "line_size": POSITIVE,
              "max_hit_cnt": NON_NEGATIVE}

    def __post_init__(self) -> None:
        check(self)
        if self.train_threshold > self.max_hit_cnt:
            raise ValueError(
                f"train_threshold must be in [0, max_hit_cnt="
                f"{self.max_hit_cnt}], got {self.train_threshold}")


@dataclass(slots=True)
class StreamEntry:
    """One entry of the stream table (Figure 5, left half)."""

    pc: int
    addr: int                      # most recently accessed address
    stride: int = 0
    hit_cnt: int = 0
    distance: int = 1              # current prefetch distance in lines
    last_prefetched_line: int = -1
    last_use: float = 0.0

    def is_trained(self, threshold: int) -> bool:
        return self.stride != 0 and self.hit_cnt >= threshold


class StreamPrefetcher(PrefetcherBase):
    """Stride/stream prefetcher with PC-indexed entries."""

    __slots__ = ("config", "_table", "streams_detected")

    name = "stream"

    def __init__(self, config: Optional[StreamPrefetcherConfig] = None) -> None:
        self.config = config or StreamPrefetcherConfig()
        self._table: Dict[int, StreamEntry] = {}
        self.streams_detected = 0

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    def lookup(self, pc: int) -> Optional[StreamEntry]:
        """Return the stream entry for a PC, if present."""
        return self._table.get(pc)

    def entries(self) -> List[StreamEntry]:
        return list(self._table.values())

    def _allocate(self, pc: int, addr: int, now: float) -> StreamEntry:
        if len(self._table) >= self.config.table_size:
            victim_pc = min(self._table, key=lambda p: self._table[p].last_use)
            del self._table[victim_pc]
        entry = StreamEntry(pc=pc, addr=addr, last_use=now,
                            distance=self.config.initial_distance)
        self._table[pc] = entry
        return entry

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def observe(self, pc: int, addr: int, now: float) -> Optional[StreamEntry]:
        """Update the table with one access; return the entry when it is a
        *stream hit* (i.e. the access continues a known stream), else None.
        """
        entry = self._table.get(pc)
        if entry is None:
            self._allocate(pc, addr, now)
            return None
        entry.last_use = now
        delta = addr - entry.addr
        if delta == 0:
            return None
        if entry.stride == delta:
            # is_trained(), inlined: stride is known non-zero here.
            threshold = self.config.train_threshold
            hit_cnt = entry.hit_cnt
            if hit_cnt < self.config.max_hit_cnt:
                entry.hit_cnt = hit_cnt + 1
                if hit_cnt + 1 == threshold:
                    self.streams_detected += 1
            entry.addr = addr
            return entry
        # Stride changed: lose some confidence, adopt the new stride only
        # after confidence has drained (hysteresis against noise).
        if entry.hit_cnt > 0:
            entry.hit_cnt -= 1
        else:
            entry.stride = delta
        entry.addr = addr
        return None

    def reposition(self, pc: int, addr: int, now: float) -> None:
        """Restart a known stream at a new position without re-learning.

        Used for the nested-loop optimisation (Section 3.3.1): when an outer
        loop begins a new inner loop, the stream from the same PC simply
        continues from a new base address.
        """
        entry = self._table.get(pc)
        if entry is None:
            self._allocate(pc, addr, now)
        else:
            entry.addr = addr
            entry.last_use = now

    # ------------------------------------------------------------------
    # Prefetch generation
    # ------------------------------------------------------------------
    def prefetches_for(self, entry: StreamEntry, addr: int) -> List[PrefetchRequest]:
        """Prefetch requests triggered by a stream hit of ``entry`` at ``addr``."""
        cfg = self.config
        stride = entry.stride
        if stride == 0 or entry.hit_cnt < cfg.train_threshold:
            return []
        if entry.distance < cfg.max_distance:
            entry.distance += 1
        line_size = cfg.line_size
        if cfg.degree == 1:
            # Common case, kept allocation-free when the dedup filter hits.
            scale = line_size // abs(stride)
            target = addr + stride * entry.distance * (scale if scale else 1)
            target_line = target // line_size
            if target_line == entry.last_prefetched_line:
                return []
            entry.last_prefetched_line = target_line
            return [PrefetchRequest(addr=target_line * line_size,
                                    size=line_size)]
        requests: List[PrefetchRequest] = []
        for step in range(cfg.degree):
            target = addr + stride * (entry.distance + step) * \
                max(1, line_size // max(1, abs(stride)))
            target_line = target // line_size
            if target_line == entry.last_prefetched_line:
                continue
            entry.last_prefetched_line = target_line
            requests.append(PrefetchRequest(addr=target_line * line_size,
                                            size=line_size))
        return requests

    def on_access(self, ctx: AccessContext) -> List[PrefetchRequest]:
        entry = self.observe(ctx.pc, ctx.addr, ctx.now)
        if entry is None:
            return []
        return self.prefetches_for(entry, ctx.addr)

    def reset(self) -> None:
        self._table.clear()
        self.streams_detected = 0
