"""Global History Buffer (GHB) correlation prefetcher.

The paper compares against a correlation prefetcher based on the GHB of
Nesbit & Smith (Section 5.4) and finds it provides no benefit on these
workloads: indirect access streams are far too long and too irregular to
repeat within a reasonably sized history buffer.  We implement the classic
G/AC (global, address-correlating) organisation:

* a circular *history buffer* of recent miss addresses, each entry linked to
  the previous entry with the same key,
* an *index table* mapping a key (the miss address) to the most recent
  history-buffer entry for that key,
* on a miss, the prefetcher follows the chain to the previous occurrence of
  the same address and prefetches the addresses that followed it last time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from repro.prefetchers.base import AccessContext, PrefetcherBase, PrefetchRequest


@dataclass
class GHBConfig:
    """GHB geometry."""

    buffer_size: int = 256
    index_table_size: int = 256
    degree: int = 2                # addresses prefetched per correlation hit
    line_size: int = 64
    train_on_hits: bool = False    # classic GHB trains on the miss stream only


#: Shared empty result for the no-prefetch case (never mutated; callers
#: treat the return value of ``on_access`` as read-only).
_NO_REQUESTS: List[PrefetchRequest] = []


class GHBPrefetcher(PrefetcherBase):
    """Global History Buffer, address-correlating organisation.

    The history buffer is stored as two flat preallocated columns (miss
    address and same-key predecessor link, indexed by ``position %
    buffer_size``) rather than per-entry objects, and the recency order of
    index-table keys as a pair of lockstep deques — recording a miss, the
    per-access steady-state operation, allocates nothing.
    """

    __slots__ = ("config", "_buf_addr", "_buf_prev", "_head", "_index",
                 "_order_pos", "_order_key", "correlation_hits",
                 "observes_hits", "_buffer_size", "_index_size", "_degree",
                 "_line_size", "_order_bound")

    name = "ghb"

    def __init__(self, config: Optional[GHBConfig] = None) -> None:
        self.config = config or GHBConfig()
        # The classic GHB trains on the miss stream only: on_access with a
        # hit is a no-op, so the memory system may skip notifying it.
        self.observes_hits = self.config.train_on_hits
        # Geometry scalars, hoisted out of the per-miss path.
        self._buffer_size = self.config.buffer_size
        self._index_size = self.config.index_table_size
        self._degree = self.config.degree
        self._line_size = self.config.line_size
        self._order_bound = 4 * self._index_size + 64
        self._buf_addr: List[int] = [-1] * self._buffer_size
        self._buf_prev: List[int] = [-1] * self._buffer_size
        self._head = 0             # next write position (monotonic counter)
        self._index: Dict[int, int] = {}
        #: (position, key) pairs in insertion order, split across two
        #: lockstep deques; used to find the least-recently-recorded key in
        #: amortised O(1) instead of scanning the whole index table on
        #: every recorded miss.
        self._order_pos: Deque[int] = deque()
        self._order_key: Deque[int] = deque()
        self.correlation_hits = 0

    # ------------------------------------------------------------------
    def _addr_at(self, position: int) -> int:
        """Recorded miss address at a history position; -1 if overwritten."""
        if position < 0 or position < self._head - self._buffer_size:
            return -1
        return self._buf_addr[position % self._buffer_size]

    def _record(self, addr: int) -> None:
        key = addr // self._line_size
        index = self._index
        head = self._head
        slot = head % self._buffer_size
        self._buf_addr[slot] = addr
        self._buf_prev[slot] = index.get(key, -1)
        index[key] = head
        order_pos = self._order_pos
        order_key = self._order_key
        order_pos.append(head)
        order_key.append(key)
        self._head = head + 1
        if len(order_pos) > self._order_bound:
            # Compact: drop stale pairs (keys since re-recorded at a newer
            # position).  The live pairs, kept in position order, are
            # exactly what victim selection consults, so this is a pure
            # space bound — without it the deques grow by one pair per
            # recorded miss whenever the index table never overflows.
            live = sorted((position, k) for k, position in index.items())
            self._order_pos = order_pos = deque(p for p, _ in live)
            self._order_key = order_key = deque(k for _, k in live)
        if len(index) > self._index_size:
            # Evict the key whose last record is oldest.  Stale deque pairs
            # (whose key has since been re-recorded at a newer position) are
            # skipped; the first live pair holds the minimal position, i.e.
            # exactly the victim a full min-scan of the index would find.
            while True:
                position = order_pos.popleft()
                stale = order_key.popleft()
                if index.get(stale) == position:
                    del index[stale]
                    break

    # ------------------------------------------------------------------
    def on_access(self, ctx: AccessContext) -> List[PrefetchRequest]:
        if ctx.hit and not self.config.train_on_hits:
            return _NO_REQUESTS
        addr = ctx.addr
        line_size = self._line_size
        position = self._index.get(addr // line_size, -1)
        requests = _NO_REQUESTS
        if position >= self._head - self._buffer_size and position >= 0:
            # Found a previous occurrence of this miss address: prefetch the
            # addresses that followed it last time.
            self.correlation_hits += 1
            requests = []
            for offset in range(1, self._degree + 1):
                successor = self._addr_at(position + offset)
                if successor < 0:
                    break
                line = successor // line_size * line_size
                requests.append(PrefetchRequest(addr=line, size=line_size))
        self._record(addr)
        return requests

    def reset(self) -> None:
        self._buf_addr = [-1] * self._buffer_size
        self._buf_prev = [-1] * self._buffer_size
        self._head = 0
        self._index.clear()
        self._order_pos.clear()
        self._order_key.clear()
        self.correlation_hits = 0
