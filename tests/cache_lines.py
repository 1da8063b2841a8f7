"""Test helper: read the resident lines of a :class:`repro.memory.cache.Cache`.

The cache keeps its lines in flat per-(set, way) columns and has no
per-line object.  Tests that assert on line state read it through
:func:`line_at` and :func:`resident_lines`, which decode one slot of those
columns into a plain :class:`Line` tuple.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.memory.cache import (
    FLAG_DIRTY,
    FLAG_FROM_PREFETCH,
    FLAG_PREFETCH_REFERENCED,
    Cache,
)


class Line(NamedTuple):
    addr: int
    dirty: bool
    ready_time: float
    last_use: float
    from_prefetch: bool
    prefetch_referenced: bool
    sector_valid: int


def _decode(cache: Cache, way: int) -> Line:
    flags = cache._flags[way]
    return Line(cache._addrs[way], bool(flags & FLAG_DIRTY),
                cache._ready[way], cache._last_use[way],
                bool(flags & FLAG_FROM_PREFETCH),
                bool(flags & FLAG_PREFETCH_REFERENCED),
                cache._sector_valid[way])


def line_at(cache: Cache, addr: int) -> Optional[Line]:
    """State of the resident line containing ``addr``, or None."""
    way = cache._way_of(addr)
    return None if way is None else _decode(cache, way)


def resident_lines(cache: Cache) -> List[Line]:
    """State of every resident line, set by set."""
    return [_decode(cache, way)
            for index in cache._index for way in index.values()]
