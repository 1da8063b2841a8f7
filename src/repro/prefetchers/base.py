"""Prefetcher interface.

A prefetcher is attached to one L1 data cache.  The memory hierarchy calls
:meth:`PrefetcherBase.on_access` for every demand access the L1 sees (both
hits and misses, as in the paper: IMP "snoops the access and miss stream of
the cache"), and the prefetcher returns a list of :class:`PrefetchRequest`
that the hierarchy then issues asynchronously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional


@dataclass(slots=True)
class AccessContext:
    """Everything a hardware prefetcher can observe about one L1 access.

    .. warning:: The memory hierarchy reuses **one mutable instance** across
       all accesses (and all cores) and rebinds its fields per access.  A
       prefetcher must consume the context inside ``on_access`` — never
       retain the object, and never call ``read_value`` after returning —
       or it will observe fields from a later, unrelated access.
    """

    core_id: int
    pc: int
    addr: int
    size: int
    is_write: bool
    hit: bool
    now: float
    #: Callback returning the integer value the load returned (``None`` when
    #: the location is not backed by data).  Hardware sees load return values
    #: on the cache fill/response path; this models that visibility without
    #: storing data in the cache model.
    read_value: Callable[[], Optional[int]] = field(default=lambda: None)


class PrefetchRequest:
    """A prefetch the hierarchy should issue on behalf of a prefetcher.

    A plain ``__slots__`` class rather than a dataclass: prefetch-heavy runs
    construct one of these per generated prefetch, which makes allocation
    cost measurable.
    """

    __slots__ = ("addr", "size", "is_indirect", "depends_on_previous",
                 "exclusive")

    def __init__(self, addr: int, size: int = 64, is_indirect: bool = False,
                 depends_on_previous: bool = False,
                 exclusive: bool = False) -> None:
        self.addr = addr
        self.size = size               # bytes to fetch (partial uses < 64)
        self.is_indirect = is_indirect  # an A[B[i]] prefetch (vs. stream)
        #: Second-level indirection: the prefetch address can only be
        #: computed after the previous request in this list has returned
        #: (Section 3.3.2).
        self.depends_on_previous = depends_on_previous
        self.exclusive = exclusive     # request the line in Exclusive state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PrefetchRequest(addr={self.addr:#x}, size={self.size}, "
                f"is_indirect={self.is_indirect}, "
                f"depends_on_previous={self.depends_on_previous}, "
                f"exclusive={self.exclusive})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrefetchRequest):
            return NotImplemented
        return (self.addr == other.addr and self.size == other.size
                and self.is_indirect == other.is_indirect
                and self.depends_on_previous == other.depends_on_previous
                and self.exclusive == other.exclusive)


class PrefetcherBase:
    """Base class: a prefetcher that never prefetches.

    Declares empty ``__slots__`` so that slot-using subclasses (the stock
    prefetchers are all on per-access hot paths) actually get dict-free
    instances; subclasses that don't declare ``__slots__`` still work and
    simply fall back to a dict.
    """

    __slots__ = ()

    name = "base"

    #: True when ``on_access`` observes (or could react to) cache *hits*.
    #: Prefetchers that train on the miss stream only (the classic GHB)
    #: override this with False, which lets the memory system skip the
    #: whole notification path — context rebinding, the ``on_access`` call
    #: and its empty result — on the overwhelmingly common L1 hit, and
    #: lets core models keep hits entirely core-local.  Only set it to
    #: False when ``on_access`` with ``ctx.hit`` is a provable no-op.
    observes_hits = True

    def on_access(self, ctx: AccessContext) -> List[PrefetchRequest]:
        """Observe one demand access; return prefetches to issue."""
        return []

    def on_fill(self, addr: int, now: float) -> List[PrefetchRequest]:
        """Observe a fill completing (used for prefetch chaining)."""
        return []

    def on_eviction(self, addr: int, now: float) -> None:
        """Observe an L1 eviction (used by the granularity predictor)."""

    def reset(self) -> None:
        """Clear all learned state."""
