"""Whole-route NoC link-reservation kernels.

The per-link reservation loop is the hottest code in the simulator once the
memory hierarchy is allocation-free: every NoC message must place itself
into the earliest idle gap of every directed link along its XY route, and
the paper's scalability argument (bisection bandwidth grows with ``sqrt(N)``
while traffic grows with ``N``, Section 6.2) makes exactly this loop the
bottleneck at scale.  This module carves that loop behind a narrow,
registry-driven backend boundary so the algorithm can be swapped without
touching :class:`repro.noc.mesh.MeshNoC` (geometry, route caching, traffic
accounting) or any fidelity golden.

Kernel API contract
-------------------

A backend is registered in :data:`repro.registry.NOC_KERNELS` under a name
selectable via ``NoCConfig(kernel=...)``, scenario JSON
(``"system": {"noc": {"kernel": ...}}``) or the ``$REPRO_NOC_KERNEL``
environment override.  Its factory is called as ``factory(hop_latency=...)``
and must return an object implementing:

``route_reserver(links, serialization)``
    Compile a route — a tuple of directed ``(src_tile, dst_tile)`` links —
    and a fixed per-link serialization delay into a single callable
    ``reserve(time) -> float``.  Called once per distinct
    (src, dst, payload) send on the cold cache-build path; the mesh caches
    the callable and replays it millions of times, so THE hot path is one
    plain function call per message.  ``reserve`` walks the route's links
    in order: at each link it reserves ``serialization`` time units at the
    earliest idle instant at or after the message's arrival, then advances
    the message to the reservation start plus ``hop_latency``; after the
    last link it adds one more ``serialization`` (the pipeline drain of
    the message body) and returns the delivery time.  Placement decisions
    and per-link busy accumulation must be bit-identical to
    :meth:`repro.sim.queueing.ResourceSchedule.reserve` at every link.

``links()`` / ``busy_time(link)`` / ``intervals(link)``
    Introspection: the directed links ever compiled into a reserver, the
    total time ever reserved on one link, and the retained
    ``(starts, ends)`` reservation intervals.  Backends may retain
    already-dead intervals for different lengths of time — pruning
    *timing* is an implementation detail that provably never changes
    placements — so state comparisons must window intervals to a common
    live horizon (see :func:`live_intervals`).

``reset()``
    Drop all reservation state (between independent runs).  Reservers
    compiled before a reset are invalid; the mesh drops its send cache.

Every backend (like :class:`ResourceSchedule` itself) relies on the
simulator's bounded-disorder invariant: arrival times at one resource
never regress by more than ``PRUNE_SLACK`` from the newest arrival seen,
so reservations ending more than the slack in the past can never influence
a placement and may be discarded at any convenient moment.  (The global
event heap dispatches cores in time order, which bounds injection
disorder by the in-flight lookahead — far below the slack.)

The ``reference`` backend is the per-link implementation —
:class:`~repro.sim.queueing.ResourceSchedule` objects, one ``reserve`` call
per link — and is the single home of those semantics (``MeshNoC`` carries
no hand-inlined copy).  The default ``compiled`` backend runs the same
placements as a whole-route walk in C (:mod:`repro._nockernel`, built
optionally by ``setup.py``; see :class:`CompiledKernel`).  Hosts without
the extension (or with ``$REPRO_NO_CEXT=1``) fall back to ``reference`` at
resolution time.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Callable, Dict, List, Tuple

from repro.registry import NOC_KERNELS
from repro.sim.queueing import ResourceSchedule

Link = Tuple[int, int]

#: Reservations ending this many cycles before the newest arrival can never
#: influence a placement (the simulator's bounded-disorder invariant —
#: see :class:`ResourceSchedule`); shared by every backend so live-state
#: windows line up.
PRUNE_SLACK = ResourceSchedule.PRUNE_SLACK

#: The compiled backend prunes in one batched sweep over every link each
#: time this many route reservations have been made, amortising the prune
#: cost across whole routes instead of paying a check per link per message.
SWEEP_PERIOD = 4096

#: Dead-prefix length at which a sweep physically compacts a link's slab
#: (shorter prefixes are pruned logically by advancing the head index).
#: Kept small: a sweep runs once per SWEEP_PERIOD route reservations, so
#: the compaction memmove is negligible there, while an uncompacted slab
#: retains dead floats that crowd everything else out of cache.
COMPACT_THRESHOLD = 64


def _flat_reserver(hop_latency: float, n_links: int,
                   serialization: float) -> Callable[[float], float]:
    """Reserver for a zero-width (``serialization <= 0``) route: such
    messages never occupy a link or accrue busy time, so the route reduces
    to pure latency.  The hops are added sequentially (not pre-summed)
    to stay bit-identical with the reference backend's per-link walk.
    """
    hops = (hop_latency,) * n_links

    def reserve_flat(time: float, _hops=hops, _s=serialization) -> float:
        for hop in _hops:
            time += hop
        return time + _s

    return reserve_flat


def live_intervals(starts: List[float], ends: List[float],
                   horizon: float) -> List[Tuple[float, float]]:
    """The busy coverage at or after ``horizon``, as merged intervals.

    Two backends' retained state is only comparable above a horizon
    neither has pruned past (e.g. the later of their first retained
    interval ends, which can exceed ``newest_arrival - PRUNE_SLACK`` on
    saturated links where per-link arrival times outrun injection times).
    Above such a horizon the busy *coverage* is bit-identical, but the
    interval *structure* need not be: an arrival landing exactly on a
    pruned tail's end is coalesced into it by a backend that still
    retains the tail and opens a fresh interval in one that does not.
    This helper therefore clips intervals to ``[horizon, inf)`` and fuses
    exact-touch neighbours, normalising away both sanctioned differences.
    """
    position = bisect_left(ends, horizon)
    coverage: List[Tuple[float, float]] = []
    for start, end in zip(starts[position:], ends[position:]):
        if end <= horizon:
            continue
        if start < horizon:
            start = horizon
        if coverage and coverage[-1][1] == start:
            coverage[-1] = (coverage[-1][0], end)
        else:
            coverage.append((start, end))
    return coverage


class ReferenceKernel:
    """One :class:`ResourceSchedule` per directed link.

    This backend is the executable specification the randomized
    equivalence suite holds every other backend to, the single home of
    the earliest-gap placement algorithm (``ResourceSchedule.reserve``),
    and the fallback on hosts without the compiled extension.
    """

    __slots__ = ("_hop_latency", "_links")

    def __init__(self, hop_latency: float) -> None:
        self._hop_latency = hop_latency
        self._links: Dict[Link, ResourceSchedule] = {}

    def _schedule(self, link: Link) -> ResourceSchedule:
        schedule = self._links.get(link)
        if schedule is None:
            schedule = self._links[link] = ResourceSchedule()
        return schedule

    # -- route compilation ---------------------------------------------
    def route_reserver(self, links: Tuple[Link, ...],
                       serialization: float) -> Callable[[float], float]:
        schedules = tuple(self._schedule(link) for link in links)

        def reserve(time: float, _schedules=schedules,
                    _s=serialization, _hop=self._hop_latency) -> float:
            for schedule in _schedules:
                time = schedule.reserve(time, _s) + _hop
            return time + _s       # pipeline drain of the message body

        return reserve

    # -- introspection -------------------------------------------------
    def links(self) -> List[Link]:
        return list(self._links)

    def busy_time(self, link: Link) -> float:
        schedule = self._links.get(link)
        return schedule.total_busy if schedule is not None else 0.0

    def intervals(self, link: Link) -> Tuple[List[float], List[float]]:
        schedule = self._links.get(link)
        if schedule is None:
            return [], []
        return list(schedule._starts), list(schedule._ends)

    def reset(self) -> None:
        self._links.clear()


def _load_extension():
    """The :mod:`repro._nockernel` extension module, or ``None``.

    Checked per call (not cached at import) so ``$REPRO_NO_CEXT=1`` can be
    flipped by tests and CI legs without reloading the package; the import
    itself is cached by ``sys.modules`` so the steady-state cost is one
    environment lookup.
    """
    if os.environ.get("REPRO_NO_CEXT", "") == "1":
        return None
    try:
        from repro import _nockernel
    except ImportError:
        return None
    return _nockernel


def compiled_kernel_available() -> bool:
    """Whether the compiled backend works on this host (extension built
    and not disabled via ``$REPRO_NO_CEXT=1``)."""
    return _load_extension() is not None


class CompiledKernel:
    """Whole-route reservation over flat per-link slabs, in C
    (:mod:`repro._nockernel`).

    The extension keeps each directed link's state in one record: sorted,
    disjoint, non-touching start/end slabs as C double arrays, the
    watermark (end of the last interval), the busy total, a logical-prune
    head and a frontier cursor.  One call reserves a whole route:

    * **Watermark fast path** — mostly time-ordered traffic arrives at or
      after the link's last interval end and appends (or exact-touch
      coalesces) at the tail in O(1).
    * **Frontier resume** — ends are strictly increasing, so one
      comparison proves every interval before the last out-of-order
      placement is dead for a new out-of-order search, which then resumes
      there instead of re-bisecting from the head.
    * **Batched sweep pruning** — nothing is pruned per reservation.
      Every :data:`SWEEP_PERIOD` route reservations, one sweep advances
      every link's head past intervals that can no longer influence a
      placement and compacts slabs whose dead prefix has grown long.

    This wrapper keeps route compilation policy, the zero-serialization
    flat path and the ``Link`` → slab-id mapping in Python.  The tuning
    constants (:data:`PRUNE_SLACK`, :data:`SWEEP_PERIOD`,
    :data:`COMPACT_THRESHOLD`) are passed into the extension at
    construction so this module stays their single source of truth.

    The compiled reserver returned by :meth:`route_reserver` is the
    extension Route's bound ``reserve`` built-in — one C call per message,
    no Python frame.  Being a genuine ``PyCFunction`` (not an opaque
    ``tp_call`` object) it shows up in cProfile as a C_CALL event, which is
    what lets ``repro profile`` attribute compiled-kernel time to the
    ``noc.kernel`` bucket instead of silently folding it into callers.

    Placements, coalescing decisions and per-link busy totals are
    bit-identical to :class:`ReferenceKernel` — every operation is IEEE
    double arithmetic, exactly what CPython floats are — and the
    randomized equivalence and property suites hold it to that.
    Retained-state differences are confined to pruning timing (see
    :func:`live_intervals`).
    """

    __slots__ = ("_hop_latency", "_ids", "_kernel")

    def __init__(self, hop_latency: float) -> None:
        extension = _load_extension()
        if extension is None:
            raise RuntimeError(
                "the repro._nockernel extension is not importable on this "
                "host (not built, or disabled via $REPRO_NO_CEXT=1); "
                "resolve_kernel_name falls back to 'reference' automatically")
        self._hop_latency = hop_latency
        self._ids: Dict[Link, int] = {}
        self._kernel = extension.Kernel(
            float(hop_latency), PRUNE_SLACK,
            SWEEP_PERIOD, COMPACT_THRESHOLD)

    def _id(self, link: Link) -> int:
        lid = self._ids.get(link)
        if lid is None:
            lid = self._ids[link] = self._kernel.new_link()
        return lid

    # -- route compilation ---------------------------------------------
    def route_reserver(self, links: Tuple[Link, ...],
                       serialization: float) -> Callable[[float], float]:
        if serialization <= 0.0:
            # Zero-width reservations never occupy a link; the extension
            # never sees the route.
            return _flat_reserver(self._hop_latency, len(links),
                                  serialization)
        ids = tuple(self._id(link) for link in links)
        route = self._kernel.compile_route(ids, float(serialization))
        return route.reserve

    # -- pruning -------------------------------------------------------
    def _sweep(self, arrival: float) -> None:
        """Immediate batched prune of every link below ``arrival -
        PRUNE_SLACK`` (a test hook; production pruning is the extension's
        own periodic sweep)."""
        self._kernel.sweep(arrival)

    # -- introspection -------------------------------------------------
    def links(self) -> List[Link]:
        return list(self._ids)

    def busy_time(self, link: Link) -> float:
        lid = self._ids.get(link)
        return self._kernel.busy_time(lid) if lid is not None else 0.0

    def intervals(self, link: Link) -> Tuple[List[float], List[float]]:
        lid = self._ids.get(link)
        if lid is None:
            return [], []
        starts, ends = self._kernel.intervals(lid)
        return starts, ends

    def reset(self) -> None:
        self._ids.clear()
        self._kernel.reset()


NOC_KERNELS.register(
    "reference", ReferenceKernel,
    description="per-link ResourceSchedule walk (executable specification)")
NOC_KERNELS.register(
    "compiled", CompiledKernel,
    description="whole-route reservation compiled to C (repro._nockernel "
                "extension: per-link double slabs, one built-in call per "
                "message); requires the optional extension build",
    available=compiled_kernel_available)


__all__ = [
    "COMPACT_THRESHOLD",
    "CompiledKernel",
    "NOC_KERNELS",
    "PRUNE_SLACK",
    "SWEEP_PERIOD",
    "ReferenceKernel",
    "compiled_kernel_available",
    "live_intervals",
]
