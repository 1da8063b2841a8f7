"""2-D mesh network-on-chip model with XY routing and link contention.

The model matches the paper's NoC (Table 1): a square mesh with dimension-
ordered XY routing, a 2-cycle hop latency (one router cycle plus one link
cycle) and 64-bit flits.  Contention is modelled per directed link with a
simple queueing approximation: each link keeps a reservation schedule, a
message arriving earlier waits, and serialization of the message's flits
occupies the link.  Because the paper's scalability assumption makes
bisection bandwidth grow only with ``sqrt(N)`` while traffic grows with
``N``, this contention is what turns the NoC into a bottleneck at high core
counts (Section 6.2).

This module owns the *geometry*: coordinates, XY routes, flit counts, and
the per-(src, dst, payload) send cache.  The per-link reservation work —
the hottest loop in the simulator — lives behind the swappable kernel
boundary of :mod:`repro.noc.kernel` (:data:`repro.registry.NOC_KERNELS`);
:meth:`MeshNoC.send_fast` makes exactly one kernel call per message.

Traffic is accounted in bytes and flits so Figure 12 can be reproduced.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.registry import NOC_KERNELS
from repro.sim.config import NoCConfig
from repro.sim.stats import TrafficStats

#: Payloads below this fit the packed send-cache key
#: (``pair << 20 | payload``); larger payloads use an unpacked tuple key so
#: they can never alias another (src, dst, payload) combination.
_PACKED_PAYLOAD_LIMIT = 1 << 20


def resolve_kernel_name(config: NoCConfig) -> str:
    """The reservation-kernel backend a mesh built from ``config`` uses.

    The ``$REPRO_NOC_KERNEL`` environment variable (when set and
    non-empty) overrides ``config.kernel``; both spellings are validated
    against :data:`repro.registry.NOC_KERNELS`, so a typo fails with the
    full list of registered backends.

    A *registered but unavailable* backend (the ``compiled`` kernel on a
    host without the extension build, or with ``$REPRO_NO_CEXT=1``)
    resolves to ``reference`` instead, with a one-line warning the first
    time.  Every backend is bit-identical, and the kernel name is excluded
    from RunSpec digests, so the substitution never changes a result or
    splits a cache; failing hard would make specs and scenario files
    host-dependent for no fidelity gain.
    """
    name = os.environ.get("REPRO_NOC_KERNEL") or config.kernel
    entry = NOC_KERNELS.get(name)
    if not entry.is_available():
        if name not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(name)
            print(f"repro: NoC kernel {name!r} is unavailable on this host "
                  f"(extension not built, or $REPRO_NO_CEXT=1); "
                  f"falling back to 'reference' (bit-identical)",
                  file=sys.stderr)
        name = "reference"
    return name


#: Unavailable-backend names already warned about (once per process).
_FALLBACK_WARNED: set = set()


@dataclass(frozen=True)
class Message:
    """One NoC message (request, response, invalidation, data fill...)."""

    src: int
    dst: int
    payload_bytes: int


class MeshNoC:
    """Square 2-D mesh with XY routing and per-link queueing."""

    __slots__ = ("n_tiles", "dim", "config", "traffic", "kernel",
                 "kernel_name", "_send_cache", "_hop_latency")

    def __init__(self, n_tiles: int, config: NoCConfig = NoCConfig(),
                 traffic: TrafficStats = None) -> None:
        dim = int(round(math.sqrt(n_tiles)))
        if dim * dim != n_tiles:
            raise ValueError("n_tiles must be a perfect square")
        self.n_tiles = n_tiles
        self.dim = dim
        self.config = config
        self.traffic = traffic if traffic is not None else TrafficStats()
        #: The link-reservation kernel backend (see repro.noc.kernel).
        self.kernel_name = resolve_kernel_name(config)
        self.kernel = NOC_KERNELS.get(self.kernel_name).factory(
            hop_latency=config.hop_latency)
        # Hot-path cache: everything about one (src, dst, payload) send
        # that does not depend on time — the kernel's compiled reserver
        # for the XY route and payload serialization, plus the precomputed
        # per-hop traffic totals — fused into a single dict lookup keyed
        # by one packed integer.  All of it is recomputed millions of
        # times per run without this.
        self._send_cache: Dict[object, tuple] = {}
        self._hop_latency = config.hop_latency

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def coords(self, tile: int) -> Tuple[int, int]:
        """Return the (x, y) coordinates of a tile."""
        if tile < 0 or tile >= self.n_tiles:
            raise ValueError(f"tile {tile} out of range")
        return tile % self.dim, tile // self.dim

    def tile(self, x: int, y: int) -> int:
        """Return the tile id at coordinates (x, y)."""
        return y * self.dim + x

    def hops(self, src: int, dst: int) -> int:
        """Manhattan distance between two tiles."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return abs(sx - dx) + abs(sy - dy)

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Return the list of directed links of the XY route src -> dst."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        links: List[Tuple[int, int]] = []
        x, y = sx, sy
        while x != dx:
            nx = x + (1 if dx > x else -1)
            links.append((self.tile(x, y), self.tile(nx, y)))
            x = nx
        while y != dy:
            ny = y + (1 if dy > y else -1)
            links.append((self.tile(x, y), self.tile(x, ny)))
            y = ny
        return links

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def _flits(self, payload_bytes: int) -> int:
        cfg = self.config
        data_flits = int(math.ceil(payload_bytes / cfg.flit_bytes)) if payload_bytes else 0
        return cfg.header_flits + data_flits

    def zero_load_latency(self, src: int, dst: int, payload_bytes: int = 0) -> int:
        """Latency of a message on an empty network."""
        flits = self._flits(payload_bytes)
        return self.hops(src, dst) * self.config.hop_latency + flits

    def send(self, message: Message, now: float) -> float:
        """Send a message at time ``now``; return its arrival time."""
        return self.send_fast(message.src, message.dst, message.payload_bytes,
                              now)

    def send_fast(self, src: int, dst: int, payload_bytes: int,
                  now: float) -> float:
        """Scalar variant of :meth:`send` (the hot path — no Message object).

        Contention: at every link of the route the message waits until the
        link is free, then occupies it for the serialization time of its
        flits, with hop latency added per link and the pipeline drain of
        the message body added at the end.  All of that is one call of the
        kernel-compiled route reserver; this method owns only the cache
        lookup and the traffic accounting.
        """
        traffic = self.traffic
        time = now + 0.0   # cheapest int -> float coercion (no call)
        if src == dst:
            # Local access: no network traversal, a single router pass.
            traffic.noc_messages += 1
            return time + self._hop_latency
        pair = src * self.n_tiles + dst
        key = (pair << 20 | payload_bytes
               if payload_bytes < _PACKED_PAYLOAD_LIMIT
               else (pair, payload_bytes))
        cache = self._send_cache
        try:
            reserve, flits_hops, bytes_hops = cache[key]
        except KeyError:
            cache[key] = cached = self._resolve_send(src, dst, payload_bytes)
            reserve, flits_hops, bytes_hops = cached
        time = reserve(time)
        traffic.noc_messages += 1
        traffic.noc_flits += flits_hops
        traffic.noc_bytes += bytes_hops
        return time

    def _resolve_send(self, src: int, dst: int, payload_bytes: int) -> tuple:
        """Build the time-independent part of a (src, dst, payload) send."""
        flits = self._flits(payload_bytes)
        hops = self.hops(src, dst)
        reserve = self.kernel.route_reserver(
            tuple(self.route(src, dst)),
            flits / self.config.link_bandwidth_flits)
        return (reserve, flits * hops, payload_bytes * hops)

    def round_trip(self, src: int, dst: int, request_bytes: int,
                   response_bytes: int, now: float,
                   remote_latency: float = 0.0) -> float:
        """Send a request and its response; return the response arrival time."""
        arrive = self.send(Message(src, dst, request_bytes), now)
        arrive += remote_latency
        return self.send(Message(dst, src, response_bytes), arrive)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def link_utilization(self, now: float) -> float:
        """Average fraction of time links have been busy up to ``now``."""
        kernel = self.kernel
        links = kernel.links()
        if now <= 0 or not links:
            return 0.0
        total_links = 2 * 2 * self.dim * (self.dim - 1)  # directed, both axes
        busy = sum(kernel.busy_time(link) for link in links)
        return busy / (total_links * now) if total_links else 0.0

    def max_link_utilization(self, now: float) -> float:
        """Utilisation of the busiest link up to ``now`` (bottleneck metric)."""
        kernel = self.kernel
        links = kernel.links()
        if now <= 0 or not links:
            return 0.0
        return max(kernel.busy_time(link) for link in links) / now

    def reset_contention(self) -> None:
        """Clear all link occupancy (used between independent runs)."""
        self.kernel.reset()
        # Cached reservers are compiled against the kernel's dropped
        # state; rebuild them lazily against the fresh kernel.
        self._send_cache.clear()
