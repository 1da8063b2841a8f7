"""System configuration (Table 1 of the paper).

The defaults mirror the paper's baseline platform:

* 1 GHz in-order, single-issue cores (16 / 64 / 256 of them),
* 32 KB 4-way L1 data caches with 64-byte lines,
* a shared, physically distributed L2 of ``2 / sqrt(N)`` MB per tile, 8-way,
* ACKwise_4 directory coherence,
* a 2-D mesh NoC with XY routing, 2-cycle hops, 64-bit flits,
* memory controllers in a diamond placement, 100 ns DRAM latency and
  10 GB/s per controller, with aggregate DRAM bandwidth and L2 capacity
  scaling with ``sqrt(N)`` (the paper's scalability assumption).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Mapping, Optional, Tuple

from repro.contract import (LIMIT, NON_NEGATIVE, POSITIVE, Range, check,
                            check_keys, check_sectors, one_of, registered)
from repro.registry import DRAM_MODELS, NOC_KERNELS, PREFETCHERS


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a single cache (one L1, or one L2 slice)."""

    size_bytes: int
    associativity: int
    line_size: int = 64
    sector_size: int = 0  # 0 = not sectored
    hit_latency: int = 1

    RANGES = {"size_bytes": POSITIVE, "associativity": POSITIVE,
              "line_size": POSITIVE, "sector_size": NON_NEGATIVE,
              "hit_latency": NON_NEGATIVE}

    def __post_init__(self) -> None:
        check(self)
        if self.size_bytes % (self.associativity * self.line_size) != 0:
            raise ValueError(
                f"size_bytes must be a multiple of associativity * "
                f"line_size, got {self.size_bytes}")
        if self.sector_size and self.line_size % self.sector_size != 0:
            raise ValueError(
                f"line_size must be a multiple of sector_size, got "
                f"{self.line_size}")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_size)

    @property
    def sectors_per_line(self) -> int:
        return self.line_size // self.sector_size if self.sector_size else 1


@dataclass(frozen=True)
class NoCConfig:
    """2-D mesh network-on-chip parameters.

    ``kernel`` names the link-reservation backend
    (:data:`repro.registry.NOC_KERNELS`): ``"compiled"`` (the default —
    the whole-route kernel compiled to C, falling back to
    ``"reference"`` with a warning on hosts without the optional
    extension build) or ``"reference"`` (the per-link
    ``ResourceSchedule`` walk the equivalence suite holds ``compiled``
    to).  Both backends are bit-identical in placements and statistics;
    the ``$REPRO_NOC_KERNEL`` environment variable overrides the choice
    at mesh-construction time without changing the configuration (or any
    sweep-cache digest derived from it).
    """

    hop_latency: int = 2          # 1 router + 1 link cycle per hop
    flit_bytes: int = 8           # 64-bit flits
    header_flits: int = 1         # request/response header
    link_bandwidth_flits: float = 1.0  # flits per cycle per link
    kernel: str = "compiled"      # NOC_KERNELS backend name

    RANGES = {"hop_latency": NON_NEGATIVE, "flit_bytes": POSITIVE,
              "header_flits": NON_NEGATIVE, "link_bandwidth_flits": POSITIVE,
              "kernel": registered(NOC_KERNELS)}

    def __post_init__(self) -> None:
        check(self)


@dataclass(frozen=True)
class LevelConfig:
    """One level of a configurable cache hierarchy.

    ``scope`` is ``"private"`` (one cache per core, at the core's tile) or
    ``"shared"`` (one slice per tile of a single distributed cache, homed by
    line interleaving).  For shared levels ``size_bytes`` is the capacity of
    **one slice**, mirroring how the Table 1 L2 is specified per tile.
    """

    name: str
    size_bytes: int
    associativity: int
    scope: str = "private"
    line_size: int = 64
    hit_latency: int = 1
    sector_size: int = 0  # 0 = not sectored (partial knobs may sector L1/shared)

    RANGES = {"size_bytes": POSITIVE, "associativity": POSITIVE,
              "scope": one_of("private", "shared"), "line_size": POSITIVE,
              "hit_latency": NON_NEGATIVE, "sector_size": NON_NEGATIVE}

    def __post_init__(self) -> None:
        check(self)
        # The geometry rules relating several fields are CacheConfig's.
        self.cache_config()

    def cache_config(self, sector_size: Optional[int] = None) -> CacheConfig:
        """The :class:`CacheConfig` for one cache (or slice) of this level."""
        return CacheConfig(size_bytes=self.size_bytes,
                           associativity=self.associativity,
                           line_size=self.line_size,
                           sector_size=(self.sector_size if sector_size is None
                                        else sector_size),
                           hit_latency=self.hit_latency)

    def to_dict(self) -> dict:
        from dataclasses import asdict
        return asdict(self)


@dataclass(frozen=True)
class PrefetcherAttach:
    """One prefetcher attachment point in a :class:`HierarchyConfig`.

    ``level`` names the hierarchy level the prefetcher observes and fills.
    ``prefetcher`` is a :data:`repro.registry.PREFETCHERS` name
    (``"stream"``, ``"imp"``, ...); ``None`` means "the experiment mode's
    prefetcher" — the classic behaviour, where the mode (``imp``,
    ``base``, ...) decides what runs at the attachment point.

    Private-level attachments are per-core: the prefetcher sees every
    demand access that reaches that level (all of them at the L1; the miss
    stream of the levels above elsewhere).  A shared-level attachment is
    per-slice: each slice of the distributed last level carries its own
    prefetcher instance observing the demand fetches arriving at that
    slice (slice-local hits and misses), and its prefetches fill the slice
    from DRAM.
    """

    level: str
    prefetcher: Optional[str] = None

    RANGES = {"prefetcher": registered(PREFETCHERS)}

    def __post_init__(self) -> None:
        check(self)

    def to_dict(self) -> dict:
        return {"level": self.level, "prefetcher": self.prefetcher}


def _entries(name: str, value) -> tuple:
    if not isinstance(value, (tuple, list)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def _coerce_level(entry) -> LevelConfig:
    if isinstance(entry, LevelConfig):
        return entry
    try:
        return LevelConfig(**entry)
    except TypeError as exc:      # not a mapping, or not LevelConfig's keys
        raise ValueError(f"bad levels entry {entry!r}: {exc}") from None


def _coerce_attach(entry) -> PrefetcherAttach:
    if isinstance(entry, PrefetcherAttach):
        return entry
    if isinstance(entry, str):
        return PrefetcherAttach(level=entry)
    if isinstance(entry, dict):
        check_keys(entry, ("level", "prefetcher"), "attach")
        if "level" not in entry:
            raise ValueError("an attach entry must name a 'level'")
        return PrefetcherAttach(**entry)
    raise ValueError(f"bad attach entry {entry!r}: expected a level name, "
                     f"a {{level, prefetcher}} mapping, or a "
                     f"PrefetcherAttach")


@dataclass(frozen=True)
class HierarchyConfig:
    """Shape of the cache hierarchy: an ordered chain of levels.

    The chain runs inside-out: ``levels[0]`` is what cores issue accesses
    to, the **last** level is the single shared, distributed level that
    fronts DRAM and owns the directory (the coherence point), and any
    levels in between are private per-core caches.  The classic paper
    platform is the two-level chain ``(l1 private, l2 shared)``; a
    ``(l1 private, l2 private, l3 shared)`` chain gives each core a private
    L2 under a shared L3.  Chains may be arbitrarily deep; levels beyond
    the third account into dynamic ``lN_*`` counters on
    :class:`repro.sim.stats.CoreStats`.

    ``attach`` lists the prefetcher attachment points
    (:class:`PrefetcherAttach`): a level can carry zero or more
    prefetchers (e.g. a stream prefetcher at the L1 *and* IMP at the
    private L2), and the shared last level may carry per-slice
    prefetchers.  ``prefetch_level`` is accepted as legacy input sugar for
    the single-attach form (``attach=[{"level": prefetch_level}]``) and is
    normalised away: after construction ``attach`` is the single source of
    truth and ``prefetch_level`` is always ``None``, so the two spellings
    compare (and digest) equal.
    """

    levels: Tuple[LevelConfig, ...]
    attach: Optional[Tuple[PrefetcherAttach, ...]] = None
    prefetch_level: Optional[str] = None

    def __post_init__(self) -> None:
        # Tolerate lists/dicts from JSON-shaped constructors.
        levels = tuple(map(_coerce_level, _entries("levels", self.levels)))
        object.__setattr__(self, "levels", levels)
        if len(levels) < 2:
            raise ValueError("a hierarchy needs at least two levels "
                             "(innermost private + shared last level)")
        names = [lvl.name for lvl in levels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate level names in hierarchy: {names}")
        for lvl in levels[:-1]:
            if lvl.scope != "private":
                raise ValueError(
                    f"level {lvl.name!r}: only the last hierarchy level may "
                    f"be shared (it is the coherence point before DRAM)")
        if levels[-1].scope != "shared":
            raise ValueError(
                f"last hierarchy level {levels[-1].name!r} must be shared "
                f"(it fronts DRAM and owns the directory)")
        line_sizes = {lvl.line_size for lvl in levels}
        if len(line_sizes) != 1:
            raise ValueError(
                f"all hierarchy levels must share one line size, "
                f"got {sorted(line_sizes)}")
        # ----- prefetcher attachment ----------------------------------
        if self.attach is not None and self.prefetch_level is not None:
            raise ValueError(
                "give either 'attach' (the per-level attachment list) or "
                "the legacy 'prefetch_level', not both")
        if self.attach is None:
            level = self.prefetch_level if self.prefetch_level is not None \
                else names[0]
            if level not in names[:-1]:
                raise ValueError(
                    f"prefetch_level {level!r} must name a "
                    f"private level; private levels: {names[:-1]}")
            attach = (PrefetcherAttach(level=level),)
        else:
            attach = tuple(map(_coerce_attach,
                               _entries("attach", self.attach)))
            seen = set()
            for entry in attach:
                if entry.level not in names:
                    raise ValueError(
                        f"attach level {entry.level!r} is not a hierarchy "
                        f"level; valid levels: {names}")
                key = (entry.level, entry.prefetcher)
                if key in seen:
                    raise ValueError(
                        f"duplicate prefetcher attachment "
                        f"(level={entry.level!r}, "
                        f"prefetcher={entry.prefetcher!r}); each "
                        f"(level, prefetcher) pair may appear once")
                seen.add(key)
        object.__setattr__(self, "attach", attach)
        object.__setattr__(self, "prefetch_level", None)

    # ------------------------------------------------------------------
    @property
    def private_levels(self) -> Tuple[LevelConfig, ...]:
        return self.levels[:-1]

    @property
    def shared_level(self) -> LevelConfig:
        return self.levels[-1]

    def level_index(self, name: str) -> int:
        for index, lvl in enumerate(self.levels):
            if lvl.name == name:
                return index
        raise ValueError(f"unknown hierarchy level {name!r}; "
                         f"valid levels: {self.level_names()}")

    @property
    def private_attaches(self) -> Tuple[PrefetcherAttach, ...]:
        """Attachments at private levels, inner levels first (attachments
        at one level keep their ``attach``-list order)."""
        shared = self.levels[-1].name
        return tuple(sorted((a for a in self.attach if a.level != shared),
                            key=lambda a: self.level_index(a.level)))

    @property
    def shared_attaches(self) -> Tuple[PrefetcherAttach, ...]:
        """Attachments at the shared last level (per-slice prefetchers)."""
        shared = self.levels[-1].name
        return tuple(a for a in self.attach if a.level == shared)

    def level_names(self) -> List[str]:
        return [lvl.name for lvl in self.levels]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"levels": [lvl.to_dict() for lvl in self.levels],
                "attach": [entry.to_dict() for entry in self.attach],
                "prefetch_level": None}

    @classmethod
    def from_dict(cls, doc: dict) -> "HierarchyConfig":
        return cls(**doc)


@dataclass(frozen=True)
class DramConfig:
    """DRAM model parameters (simple model and DDR3-style banked model)."""

    model: str = "simple"               # "simple" or "banked"
    latency_cycles: int = 100           # 100 ns at 1 GHz
    bandwidth_bytes_per_cycle: float = 10.0   # 10 GB/s per MC at 1 GHz
    access_granularity: int = 32        # minimum DRAM burst (Section 4.1)
    # DDR3-10-10-10-24 style timing for the banked model.
    banks_per_rank: int = 8
    t_rcd: int = 10
    t_rp: int = 10
    t_cas: int = 10
    t_ras: int = 24
    row_size: int = 2048

    RANGES = {"model": registered(DRAM_MODELS),
              "latency_cycles": NON_NEGATIVE,
              "bandwidth_bytes_per_cycle": POSITIVE,
              "access_granularity": POSITIVE, "banks_per_rank": POSITIVE,
              "t_rcd": NON_NEGATIVE, "t_rp": NON_NEGATIVE,
              "t_cas": NON_NEGATIVE, "t_ras": NON_NEGATIVE,
              "row_size": POSITIVE}

    def __post_init__(self) -> None:
        check(self)


#: A core count the 2-D mesh can tile.
MESH_CORES = Range(lambda v: 0 < v < LIMIT and math.isqrt(v) ** 2 == v,
                   "a positive perfect square (1, 4, 16, 64, ...) for a "
                   "2-D mesh")


@dataclass(frozen=True)
class SystemConfig:
    """Full platform configuration (Table 1)."""

    n_cores: int = 64
    frequency_ghz: float = 1.0
    core_model: str = "in-order"        # "in-order" or "ooo"
    rob_size: int = 32                  # used only by the OoO model
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(32 * 1024, 4))
    l2_assoc: int = 8
    l2_total_mb_at_1core: float = 2.0   # per-tile L2 = 2/sqrt(N) MB
    noc: NoCConfig = field(default_factory=NoCConfig)
    dram: DramConfig = field(default_factory=DramConfig)
    ackwise_pointers: int = 4
    # Partial cacheline accessing (Section 4): sector sizes used when enabled.
    l1_sector_size: int = 8
    l2_sector_size: int = 32
    partial_noc: bool = False
    partial_dram: bool = False
    # Idealisation knobs for the baselines of Section 5.4.
    ideal_memory: bool = False          # "Ideal": every access hits L1
    perfect_prefetch: bool = False      # "PerfPref": magic prefetcher, finite BW
    perfect_prefetch_lead: int = 2000   # cycles of lead time for PerfPref
    # Optional explicit hierarchy shape.  ``None`` (the default) means the
    # classic Table 1 chain derived from ``l1d`` / ``l2_*`` above: private
    # L1s under one shared, distributed L2.  Setting a HierarchyConfig
    # overrides that shape entirely (extra private levels, an L3, a
    # different prefetcher attachment point); see
    # :meth:`resolved_hierarchy`.
    hierarchy: Optional[HierarchyConfig] = None

    RANGES = {"n_cores": MESH_CORES, "frequency_ghz": POSITIVE,
              "core_model": one_of("in-order", "ooo"),
              "rob_size": POSITIVE, "l2_assoc": POSITIVE,
              "l2_total_mb_at_1core": POSITIVE,
              "ackwise_pointers": POSITIVE,
              "perfect_prefetch_lead": NON_NEGATIVE}

    def __post_init__(self) -> None:
        check(self)
        # Every hierarchy level shares one line size.
        check_sectors(self, self.l1d.line_size if self.hierarchy is None
                      else self.hierarchy.levels[0].line_size)

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def mesh_dim(self) -> int:
        """Side length of the square mesh."""
        return int(round(math.sqrt(self.n_cores)))

    @property
    def l2_slice_bytes(self) -> int:
        """Per-tile L2 slice capacity: ``2 / sqrt(N)`` MB, Table 1."""
        per_tile_mb = self.l2_total_mb_at_1core / math.sqrt(self.n_cores)
        raw = int(per_tile_mb * 1024 * 1024)
        # Round down to a legal cache geometry.
        granule = self.l2_assoc * self.l1d.line_size
        return max(granule, (raw // granule) * granule)

    @property
    def l2_slice(self) -> CacheConfig:
        """CacheConfig of one L2 slice."""
        sector = self.l2_sector_size if (self.partial_noc or self.partial_dram) else 0
        return CacheConfig(size_bytes=self.l2_slice_bytes,
                           associativity=self.l2_assoc,
                           line_size=self.l1d.line_size,
                           sector_size=sector,
                           hit_latency=8)

    @property
    def l1d_effective(self) -> CacheConfig:
        """L1D config, sectored when partial accessing is enabled."""
        sector = self.l1_sector_size if (self.partial_noc or self.partial_dram) else 0
        return replace(self.l1d, sector_size=sector)

    @property
    def num_memory_controllers(self) -> int:
        """Number of MCs; aggregate bandwidth scales with ``sqrt(N)``."""
        return max(1, self.mesh_dim // 2)

    def memory_controller_tiles(self) -> List[int]:
        """Tiles hosting memory controllers, in a diamond placement.

        Following Abts et al. (diamond placement for meshes with XY routing),
        controllers are spread over distinct rows and columns around the
        centre of the mesh so traffic is distributed uniformly.
        """
        dim = self.mesh_dim
        count = self.num_memory_controllers
        tiles: List[int] = []
        # Walk the diamond |x - cx| + |y - cy| = r outwards from the centre
        # until enough distinct tiles have been collected.
        cx = cy = (dim - 1) / 2.0
        candidates: List[Tuple[float, int]] = []
        for y in range(dim):
            for x in range(dim):
                dist = abs(x - cx) + abs(y - cy)
                candidates.append((dist, y * dim + x))
        candidates.sort()
        seen_rows: set = set()
        seen_cols: set = set()
        for _, tile in candidates:
            row, col = divmod(tile, dim)
            if row in seen_rows or col in seen_cols:
                continue
            tiles.append(tile)
            seen_rows.add(row)
            seen_cols.add(col)
            if len(tiles) == count:
                break
        # Fall back to closest-to-centre tiles when the diamond constraint
        # cannot yield enough tiles (tiny meshes).
        for _, tile in candidates:
            if len(tiles) == count:
                break
            if tile not in tiles:
                tiles.append(tile)
        return sorted(tiles)

    # ------------------------------------------------------------------
    # Convenience constructors for the paper's named configurations
    # ------------------------------------------------------------------
    def with_cores(self, n_cores: int) -> "SystemConfig":
        """Return a copy of this config with a different core count."""
        return replace(self, n_cores=n_cores)

    def as_ideal(self) -> "SystemConfig":
        """The paper's *Ideal* configuration: every access hits in the L1."""
        return replace(self, ideal_memory=True, perfect_prefetch=False)

    def as_perfect_prefetch(self) -> "SystemConfig":
        """The *Perfect Prefetching* configuration: magic prefetcher."""
        return replace(self, ideal_memory=False, perfect_prefetch=True)

    def with_partial(self, noc: bool = True, dram: bool = False) -> "SystemConfig":
        """Enable partial cacheline accessing in the NoC and/or DRAM."""
        return replace(self, partial_noc=noc, partial_dram=dram)

    def with_ooo(self, rob_size: int = 32) -> "SystemConfig":
        """Use the out-of-order core model (Figure 13)."""
        return replace(self, core_model="ooo", rob_size=rob_size)

    def with_hierarchy(self, hierarchy: Optional[HierarchyConfig]) -> "SystemConfig":
        """Return a copy with an explicit hierarchy shape (``None`` restores
        the classic two-level chain)."""
        return replace(self, hierarchy=hierarchy)

    def resolved_hierarchy(self) -> HierarchyConfig:
        """The effective hierarchy shape.

        Returns :attr:`hierarchy` when set; otherwise the classic Table 1
        chain — private L1s (``l1d``) under the shared, distributed L2
        (``l2_slice``), the mode's prefetcher attached at ``l1`` —
        expressed as a :class:`HierarchyConfig`.  The memory system is
        built from this, so every configuration simulates on one walk.
        """
        if self.hierarchy is not None:
            return self.hierarchy
        l1 = self.l1d
        l2 = self.l2_slice
        return HierarchyConfig(levels=(
            LevelConfig(name="l1", size_bytes=l1.size_bytes,
                        associativity=l1.associativity,
                        scope="private", line_size=l1.line_size,
                        hit_latency=l1.hit_latency,
                        sector_size=l1.sector_size),
            LevelConfig(name="l2", size_bytes=l2.size_bytes,
                        associativity=l2.associativity,
                        scope="shared", line_size=l2.line_size,
                        hit_latency=l2.hit_latency,
                        sector_size=l2.sector_size),
        ))

    # ------------------------------------------------------------------
    # Serialisation (sweep specs, persistent result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        from dataclasses import asdict
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SystemConfig":
        doc = dict(doc)
        for key, nested in NESTED_CONFIGS.items():
            if isinstance(doc.get(key), Mapping):
                doc[key] = nested(**doc[key])
        return cls(**doc)


#: The :class:`SystemConfig` fields holding a nested configuration, with
#: its class: a document spells each as a mapping of that class's fields.
NESTED_CONFIGS = {"l1d": CacheConfig, "noc": NoCConfig, "dram": DramConfig,
                  "hierarchy": HierarchyConfig}
