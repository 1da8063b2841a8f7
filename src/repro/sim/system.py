"""System builder and simulation driver.

This module glues everything together: it builds the memory hierarchy with a
chosen prefetcher at each L1, instantiates one core model per trace, and runs
all cores interleaved in global time order so that contention on the NoC,
the shared L2 and DRAM is resolved the way it would be on real hardware.

The main entry points are :func:`build_system` (when you already have traces
and a memory image) and :func:`run_workload` (when you have a
:class:`repro.workloads.base.Workload`).
"""

from __future__ import annotations

import gc
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.config import IMPConfig
from repro.core.imp import IMP
from repro.mem_image import MemoryImage
from repro.memory.hierarchy import MemorySystem
from repro.prefetchers.base import PrefetcherBase
# The factory lives next to the prefetcher interface so the memory
# hierarchy can resolve multi-attach prefetcher names without importing the
# system builder.
from repro.prefetchers.factory import PrefetcherSpec, make_prefetcher_factory
from repro.sim.config import SystemConfig
from repro.sim.core_model import make_core
from repro.sim.stats import CoreStats, SystemStats
from repro.sim.trace import Trace


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    config: SystemConfig
    stats: SystemStats
    prefetcher: str = "stream"
    workload: str = ""
    imps: List[IMP] = field(default_factory=list)

    @property
    def runtime_cycles(self) -> int:
        return self.stats.runtime_cycles

    @property
    def throughput(self) -> float:
        return self.stats.throughput

    def speedup_over(self, other: "SimulationResult") -> float:
        """Runtime speedup of this configuration relative to ``other``."""
        if self.runtime_cycles == 0:
            return 0.0
        return other.runtime_cycles / self.runtime_cycles

    def normalized_throughput(self, reference: "SimulationResult") -> float:
        """Throughput normalised to a reference run (as in Figures 9/11)."""
        if reference.throughput == 0:
            return 0.0
        return self.throughput / reference.throughput

    # ------------------------------------------------------------------
    # Serialisation (sweep workers, persistent result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable form of this result.

        Carries the full per-core statistics and the resolved system
        configuration, which is everything the figure/table generators
        consume.  Live prefetcher objects (``imps``) are introspection-only
        and deliberately not serialised; a deserialised result has an empty
        ``imps`` list.
        """
        return {"config": self.config.to_dict(), "stats": self.stats.to_dict(),
                "prefetcher": self.prefetcher, "workload": self.workload}

    @classmethod
    def from_dict(cls, doc: Dict) -> "SimulationResult":
        return cls(config=SystemConfig.from_dict(doc["config"]),
                   stats=SystemStats.from_dict(doc["stats"]),
                   prefetcher=doc["prefetcher"], workload=doc["workload"])


class System:
    """A full chip: cores + memory hierarchy, driven by per-core traces."""

    def __init__(self, config: SystemConfig, traces: Sequence[Trace],
                 mem_image: Optional[MemoryImage] = None,
                 prefetcher: PrefetcherSpec = "stream",
                 imp_config: Optional[IMPConfig] = None) -> None:
        if len(traces) != config.n_cores:
            raise ValueError(
                f"expected {config.n_cores} traces, got {len(traces)}")
        self.config = config
        self.mem_image = mem_image or MemoryImage()
        self.stats = SystemStats(
            cores=[CoreStats(core_id=i) for i in range(config.n_cores)])
        factory = make_prefetcher_factory(prefetcher, self.mem_image, imp_config)
        # Explicit hierarchies may attach prefetchers *by name* per level
        # (hybrid stream@L1 + IMP@L2, a per-slice shared-level prefetcher);
        # hand the memory system a resolver that shares this run's memory
        # image and IMP configuration.
        named_factory = (lambda name: make_prefetcher_factory(
            name, self.mem_image, imp_config))
        self.memsys = MemorySystem(config, self.mem_image, factory, self.stats,
                                   named_prefetcher_factory=named_factory)
        self.cores = [make_core(config, i, trace, self.memsys, self.stats.cores[i])
                      for i, trace in enumerate(traces)]
        self._prefetcher_name = prefetcher if isinstance(prefetcher, str) else "custom"

    def run(self) -> SimulationResult:
        """Run every core to completion, interleaved in global time order.

        The run loop allocates millions of short-lived, acyclic objects
        (tuples, requests, cache lines); generational GC passes over them
        are pure overhead, so collection is suspended for the duration of
        the run and restored afterwards.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._run()
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run(self) -> SimulationResult:
        heap: List = []
        cores = self.cores
        # Drive each core through its scheduling generator (see
        # InOrderCore._drive): one ``next`` per scheduling turn resumes a
        # live frame, so the core's working locals survive between turns.
        drivers = [core._drive() for core in cores]
        for core in cores:
            if not core.done:
                heapq.heappush(heap, (core.time, core.core_id))
        heappush = heapq.heappush
        heappop = heapq.heappop
        while heap:
            core_id = heappop(heap)[1]
            core = cores[core_id]
            driver = drivers[core_id]
            try:
                while True:
                    next(driver)
                    core_time = core.time
                    if heap:
                        head_time, head_id = heap[0]
                        if (core_time < head_time
                                or (core_time == head_time
                                    and core_id < head_id)):
                            # Still the globally earliest core: a push/pop
                            # pair would hand execution straight back to it,
                            # so skip the heap round-trip.  Exactly the seed
                            # schedule.
                            continue
                        heappush(heap, (core_time, core_id))
                        break
                    # Only this core is still active: run it to completion.
            except StopIteration:
                core.finish()
        for core in cores:
            core.finish()
        imps = [p for p in self.memsys.prefetchers if isinstance(p, IMP)]
        return SimulationResult(config=self.config, stats=self.stats,
                                prefetcher=self._prefetcher_name, imps=imps)


def build_system(config: SystemConfig, traces: Sequence[Trace],
                 mem_image: Optional[MemoryImage] = None,
                 prefetcher: PrefetcherSpec = "stream",
                 imp_config: Optional[IMPConfig] = None) -> System:
    """Construct a :class:`System` ready to :meth:`System.run`."""
    return System(config, traces, mem_image, prefetcher, imp_config)


def run_workload(workload, config: SystemConfig, *,
                 prefetcher: PrefetcherSpec = "stream",
                 imp_config: Optional[IMPConfig] = None,
                 software_prefetch: bool = False,
                 sw_prefetch_distance: int = 8) -> SimulationResult:
    """Build a workload for ``config.n_cores`` cores, simulate it, and return
    the result.

    ``workload`` is any object implementing the
    :class:`repro.workloads.base.Workload` interface.  Builds are memoised
    on the workload object (see :meth:`Workload.cached_build`), so sweeping
    the same workload over several prefetchers pays the trace-generation
    cost once.
    """
    builder = getattr(workload, "cached_build", workload.build)
    build = builder(config.n_cores,
                    software_prefetch=software_prefetch,
                    sw_prefetch_distance=sw_prefetch_distance)
    system = System(config, build.traces, build.mem_image, prefetcher, imp_config)
    result = system.run()
    result.workload = getattr(workload, "name", type(workload).__name__)
    if software_prefetch:
        result.prefetcher = f"{result.prefetcher}+sw"
    return result
