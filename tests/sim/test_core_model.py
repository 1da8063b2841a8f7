"""Unit tests for the core timing models (in-order and out-of-order)."""

import pytest

from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.core_model import InOrderCore, OutOfOrderCore, make_core
from repro.sim.stats import CoreStats
from repro.sim.trace import AccessKind, TraceBuilder


class FixedLatencyMemory:
    """A stand-in memory system returning a constant miss latency."""

    def __init__(self, latency: float, hit_every: int = 0) -> None:
        self.latency = latency
        self.hit_every = hit_every
        self.accesses = 0
        self.sw_prefetches = []

    def access_fast(self, core_id, pc, addr, size, is_write, now):
        self.accesses += 1
        if self.hit_every and self.accesses % self.hit_every == 0:
            return 1.0, True
        return self.latency, False

    def software_prefetch(self, core_id, addr, now):
        self.sw_prefetches.append((core_id, addr, now))


def build_trace(n_loads: int, compute_between: int = 0) -> "Trace":
    builder = TraceBuilder(core_id=0)
    for i in range(n_loads):
        if compute_between:
            builder.compute(compute_between)
        builder.load(0x400, 0x10000 + i * 64, kind=AccessKind.INDIRECT)
    return builder.build()


def make_config(core_model="in-order", rob=32) -> SystemConfig:
    return SystemConfig(n_cores=4, core_model=core_model, rob_size=rob,
                        l1d=CacheConfig(4 * 1024, 4),
                        l2_total_mb_at_1core=0.0625)


def run_core(core) -> None:
    for _ in core._drive():
        pass
    core.finish()


class TestInOrderCore:
    def test_blocks_for_full_miss_latency(self):
        trace = build_trace(n_loads=10)
        memory = FixedLatencyMemory(latency=100.0)
        stats = CoreStats(core_id=0)
        core = InOrderCore(0, trace, memory, stats, make_config())
        run_core(core)
        # Each load: 1 cycle issue + 99 stall.
        assert stats.cycles == 10 * 100
        assert stats.instructions == 10
        assert stats.total_stall_cycles == 10 * 99

    def test_compute_only_trace_runs_at_one_cpi(self):
        builder = TraceBuilder(0)
        builder.compute(500)
        memory = FixedLatencyMemory(latency=100.0)
        stats = CoreStats(core_id=0)
        core = InOrderCore(0, builder.build(), memory, stats, make_config())
        run_core(core)
        assert stats.cycles == 500
        assert stats.instructions == 500

    def test_stall_cycles_attributed_to_access_kind(self):
        trace = build_trace(n_loads=4)
        memory = FixedLatencyMemory(latency=50.0)
        stats = CoreStats(core_id=0)
        core = InOrderCore(0, trace, memory, stats, make_config())
        run_core(core)
        assert stats.stall_cycles_by_kind[AccessKind.INDIRECT] == 4 * 49
        assert stats.stall_cycles_by_kind[AccessKind.STREAM] == 0

    def test_software_prefetch_costs_instructions_not_stalls(self):
        builder = TraceBuilder(0)
        builder.sw_prefetch(0x400, 0x2000, overhead_ops=3)
        builder.compute(10)
        memory = FixedLatencyMemory(latency=100.0)
        stats = CoreStats(core_id=0)
        core = InOrderCore(0, builder.build(), memory, stats, make_config())
        run_core(core)
        assert stats.instructions == 14
        assert stats.cycles == 14
        assert memory.sw_prefetches


class TestOutOfOrderCore:
    def test_ooo_hides_latency_within_rob_window(self):
        # Misses separated by plenty of independent compute: the 32-entry
        # window lets the core keep running while the miss is outstanding.
        trace = build_trace(n_loads=8, compute_between=200)
        memory = FixedLatencyMemory(latency=100.0)
        io_stats, ooo_stats = CoreStats(0), CoreStats(0)
        run_core(InOrderCore(0, trace, memory, io_stats, make_config()))
        memory2 = FixedLatencyMemory(latency=100.0)
        run_core(OutOfOrderCore(0, trace, memory2, ooo_stats,
                                make_config(core_model="ooo")))
        assert ooo_stats.cycles < io_stats.cycles

    def test_ooo_still_stalls_on_back_to_back_misses(self):
        trace = build_trace(n_loads=50)
        memory = FixedLatencyMemory(latency=100.0)
        stats = CoreStats(0)
        run_core(OutOfOrderCore(0, trace, memory, stats,
                                make_config(core_model="ooo", rob=32)))
        # With no independent work, the MSHR/ROB limits force stalls.
        assert stats.cycles > 50
        assert stats.total_stall_cycles > 0

    def test_pending_misses_drained_at_end(self):
        trace = build_trace(n_loads=2, compute_between=5)
        memory = FixedLatencyMemory(latency=1000.0)
        stats = CoreStats(0)
        run_core(OutOfOrderCore(0, trace, memory, stats,
                                make_config(core_model="ooo")))
        # Completion of the last miss bounds the runtime.
        assert stats.cycles >= 1000

    def test_larger_rob_hides_more_latency(self):
        trace = build_trace(n_loads=16, compute_between=64)
        small_stats, large_stats = CoreStats(0), CoreStats(0)
        run_core(OutOfOrderCore(0, trace, FixedLatencyMemory(100.0),
                                small_stats, make_config("ooo", rob=8)))
        run_core(OutOfOrderCore(0, trace, FixedLatencyMemory(100.0),
                                large_stats, make_config("ooo", rob=64)))
        assert large_stats.cycles <= small_stats.cycles


class TestFactory:
    def test_make_core_dispatches_on_config(self):
        trace = build_trace(1)
        memory = FixedLatencyMemory(10.0)
        assert isinstance(make_core(make_config("in-order"), 0, trace, memory,
                                    CoreStats(0)), InOrderCore)
        assert isinstance(make_core(make_config("ooo"), 0, trace, memory,
                                    CoreStats(0)), OutOfOrderCore)
