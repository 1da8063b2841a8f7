"""Tests for the system builder and simulation driver (repro.sim.system)."""

import pytest

from repro.core import IMP, IMPConfig
from repro.prefetchers.ghb import GHBPrefetcher
from repro.prefetchers.null import NullPrefetcher
from repro.prefetchers.stream import StreamPrefetcher
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.system import (
    System,
    build_system,
    make_prefetcher_factory,
    run_workload,
)
from repro.sim.trace import TraceBuilder
from repro.workloads.synthetic import IndirectStreamWorkload, StreamingWorkload


def small_config(n_cores=4) -> SystemConfig:
    return SystemConfig(n_cores=n_cores,
                        l1d=CacheConfig(4 * 1024, 4),
                        l2_total_mb_at_1core=0.0625)


class TestPrefetcherFactory:
    def test_named_factories(self):
        assert isinstance(make_prefetcher_factory("none")(0), NullPrefetcher)
        assert isinstance(make_prefetcher_factory("stream")(0), StreamPrefetcher)
        assert isinstance(make_prefetcher_factory("ghb")(0), GHBPrefetcher)
        assert isinstance(make_prefetcher_factory("imp")(0), IMP)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_prefetcher_factory("magic")

    def test_callable_passthrough(self):
        sentinel = NullPrefetcher()
        factory = make_prefetcher_factory(lambda core_id: sentinel)
        assert factory(3) is sentinel

    def test_each_core_gets_its_own_prefetcher(self):
        factory = make_prefetcher_factory("imp")
        assert factory(0) is not factory(1)


class TestSystemConstruction:
    def test_trace_count_must_match_core_count(self):
        config = small_config(4)
        with pytest.raises(ValueError):
            System(config, [TraceBuilder(core_id=0).build()])

    def test_build_system_runs_empty_traces(self):
        config = small_config(4)
        system = build_system(config, [TraceBuilder(core_id=i).build()
                                      for i in range(4)])
        result = system.run()
        assert result.runtime_cycles == 0
        assert len(result.stats.cores) == 4


class TestRunWorkload:
    def test_run_workload_produces_result(self):
        workload = IndirectStreamWorkload(n_indices=512, n_data=2048)
        result = run_workload(workload, small_config(), prefetcher="stream")
        assert result.workload == "indirect_stream"
        assert result.prefetcher == "stream"
        assert result.runtime_cycles > 0
        assert result.throughput > 0
        assert result.stats.total_mem_accesses > 0

    def test_all_cores_execute_instructions(self):
        workload = StreamingWorkload(n_elements=1024)
        result = run_workload(workload, small_config(), prefetcher="none")
        assert all(core.instructions > 0 for core in result.stats.cores)

    def test_ideal_config_is_fastest(self):
        workload = IndirectStreamWorkload(n_indices=512, n_data=4096)
        config = small_config()
        ideal = run_workload(workload, config.as_ideal(), prefetcher="none")
        real = run_workload(workload, config, prefetcher="none")
        assert ideal.runtime_cycles < real.runtime_cycles
        assert real.speedup_over(ideal) < 1.0

    def test_imp_result_exposes_prefetcher_instances(self):
        workload = IndirectStreamWorkload(n_indices=512, n_data=4096)
        result = run_workload(workload, small_config(), prefetcher="imp")
        assert len(result.imps) == small_config().n_cores
        assert all(isinstance(p, IMP) for p in result.imps)

    def test_software_prefetch_variant_adds_instructions(self):
        workload = IndirectStreamWorkload(n_indices=512, n_data=4096)
        config = small_config()
        plain = run_workload(workload, config, prefetcher="stream")
        sw = run_workload(workload, config, prefetcher="stream",
                          software_prefetch=True)
        assert sw.prefetcher == "stream+sw"
        assert (sw.stats.total_instructions > plain.stats.total_instructions)
        assert sum(c.sw_prefetches_issued for c in sw.stats.cores) > 0

    def test_normalized_throughput_and_speedup_consistent(self):
        workload = IndirectStreamWorkload(n_indices=512, n_data=4096)
        config = small_config()
        base = run_workload(workload, config, prefetcher="stream")
        imp = run_workload(workload, config, prefetcher="imp")
        speedup = imp.speedup_over(base)
        norm = imp.normalized_throughput(base)
        assert speedup == pytest.approx(
            base.runtime_cycles / imp.runtime_cycles)
        assert norm == pytest.approx(imp.throughput / base.throughput)

    def test_deterministic_given_same_seed(self):
        workload = IndirectStreamWorkload(n_indices=512, n_data=4096, seed=11)
        config = small_config()
        first = run_workload(workload, config, prefetcher="imp")
        second = run_workload(IndirectStreamWorkload(n_indices=512, n_data=4096,
                                                     seed=11),
                              config, prefetcher="imp")
        assert first.runtime_cycles == second.runtime_cycles
        assert first.stats.total_l1_misses == second.stats.total_l1_misses
