"""Tests for the regular (SPLASH-2-style) workloads and the no-harm claim."""

import numpy as np
import pytest

from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.system import run_workload
from repro.sim.trace import OP_COMPUTE, AccessKind
from repro.workloads.regular import (
    REGULAR_WORKLOADS,
    BlockedMatMulWorkload,
    DenseStencilWorkload,
    StridedCopyWorkload,
)

SMALL = [
    DenseStencilWorkload(rows=24, cols=24, seed=1),
    BlockedMatMulWorkload(size=16, block=4, seed=1),
    StridedCopyWorkload(n_elements=2048, stride=16, seed=1),
]


@pytest.fixture(params=SMALL, ids=lambda w: w.name)
def workload(request):
    return request.param


def small_config() -> SystemConfig:
    return SystemConfig(n_cores=4, l1d=CacheConfig(4 * 1024, 4),
                        l2_total_mb_at_1core=0.0625)


class TestStructure:
    def test_no_indirect_accesses_emitted(self, workload):
        build = workload.build(4)
        for trace in build.traces:
            counts = trace.count_by_kind()
            assert counts[AccessKind.INDIRECT] == 0
            assert counts[AccessKind.INDEX] == 0

    def test_one_trace_per_core_with_work(self, workload):
        build = workload.build(4)
        assert len(build.traces) == 4
        assert all(trace.memory_reference_count > 0 for trace in build.traces)

    def test_addresses_inside_registered_arrays(self, workload):
        build = workload.build(2)
        specs = build.mem_image.arrays()
        for trace in build.traces:
            touching = np.asarray(trace.op) != OP_COMPUTE
            for addr in np.asarray(trace.addr)[touching].tolist():
                assert any(spec.contains(addr) for spec in specs)

    def test_registry(self):
        assert set(REGULAR_WORKLOADS) == {"dense_stencil", "blocked_matmul",
                                          "strided_copy"}

    def test_matmul_rejects_bad_blocking(self):
        with pytest.raises(ValueError):
            BlockedMatMulWorkload(size=30, block=8)


class TestNoHarm:
    def test_imp_never_detects_patterns_on_regular_codes(self, workload):
        result = run_workload(workload, small_config(), prefetcher="imp")
        assert all(imp.patterns_detected == 0 for imp in result.imps)
        assert all(imp.indirect_prefetches_generated == 0 for imp in result.imps)

    def test_imp_performance_matches_stream_baseline(self, workload):
        config = small_config()
        base = run_workload(workload, config, prefetcher="stream")
        imp = run_workload(workload, config, prefetcher="imp")
        # Within 5% either way: IMP is a superset of the stream prefetcher
        # and must not perturb regular codes (paper, Section 6.1).
        assert imp.runtime_cycles <= base.runtime_cycles * 1.05
        assert imp.runtime_cycles >= base.runtime_cycles * 0.95
