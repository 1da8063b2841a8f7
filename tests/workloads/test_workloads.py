"""Tests covering all seven paper workloads plus the synthetic kernels.

Each workload must produce: one trace per core, memory references tagged
with the right access kinds, addresses that fall inside registered arrays,
and a software-prefetching variant that only adds prefetch instructions.
"""

import numpy as np
import pytest

from repro.sim.trace import (
    KIND_CODES,
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_SW_PREFETCH,
    AccessKind,
)
from repro.workloads import (
    PAPER_WORKLOADS,
    Graph500Workload,
    LSHWorkload,
    PagerankWorkload,
    SGDWorkload,
    SpMVWorkload,
    SymGSWorkload,
    TriangleCountWorkload,
    make_workload,
    paper_workloads,
)
from repro.workloads.synthetic import IndirectStreamWorkload, StreamingWorkload


def ref_addrs(trace, kind=None):
    """Addresses of the trace's loads and stores (of ``kind`` if given),
    in program order, selected by a mask over the columns."""
    op = np.asarray(trace.op)
    mask = (op == OP_LOAD) | (op == OP_STORE)
    if kind is not None:
        mask &= np.asarray(trace.aux) == KIND_CODES[kind]
    return np.asarray(trace.addr)[mask].tolist()


N_CORES = 4

SMALL_WORKLOADS = [
    PagerankWorkload(n_vertices=256, seed=2),
    TriangleCountWorkload(n_vertices=256, seed=2),
    Graph500Workload(n_vertices=256, seed=2),
    SGDWorkload(n_users=256, n_items=256, n_ratings=1024, seed=2),
    LSHWorkload(n_points=512, n_queries=32, seed=2),
    SpMVWorkload(nx=6, ny=6, nz=6, seed=2),
    SymGSWorkload(nx=5, ny=5, nz=5, seed=2),
]


@pytest.fixture(params=SMALL_WORKLOADS, ids=lambda w: w.name)
def workload(request):
    return request.param


class TestAllWorkloads:
    def test_build_produces_one_trace_per_core(self, workload):
        build = workload.build(N_CORES)
        assert len(build.traces) == N_CORES
        assert build.name == workload.name
        assert build.total_memory_references > 0
        assert build.total_instructions >= build.total_memory_references

    def test_memory_references_fall_in_registered_arrays(self, workload):
        build = workload.build(N_CORES)
        specs = build.mem_image.arrays()
        for trace in build.traces:
            touching = np.asarray(trace.op) != OP_COMPUTE
            for addr in np.asarray(trace.addr)[touching].tolist():
                assert any(spec.contains(addr) for spec in specs), \
                    f"{workload.name}: address {addr:#x} outside arrays"

    def test_contains_index_and_indirect_accesses(self, workload):
        build = workload.build(N_CORES)
        counts = {kind: 0 for kind in AccessKind}
        for trace in build.traces:
            for kind, count in trace.count_by_kind().items():
                counts[kind] += count
        assert counts[AccessKind.INDEX] > 0
        assert counts[AccessKind.INDIRECT] > 0
        # Indirect accesses are a substantial fraction, as in the paper.
        total = sum(counts.values())
        assert counts[AccessKind.INDIRECT] / total > 0.1

    def test_work_is_distributed_across_cores(self, workload):
        build = workload.build(N_CORES)
        references = [trace.memory_reference_count for trace in build.traces]
        assert all(count > 0 for count in references)

    def test_software_prefetch_variant_adds_only_prefetches(self, workload):
        plain = workload.build(N_CORES)
        sw = workload.build(N_CORES, software_prefetch=True,
                            sw_prefetch_distance=4)
        assert sw.total_memory_references == plain.total_memory_references
        sw_prefetches = sum(
            int(np.count_nonzero(np.asarray(trace.op) == OP_SW_PREFETCH))
            for trace in sw.traces)
        assert sw_prefetches > 0
        assert sw.total_instructions > plain.total_instructions

    def test_build_is_deterministic(self, workload):
        first = workload.build(N_CORES)
        second = workload.build(N_CORES)
        assert first.total_memory_references == second.total_memory_references
        assert first.total_instructions == second.total_instructions


class TestWorkloadSpecifics:
    def test_pagerank_has_two_way_indirection(self):
        build = PagerankWorkload(n_vertices=128, seed=1).build(2)
        rank = build.mem_image.array("rank")
        degree = build.mem_image.array("out_degree")
        indirect_targets = {
            "rank": 0, "out_degree": 0}
        for trace in build.traces:
            for addr in ref_addrs(trace, AccessKind.INDIRECT):
                if rank.contains(addr):
                    indirect_targets["rank"] += 1
                elif degree.contains(addr):
                    indirect_targets["out_degree"] += 1
        assert indirect_targets["rank"] > 0
        assert indirect_targets["out_degree"] > 0

    def test_spmv_indirect_accesses_match_matrix_columns(self):
        workload = SpMVWorkload(nx=4, ny=4, nz=4, seed=1)
        build = workload.build(2)
        matrix = workload.matrix()
        vec = build.mem_image.array("vec")
        valid = {vec.addr_of(int(c)) for c in matrix.col_idx}
        for trace in build.traces:
            for addr in ref_addrs(trace, AccessKind.INDIRECT):
                assert addr in valid

    def test_symgs_has_forward_and_backward_sweeps(self):
        build = SymGSWorkload(nx=4, ny=4, nz=4, seed=1).build(1)
        trace = build.traces[0]
        col_addrs = ref_addrs(trace, AccessKind.INDEX)
        # The forward sweep scans col_idx upward, the backward sweep downward.
        first_half = col_addrs[: len(col_addrs) // 4]
        last_half = col_addrs[-len(col_addrs) // 4:]
        assert first_half[0] < first_half[-1]
        assert last_half[0] > last_half[-1]

    def test_graph500_visits_every_edge_at_most_once_per_direction(self):
        workload = Graph500Workload(n_vertices=128, avg_degree=6, seed=1)
        build = workload.build(2)
        assert build.metadata["levels"] >= 2

    def test_tri_count_uses_bit_vector(self):
        build = TriangleCountWorkload(n_vertices=128, seed=1).build(2)
        bitvec = build.mem_image.array("bitvec")
        assert bitvec.elem_size == pytest.approx(1 / 8)
        touched = sum(
            1 for trace in build.traces for addr in ref_addrs(trace)
            if bitvec.contains(addr))
        assert touched > 0

    def test_sgd_feature_rows_are_16_bytes(self):
        build = SGDWorkload(n_users=64, n_items=64, n_ratings=256, seed=1).build(2)
        assert build.mem_image.array("user_feat").elem_size == 16
        assert build.mem_image.array("item_feat").elem_size == 16

    def test_lsh_candidates_reference_dataset_rows(self):
        workload = LSHWorkload(n_points=256, n_queries=16, seed=1)
        build = workload.build(2)
        dataset = build.mem_image.array("dataset")
        indirect = [addr for trace in build.traces
                    for addr in ref_addrs(trace, AccessKind.INDIRECT)]
        assert all(dataset.contains(addr) for addr in indirect)


class TestSyntheticWorkloads:
    def test_streaming_workload_has_no_indirect_accesses(self):
        build = StreamingWorkload(n_elements=512).build(2)
        for trace in build.traces:
            assert trace.count_by_kind()[AccessKind.INDIRECT] == 0

    def test_indirect_stream_two_way_variant(self):
        build = IndirectStreamWorkload(n_indices=128, n_data=512,
                                       two_way=True).build(2)
        assert "C" in build.mem_image


class TestRegistry:
    def test_registry_contains_the_seven_paper_workloads(self):
        assert set(PAPER_WORKLOADS) == {
            "pagerank", "tri_count", "graph500", "sgd", "lsh", "spmv", "symgs"}

    def test_make_workload_by_name(self):
        workload = make_workload("spmv", nx=4, ny=4, nz=4)
        assert isinstance(workload, SpMVWorkload)
        with pytest.raises(ValueError):
            make_workload("quicksort")

    def test_paper_workloads_scaling(self):
        small = paper_workloads(scale=0.1)
        assert len(small) == 7
        assert {w.name for w in small} == set(PAPER_WORKLOADS)
