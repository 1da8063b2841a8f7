"""Triangle counting workload (Section 5.3).

The paper's triangle-counting code works on acyclic directed graphs and
converts each vertex's neighbour list into a bit vector that is then probed
indirectly while scanning the two-hop neighbourhood::

    u      = col_idx[j]               # INDEX  (scan of v's neighbours)
    start  = row_ptr[u]               # INDIRECT (8-byte elements)
    w      = col_idx[start + k]       # INDEX  (scan of u's neighbours)
    bit    = bitvec[w >> 3]           # INDIRECT, bit vector (shift = -3,
                                      #  coefficient 1/8 — Table 2)

Loops here have small trip counts (a vertex's out-degree), which is what
makes triangle counting the workload with late prefetches and the strongest
sensitivity to the PT size and prefetch distance in the paper (Figures 14
and 16).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.mem_image import MemoryImage
from repro.sim.trace import AccessKind, Trace
from repro.workloads.base import (
    Workload,
    WorkloadBuild,
    compute_row,
    csr_expand,
    load_row,
    loop_rows,
    nest_rows,
    pc_of,
    prefetch_ahead,
    store_row,
    sw_prefetch_row,
    trace_from_rows,
)
from repro.workloads.graphs import CSRGraph, power_law_graph


class TriangleCountWorkload(Workload):
    """Triangle counting by neighbourhood bit-vector intersection."""

    name = "tri_count"

    PC_ROW_PTR_V = pc_of(60)
    PC_COL_IDX_V = pc_of(61)
    PC_ROW_PTR_U = pc_of(62)
    PC_COL_IDX_U = pc_of(63)
    PC_BITVEC_SET = pc_of(64)
    PC_BITVEC_TEST = pc_of(65)
    PC_SW_PREFETCH = pc_of(66)

    def __init__(self, n_vertices: int = 2048, avg_degree: float = 6.0,
                 seed: int = 1, max_two_hop_per_vertex: int = 128) -> None:
        super().__init__(seed=seed)
        self.n_vertices = n_vertices
        self.avg_degree = avg_degree
        self.max_two_hop_per_vertex = max_two_hop_per_vertex

    # ------------------------------------------------------------------
    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        graph = power_law_graph(self.n_vertices, self.avg_degree,
                                seed=self.seed, acyclic=True)
        image = MemoryImage()
        image.add_array("row_ptr", graph.row_ptr)
        image.add_array("col_idx", graph.col_idx)
        image.add_array("bitvec", np.zeros(self.n_vertices, dtype=np.uint8),
                        elem_size=1 / 8, length=self.n_vertices, writable=True)
        traces: List[Trace] = []
        for core_id, vertices in enumerate(self.partition(self.n_vertices,
                                                          n_cores)):
            traces.append(self._core_trace(core_id, vertices, graph, image,
                                           software_prefetch,
                                           sw_prefetch_distance))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"vertices": self.n_vertices,
                                       "edges": graph.num_edges})

    # ------------------------------------------------------------------
    def _core_trace(self, core_id: int, vertices: range, graph: CSRGraph,
                    image: MemoryImage, software_prefetch: bool,
                    distance: int) -> Trace:
        col_idx = graph.col_idx
        row_ptr = graph.row_ptr
        vertices = np.arange(vertices.start, vertices.stop)
        starts = row_ptr[vertices]
        degrees = row_ptr[vertices + 1] - starts
        owner, local = csr_expand(degrees)
        first = np.cumsum(degrees) - degrees     # each vertex's first pair
        j = starts[owner] + local
        u = col_idx[j]
        u_start = row_ptr[u]
        u_degree = row_ptr[u + 1] - u_start

        def vertex_sums(values):
            """Sums of per-neighbour ``values`` within each vertex: over
            every neighbour's earlier siblings, and over all of them."""
            total = np.concatenate(([0], np.cumsum(values)))
            return (total[:-1] - total[first][owner],
                    total[first + degrees] - total[first])

        # The two-hop budget: neighbour j is scanned while the budget left
        # after the earlier neighbours is positive, and scans at most that
        # many of its own neighbours.
        budget = self.max_two_hop_per_vertex
        spent, _ = vertex_sums(u_degree)
        scanned = np.flatnonzero(spent < budget)
        hops = np.minimum(u_degree[scanned], budget - spent[scanned])
        hop_owner, hop_local = csr_expand(hops)
        hop_start = u_start[scanned][hop_owner]
        k = hop_start + hop_local
        prefetch, ahead = prefetch_ahead(
            k + distance, hop_start, hop_start + u_degree[scanned][hop_owner],
            software_prefetch)
        two_hop = nest_rows(
            len(scanned),
            (3, loop_rows(
                len(scanned),
                load_row(self.PC_COL_IDX_V,
                         image.addresses("col_idx", j[scanned]),
                         AccessKind.INDEX, size=4),
                load_row(self.PC_ROW_PTR_U,
                         image.addresses("row_ptr", u[scanned]),
                         AccessKind.INDIRECT),
                compute_row(1))),
            (4 * hops, loop_rows(
                len(k),
                sw_prefetch_row(self.PC_SW_PREFETCH,
                                image.addresses("bitvec", col_idx[ahead]),
                                prefetch),
                load_row(self.PC_COL_IDX_U, image.addresses("col_idx", k),
                         AccessKind.INDEX, size=4),
                load_row(self.PC_BITVEC_TEST,
                         image.addresses("bitvec", col_idx[k]),
                         AccessKind.INDIRECT, size=1),
                compute_row(2))))       # bit test and triangle count update
        # Rows of each vertex's share of the two-hop scan.
        pair_rows = np.zeros(len(j), dtype=np.int64)
        pair_rows[scanned] = 3 + 4 * hops
        _, two_hop_rows = vertex_sums(pair_rows)
        return trace_from_rows(core_id, nest_rows(
            len(vertices),
            (1, loop_rows(
                len(vertices),
                load_row(self.PC_ROW_PTR_V,
                         image.addresses("row_ptr", vertices),
                         AccessKind.STREAM))),
            # Build the bit vector of v's neighbourhood (streaming writes).
            (3 * degrees, loop_rows(
                len(j),
                load_row(self.PC_COL_IDX_V, image.addresses("col_idx", j),
                         AccessKind.INDEX, size=4),
                store_row(self.PC_BITVEC_SET, image.addresses("bitvec", u),
                          AccessKind.INDIRECT, size=1),
                compute_row(1))),
            # Intersect each neighbour's neighbour list with the bit vector.
            (two_hop_rows, two_hop)))
