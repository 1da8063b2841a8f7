"""Pagerank workload (Section 5.3).

Pull-style pagerank over a CSR graph: for every vertex, the new rank is the
weighted sum of its in-neighbours' ranks divided by their out-degrees.  The
memory pattern per edge is::

    j   = col_idx[e]          # INDEX  (sequential scan of the edge array)
    r   = rank[j]             # INDIRECT, 8-byte elements  (shift = 3)
    d   = out_degree[j]       # INDIRECT, 4-byte elements  (shift = 2)

``rank`` and ``out_degree`` are indexed by the *same* index stream, so this
workload exercises IMP's multi-way indirection support (Listing 2 of the
paper).  Row-pointer reads and the rank store are streaming accesses.
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


class PagerankWorkload(Workload):
    """Iterative pagerank on a power-law graph."""

    name = "pagerank"

    PC_ROW_PTR = pc_of(10)
    PC_COL_IDX = pc_of(11)
    PC_RANK = pc_of(12)
    PC_DEGREE = pc_of(13)
    PC_STORE = pc_of(14)
    PC_SW_PREFETCH = pc_of(15)

    def __init__(self, n_vertices: int = 4096, avg_degree: float = 8.0,
                 iterations: int = 1, seed: int = 1) -> None:
        super().__init__(seed=seed)
        self.n_vertices = n_vertices
        self.avg_degree = avg_degree
        self.iterations = iterations

    # ------------------------------------------------------------------
    def _layout(self, graph: CSRGraph) -> MemoryImage:
        image = MemoryImage()
        image.add_array("row_ptr", graph.row_ptr)
        image.add_array("col_idx", graph.col_idx)
        image.add_array("rank", np.ones(self.n_vertices, dtype=np.float64))
        image.add_array("out_degree", graph.out_degrees().astype(np.int32))
        image.add_array("new_rank", np.zeros(self.n_vertices, dtype=np.float64),
                        writable=True)
        return image

    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        graph = power_law_graph(self.n_vertices, self.avg_degree, seed=self.seed)
        image = self._layout(graph)
        traces: List[Trace] = []
        chunks = self.partition(self.n_vertices, n_cores)
        for core_id, vertices in enumerate(chunks):
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
        vertices = np.tile(np.arange(vertices.start, vertices.stop),
                           self.iterations)
        starts = graph.row_ptr[vertices]
        lengths = graph.row_ptr[vertices + 1] - starts
        owner, local = csr_expand(lengths)
        edge = starts[owner] + local
        neighbor = col_idx[edge]
        prefetch, ahead = prefetch_ahead(edge + distance, starts[owner],
                                         starts[owner] + lengths[owner],
                                         software_prefetch)
        # Row bounds: streaming loads of the row-pointer array.
        head = loop_rows(
            len(vertices),
            load_row(self.PC_ROW_PTR, image.addresses("row_ptr", vertices),
                     AccessKind.STREAM),
            compute_row(2))
        body = loop_rows(
            len(edge),
            sw_prefetch_row(self.PC_SW_PREFETCH,
                            image.addresses("rank", col_idx[ahead]),
                            prefetch),
            load_row(self.PC_COL_IDX, image.addresses("col_idx", edge),
                     AccessKind.INDEX, size=4),
            load_row(self.PC_RANK, image.addresses("rank", neighbor),
                     AccessKind.INDIRECT),
            load_row(self.PC_DEGREE, image.addresses("out_degree", neighbor),
                     AccessKind.INDIRECT, size=4),
            compute_row(3))             # divide and accumulate
        tail = loop_rows(
            len(vertices),
            store_row(self.PC_STORE, image.addresses("new_rank", vertices),
                      AccessKind.STREAM),
            compute_row(2))
        return trace_from_rows(core_id, nest_rows(
            len(vertices), (2, head), (5 * lengths, body), (2, tail)))
