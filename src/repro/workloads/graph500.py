"""Graph500 breadth-first search workload (Section 5.3).

BFS over a power-law graph.  Each level's frontier is an array of vertex
ids; processing a frontier element ``u = frontier[i]`` requires::

    u      = frontier[i]              # INDEX    (sequential frontier scan)
    start  = row_ptr[u]               # INDIRECT, 8-byte elements (shift = 3)
    ...
    w      = col_idx[start + k]       # INDEX    (scan of u's neighbour list)
    seen   = visited[w >> 3]          # INDIRECT, bit vector (shift = -3)
    parent[w] = u                     # INDIRECT store (on discovery)

The ``row_ptr[frontier[i]]`` load whose *value* then positions the
``col_idx`` scan makes this a multi-level indirection (Listing 3), and the
bit-vector visited test exercises the negative shift (-3) of Table 2.
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
from repro.workloads.graphs import CSRGraph, bfs_levels, power_law_graph


class Graph500Workload(Workload):
    """BFS over a power-law (Graph500-style) graph."""

    name = "graph500"

    PC_FRONTIER = pc_of(50)
    PC_ROW_PTR = pc_of(51)
    PC_COL_IDX = pc_of(52)
    PC_VISITED = pc_of(53)
    PC_PARENT = pc_of(54)
    PC_SW_PREFETCH = pc_of(55)

    def __init__(self, n_vertices: int = 4096, avg_degree: float = 12.0,
                 seed: int = 1) -> None:
        super().__init__(seed=seed)
        self.n_vertices = n_vertices
        self.avg_degree = avg_degree

    # ------------------------------------------------------------------
    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        graph = power_law_graph(self.n_vertices, self.avg_degree, seed=self.seed)
        levels = bfs_levels(graph, root=0)
        image = MemoryImage()
        image.add_array("row_ptr", graph.row_ptr)
        image.add_array("col_idx", graph.col_idx)
        # One concatenated frontier array; levels are contiguous slices.
        frontier_all = np.concatenate(levels).astype(np.int32)
        image.add_array("frontier", frontier_all)
        image.add_array("visited", np.zeros(self.n_vertices, dtype=np.uint8),
                        elem_size=1 / 8, length=self.n_vertices, writable=True)
        image.add_array("parent", np.full(self.n_vertices, -1, dtype=np.int32),
                        writable=True)
        # BFS depth of every vertex (unreached ones lie beyond the last
        # level).  The visited bits are set once per level, after the whole
        # level is scanned, so while level L runs a neighbour is still
        # unvisited exactly when its depth is beyond L.
        depth = np.full(self.n_vertices, len(levels), dtype=np.int64)
        for level_id, level in enumerate(levels):
            depth[level] = level_id
        # Each BFS level is split across the cores (level-synchronous BFS):
        # a core's trace is its chunk of every level, in level order.
        offsets = np.cumsum([0] + [len(level) for level in levels])
        level_chunks = [self.partition(len(level), n_cores)
                        for level in levels]
        traces: List[Trace] = []
        for core_id in range(n_cores):
            core_chunks = [chunks[core_id] for chunks in level_chunks]
            frontier = np.concatenate(
                [np.arange(offset + chunk.start, offset + chunk.stop)
                 for offset, chunk in zip(offsets, core_chunks)])
            level_of = np.repeat(np.arange(len(levels)),
                                 [len(chunk) for chunk in core_chunks])
            traces.append(self._core_trace(
                core_id, graph, image, frontier, frontier_all[frontier],
                depth, level_of, software_prefetch, sw_prefetch_distance))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"vertices": self.n_vertices,
                                       "edges": graph.num_edges,
                                       "levels": len(levels)})

    # ------------------------------------------------------------------
    def _core_trace(self, core_id: int, graph: CSRGraph, image: MemoryImage,
                    frontier: np.ndarray, vertices: np.ndarray,
                    depth: np.ndarray, level_of: np.ndarray,
                    software_prefetch: bool, distance: int) -> Trace:
        col_idx = graph.col_idx
        starts = graph.row_ptr[vertices]
        lengths = graph.row_ptr[vertices + 1] - starts
        owner, local = csr_expand(lengths)
        j = starts[owner] + local
        neighbor = col_idx[j]
        discovered = depth[neighbor] > level_of[owner]
        prefetch, ahead = prefetch_ahead(j + distance, starts[owner],
                                         starts[owner] + lengths[owner],
                                         software_prefetch)
        head = loop_rows(
            len(vertices),
            load_row(self.PC_FRONTIER, image.addresses("frontier", frontier),
                     AccessKind.INDEX, size=4),
            # Row pointer is indexed by the frontier *value*: an indirect
            # access whose own value positions the neighbour scan below.
            load_row(self.PC_ROW_PTR, image.addresses("row_ptr", vertices),
                     AccessKind.INDIRECT),
            compute_row(2))
        body = loop_rows(
            len(j),
            sw_prefetch_row(self.PC_SW_PREFETCH,
                            image.addresses("visited", col_idx[ahead]),
                            prefetch),
            load_row(self.PC_COL_IDX, image.addresses("col_idx", j),
                     AccessKind.INDEX, size=4),
            load_row(self.PC_VISITED, image.addresses("visited", neighbor),
                     AccessKind.INDIRECT, size=1),
            compute_row(1),
            store_row(self.PC_PARENT, image.addresses("parent", neighbor),
                      AccessKind.INDIRECT, size=4, keep=discovered),
            compute_row(1, keep=discovered))
        return trace_from_rows(core_id, nest_rows(
            len(vertices), (3, head), (6 * lengths, body)))
