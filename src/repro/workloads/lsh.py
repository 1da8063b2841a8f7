"""Locality Sensitive Hashing (LSH) nearest-neighbour search (Section 5.3).

For each query, LSH looks up one bucket per hash table, concatenates the
candidate lists, and then *filters* the candidates by computing the distance
from each candidate's data row to the query.  Filtering dominates and is an
indirect gather over the dataset with the candidate list as the index
array::

    c    = candidates[k]        # INDEX    (scan of the matching bucket)
    row  = dataset[c]           # INDIRECT, 16-byte rows (shift = 4)
    ... distance computation against the query vector ...

Buckets are short (tens of candidates), so like triangle counting this
workload has many short indirect loops — the paper reports lower accuracy
and more late prefetches for it (Table 3).
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
    sw_prefetch_row,
    trace_from_rows,
)


class LSHWorkload(Workload):
    """LSH query filtering over a synthetic high-dimensional dataset."""

    name = "lsh"

    PC_BUCKET_PTR = pc_of(80)
    PC_CANDIDATE = pc_of(81)
    PC_DATASET = pc_of(82)
    PC_QUERY = pc_of(83)
    PC_SW_PREFETCH = pc_of(84)

    #: Row size of the (projected) dataset in doubles; 2 doubles = 16 bytes.
    ROW_DOUBLES = 2

    def __init__(self, n_points: int = 8192, n_queries: int = 384,
                 n_tables: int = 4, bucket_size: int = 24, seed: int = 1) -> None:
        super().__init__(seed=seed)
        self.n_points = n_points
        self.n_queries = n_queries
        self.n_tables = n_tables
        self.bucket_size = bucket_size

    # ------------------------------------------------------------------
    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        rng = self.rng()
        # One candidate list per (query, table), drawn with a popularity skew
        # so hot points appear in many buckets (as in real LSH tables).
        popularity = (np.arange(1, self.n_points + 1) ** -0.5)
        popularity /= popularity.sum()
        total_candidates = self.n_queries * self.n_tables * self.bucket_size
        candidates = rng.choice(self.n_points, size=total_candidates,
                                p=popularity).astype(np.int32)
        bucket_ptr = np.arange(0, total_candidates + 1, self.bucket_size,
                               dtype=np.int64)
        image = MemoryImage()
        image.add_array("bucket_ptr", bucket_ptr)
        image.add_array("candidates", candidates)
        image.add_array("dataset",
                        rng.standard_normal(self.n_points * self.ROW_DOUBLES),
                        elem_size=8 * self.ROW_DOUBLES, length=self.n_points)
        image.add_array("queries",
                        rng.standard_normal(self.n_queries * self.ROW_DOUBLES),
                        elem_size=8 * self.ROW_DOUBLES, length=self.n_queries)
        traces: List[Trace] = []
        for core_id, queries in enumerate(self.partition(self.n_queries, n_cores)):
            traces.append(self._core_trace(core_id, queries, candidates, image,
                                           software_prefetch,
                                           sw_prefetch_distance))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"points": self.n_points,
                                       "queries": self.n_queries,
                                       "tables": self.n_tables})

    # ------------------------------------------------------------------
    def _core_trace(self, core_id: int, queries: range, candidates: np.ndarray,
                    image: MemoryImage, software_prefetch: bool,
                    distance: int) -> Trace:
        # One outer iteration per (query, table) bucket, in loop order; the
        # query itself is loaded and hashed ahead of its first table.
        query, table = (axis.reshape(-1) for axis in np.meshgrid(
            np.arange(queries.start, queries.stop),
            np.arange(self.n_tables), indexing="ij"))
        bucket = query * self.n_tables + table
        first_table = table == 0
        owner, local = csr_expand(np.full(len(bucket), self.bucket_size))
        start = bucket[owner] * self.bucket_size
        k = start + local
        prefetch, ahead = prefetch_ahead(k + distance, start,
                                         start + self.bucket_size,
                                         software_prefetch)
        head = loop_rows(
            len(bucket),
            load_row(self.PC_QUERY, image.addresses("queries", query),
                     AccessKind.STREAM, size=16, keep=first_table),
            compute_row(8, keep=first_table),  # hash the query for every table
            load_row(self.PC_BUCKET_PTR,
                     image.addresses("bucket_ptr", bucket), AccessKind.STREAM),
            compute_row(2))
        body = loop_rows(
            len(k),
            sw_prefetch_row(self.PC_SW_PREFETCH,
                            image.addresses("dataset", candidates[ahead]),
                            prefetch),
            load_row(self.PC_CANDIDATE, image.addresses("candidates", k),
                     AccessKind.INDEX, size=4),
            load_row(self.PC_DATASET,
                     image.addresses("dataset", candidates[k]),
                     AccessKind.INDIRECT, size=16),
            compute_row(6))             # distance computation
        return trace_from_rows(core_id, nest_rows(
            len(bucket), (4, head), (4 * self.bucket_size, body)))
