"""Symmetric Gauss-Seidel smoother (SymGS) from HPCG (Section 5.3).

SymGS performs a forward triangular solve followed by a backward one over
the same sparse matrix.  Rows are processed in blocks (the HPCG multicolour
/ level-scheduled variant groups rows for parallelism); within each row the
access pattern is the same gather as SpMV, but the smoothed vector is also
*written* indirectly at the row position, and the backward sweep scans the
index array with a negative stride — exercising IMP's handling of descending
streams and frequent pattern re-detection (the paper notes SymGS is the one
workload that stresses the IPD, Figure 15).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.mem_image import MemoryImage
from repro.sim.trace import AccessKind, Trace
from repro.workloads.base import (
    Rows,
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
from repro.workloads.sparse import CSRMatrix, stencil_27pt


class SymGSWorkload(Workload):
    """Forward + backward Gauss-Seidel sweeps on a stencil matrix."""

    name = "symgs"

    PC_ROW_PTR_F = pc_of(30)
    PC_COL_IDX_F = pc_of(31)
    PC_VALUES_F = pc_of(32)
    PC_VECTOR_F = pc_of(33)
    PC_STORE_F = pc_of(34)
    PC_ROW_PTR_B = pc_of(35)
    PC_COL_IDX_B = pc_of(36)
    PC_VALUES_B = pc_of(37)
    PC_VECTOR_B = pc_of(38)
    PC_STORE_B = pc_of(39)
    PC_SW_PREFETCH = pc_of(40)

    def __init__(self, nx: int = 12, ny: int = 12, nz: int = 12,
                 seed: int = 1, matrix: Optional[CSRMatrix] = None,
                 permute_columns: bool = True) -> None:
        super().__init__(seed=seed)
        self.nx, self.ny, self.nz = nx, ny, nz
        # User-supplied vs lazily derived matrix kept apart so the lazy
        # build does not poison spec serialisation (see SpMVWorkload).
        self._matrix = matrix
        self._matrix_cache: Optional[CSRMatrix] = None
        # Same column permutation rationale as SpMVWorkload (see DESIGN.md).
        self.permute_columns = permute_columns

    def matrix(self) -> CSRMatrix:
        if self._matrix is not None:
            return self._matrix
        if self._matrix_cache is None:
            matrix = stencil_27pt(self.nx, self.ny, self.nz, seed=self.seed)
            if self.permute_columns:
                permutation = self.rng(1).permutation(matrix.num_rows)
                matrix = CSRMatrix(row_ptr=matrix.row_ptr,
                                   col_idx=permutation[matrix.col_idx].astype(
                                       matrix.col_idx.dtype),
                                   values=matrix.values)
            self._matrix_cache = matrix
        return self._matrix_cache

    def _layout(self, matrix: CSRMatrix) -> MemoryImage:
        image = MemoryImage()
        image.add_array("row_ptr", matrix.row_ptr)
        image.add_array("col_idx", matrix.col_idx)
        image.add_array("values", matrix.values)
        image.add_array("xvec", np.ones(matrix.num_rows, dtype=np.float64),
                        writable=True)
        image.add_array("rhs", np.ones(matrix.num_rows, dtype=np.float64))
        return image

    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        matrix = self.matrix()
        image = self._layout(matrix)
        traces: List[Trace] = []
        for core_id, rows in enumerate(self.partition(matrix.num_rows, n_cores)):
            traces.append(self._core_trace(core_id, rows, matrix, image,
                                           software_prefetch,
                                           sw_prefetch_distance))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"rows": matrix.num_rows,
                                       "nonzeros": matrix.num_nonzeros})

    # ------------------------------------------------------------------
    def _sweep(self, rows: range, matrix: CSRMatrix, image: MemoryImage,
               software_prefetch: bool, distance: int, *,
               forward: bool) -> Rows:
        col_idx = matrix.col_idx
        if forward:
            pcs = (self.PC_ROW_PTR_F, self.PC_COL_IDX_F, self.PC_VALUES_F,
                   self.PC_VECTOR_F, self.PC_STORE_F)
        else:
            pcs = (self.PC_ROW_PTR_B, self.PC_COL_IDX_B, self.PC_VALUES_B,
                   self.PC_VECTOR_B, self.PC_STORE_B)
        pc_row, pc_col, pc_val, pc_vec, pc_store = pcs
        row_order = np.arange(rows.start, rows.stop)
        if not forward:
            row_order = row_order[::-1]
        starts = matrix.row_ptr[row_order]
        ends = matrix.row_ptr[row_order + 1]
        owner, local = csr_expand(ends - starts)
        # The backward sweep walks each row's non-zeros from its end.
        if forward:
            j = starts[owner] + local
            target = j + distance
        else:
            j = ends[owner] - 1 - local
            target = j - distance
        prefetch, ahead = prefetch_ahead(target, starts[owner], ends[owner],
                                         software_prefetch)
        head = loop_rows(
            len(row_order),
            load_row(pc_row, image.addresses("row_ptr", row_order),
                     AccessKind.STREAM),
            load_row(pc_store, image.addresses("rhs", row_order),
                     AccessKind.STREAM),
            compute_row(2))
        body = loop_rows(
            len(j),
            sw_prefetch_row(self.PC_SW_PREFETCH,
                            image.addresses("xvec", col_idx[ahead]),
                            prefetch),
            load_row(pc_col, image.addresses("col_idx", j),
                     AccessKind.INDEX, size=4),
            load_row(pc_val, image.addresses("values", j),
                     AccessKind.STREAM),
            load_row(pc_vec, image.addresses("xvec", col_idx[j]),
                     AccessKind.INDIRECT),
            compute_row(2))
        # The smoothed value is written back to the row's vector entry.
        tail = loop_rows(
            len(row_order),
            compute_row(4),             # divide by the diagonal, busy-wait check
            store_row(pc_store, image.addresses("xvec", row_order),
                      AccessKind.STREAM))
        return nest_rows(len(row_order), (3, head),
                         (5 * (ends - starts), body), (2, tail))

    def _core_trace(self, core_id: int, rows: range, matrix: CSRMatrix,
                    image: MemoryImage, software_prefetch: bool,
                    distance: int) -> Trace:
        return trace_from_rows(core_id, *(
            self._sweep(rows, matrix, image, software_prefetch, distance,
                        forward=forward)
            for forward in (True, False)))
