"""Sparse matrix-vector multiplication (SpMV) from HPCG (Section 5.3).

For every row, the kernel scans the row's non-zeros and indirectly gathers
the corresponding elements of the dense input vector::

    c = col_idx[j]        # INDEX   (sequential scan)
    v = values[j]         # STREAM  (same scan, different array)
    x = vec[c]            # INDIRECT, 8-byte elements (shift = 3)
    y[row] += v * x       # STREAM store

This is the cleanest A[B[i]] pattern of the suite and the workload on which
IMP achieves near-perfect coverage in the paper (Table 3).
"""

from __future__ import annotations

from typing import List, Optional

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
from repro.workloads.sparse import CSRMatrix, stencil_27pt


class SpMVWorkload(Workload):
    """HPCG-style SpMV on a 27-point stencil matrix."""

    name = "spmv"

    PC_ROW_PTR = pc_of(20)
    PC_COL_IDX = pc_of(21)
    PC_VALUES = pc_of(22)
    PC_VECTOR = pc_of(23)
    PC_STORE = pc_of(24)
    PC_SW_PREFETCH = pc_of(25)

    def __init__(self, nx: int = 14, ny: int = 14, nz: int = 14,
                 seed: int = 1, matrix: Optional[CSRMatrix] = None,
                 permute_columns: bool = True) -> None:
        super().__init__(seed=seed)
        self.nx, self.ny, self.nz = nx, ny, nz
        # The constructor parameter and the lazily built matrix are kept
        # apart: only a user-*supplied* matrix makes this workload
        # unserialisable (spec_params), while the derived one is always
        # reconstructible from (nx, ny, nz, seed).
        self._matrix = matrix
        self._matrix_cache: Optional[CSRMatrix] = None
        #: HPCG's optimised multicore implementation (Park et al.) reorders
        #: the unknowns, which destroys the natural grid ordering of the
        #: column indices.  At full problem scale the vector accesses are
        #: irregular either way; at our scaled-down sizes the permutation is
        #: what preserves that irregularity (see DESIGN.md).
        self.permute_columns = permute_columns

    def matrix(self) -> CSRMatrix:
        """The sparse matrix used by the kernel (built lazily)."""
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

    # ------------------------------------------------------------------
    def _layout(self, matrix: CSRMatrix) -> MemoryImage:
        image = MemoryImage()
        image.add_array("row_ptr", matrix.row_ptr)
        image.add_array("col_idx", matrix.col_idx)
        image.add_array("values", matrix.values)
        image.add_array("vec", np.ones(matrix.num_rows, dtype=np.float64))
        image.add_array("result", np.zeros(matrix.num_rows, dtype=np.float64),
                        writable=True)
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
    def _core_trace(self, core_id: int, rows: range, matrix: CSRMatrix,
                    image: MemoryImage, software_prefetch: bool,
                    distance: int) -> Trace:
        col_idx = matrix.col_idx
        rows = np.arange(rows.start, rows.stop)
        starts = matrix.row_ptr[rows]
        lengths = matrix.row_ptr[rows + 1] - starts
        owner, local = csr_expand(lengths)
        j = starts[owner] + local
        prefetch, ahead = prefetch_ahead(j + distance, starts[owner],
                                         starts[owner] + lengths[owner],
                                         software_prefetch)
        head = loop_rows(
            len(rows),
            load_row(self.PC_ROW_PTR, image.addresses("row_ptr", rows),
                     AccessKind.STREAM),
            compute_row(1))
        body = loop_rows(
            len(j),
            sw_prefetch_row(self.PC_SW_PREFETCH,
                            image.addresses("vec", col_idx[ahead]), prefetch),
            load_row(self.PC_COL_IDX, image.addresses("col_idx", j),
                     AccessKind.INDEX, size=4),
            load_row(self.PC_VALUES, image.addresses("values", j),
                     AccessKind.STREAM),
            load_row(self.PC_VECTOR, image.addresses("vec", col_idx[j]),
                     AccessKind.INDIRECT),
            compute_row(2))               # multiply-accumulate
        tail = loop_rows(
            len(rows),
            store_row(self.PC_STORE, image.addresses("result", rows),
                      AccessKind.STREAM))
        return trace_from_rows(core_id, nest_rows(
            len(rows), (2, head), (5 * lengths, body), (1, tail)))
