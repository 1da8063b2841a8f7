"""Regular (SPLASH-2-style) workloads with no indirect accesses.

Section 6.1 of the paper notes that IMP was also run on SPLASH-2 benchmarks
that exhibit no indirect access patterns and that it "does not hurt
performance on these benchmarks" because indirect prefetching is never
triggered.  These kernels stand in for that suite: they stress streaming,
strided and blocked access patterns that a conventional stream prefetcher
already handles, and they are used by the no-harm ablation benchmark and by
tests of the false-positive behaviour of the IPD.
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
    load_row,
    loop_rows,
    pc_of,
    store_row,
    trace_from_rows,
)


class DenseStencilWorkload(Workload):
    """A 5-point Jacobi sweep over a dense 2-D grid (Ocean-like).

    Every access is an affine function of the loop indices: rows above and
    below the current row are strided streams, and the output is written
    sequentially.  There is no indirection anywhere.
    """

    name = "dense_stencil"

    PC_CENTER = pc_of(110)
    PC_NORTH = pc_of(111)
    PC_SOUTH = pc_of(112)
    PC_WEST = pc_of(113)
    PC_EAST = pc_of(114)
    PC_STORE = pc_of(115)

    def __init__(self, rows: int = 128, cols: int = 128, seed: int = 1) -> None:
        super().__init__(seed=seed)
        self.rows = rows
        self.cols = cols

    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        image = MemoryImage()
        image.add_array("grid", np.zeros(self.rows * self.cols,
                                         dtype=np.float64))
        image.add_array("out", np.zeros(self.rows * self.cols,
                                        dtype=np.float64), writable=True)
        traces: List[Trace] = []
        interior = range(1, self.rows - 1)
        chunks = self.partition(len(interior), n_cores)
        cols = np.arange(1, self.cols - 1)
        stream = AccessKind.STREAM
        for core_id, chunk in enumerate(chunks):
            rows = 1 + np.arange(chunk.start, chunk.stop)
            index = (rows[:, None] * self.cols + cols).reshape(-1)

            def grid(offset):
                return image.addresses("grid", index + offset)

            traces.append(trace_from_rows(core_id, loop_rows(
                len(index),
                load_row(self.PC_CENTER, grid(0), stream),
                load_row(self.PC_NORTH, grid(-self.cols), stream),
                load_row(self.PC_SOUTH, grid(self.cols), stream),
                load_row(self.PC_WEST, grid(-1), stream),
                load_row(self.PC_EAST, grid(1), stream),
                compute_row(5),
                store_row(self.PC_STORE, image.addresses("out", index),
                          stream))))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"rows": self.rows, "cols": self.cols})


class BlockedMatMulWorkload(Workload):
    """Blocked dense matrix multiplication (LU/FFT-like blocked traversal).

    Accesses walk fixed-size blocks of three dense matrices; strides within a
    block are constant, so the stream prefetcher captures everything and IMP
    must stay silent.
    """

    name = "blocked_matmul"

    PC_A = pc_of(120)
    PC_B = pc_of(121)
    PC_C_LOAD = pc_of(122)
    PC_C_STORE = pc_of(123)

    def __init__(self, size: int = 64, block: int = 8, seed: int = 1) -> None:
        super().__init__(seed=seed)
        if size % block:
            raise ValueError("matrix size must be a multiple of the block size")
        self.size = size
        self.block = block

    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        image = MemoryImage()
        for name in ("mat_a", "mat_b"):
            image.add_array(name, np.zeros(self.size * self.size,
                                           dtype=np.float64))
        image.add_array("mat_c", np.zeros(self.size * self.size,
                                          dtype=np.float64), writable=True)
        blocks_per_dim = self.size // self.block
        block = np.arange(self.block)
        stream = AccessKind.STREAM
        traces: List[Trace] = []
        for core_id, chunk in enumerate(self.partition(blocks_per_dim, n_cores)):
            # One iteration per (bi, bj, bk, i, j), in loop order; the k
            # loop (stepping by two through the block) is unrolled into the
            # iteration's row template.
            bi, bj, bk, i, j = (axis.reshape(-1) for axis in np.meshgrid(
                np.arange(chunk.start, chunk.stop),
                np.arange(blocks_per_dim), np.arange(blocks_per_dim),
                block, block, indexing="ij"))
            i = bi * self.block + i
            j = bj * self.block + j
            c_addr = image.addresses("mat_c", i * self.size + j)
            template = [load_row(self.PC_C_LOAD, c_addr, stream)]
            for step in range(0, self.block, 2):
                k = bk * self.block + step
                template += [
                    load_row(self.PC_A, image.addresses(
                        "mat_a", i * self.size + k), stream),
                    load_row(self.PC_B, image.addresses(
                        "mat_b", k * self.size + j), stream),
                    compute_row(4)]
            template.append(store_row(self.PC_C_STORE, c_addr, stream))
            traces.append(trace_from_rows(core_id,
                                          loop_rows(len(i), *template)))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"size": self.size, "block": self.block})


class StridedCopyWorkload(Workload):
    """A strided copy kernel (radix-sort/FFT-permutation flavoured).

    Reads with a large constant stride and writes sequentially.  The stride
    is affine so the stream prefetcher learns it; there is no indirection.
    """

    name = "strided_copy"

    PC_LOAD = pc_of(130)
    PC_STORE = pc_of(131)

    def __init__(self, n_elements: int = 32768, stride: int = 16,
                 seed: int = 1) -> None:
        super().__init__(seed=seed)
        self.n_elements = n_elements
        self.stride = stride

    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        image = MemoryImage()
        image.add_array("src", np.zeros(self.n_elements, dtype=np.float64))
        image.add_array("dst", np.zeros(self.n_elements, dtype=np.float64),
                        writable=True)
        traces: List[Trace] = []
        for core_id, chunk in enumerate(self.partition(self.n_elements, n_cores)):
            positions = np.arange(chunk.start, chunk.stop)
            source = (positions * self.stride) % self.n_elements
            traces.append(trace_from_rows(core_id, loop_rows(
                len(positions),
                load_row(self.PC_LOAD, image.addresses("src", source),
                         AccessKind.STREAM),
                store_row(self.PC_STORE, image.addresses("dst", positions),
                          AccessKind.STREAM),
                compute_row(1))))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces,
                             metadata={"stride": self.stride})


#: The regular kernels used by the no-harm ablation.
REGULAR_WORKLOADS = {
    "dense_stencil": DenseStencilWorkload,
    "blocked_matmul": BlockedMatMulWorkload,
    "strided_copy": StridedCopyWorkload,
}
