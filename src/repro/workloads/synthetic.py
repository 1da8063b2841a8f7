"""Synthetic micro-workloads.

These are not part of the paper's application suite; they exist to exercise
specific IMP mechanisms in isolation (tests, examples, and the SPLASH-2-style
sanity check that IMP does not misfire on purely streaming codes).
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
    load_row,
    loop_rows,
    pc_of,
    prefetch_ahead,
    store_row,
    sw_prefetch_row,
    trace_from_rows,
)


class StreamingWorkload(Workload):
    """A purely streaming kernel (dense triad): no indirect accesses.

    Used to reproduce the paper's observation that IMP does not hurt
    performance on SPLASH-2-style regular codes, because it never triggers
    indirect prefetching when no indirection exists.
    """

    name = "streaming"

    PC_LOAD_A = pc_of(90)
    PC_LOAD_B = pc_of(91)
    PC_STORE_C = pc_of(92)

    def __init__(self, n_elements: int = 32768, seed: int = 1) -> None:
        super().__init__(seed=seed)
        self.n_elements = n_elements

    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        image = MemoryImage()
        image.add_array("a", np.ones(self.n_elements, dtype=np.float64))
        image.add_array("b", np.ones(self.n_elements, dtype=np.float64))
        image.add_array("c", np.zeros(self.n_elements, dtype=np.float64),
                        writable=True)
        traces: List[Trace] = []
        for core_id, elements in enumerate(self.partition(self.n_elements,
                                                          n_cores)):
            i = np.arange(elements.start, elements.stop)
            traces.append(trace_from_rows(core_id, loop_rows(
                len(i),
                load_row(self.PC_LOAD_A, image.addresses("a", i),
                         AccessKind.STREAM),
                load_row(self.PC_LOAD_B, image.addresses("b", i),
                         AccessKind.STREAM),
                compute_row(2),
                store_row(self.PC_STORE_C, image.addresses("c", i),
                          AccessKind.STREAM))))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces)


class IndirectStreamWorkload(Workload):
    """The canonical ``A[B[i]]`` loop, configurable element size.

    The simplest possible indirect workload; used heavily by unit and
    integration tests and by the quickstart example.
    """

    name = "indirect_stream"

    PC_INDEX = pc_of(95)
    PC_DATA = pc_of(96)
    PC_DATA2 = pc_of(97)

    def __init__(self, n_indices: int = 8192, n_data: int = 16384,
                 elem_size: int = 8, two_way: bool = False,
                 seed: int = 1) -> None:
        super().__init__(seed=seed)
        self.n_indices = n_indices
        self.n_data = n_data
        self.elem_size = elem_size
        self.two_way = two_way

    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        rng = self.rng()
        indices = rng.integers(0, self.n_data, size=self.n_indices,
                               dtype=np.int32)
        image = MemoryImage()
        image.add_array("B", indices)
        image.add_array("A", np.zeros(self.n_data, dtype=np.float64),
                        elem_size=self.elem_size, length=self.n_data)
        if self.two_way:
            image.add_array("C", np.zeros(self.n_data, dtype=np.float64),
                            elem_size=self.elem_size, length=self.n_data)
        traces: List[Trace] = []
        data_size = min(8, self.elem_size)
        data_arrays = ("A", "C") if self.two_way else ("A",)
        data_pcs = (self.PC_DATA, self.PC_DATA2)
        for core_id, chunk in enumerate(self.partition(self.n_indices, n_cores)):
            i = np.arange(chunk.start, chunk.stop)
            target = indices[i]
            prefetch, ahead = prefetch_ahead(i + sw_prefetch_distance,
                                             chunk.start, chunk.stop,
                                             software_prefetch)
            traces.append(trace_from_rows(core_id, loop_rows(
                len(i),
                sw_prefetch_row(pc_of(98),
                                image.addresses("A", indices[ahead]),
                                prefetch),
                load_row(self.PC_INDEX, image.addresses("B", i),
                         AccessKind.INDEX, size=4),
                *(load_row(pc, image.addresses(name, target),
                           AccessKind.INDIRECT, size=data_size)
                  for pc, name in zip(data_pcs, data_arrays)),
                compute_row(2))))
        return WorkloadBuild(name=self.name, mem_image=image, traces=traces)
