"""Workloads: the paper's seven applications plus synthetic micro-kernels."""

from typing import Dict, List, Optional, Type

from repro.workloads.base import Workload, WorkloadBuild
from repro.workloads.graph500 import Graph500Workload
from repro.workloads.regular import (
    REGULAR_WORKLOADS,
    BlockedMatMulWorkload,
    DenseStencilWorkload,
    StridedCopyWorkload,
)
from repro.workloads.lsh import LSHWorkload
from repro.workloads.pagerank import PagerankWorkload
from repro.workloads.sgd import SGDWorkload
from repro.workloads.spmv import SpMVWorkload
from repro.workloads.symgs import SymGSWorkload
from repro.workloads.synthetic import IndirectStreamWorkload, StreamingWorkload
from repro.workloads.tri_count import TriangleCountWorkload

from repro.registry import WORKLOADS, RegistryError

# ----------------------------------------------------------------------
# Registry entries.  The factory is the workload class itself (called with
# plain ``spec_params()`` keyword arguments); the ``paper`` tag marks the
# seven applications of the paper's evaluation, in figure order.
# ----------------------------------------------------------------------
for _cls, _desc, _tags in (
    (PagerankWorkload,
     "PageRank over an R-MAT graph in CRS form", ("paper",)),
    (TriangleCountWorkload,
     "triangle counting by sorted adjacency intersection", ("paper",)),
    (Graph500Workload,
     "Graph500 breadth-first search over an R-MAT graph", ("paper",)),
    (SGDWorkload,
     "SGD matrix factorisation over a sparse rating matrix", ("paper",)),
    (LSHWorkload,
     "locality-sensitive hashing nearest-neighbour queries", ("paper",)),
    (SpMVWorkload,
     "HPCG sparse matrix-vector multiply (27-point grid)", ("paper",)),
    (SymGSWorkload,
     "HPCG symmetric Gauss-Seidel smoother", ("paper",)),
    (DenseStencilWorkload,
     "dense 5-point stencil (regular, stream-friendly)", ("regular",)),
    (BlockedMatMulWorkload,
     "cache-blocked dense matrix multiply (regular)", ("regular",)),
    (StridedCopyWorkload,
     "strided array copy (regular)", ("regular",)),
    (IndirectStreamWorkload,
     "synthetic A[B[i]] indirect-stream micro-kernel", ("synthetic",)),
    (StreamingWorkload,
     "synthetic sequential stream, no indirection", ("synthetic",)),
):
    WORKLOADS.register(_cls.name, _cls, description=_desc, tags=_tags)


#: The seven applications of the paper's evaluation, in figure order.
PAPER_WORKLOADS: Dict[str, Type[Workload]] = {
    entry.name: entry.factory
    for entry in WORKLOADS.entries() if "paper" in entry.tags
}


def make_workload(name: str, **kwargs) -> Workload:
    """Instantiate a paper workload by name."""
    if name not in PAPER_WORKLOADS:
        raise RegistryError("paper workload", name, sorted(PAPER_WORKLOADS))
    return PAPER_WORKLOADS[name](**kwargs)


def workload_from_spec(name: str, params: Dict[str, object]) -> Workload:
    """Recreate a workload from its registry name and ``spec_params()``."""
    return WORKLOADS.get(name).factory(**params)


def paper_workloads(scale: float = 1.0, seed: int = 1) -> List[Workload]:
    """Instantiate all seven paper workloads.

    ``scale`` shrinks or grows the default problem sizes (a value of 0.5
    halves vertex / row / rating counts); used to keep benchmark runtimes
    reasonable in pure Python while preserving working sets larger than the
    simulated L1 caches.
    """
    def scaled(value: int, minimum: int = 64) -> int:
        return max(minimum, int(value * scale))

    return [
        PagerankWorkload(n_vertices=scaled(4096), seed=seed),
        TriangleCountWorkload(n_vertices=scaled(2048), seed=seed),
        Graph500Workload(n_vertices=scaled(4096), seed=seed),
        SGDWorkload(n_users=scaled(4096), n_items=scaled(4096),
                    n_ratings=scaled(24576), seed=seed),
        LSHWorkload(n_points=scaled(8192), n_queries=scaled(384), seed=seed),
        # The HPCG grids scale with the cube root and keep a floor so the
        # multiplied/smoothed vector stays larger than the simulated L1.
        SpMVWorkload(nx=max(10, int(14 * scale ** (1 / 3))),
                     ny=max(10, int(14 * scale ** (1 / 3))),
                     nz=max(10, int(14 * scale ** (1 / 3))), seed=seed),
        SymGSWorkload(nx=max(9, int(12 * scale ** (1 / 3))),
                      ny=max(9, int(12 * scale ** (1 / 3))),
                      nz=max(9, int(12 * scale ** (1 / 3))), seed=seed),
    ]


__all__ = [
    "BlockedMatMulWorkload",
    "DenseStencilWorkload",
    "Graph500Workload",
    "IndirectStreamWorkload",
    "LSHWorkload",
    "PAPER_WORKLOADS",
    "REGULAR_WORKLOADS",
    "StridedCopyWorkload",
    "PagerankWorkload",
    "SGDWorkload",
    "SpMVWorkload",
    "StreamingWorkload",
    "SymGSWorkload",
    "TriangleCountWorkload",
    "WORKLOADS",
    "Workload",
    "WorkloadBuild",
    "make_workload",
    "paper_workloads",
    "workload_from_spec",
]
