"""Workload interface.

A workload knows how to lay out its data structures in a
:class:`repro.mem_image.MemoryImage` and how to emit, per core, the memory
trace the kernel would generate.  Each workload also knows how to emit its
*software-prefetching* variant (Mowry-style compiler-inserted indirect
prefetches, Section 5.4), which only differs by extra ``OP_SW_PREFETCH``
rows inside inner loops.

Generators emit whole numpy columns, not one row at a time: a loop body is
a template of rows (:func:`loop_rows`), loop nests are interleaved by outer
iteration (:func:`nest_rows`, with :func:`csr_expand` for CSR-style inner
loops), and control flow that depends on the data becomes a per-row
``keep`` mask.  :func:`trace_from_rows` folds compute runs into the next
instruction's lead exactly as :class:`repro.sim.trace.TraceBuilder` does
and builds the core's :class:`repro.sim.trace.Trace`.

All seven applications of the paper's evaluation (Section 5.3) are
implemented as subclasses, plus a synthetic "stream" workload used by tests
to confirm IMP does not misfire on non-indirect codes (the paper's SPLASH-2
sanity check).
"""

from __future__ import annotations

import abc
import gc
import inspect
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.mem_image import MemoryImage
from repro.sim.trace import (
    KIND_CODES,
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_SW_PREFETCH,
    AccessKind,
    Trace,
)


class WorkloadSpecError(TypeError):
    """Raised when a workload cannot be described by plain constructor
    parameters (e.g. it was built around a live, pre-constructed matrix
    object).  Such workloads still simulate fine in-process; they just
    cannot be shipped to sweep worker processes or keyed into the
    persistent result cache."""


#: Base address used for the synthetic program counters of each load site.
PC_BASE = 0x0040_0000


def pc_of(site: int) -> int:
    """Program counter of static load/store site number ``site``."""
    return PC_BASE + site * 8


# ----------------------------------------------------------------------
# Columnar trace construction
# ----------------------------------------------------------------------
class Rows(NamedTuple):
    """Trace rows in program order, as parallel numpy columns.

    ``op``/``pc``/``addr``/``size``/``aux`` are the trace columns, except
    that a compute run is a row of its own here (``aux`` = ops);
    :func:`trace_from_rows` folds it into the next instruction's lead.
    ``keep`` marks the rows that exist: a masked row (a software prefetch
    past its loop's end, a store on a branch not taken) is dropped there.
    """

    op: np.ndarray
    pc: np.ndarray
    addr: np.ndarray
    size: np.ndarray
    aux: np.ndarray
    keep: np.ndarray


#: One row of a loop-body template: (op, pc, addr, size, aux, keep), each
#: a scalar or an array with one value per loop iteration.
Row = Tuple[object, object, object, object, object, object]


def load_row(pc: int, addr, kind: AccessKind, size: int = 8,
             keep=True) -> Row:
    return (OP_LOAD, pc, addr, size, KIND_CODES[kind], keep)


def store_row(pc: int, addr, kind: AccessKind, size: int = 8,
              keep=True) -> Row:
    return (OP_STORE, pc, addr, size, KIND_CODES[kind], keep)


def sw_prefetch_row(pc: int, addr, keep, overhead_ops: int = 3) -> Row:
    return (OP_SW_PREFETCH, pc, addr, 0, overhead_ops, keep)


def compute_row(ops: int, keep=True) -> Row:
    return (OP_COMPUTE, 0, 0, 0, ops, keep)


def loop_rows(count: int, *template: Row) -> Rows:
    """The rows of a ``count``-iteration loop whose body is ``template``:
    iteration ``i`` emits every template row in order, scalars broadcast
    and arrays indexed by ``i``."""
    shape = (count, len(template))
    columns = [np.empty(shape, dtype=np.int64) for _ in range(5)]
    columns.append(np.empty(shape, dtype=bool))
    for k, row in enumerate(template):
        for column, value in zip(columns, row):
            column[:, k] = value
    return Rows(*(column.reshape(-1) for column in columns))


def csr_expand(lengths) -> Tuple[np.ndarray, np.ndarray]:
    """CSR row expansion of a loop nest whose outer iteration ``r`` runs
    ``lengths[r]`` inner iterations: the outer iteration of every inner
    iteration (``np.repeat``) and its position within that outer one."""
    lengths = np.asarray(lengths, dtype=np.int64)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    first = np.cumsum(lengths) - lengths
    return owner, np.arange(len(owner)) - first[owner]


def prefetch_ahead(target, lo, hi, enabled: bool
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """The software-prefetch rows of an inner loop over ``[lo, hi)``: a
    row exists when prefetching is ``enabled`` and its ``target`` position
    (``j + distance``) is still inside the loop.  Returns the ``keep`` mask
    and the targets with masked ones replaced by ``lo``, so gathering
    through them stays in bounds."""
    target = np.asarray(target, dtype=np.int64)
    if enabled:
        keep = (target >= lo) & (target < hi)
    else:
        keep = np.zeros(target.shape, dtype=bool)
    return keep, np.where(keep, target, lo)


def nest_rows(count: int, *sections: Tuple[object, Rows]) -> Rows:
    """Interleave row blocks by outer iteration.

    Each section is ``(counts, rows)``: ``rows`` in program order, grouped
    by outer iteration, the ``r``-th group ``counts[r]`` rows long (a
    scalar count applies to every iteration).  Outer iteration ``r`` emits
    its group of every section in turn.
    """
    counts = [np.broadcast_to(np.asarray(c, dtype=np.int64), (count,))
              for c, _ in sections]
    per_outer = sum(counts, np.zeros(count, dtype=np.int64))
    offset = np.cumsum(per_outer) - per_outer
    total = int(per_outer.sum())
    out = Rows(*(np.empty(total, dtype=np.int64) for _ in range(5)),
               np.empty(total, dtype=bool))
    for section_counts, (_, rows) in zip(counts, sections):
        owner, local = csr_expand(section_counts)
        if len(owner) != len(rows.op):
            raise ValueError("section counts do not match its rows")
        position = offset[owner] + local
        for target, source in zip(out, rows):
            target[position] = source
        offset += section_counts
    return out


def trace_from_rows(core_id: int, *parts: Rows) -> Trace:
    """Build one core's trace from its rows (concatenated in order).

    Masked rows are dropped, and every run of compute rows folds into the
    ``lead`` of the next instruction; a trailing run stays a compute row of
    its own — the same encoding :class:`repro.sim.trace.TraceBuilder`
    produces.
    """
    rows = parts[0] if len(parts) == 1 else Rows(
        *(np.concatenate(columns) for columns in zip(*parts)))
    is_compute = rows.op == OP_COMPUTE
    ops_so_far = np.cumsum(np.where(rows.keep & is_compute, rows.aux, 0))
    instructions = np.flatnonzero(rows.keep & ~is_compute)
    ops_before = ops_so_far[instructions]
    columns = [column[instructions] for column in rows[:5]]
    columns.append(np.diff(ops_before, prepend=0))
    total_ops = int(ops_so_far[-1]) if len(ops_so_far) else 0
    trailing = total_ops - (int(ops_before[-1]) if len(ops_before) else 0)
    if trailing:
        columns = [np.append(column, value) for column, value in
                   zip(columns, (OP_COMPUTE, 0, 0, 0, trailing, 0))]
    return Trace.from_columns(core_id, *columns)


@dataclass
class WorkloadBuild:
    """Everything the simulator needs to run one workload."""

    name: str
    mem_image: MemoryImage
    traces: List[Trace]
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def total_instructions(self) -> int:
        return sum(trace.instruction_count for trace in self.traces)

    @property
    def total_memory_references(self) -> int:
        return sum(trace.memory_reference_count for trace in self.traces)


class Workload(abc.ABC):
    """Base class of all workload generators."""

    #: Short name used in result tables (matches the paper's figures).
    name: str = "workload"

    def __init__(self, seed: int = 1) -> None:
        self.seed = seed
        self._build_cache: Dict[tuple, WorkloadBuild] = {}

    def rng(self, salt: int = 0) -> np.random.Generator:
        """A deterministic random generator derived from the workload seed."""
        return np.random.default_rng(self.seed * 0x9E3779B1 + salt)

    @abc.abstractmethod
    def build(self, n_cores: int, *, software_prefetch: bool = False,
              sw_prefetch_distance: int = 8) -> WorkloadBuild:
        """Lay out the data structures and emit one trace per core."""

    def cached_build(self, n_cores: int, *, software_prefetch: bool = False,
                     sw_prefetch_distance: int = 8) -> WorkloadBuild:
        """Memoised :meth:`build`.

        Builds are deterministic in (workload seed, core count, software-
        prefetch knobs), and the simulator never mutates a build (traces are
        read-only columns, the memory image is read-only), so sweeping one
        workload across prefetchers/configurations — what every figure of
        the paper does — can reuse one build instead of regenerating the
        trace per run.  Used by :func:`repro.sim.system.run_workload`.
        """
        key = (n_cores, software_prefetch, sw_prefetch_distance)
        build = self._build_cache.get(key)
        if build is None:
            # Trace generation allocates heavily and creates no reference
            # cycles; keep the generational GC out of it (same rationale as
            # System.run).
            gc_was_enabled = gc.isenabled()
            if gc_was_enabled:
                gc.disable()
            try:
                build = self.build(
                    n_cores, software_prefetch=software_prefetch,
                    sw_prefetch_distance=sw_prefetch_distance)
            finally:
                if gc_was_enabled:
                    gc.enable()
            self._build_cache[key] = build
        return build

    # ------------------------------------------------------------------
    # Spec serialisation (parallel sweeps, persistent result cache)
    # ------------------------------------------------------------------
    def spec_params(self) -> Dict[str, object]:
        """Constructor parameters that recreate this workload exactly.

        Every workload stores its constructor arguments as same-named
        attributes (``matrix``-style object parameters live under a leading
        underscore), so the parameters can be recovered by introspecting
        ``__init__``.  The result must be JSON-serialisable: it becomes part
        of the :class:`repro.experiments.sweep.RunSpec` that worker
        processes use to rebuild the workload, and part of the on-disk
        cache key.  Raises :class:`WorkloadSpecError` when a parameter is a
        live object (a pre-built matrix, say) that has no such
        representation.
        """
        params: Dict[str, object] = {}
        signature = inspect.signature(type(self).__init__)
        for name, parameter in signature.parameters.items():
            if name == "self" or parameter.kind in (
                    inspect.Parameter.VAR_POSITIONAL,
                    inspect.Parameter.VAR_KEYWORD):
                continue
            missing = object()
            value = getattr(self, name, missing)
            if value is missing or inspect.ismethod(value):
                value = getattr(self, "_" + name, missing)
            if value is missing:
                raise WorkloadSpecError(
                    f"{type(self).__name__} does not expose constructor "
                    f"parameter {name!r} as an attribute")
            if value is None and parameter.default is None:
                continue  # omitted optional object parameter
            if not isinstance(value, (bool, int, float, str)):
                raise WorkloadSpecError(
                    f"{type(self).__name__} parameter {name!r} is a "
                    f"{type(value).__name__}, not a plain scalar; this "
                    f"workload cannot be spec-serialised")
            params[name] = value
        return params

    # ------------------------------------------------------------------
    # Helpers shared by the concrete workloads
    # ------------------------------------------------------------------
    @staticmethod
    def partition(count: int, n_cores: int) -> List[range]:
        """Split ``range(count)`` into ``n_cores`` contiguous chunks."""
        base = count // n_cores
        extra = count % n_cores
        chunks: List[range] = []
        start = 0
        for core in range(n_cores):
            size = base + (1 if core < extra else 0)
            chunks.append(range(start, start + size))
            start += size
        return chunks
