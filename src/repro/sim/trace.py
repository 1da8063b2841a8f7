"""Per-core memory trace representation (columnar encoding).

Workloads do not run as native programs inside the simulator; instead they
emit, per core, a trace that captures the instruction and memory behaviour
of the kernel.  Each row of a trace is one of four instructions, told
apart by its opcode:

* ``OP_COMPUTE`` — a run of non-memory instructions.
* ``OP_LOAD`` / ``OP_STORE`` — one load or store, tagged with the access
  *kind* so that the miss breakdown of the paper's Figure 1 / Figure 2 can
  be reproduced.
* ``OP_SW_PREFETCH`` — a software prefetch instruction, used only by the
  "Software Prefetching" configuration (Mowry-style compiler insertion).
  Its *overhead ops* model the address computation a compiler must emit
  for an indirect prefetch — the instruction overhead of Figure 10.

Every memory-touching row carries the program counter of the instruction
that produced it, because both the stream prefetcher and IMP associate
patterns with PCs (Section 3.3.1 of the paper).

Storage layout
--------------

Traces routinely hold hundreds of thousands of dynamic instructions per
core, so a :class:`Trace` stores six parallel :mod:`array` columns, each at
the fixed width that :data:`COLUMNS` gives it::

    op    int8   opcode (OP_COMPUTE / OP_LOAD / OP_STORE / OP_SW_PREFETCH)
    pc    int32  program counter            (0 for compute runs)
    addr  int64  byte address               (0 for compute runs)
    size  int32  access size in bytes       (0 for compute runs)
    aux   int32  ops for compute runs, the AccessKind code for loads/stores,
                 overhead_ops for software prefetches
    lead  int32  non-memory ops executed immediately before this row's
                 instruction (0 on compute rows)

That is 25 bytes per row.  Only ``addr`` keeps 64 bits, because the address
layout grows with the input size; the other columns hold small codes, PCs
and op counts.  A value that does not fit its column is refused (a
``ValueError`` naming the column) rather than let it wrap.

A run of compute ops is folded into the *lead* column of the next
memory-touching row (the ubiquitous compute-then-load pattern then costs
one row instead of two); a standalone ``OP_COMPUTE`` row appears only for
a trailing compute run.  ``len(trace)`` counts instructions the way the
trace was written — a row with a non-zero *lead* counts twice, once for
its compute run — while ``num_rows`` has the row count.

Workload generators build a core's trace as whole numpy columns and hand
them to :meth:`Trace.from_columns`, the one constructor, which validates
them and derives the summary counts (instruction count, memory references,
stores, per-kind reference counts, entry count) once, so neither the core
models nor the per-core overhead accounting of Figure 10 ever count or
rescan the trace.  :class:`TraceBuilder` is the per-row API for tests and
hand-written traces; it ends in the same constructor.  Core models iterate
the columns directly and dispatch on the integer opcode.
"""

from __future__ import annotations

import enum
from array import array
from typing import List, Optional, Sequence

import numpy as np


class AccessKind(enum.Enum):
    """Classification of a memory reference, used for attribution only.

    The timing model never looks at the kind; it exists so that statistics
    can be broken down exactly the way the paper's motivation figures do.
    """

    #: Sequential read of an index array ``B[i]`` (captured by stream pf).
    INDEX = "index"
    #: Irregular access ``A[B[i]]`` — the pattern IMP targets.
    INDIRECT = "indirect"
    #: Other streaming/strided accesses (e.g. row pointers, output arrays).
    STREAM = "stream"
    #: Everything else (stack, scalars, hash computations, ...).
    OTHER = "other"


#: Integer opcodes stored in the ``op`` column.
OP_COMPUTE = 0
OP_LOAD = 1
OP_STORE = 2
OP_SW_PREFETCH = 3

#: AccessKind <-> small-integer codes stored in the ``aux`` column.
KIND_BY_CODE = tuple(AccessKind)
KIND_CODES = {kind: code for code, kind in enumerate(KIND_BY_CODE)}
NUM_KINDS = len(KIND_BY_CODE)

#: The column schema, in row order: each column's name and the ``array``
#: typecode it is stored with (C signed char, int and long long, which
#: numpy reads as int8, int32 and int64).
COLUMNS = (("op", "b"), ("pc", "i"), ("addr", "q"), ("size", "i"),
           ("aux", "i"), ("lead", "i"))


def _integer_column(name: str, typecode: str, column) -> np.ndarray:
    """``column`` as an int64 numpy array, once every value fits ``typecode``.

    A numpy cast to a narrower type wraps silently, so the range is checked
    first; a non-integer column (floats would truncate) is refused outright.
    """
    values = np.asarray(column)
    if not values.size:
        return np.zeros(0, dtype=np.int64)
    if values.dtype.kind not in "iu":
        raise ValueError(f"trace column {name!r} must hold integers, "
                         f"not {values.dtype}")
    info = np.iinfo(np.dtype(typecode))
    low, high = values.min(), values.max()
    if low < info.min or high > info.max:
        raise ValueError(
            f"trace column {name!r} holds {low if low < info.min else high}, "
            f"outside its int{info.bits} range [{info.min}, {info.max}]")
    return values.astype(np.int64, copy=False)


class Trace:
    """The instruction/memory trace of a single core (columnar storage).

    Build one with :meth:`from_columns` (or through :class:`TraceBuilder`);
    the initialiser only adopts columns and counters that method derived.
    """

    __slots__ = ("core_id", "op", "pc", "addr", "size", "aux", "lead",
                 "_instruction_count", "_mem_ref_count", "_store_count",
                 "_kind_counts", "_entry_count")

    def __init__(self, core_id: int, columns: Sequence[array],
                 instruction_count: int, mem_ref_count: int,
                 store_count: int, kind_counts: List[int],
                 entry_count: int) -> None:
        self.core_id = core_id
        self.op, self.pc, self.addr, self.size, self.aux, self.lead = columns
        self._instruction_count = instruction_count
        self._mem_ref_count = mem_ref_count
        self._store_count = store_count
        self._kind_counts = kind_counts
        self._entry_count = entry_count

    @classmethod
    def from_columns(cls, core_id: int, op, pc, addr, size, aux,
                     lead) -> "Trace":
        """Adopt six equal-length integer columns.

        Each column may be a numpy array or any integer sequence; it must
        fit the width :data:`COLUMNS` gives it, ``op`` must hold known
        opcodes, the load/store rows of ``aux`` known kind codes and the
        compute rows of ``lead`` zero (a compute run is one row's lead or
        a row of its own, never both), or a ``ValueError`` names the
        offending column.  The summary counters are derived from the
        columns:

        * instructions = the leads, plus one per load/store, ``1 + aux``
          per software prefetch and ``aux`` per compute row;
        * memory references = the load/store rows; stores = the store rows;
        * per-kind counts = a bincount of ``aux`` over the load/store rows;
        * entries = rows plus the rows with a nonzero lead.
        """
        columns = [_integer_column(name, typecode, column)
                   for (name, typecode), column
                   in zip(COLUMNS, (op, pc, addr, size, aux, lead))]
        if len({len(column) for column in columns}) > 1:
            raise ValueError("trace columns differ in length")
        op, _, _, _, aux, lead = columns
        if op.size and (op.min() < OP_COMPUTE or op.max() > OP_SW_PREFETCH):
            raise ValueError("trace column 'op' holds an unknown opcode")
        is_compute = op == OP_COMPUTE
        if lead[is_compute].any():
            raise ValueError("trace column 'lead' holds a nonzero lead on "
                             "an OP_COMPUTE row")
        is_store = op == OP_STORE
        is_mem = (op == OP_LOAD) | is_store
        is_sw = op == OP_SW_PREFETCH
        kind_codes = aux[is_mem]
        if kind_codes.size and (kind_codes.min() < 0
                                or kind_codes.max() >= NUM_KINDS):
            raise ValueError("trace column 'aux' holds an unknown access "
                             "kind code on a load/store row")
        buffers = []
        for (_, typecode), column in zip(COLUMNS, columns):
            # Sized exactly (``frombytes`` over-allocates by 1/16), then
            # filled by one narrowing copy through a numpy view.
            buffer = array(typecode, [0]) * len(column)
            np.frombuffer(buffer, dtype=typecode)[:] = column
            buffers.append(buffer)
        return cls(
            core_id, buffers,
            instruction_count=int(
                lead.sum() + is_mem.sum() + is_sw.sum() + aux[is_sw].sum()
                + aux[is_compute].sum()),
            mem_ref_count=int(is_mem.sum()),
            store_count=int(is_store.sum()),
            kind_counts=[
                int(count)
                for count in np.bincount(kind_codes, minlength=NUM_KINDS)],
            entry_count=len(op) + int(np.count_nonzero(lead)))

    @property
    def nbytes(self) -> int:
        """Total size of the six column buffers, in bytes."""
        return sum(len(column) * column.itemsize
                   for column in (self.op, self.pc, self.addr, self.size,
                                  self.aux, self.lead))

    @property
    def num_rows(self) -> int:
        """Number of storage rows (<= ``len(trace)``)."""
        return len(self.op)

    def __len__(self) -> int:
        """Rows plus the rows whose lead holds a compute run."""
        return self._entry_count

    # ------------------------------------------------------------------
    # Summary helpers (used by workload tests and Figure 10)
    # ------------------------------------------------------------------
    @property
    def instruction_count(self) -> int:
        """Total dynamic instruction count represented by the trace.

        Derived once by :meth:`from_columns` — O(1), not a trace rescan.
        """
        return self._instruction_count

    @property
    def memory_reference_count(self) -> int:
        """Number of demand loads/stores in the trace (cached, O(1))."""
        return self._mem_ref_count

    @property
    def store_count(self) -> int:
        """Number of demand stores in the trace (cached, O(1))."""
        return self._store_count

    def count_by_kind(self) -> dict:
        """Return the number of memory references per :class:`AccessKind`."""
        return {kind: self._kind_counts[code]
                for code, kind in enumerate(KIND_BY_CODE)}


class TraceBuilder:
    """Per-row builder that coalesces consecutive compute operations.

    Workload generators emit whole columns through
    :meth:`Trace.from_columns`; this fluent per-row API remains for tests
    and hand-written traces.  Rows are buffered in plain Python lists and
    handed to :meth:`Trace.from_columns` at :meth:`build`, which derives
    the summary counters; pending compute ops are folded into the *lead*
    column of the next memory-touching row.
    """

    __slots__ = ("_core_id", "_pending_ops", "_op", "_pc", "_addr", "_size",
                 "_aux", "_lead", "_built")

    def __init__(self, core_id: int) -> None:
        self._core_id = core_id
        self._pending_ops = 0
        self._op: List[int] = []
        self._pc: List[int] = []
        self._addr: List[int] = []
        self._size: List[int] = []
        self._aux: List[int] = []
        self._lead: List[int] = []
        self._built: Optional[Trace] = None

    def compute(self, ops: int = 1) -> "TraceBuilder":
        """Add ``ops`` non-memory instructions."""
        if ops > 0:
            if self._built is not None:
                raise RuntimeError("TraceBuilder is finished: build() was "
                                   "already called, further entries would "
                                   "be silently lost")
            self._pending_ops += ops
        return self

    def _append_row(self, op: int, pc: int, addr: int, size: int,
                    aux: int) -> None:
        """Append one row whose lead is the pending compute run."""
        if self._built is not None:
            raise RuntimeError("TraceBuilder is finished: build() was "
                               "already called, further entries would be "
                               "silently lost")
        self._op.append(op)
        self._pc.append(pc)
        self._addr.append(addr)
        self._size.append(size)
        self._aux.append(aux)
        self._lead.append(self._pending_ops)
        self._pending_ops = 0

    def load(self, pc: int, addr: int, *, size: int = 8,
             kind: AccessKind = AccessKind.OTHER) -> "TraceBuilder":
        """Add a load instruction."""
        self._append_row(OP_LOAD, pc, addr, size, KIND_CODES[kind])
        return self

    def store(self, pc: int, addr: int, *, size: int = 8,
              kind: AccessKind = AccessKind.OTHER) -> "TraceBuilder":
        """Add a store instruction."""
        self._append_row(OP_STORE, pc, addr, size, KIND_CODES[kind])
        return self

    def sw_prefetch(self, pc: int, addr: int, *, overhead_ops: int = 3) -> "TraceBuilder":
        """Add a software prefetch instruction."""
        self._append_row(OP_SW_PREFETCH, pc, addr, 0, overhead_ops)
        return self

    def build(self) -> Trace:
        """Finish the trace and return it (idempotent)."""
        if self._built is None:
            if self._pending_ops:
                # Trailing compute run gets its own row.
                ops, self._pending_ops = self._pending_ops, 0
                self._append_row(OP_COMPUTE, 0, 0, 0, ops)
            self._built = Trace.from_columns(
                self._core_id, self._op, self._pc, self._addr, self._size,
                self._aux, self._lead)
        return self._built
