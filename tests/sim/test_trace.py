"""Unit tests for the trace representation (repro.sim.trace)."""

import numpy as np
import pytest

from repro.sim.trace import (
    COLUMNS,
    KIND_BY_CODE,
    KIND_CODES,
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_SW_PREFETCH,
    AccessKind,
    Compute,
    MemRef,
    SwPrefetch,
    Trace,
    TraceBuilder,
)


class TestTraceBuilder:
    def test_consecutive_compute_coalesced(self):
        builder = TraceBuilder(core_id=0)
        builder.compute(3).compute(2)
        builder.load(0x400, 0x1000)
        trace = builder.build()
        assert isinstance(trace.entries[0], Compute)
        assert trace.entries[0].ops == 5
        assert isinstance(trace.entries[1], MemRef)

    def test_trailing_compute_flushed_on_build(self):
        builder = TraceBuilder(core_id=0)
        builder.load(0x400, 0x1000).compute(4)
        trace = builder.build()
        assert isinstance(trace.entries[-1], Compute)
        assert trace.entries[-1].ops == 4

    def test_zero_compute_ignored(self):
        trace = TraceBuilder(0).compute(0).load(0x400, 0x1000).build()
        assert len(trace) == 1

    def test_load_store_and_prefetch_entries(self):
        builder = TraceBuilder(core_id=1)
        builder.load(0x400, 0x1000, kind=AccessKind.INDEX)
        builder.store(0x408, 0x2000, kind=AccessKind.STREAM)
        builder.sw_prefetch(0x410, 0x3000, overhead_ops=3)
        trace = builder.build()
        load, store, prefetch = trace.entries
        assert load.is_read and load.kind is AccessKind.INDEX
        assert store.is_write and store.kind is AccessKind.STREAM
        assert isinstance(prefetch, SwPrefetch)
        assert prefetch.overhead_ops == 3


class TestTraceSummaries:
    def test_instruction_count(self):
        builder = TraceBuilder(0)
        builder.compute(10)
        builder.load(0x400, 0x1000)
        builder.sw_prefetch(0x408, 0x2000, overhead_ops=3)
        trace = builder.build()
        # 10 compute + 1 load + (1 + 3) for the software prefetch.
        assert trace.instruction_count == 15

    def test_memory_reference_count_excludes_prefetches(self):
        builder = TraceBuilder(0)
        builder.load(0x400, 0x1000)
        builder.store(0x408, 0x2000)
        builder.sw_prefetch(0x410, 0x3000)
        trace = builder.build()
        assert trace.memory_reference_count == 2

    def test_count_by_kind(self):
        builder = TraceBuilder(0)
        builder.load(0x400, 0x1000, kind=AccessKind.INDEX)
        builder.load(0x408, 0x2000, kind=AccessKind.INDIRECT)
        builder.load(0x410, 0x3000, kind=AccessKind.INDIRECT)
        counts = builder.build().count_by_kind()
        assert counts[AccessKind.INDEX] == 1
        assert counts[AccessKind.INDIRECT] == 2
        assert counts[AccessKind.OTHER] == 0

    def test_iteration_and_len(self):
        trace = TraceBuilder(0).load(0x400, 0x1000).compute(1).build()
        assert len(trace) == 2
        assert len(list(trace)) == 2

    def test_empty_trace(self):
        trace = Trace(core_id=0)
        assert trace.instruction_count == 0
        assert trace.memory_reference_count == 0


class TestColumnarStorage:
    """The columnar encoding behind the object-level API."""

    def test_columns_encode_opcodes(self):
        trace = (TraceBuilder(0)
                 .compute(3)
                 .load(0x400, 0x1000, kind=AccessKind.INDEX)
                 .store(0x408, 0x2000)
                 .sw_prefetch(0x410, 0x3000, overhead_ops=2)
                 .build())
        # The leading compute(3) is folded into the load row's lead column.
        assert list(trace.op) == [OP_LOAD, OP_STORE, OP_SW_PREFETCH]
        assert list(trace.addr) == [0x1000, 0x2000, 0x3000]
        assert list(trace.lead) == [3, 0, 0]
        assert trace.aux[0] == KIND_CODES[AccessKind.INDEX]    # load kind
        assert trace.aux[2] == 2                               # overhead ops
        assert trace.num_rows == 3
        assert len(trace) == 4          # the object view still has 4 entries
        assert trace.entries[0] == Compute(3)

    def test_trailing_compute_gets_its_own_row(self):
        trace = TraceBuilder(0).load(0x400, 0x1000).compute(4).build()
        assert list(trace.op) == [OP_LOAD, OP_COMPUTE]
        assert trace.aux[1] == 4
        assert len(trace) == 2

    def test_entry_at_round_trips(self):
        trace = Trace(core_id=1)
        entries = [Compute(5),
                   MemRef(pc=0x400, addr=0x1000, size=4, is_write=False,
                          kind=AccessKind.INDIRECT),
                   MemRef(pc=0x408, addr=0x2000, is_write=True,
                          kind=AccessKind.STREAM),
                   SwPrefetch(pc=0x410, addr=0x3000, overhead_ops=7)]
        trace.extend(entries)
        assert trace.entries == entries
        assert trace.entry_at(-1) == entries[-1]
        assert list(trace) == entries

    def test_entry_at_counts_lead_rows_twice(self):
        trace = (TraceBuilder(0)
                 .load(0x400, 0x1000)
                 .compute(3)
                 .store(0x408, 0x2000, kind=AccessKind.STREAM)
                 .compute(2)
                 .build())
        entries = trace.entries
        assert len(entries) == 4 and trace.num_rows == 3
        assert [trace.entry_at(i) for i in range(4)] == entries
        assert trace.entry_at(1) == Compute(3)          # the store row's lead
        assert trace.entry_at(-2) == entries[2]
        assert trace.entry_at(-4) == entries[0]
        for position in (4, 100, -5):
            with pytest.raises(IndexError):
                trace.entry_at(position)

    def test_counts_maintained_incrementally(self):
        trace = Trace(core_id=0)
        assert trace.count_by_kind() == {kind: 0 for kind in KIND_BY_CODE}
        trace.append(MemRef(pc=0, addr=0, kind=AccessKind.INDIRECT))
        trace.append(Compute(9))
        trace.append(SwPrefetch(pc=0, addr=64, overhead_ops=3))
        assert trace.instruction_count == 1 + 9 + 4
        assert trace.memory_reference_count == 1
        assert trace.count_by_kind()[AccessKind.INDIRECT] == 1

    def test_append_rejects_unknown_entry(self):
        with pytest.raises(TypeError):
            Trace(core_id=0).append(object())

    def test_parallel_columns_stay_aligned(self):
        builder = TraceBuilder(0)
        for i in range(100):
            builder.compute(1).load(0x400, 0x1000 + 64 * i)
        trace = builder.build()
        # 100 rows (compute folded into each load), 200 logical entries.
        assert (len(trace.op) == len(trace.pc) == len(trace.addr)
                == len(trace.size) == len(trace.aux) == len(trace.lead)
                == trace.num_rows == 100)
        assert len(trace) == 200
        assert trace.instruction_count == 200


class TestFromColumns:
    """``Trace.from_columns`` derives the counters the incremental
    object-level appends maintain."""

    ENTRIES = [
        Compute(4),
        MemRef(pc=0x400, addr=0x1000, size=4, kind=AccessKind.INDEX),
        MemRef(pc=0x408, addr=0x2000, kind=AccessKind.INDIRECT),
        Compute(2),
        SwPrefetch(pc=0x410, addr=0x3000, overhead_ops=3),
        MemRef(pc=0x418, addr=0x4000, is_write=True,
               kind=AccessKind.STREAM),
        MemRef(pc=0x420, addr=0x5000, kind=AccessKind.OTHER),
        Compute(1),
        MemRef(pc=0x428, addr=0x6000, size=1, is_write=True,
               kind=AccessKind.INDIRECT),
        Compute(7),
    ]

    def built(self):
        """The mixed trace through the per-row builder: leads on a load and
        on a software prefetch, every access kind, a trailing compute row."""
        builder = TraceBuilder(3)
        for entry in self.ENTRIES:
            if type(entry) is Compute:
                builder.compute(entry.ops)
            elif type(entry) is SwPrefetch:
                builder.sw_prefetch(entry.pc, entry.addr,
                                    overhead_ops=entry.overhead_ops)
            elif entry.is_write:
                builder.store(entry.pc, entry.addr, size=entry.size,
                              kind=entry.kind)
            else:
                builder.load(entry.pc, entry.addr, size=entry.size,
                             kind=entry.kind)
        return builder.build()

    def test_mixed_trace_counters_match_incremental_ones(self):
        trace = self.built()
        assert list(trace.lead) == [4, 0, 2, 0, 0, 1, 0]
        assert trace.op[-1] == OP_COMPUTE and trace.aux[-1] == 7
        columns = [np.array(getattr(trace, name)) for name in
                   ("op", "pc", "addr", "size", "aux", "lead")]
        derived = Trace.from_columns(3, *columns)
        incremental = Trace(3, self.ENTRIES)
        for candidate in (trace, derived):
            assert candidate.instruction_count == \
                incremental.instruction_count == 4 + 2 + 2 + 4 + 2 + 1 + 1 + 7
            assert candidate.memory_reference_count == \
                incremental.memory_reference_count == 5
            assert candidate.count_by_kind() == incremental.count_by_kind()
            assert len(candidate) == len(incremental) == len(self.ENTRIES)
            assert candidate.entries == self.ENTRIES
        assert all(count == (2 if kind is AccessKind.INDIRECT else 1)
                   for kind, count in derived.count_by_kind().items())
        assert derived.core_id == 3
        assert {name: getattr(derived, name).typecode
                for name, _ in COLUMNS} == dict(COLUMNS)

    def test_empty_columns(self):
        trace = Trace.from_columns(0, [], [], [], [], [], [])
        assert (trace.num_rows, len(trace), trace.instruction_count,
                trace.memory_reference_count) == (0, 0, 0, 0)

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            Trace.from_columns(0, [OP_LOAD], [0], [0], [8], [0], [])

    def test_rejects_unknown_kind_code(self):
        for code in (len(KIND_BY_CODE), -1):
            with pytest.raises(ValueError, match="'aux'"):
                Trace.from_columns(0, [OP_LOAD], [0], [0], [8], [code], [0])


#: One valid load row, column by column in schema order.
LOAD_ROW = {"op": OP_LOAD, "pc": 0x400, "addr": 0x1000, "size": 8,
            "aux": KIND_CODES[AccessKind.INDEX], "lead": 2}


def row_columns(**overrides):
    """Single-row columns for ``Trace.from_columns``, in schema order."""
    row = dict(LOAD_ROW, **overrides)
    return [[row[name]] for name, _ in COLUMNS]


class TestCompactColumns:
    """Each column is stored at its schema width, and a value that does not
    fit is refused with the column's name instead of wrapping."""

    def test_from_columns_stores_25_bytes_per_row(self):
        trace = Trace.from_columns(
            0, *(np.full(1000, value, dtype=np.int64)
                 for value in LOAD_ROW.values()))
        assert trace.num_rows == 1000
        assert trace.nbytes == 25 * 1000

    def test_incremental_trace_stores_25_bytes_per_row(self):
        trace = Trace(0, TestFromColumns.ENTRIES)
        assert trace.num_rows == len(TestFromColumns.ENTRIES)
        assert trace.nbytes == 25 * trace.num_rows
        assert {name: getattr(trace, name).typecode
                for name, _ in COLUMNS} == dict(COLUMNS)

    def test_wide_values_round_trip(self):
        addr = 2 ** 40 + 64
        pc = np.iinfo(np.int32).max
        trace = Trace.from_columns(0, *row_columns(pc=pc, addr=addr))
        assert trace.entries[-1] == MemRef(pc=pc, addr=addr,
                                           kind=AccessKind.INDEX)

    @pytest.mark.parametrize("bound", ("min", "max"))
    @pytest.mark.parametrize("name,typecode", COLUMNS)
    def test_out_of_range_value_names_its_column(self, name, typecode,
                                                 bound):
        info = np.iinfo(np.dtype(typecode))
        value = info.min - 1 if bound == "min" else info.max + 1
        with pytest.raises(ValueError, match=f"'{name}'"):
            Trace.from_columns(0, *row_columns(**{name: value}))

    @pytest.mark.parametrize("name", ("pc", "addr", "size", "lead"))
    def test_incremental_append_raises_instead_of_wrapping(self, name):
        trace = Trace(0)
        trace.append_mem_ref(0x400, 0x1000, 8, False, 0)
        row = {"pc": 0x400, "addr": 0x1000, "size": 8, "lead_ops": 0}
        row["lead_ops" if name == "lead" else name] = 2 ** 63
        with pytest.raises(ValueError, match=f"'{name}'"):
            trace.append_mem_ref(row["pc"], row["addr"], row["size"], False,
                                 0, row["lead_ops"])
        # The columns appended to before the failure were rolled back.
        assert all(len(getattr(trace, column)) == 1
                   for column, _ in COLUMNS)
        assert (trace.num_rows, len(trace), trace.memory_reference_count) \
            == (1, 1, 1)

    def test_incremental_append_rejects_unknown_kind_code(self):
        trace = Trace(0)
        for code in (-1, len(KIND_BY_CODE)):
            with pytest.raises(ValueError):
                trace.append_mem_ref(0x400, 0x1000, 8, False, code)
        assert trace.num_rows == 0

    def test_rejects_unknown_opcode(self):
        # Before the check an opcode of 7 counted as one memory reference
        # while the core model simulated the row as a store.
        for opcode in (OP_SW_PREFETCH + 1, 7, OP_COMPUTE - 1):
            with pytest.raises(ValueError, match="'op'"):
                Trace.from_columns(0, *row_columns(op=opcode))

    @pytest.mark.parametrize("name", [name for name, _ in COLUMNS])
    def test_rejects_non_integer_column(self, name):
        # A float column used to be truncated silently (64.9 -> 64).
        with pytest.raises(ValueError, match=f"'{name}'"):
            Trace.from_columns(0, *row_columns(**{name: 64.9}))
