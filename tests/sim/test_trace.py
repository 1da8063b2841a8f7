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
    Trace,
    TraceBuilder,
)


class TestTraceBuilder:
    def test_consecutive_compute_coalesced(self):
        builder = TraceBuilder(core_id=0)
        builder.compute(3).compute(2)
        builder.load(0x400, 0x1000)
        trace = builder.build()
        assert list(trace.op) == [OP_LOAD]
        assert list(trace.lead) == [5]

    def test_trailing_compute_flushed_on_build(self):
        builder = TraceBuilder(core_id=0)
        builder.load(0x400, 0x1000).compute(4)
        trace = builder.build()
        assert trace.op[-1] == OP_COMPUTE
        assert trace.aux[-1] == 4

    def test_zero_compute_ignored(self):
        trace = TraceBuilder(0).compute(0).load(0x400, 0x1000).build()
        assert len(trace) == 1

    def test_load_store_and_prefetch_entries(self):
        builder = TraceBuilder(core_id=1)
        builder.load(0x400, 0x1000, kind=AccessKind.INDEX)
        builder.store(0x408, 0x2000, kind=AccessKind.STREAM)
        builder.sw_prefetch(0x410, 0x3000, overhead_ops=3)
        trace = builder.build()
        assert list(trace.op) == [OP_LOAD, OP_STORE, OP_SW_PREFETCH]
        assert list(trace.aux) == [KIND_CODES[AccessKind.INDEX],
                                   KIND_CODES[AccessKind.STREAM], 3]


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

    def test_empty_trace(self):
        trace = TraceBuilder(core_id=0).build()
        assert trace.instruction_count == 0
        assert trace.memory_reference_count == 0


class TestColumnarStorage:
    """The columnar encoding the per-row builder produces."""

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
        assert len(trace) == 4          # the folded compute run counts too

    def test_trailing_compute_gets_its_own_row(self):
        trace = TraceBuilder(0).load(0x400, 0x1000).compute(4).build()
        assert list(trace.op) == [OP_LOAD, OP_COMPUTE]
        assert trace.aux[1] == 4
        assert len(trace) == 2

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


def mixed_trace(core_id: int = 3) -> Trace:
    """A mixed trace through the per-row builder: leads on a load and on a
    software prefetch, every access kind, a trailing compute row."""
    return (TraceBuilder(core_id)
            .compute(4)
            .load(0x400, 0x1000, size=4, kind=AccessKind.INDEX)
            .load(0x408, 0x2000, kind=AccessKind.INDIRECT)
            .compute(2)
            .sw_prefetch(0x410, 0x3000, overhead_ops=3)
            .store(0x418, 0x4000, kind=AccessKind.STREAM)
            .load(0x420, 0x5000, kind=AccessKind.OTHER)
            .compute(1)
            .store(0x428, 0x6000, size=1, kind=AccessKind.INDIRECT)
            .compute(7)
            .build())


class TestFromColumns:
    """``Trace.from_columns`` derives the counters of a trace built
    incrementally, row by row, through :class:`TraceBuilder`."""

    def test_mixed_trace_counters_match_incremental_ones(self):
        trace = mixed_trace()
        index, indirect, stream, other = (KIND_CODES[kind]
                                          for kind in AccessKind)
        assert {name: list(getattr(trace, name)) for name, _ in COLUMNS} == {
            "op": [OP_LOAD, OP_LOAD, OP_SW_PREFETCH, OP_STORE, OP_LOAD,
                   OP_STORE, OP_COMPUTE],
            "pc": [0x400, 0x408, 0x410, 0x418, 0x420, 0x428, 0],
            "addr": [0x1000, 0x2000, 0x3000, 0x4000, 0x5000, 0x6000, 0],
            "size": [4, 8, 0, 8, 8, 1, 0],
            "aux": [index, indirect, 3, stream, other, indirect, 7],
            "lead": [4, 0, 2, 0, 0, 1, 0]}
        columns = [np.array(getattr(trace, name)) for name, _ in COLUMNS]
        derived = Trace.from_columns(3, *columns)
        for candidate in (trace, derived):
            assert candidate.instruction_count == \
                4 + 2 + 2 + 4 + 2 + 1 + 1 + 7
            assert candidate.memory_reference_count == 5
            assert candidate.store_count == 2
            assert candidate.count_by_kind() == {
                AccessKind.INDEX: 1, AccessKind.INDIRECT: 2,
                AccessKind.STREAM: 1, AccessKind.OTHER: 1}
            # Ten instructions as written: seven rows, three of them with
            # a folded compute run.
            assert len(candidate) == 10
            assert [list(getattr(candidate, name)) for name, _ in COLUMNS] \
                == [list(column) for column in columns]
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

    def test_rejects_lead_on_compute_row(self):
        # The core models never execute a compute row's lead, so counting
        # it as instructions would make the derived count disagree with
        # the simulated one.
        with pytest.raises(ValueError, match="'lead'"):
            Trace.from_columns(0, [OP_LOAD, OP_COMPUTE], [0, 0], [0, 0],
                               [8, 0], [0, 5], [1, 2])
        trace = Trace.from_columns(0, [OP_LOAD, OP_COMPUTE], [0, 0], [0, 0],
                                   [8, 0], [0, 5], [1, 0])
        assert trace.instruction_count == 1 + 1 + 5


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
        trace = mixed_trace()
        assert trace.num_rows == 7
        assert trace.nbytes == 25 * 7
        assert {name: getattr(trace, name).typecode
                for name, _ in COLUMNS} == dict(COLUMNS)

    def test_wide_values_round_trip(self):
        addr = 2 ** 40 + 64
        pc = np.iinfo(np.int32).max
        trace = Trace.from_columns(0, *row_columns(pc=pc, addr=addr))
        assert (trace.op[-1], trace.pc[-1], trace.addr[-1], trace.size[-1],
                trace.aux[-1]) == (OP_LOAD, pc, addr, 8,
                                   KIND_CODES[AccessKind.INDEX])

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
        # A value appended row by row through the builder is checked when
        # build() hands the columns to Trace.from_columns.
        row = {"pc": 0x400, "addr": 0x1000, "size": 8, "lead": 0}
        row[name] = 2 ** 63
        builder = TraceBuilder(0).load(0x400, 0x1000)
        builder.compute(row["lead"]).load(row["pc"], row["addr"],
                                          size=row["size"])
        with pytest.raises(ValueError, match=f"'{name}'"):
            builder.build()

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
