"""The columnar row helpers of repro.workloads.base."""

import numpy as np

from repro.sim.trace import AccessKind, TraceBuilder
from repro.workloads.base import (
    compute_row,
    csr_expand,
    load_row,
    loop_rows,
    nest_rows,
    prefetch_ahead,
    store_row,
    sw_prefetch_row,
    trace_from_rows,
)


def columns(trace):
    return [list(getattr(trace, name)) for name in
            ("op", "pc", "addr", "size", "aux", "lead")]


def test_csr_expand():
    owner, local = csr_expand([2, 0, 3])
    assert owner.tolist() == [0, 0, 2, 2, 2]
    assert local.tolist() == [0, 1, 0, 1, 2]


def test_prefetch_ahead_masks_past_the_loop_end():
    keep, target = prefetch_ahead(np.array([3, 5, 6]), 2, 6, True)
    assert keep.tolist() == [True, True, False]
    assert target.tolist() == [3, 5, 2]
    keep, _ = prefetch_ahead(np.array([3]), 2, 6, False)
    assert keep.tolist() == [False]


def test_nest_and_fold_match_the_per_row_builder():
    """Two outer iterations with inner lengths 2 and 0: a head with a
    compute run, a body with a masked software prefetch and a masked
    store, and a tail ending in a trailing compute run."""
    lengths = np.array([2, 0])
    owner, local = csr_expand(lengths)
    addr = 0x1000 + 8 * local
    body = loop_rows(
        len(owner),
        sw_prefetch_row(0x10, addr + 64, np.array([True, False])),
        load_row(0x18, addr, AccessKind.INDEX, size=4),
        compute_row(2),
        store_row(0x20, addr, AccessKind.INDIRECT, keep=local == 1))
    head = loop_rows(2, compute_row(1),
                     load_row(0x08, np.array([0x500, 0x508]),
                              AccessKind.STREAM))
    tail = loop_rows(2, compute_row(3))
    trace = trace_from_rows(5, nest_rows(2, (2, head), (4 * lengths, body),
                                         (1, tail)))

    builder = TraceBuilder(5)
    builder.compute(1).load(0x08, 0x500, kind=AccessKind.STREAM)
    builder.sw_prefetch(0x10, 0x1040)
    builder.load(0x18, 0x1000, size=4, kind=AccessKind.INDEX).compute(2)
    builder.load(0x18, 0x1008, size=4, kind=AccessKind.INDEX).compute(2)
    builder.store(0x20, 0x1008, kind=AccessKind.INDIRECT)
    builder.compute(3)
    builder.compute(1).load(0x08, 0x508, kind=AccessKind.STREAM)
    builder.compute(3)
    expected = builder.build()

    assert columns(trace) == columns(expected)
    assert trace.instruction_count == expected.instruction_count
    assert trace.count_by_kind() == expected.count_by_kind()
    assert len(trace) == len(expected)


def test_empty_rows_build_an_empty_trace():
    trace = trace_from_rows(0, loop_rows(0, load_row(0, 0, AccessKind.OTHER)))
    assert trace.num_rows == 0 and trace.instruction_count == 0
