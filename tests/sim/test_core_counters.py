"""Differential test of the per-trace core counters.

Both core models report instruction, reference, load/store and per-kind
counts for a mixed trace; whatever path each access takes (the inline L1
hit, the memory system, a hit notification to an L1 prefetcher), those
counts must equal a tally kept while the trace was written.  The L1's own
access/hit counters are pinned to the values the simulator has always
produced on this trace.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.experiments.configs import scaled_config
from repro.sim.system import build_system
from repro.sim.trace import AccessKind, TraceBuilder

KINDS = tuple(AccessKind)


def mixed_trace():
    """A trace with leads, software prefetches, loads and stores of every
    kind and a trailing compute row, plus the tally of what was written."""
    builder = TraceBuilder(0)
    tally = Counter()
    for i in range(600):
        lead = i % 4
        builder.compute(lead)
        tally["instructions"] += lead
        kind = KINDS[i % len(KINDS)]
        if i % 5 == 2:
            builder.store(0x500 + i % 7, 0x40000 + 8 * (i * 37 % 900),
                          kind=kind)
            tally["stores"] += 1
        else:
            # A sequential stream (mostly hits) interleaved with a
            # scattered one (mostly misses).
            if i % 2:
                pc, addr = 0x400, 0x10000 + 8 * i
            else:
                pc, addr = 0x410 + i % 3, 0x80000 + 64 * (i * 131 % 1024)
            builder.load(pc, addr, kind=kind)
            tally["loads"] += 1
        tally[kind] += 1
        tally["instructions"] += 1
        if i % 50 == 10:
            builder.sw_prefetch(0x600, 0x90000 + 64 * i, overhead_ops=3)
            tally["instructions"] += 4
    builder.compute(7)
    tally["instructions"] += 7
    return builder.build(), tally


CONFIGS = {
    "inline-l1": (scaled_config(1), "none"),
    "ideal-memory": (scaled_config(1, ideal_memory=True), "none"),
    "notify-stream": (scaled_config(1), "stream"),
}

#: (L1 accesses, L1 hits) per (configuration, core model).
L1_COUNTS = {
    ("inline-l1", "in-order"): (600, 175),
    ("inline-l1", "ooo"): (600, 175),
    ("ideal-memory", "in-order"): (0, 0),
    ("ideal-memory", "ooo"): (0, 0),
    ("notify-stream", "in-order"): (600, 246),
    ("notify-stream", "ooo"): (600, 246),
}


@pytest.mark.parametrize("core_model", ["in-order", "ooo"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_core_counts_match_the_trace(name, core_model):
    trace, tally = mixed_trace()
    config, prefetcher = CONFIGS[name]
    config = replace(config, core_model=core_model)
    system = build_system(config, [trace], prefetcher=prefetcher)
    stats = system.run().stats.cores[0]
    assert stats.instructions == tally["instructions"]
    assert stats.loads == tally["loads"]
    assert stats.stores == tally["stores"]
    assert stats.mem_accesses == tally["loads"] + tally["stores"]
    assert stats.accesses_by_kind == {kind: tally[kind] for kind in KINDS}
    assert stats.l1_hits + stats.l1_misses == stats.mem_accesses
    l1 = system.memsys.l1[0]
    assert (l1.accesses, l1.hits) == L1_COUNTS[name, core_model]
