"""Unit tests for the GHB correlation prefetcher (repro.prefetchers.ghb)."""

import pytest

from repro.prefetchers.base import AccessContext
from repro.prefetchers.ghb import GHBConfig, GHBPrefetcher
from repro.prefetchers.null import NullPrefetcher


def miss(addr: int, now: float = 0.0) -> AccessContext:
    return AccessContext(core_id=0, pc=0x400, addr=addr, size=8,
                         is_write=False, hit=False, now=now)


def hit(addr: int, now: float = 0.0) -> AccessContext:
    return AccessContext(core_id=0, pc=0x400, addr=addr, size=8,
                         is_write=False, hit=True, now=now)


class TestCorrelation:
    def test_repeated_miss_sequence_is_prefetched(self):
        ghb = GHBPrefetcher(GHBConfig(degree=2))
        sequence = [0x1000, 0x5000, 0x9000, 0x2000]
        for addr in sequence:
            ghb.on_access(miss(addr))
        # Replay the sequence: revisiting 0x1000 should prefetch 0x5000/0x9000.
        requests = ghb.on_access(miss(0x1000))
        targets = {r.addr for r in requests}
        assert 0x5000 in targets
        assert 0x9000 in targets
        assert ghb.correlation_hits == 1

    def test_novel_addresses_produce_no_prefetches(self):
        ghb = GHBPrefetcher()
        for i in range(64):
            assert ghb.on_access(miss(0x1000 + i * 4096)) == []

    def test_hits_do_not_train_by_default(self):
        ghb = GHBPrefetcher()
        for addr in (0x1000, 0x2000, 0x1000):
            assert ghb.on_access(hit(addr)) == []
        assert ghb.correlation_hits == 0

    def test_degree_limits_prefetch_count(self):
        ghb = GHBPrefetcher(GHBConfig(degree=1))
        for addr in (0x1000, 0x5000, 0x9000):
            ghb.on_access(miss(addr))
        requests = ghb.on_access(miss(0x1000))
        assert len(requests) == 1

    def test_long_irregular_streams_exceed_buffer(self):
        """The paper's observation: with a reasonably sized buffer, GHB cannot
        capture indirect streams because they repeat (if at all) far beyond
        the history window."""
        ghb = GHBPrefetcher(GHBConfig(buffer_size=64, index_table_size=64))
        first_pass = [0x1000 + i * 4096 for i in range(256)]
        for addr in first_pass:
            ghb.on_access(miss(addr))
        # Second pass over the same long stream: the early entries have been
        # overwritten, so almost nothing correlates.
        requests = []
        for addr in first_pass[:32]:
            requests.extend(ghb.on_access(miss(addr)))
        assert len(requests) <= 4

    def test_reset(self):
        ghb = GHBPrefetcher()
        for addr in (0x1000, 0x2000):
            ghb.on_access(miss(addr))
        ghb.reset()
        assert ghb.on_access(miss(0x1000)) == []
        assert ghb.correlation_hits == 0


class TestNullPrefetcher:
    def test_never_prefetches(self):
        null = NullPrefetcher()
        assert null.on_access(miss(0x1000)) == []
        assert null.on_fill(0x1000, 0.0) == []
        null.on_eviction(0x1000, 0.0)        # must not raise
