"""Unit tests for the stream prefetcher (repro.prefetchers.stream)."""

import pytest

from repro.prefetchers.base import AccessContext
from repro.prefetchers.stream import StreamPrefetcher, StreamPrefetcherConfig


def ctx(pc: int, addr: int, now: float = 0.0, hit: bool = True) -> AccessContext:
    return AccessContext(core_id=0, pc=pc, addr=addr, size=8, is_write=False,
                         hit=hit, now=now)


def drive(prefetcher: StreamPrefetcher, pc: int, start: int, stride: int,
          count: int):
    requests = []
    for i in range(count):
        requests.extend(prefetcher.on_access(ctx(pc, start + i * stride, now=i)))
    return requests


class TestTraining:
    def test_constant_stride_detected_after_threshold(self):
        prefetcher = StreamPrefetcher(StreamPrefetcherConfig(train_threshold=2))
        drive(prefetcher, pc=0x400, start=0x1000, stride=8, count=4)
        entry = prefetcher.lookup(0x400)
        assert entry is not None
        assert entry.stride == 8
        assert entry.is_trained(2)
        assert prefetcher.streams_detected == 1

    def test_no_prefetch_before_training(self):
        prefetcher = StreamPrefetcher(StreamPrefetcherConfig(train_threshold=2))
        requests = drive(prefetcher, 0x400, 0x1000, 8, 2)
        assert requests == []

    def test_prefetches_issued_after_training(self):
        prefetcher = StreamPrefetcher()
        requests = drive(prefetcher, 0x400, 0x1000, 8, 32)
        assert requests
        assert all(not r.is_indirect for r in requests)
        # Prefetch targets are ahead of the demand stream.
        assert all(r.addr > 0x1000 for r in requests)

    def test_negative_stride_stream(self):
        prefetcher = StreamPrefetcher()
        requests = drive(prefetcher, 0x400, 0x8000, -8, 32)
        assert requests
        assert all(r.addr < 0x8000 for r in requests)

    def test_random_accesses_never_train(self):
        prefetcher = StreamPrefetcher()
        addresses = [0x1000, 0x9000, 0x3000, 0x20000, 0x500, 0x7777000]
        requests = []
        for i, addr in enumerate(addresses):
            requests.extend(prefetcher.on_access(ctx(0x400, addr, now=i)))
        assert requests == []

    def test_repeated_same_address_is_not_a_stream(self):
        prefetcher = StreamPrefetcher()
        requests = drive(prefetcher, 0x400, 0x1000, 0, 20)
        assert requests == []


class TestTableManagement:
    def test_distinct_pcs_tracked_independently(self):
        prefetcher = StreamPrefetcher()
        drive(prefetcher, 0x400, 0x1000, 8, 5)
        drive(prefetcher, 0x408, 0x9000, 4, 5)
        assert prefetcher.lookup(0x400).stride == 8
        assert prefetcher.lookup(0x408).stride == 4

    def test_table_size_limit_evicts_lru(self):
        prefetcher = StreamPrefetcher(StreamPrefetcherConfig(table_size=2))
        drive(prefetcher, 0x400, 0x1000, 8, 3)
        drive(prefetcher, 0x408, 0x2000, 8, 3)
        drive(prefetcher, 0x410, 0x3000, 8, 3)
        assert prefetcher.lookup(0x400) is None
        assert prefetcher.lookup(0x410) is not None

    def test_reposition_keeps_training(self):
        prefetcher = StreamPrefetcher()
        drive(prefetcher, 0x400, 0x1000, 8, 10)
        entry = prefetcher.lookup(0x400)
        hit_cnt = entry.hit_cnt
        prefetcher.reposition(0x400, 0x50000, now=100)
        assert entry.addr == 0x50000
        assert entry.hit_cnt == hit_cnt

    def test_stride_change_uses_hysteresis(self):
        prefetcher = StreamPrefetcher()
        drive(prefetcher, 0x400, 0x1000, 8, 10)
        entry = prefetcher.lookup(0x400)
        # One hiccup (e.g. a nested-loop restart) must not drop the stride.
        prefetcher.on_access(ctx(0x400, 0x90000, now=50))
        assert entry.stride == 8
        # Continuing from the new position keeps prefetching immediately.
        requests = drive(prefetcher, 0x400, 0x90008, 8, 3)
        assert requests

    def test_reset(self):
        prefetcher = StreamPrefetcher()
        drive(prefetcher, 0x400, 0x1000, 8, 5)
        prefetcher.reset()
        assert prefetcher.entries() == []
        assert prefetcher.streams_detected == 0


class TestPrefetchDistance:
    def test_distance_ramps_up_to_max(self):
        config = StreamPrefetcherConfig(initial_distance=1, max_distance=4)
        prefetcher = StreamPrefetcher(config)
        drive(prefetcher, 0x400, 0x1000, 8, 50)
        assert prefetcher.lookup(0x400).distance == 4

    def test_no_duplicate_line_prefetches(self):
        prefetcher = StreamPrefetcher()
        requests = drive(prefetcher, 0x400, 0x1000, 8, 64)
        lines = [r.addr // 64 for r in requests]
        assert len(lines) == len(set(lines))


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("table_size", 0), ("initial_distance", 0), ("max_distance", -1),
        ("degree", 0), ("line_size", 0), ("train_threshold", -1),
        ("train_threshold", 16),
    ])
    def test_out_of_range_is_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            StreamPrefetcherConfig(**{field: value})

    def test_threshold_bounds_are_valid(self):
        StreamPrefetcherConfig(train_threshold=0)
        StreamPrefetcherConfig(train_threshold=15, max_hit_cnt=15)
