"""Unit tests for the Prefetch Table (Figures 5 and 6)."""

import pytest

from repro.core.config import IMPConfig
from repro.core.prefetch_table import IndirectType, PrefetchTable


class TestAllocation:
    def test_allocate_primary_and_lookup_by_pc(self):
        pt = PrefetchTable()
        entry = pt.allocate_primary(pc=0x400100, now=0)
        assert entry is not None
        assert pt.lookup_by_pc(0x400100) is entry
        assert entry.ind_type is IndirectType.PRIMARY
        assert not entry.enabled

    def test_allocate_primary_is_idempotent_per_pc(self):
        pt = PrefetchTable()
        first = pt.allocate_primary(pc=0x400100, now=0)
        second = pt.allocate_primary(pc=0x400100, now=5)
        assert first is second
        assert pt.occupancy == 1

    def test_table_size_enforced_with_lru_eviction(self):
        pt = PrefetchTable(IMPConfig(pt_size=4))
        for i in range(6):
            pt.allocate_primary(pc=0x400000 + i * 8, now=i)
        assert pt.occupancy == 4
        # The two oldest (never-enabled) entries were evicted.
        assert pt.lookup_by_pc(0x400000) is None
        assert pt.lookup_by_pc(0x400008) is None
        assert pt.lookup_by_pc(0x400028) is not None

    def test_enabled_entries_preferentially_retained(self):
        pt = PrefetchTable(IMPConfig(pt_size=2))
        first = pt.allocate_primary(pc=0x1000, now=0)
        pt.activate(first.entry_id, shift=3, base_addr=0x100)
        pt.allocate_primary(pc=0x2000, now=1)
        pt.allocate_primary(pc=0x3000, now=2)   # must evict the un-enabled one
        assert pt.lookup_by_pc(0x1000) is not None
        assert pt.lookup_by_pc(0x2000) is None


class TestActivationAndConfidence:
    def test_activate_stores_pattern(self):
        pt = PrefetchTable()
        entry = pt.allocate_primary(pc=0x1000, now=0)
        pt.activate(entry.entry_id, shift=2, base_addr=0xFC)
        assert entry.enabled
        assert entry.shift == 2
        assert entry.base_addr == 0xFC
        assert entry.hit_cnt == 0
        assert not entry.is_prefetching(IMPConfig().confidence_threshold)

    def test_confidence_builds_with_confirmed_matches(self):
        config = IMPConfig(confidence_threshold=2)
        pt = PrefetchTable(config)
        entry = pt.allocate_primary(pc=0x1000, now=0)
        pt.activate(entry.entry_id, shift=3, base_addr=0x1000)
        for step in range(2):
            pt.observe_index(entry, value=step, now=step)
            pt.confirm_match(entry)
        assert entry.hit_cnt == 2
        assert entry.is_prefetching(config.confidence_threshold)

    @pytest.mark.parametrize("fields, message", [
        ({"confidence_threshold": 9}, "confidence_threshold must be in"),
        ({"confidence_threshold": -1},
         "confidence_threshold must be non-negative"),
        ({"rw_write_threshold": 4}, "rw_write_threshold must not exceed"),
    ])
    def test_unreachable_thresholds_are_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            IMPConfig(**fields)

    def test_reachable_threshold_bounds_are_valid(self):
        IMPConfig(confidence_threshold=0)
        IMPConfig(confidence_threshold=7, max_confidence=7)
        IMPConfig(rw_write_threshold=3, rw_max_count=3)

    def test_overwritten_index_without_match_loses_confidence(self):
        pt = PrefetchTable()
        entry = pt.allocate_primary(pc=0x1000, now=0)
        pt.activate(entry.entry_id, shift=3, base_addr=0x1000)
        pt.observe_index(entry, value=1, now=0)
        pt.confirm_match(entry)
        assert entry.hit_cnt == 1
        pt.observe_index(entry, value=2, now=1)   # never matched
        pt.observe_index(entry, value=3, now=2)   # overwrite: decrement
        assert entry.hit_cnt == 0

    def test_hit_counter_saturates(self):
        config = IMPConfig(max_confidence=3)
        pt = PrefetchTable(config)
        entry = pt.allocate_primary(pc=0x1000, now=0)
        pt.activate(entry.entry_id, shift=3, base_addr=0x1000)
        for step in range(10):
            pt.observe_index(entry, value=step, now=step)
            pt.confirm_match(entry)
        assert entry.hit_cnt == 3


class TestSecondaryIndirections:
    def test_second_way_linked_to_parent(self):
        pt = PrefetchTable()
        parent = pt.allocate_primary(pc=0x1000, now=0)
        pt.activate(parent.entry_id, shift=3, base_addr=0x1000)
        child = pt.allocate_secondary(parent.entry_id, IndirectType.SECOND_WAY,
                                      now=1)
        assert child is not None
        assert child.prev == parent.entry_id
        assert child.entry_id in parent.next_ways
        assert pt.children_of(parent) == [child]

    def test_max_indirect_ways_enforced(self):
        pt = PrefetchTable(IMPConfig(max_indirect_ways=2))
        parent = pt.allocate_primary(pc=0x1000, now=0)
        first = pt.allocate_secondary(parent.entry_id, IndirectType.SECOND_WAY, now=1)
        second = pt.allocate_secondary(parent.entry_id, IndirectType.SECOND_WAY, now=2)
        assert first is not None
        assert second is None        # the primary itself is the first way

    def test_second_level_linked_and_limited(self):
        pt = PrefetchTable(IMPConfig(max_indirect_levels=2))
        parent = pt.allocate_primary(pc=0x1000, now=0)
        child = pt.allocate_secondary(parent.entry_id, IndirectType.SECOND_LEVEL,
                                      now=1)
        assert child is not None
        assert pt.level_child(parent) is child
        # A third level is rejected by the two-level limit of Table 2.
        grandchild = pt.allocate_secondary(child.entry_id,
                                           IndirectType.SECOND_LEVEL, now=2)
        assert grandchild is None

    def test_release_removes_whole_subtree(self):
        pt = PrefetchTable()
        parent = pt.allocate_primary(pc=0x1000, now=0)
        way = pt.allocate_secondary(parent.entry_id, IndirectType.SECOND_WAY, now=1)
        level = pt.allocate_secondary(parent.entry_id, IndirectType.SECOND_LEVEL,
                                      now=2)
        pt.release(parent.entry_id)
        assert pt.occupancy == 0
        assert pt.get(way.entry_id) is None
        assert pt.get(level.entry_id) is None

    def test_release_child_unlinks_from_parent(self):
        pt = PrefetchTable()
        parent = pt.allocate_primary(pc=0x1000, now=0)
        way = pt.allocate_secondary(parent.entry_id, IndirectType.SECOND_WAY, now=1)
        pt.release(way.entry_id)
        assert parent.next_ways == []
        assert pt.get(parent.entry_id) is parent


class TestReset:
    def test_reset_clears_table(self):
        pt = PrefetchTable()
        pt.allocate_primary(pc=0x1000, now=0)
        pt.reset()
        assert pt.occupancy == 0
        assert pt.lookup_by_pc(0x1000) is None
