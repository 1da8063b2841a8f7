"""Unit tests for the assembled IMP prefetcher (repro.core.imp).

These tests drive IMP directly with synthetic L1 access streams (no
simulator), checking pattern detection, confidence building, prefetch
address generation, multi-way / multi-level support and the nested-loop
optimisation.
"""

from typing import List, Optional

import numpy as np
import pytest

from repro.core import IMP, IMPConfig
from repro.core.prefetch_table import IndirectType
from repro.mem_image import MemoryImage
from repro.prefetchers.base import AccessContext, PrefetchRequest

PC_INDEX = 0x400100
PC_OTHER = 0x400900


def make_image(n_indices: int = 256, n_data: int = 4096, elem_size: int = 8,
               two_way: bool = False, seed: int = 3) -> MemoryImage:
    rng = np.random.default_rng(seed)
    image = MemoryImage()
    image.add_array("B", rng.integers(0, n_data, n_indices, dtype=np.int32))
    image.add_array("A", np.zeros(n_data, dtype=np.float64),
                    elem_size=elem_size, length=n_data)
    if two_way:
        image.add_array("C", np.zeros(n_data, dtype=np.float64),
                        elem_size=4, length=n_data)
    return image


def ctx(image: MemoryImage, pc: int, addr: int, *, hit: bool, now: float,
        size: int = 8, is_write: bool = False) -> AccessContext:
    return AccessContext(core_id=0, pc=pc, addr=addr, size=size,
                         is_write=is_write, hit=hit, now=now,
                         read_value=lambda: image.read_value(addr))


def run_loop(imp: IMP, image: MemoryImage, iterations: int,
             extra_arrays: Optional[List[str]] = None,
             start: int = 0) -> List[PrefetchRequest]:
    """Simulate ``for i: load B[i]; load A[B[i]] (...)`` and collect requests."""
    indices = image.data("B")
    arrays = ["A"] + (extra_arrays or [])
    requests: List[PrefetchRequest] = []
    now = 0.0
    for i in range(start, start + iterations):
        addr_b = image.addr_of("B", i)
        requests.extend(imp.on_access(ctx(image, PC_INDEX, addr_b,
                                          hit=False, now=now, size=4)))
        now += 2
        for array in arrays:
            addr_a = image.addr_of(array, int(indices[i]))
            requests.extend(imp.on_access(ctx(image, PC_INDEX + 8 * (1 + arrays.index(array)),
                                              addr_a, hit=False, now=now)))
            now += 2
    return requests


class TestDetection:
    def test_detects_primary_pattern_for_8_byte_elements(self):
        image = make_image()
        imp = IMP(IMPConfig(), image)
        run_loop(imp, image, iterations=12)
        assert imp.patterns_detected == 1
        entry = imp.pt.lookup_by_pc(PC_INDEX)
        assert entry is not None and entry.enabled
        assert entry.shift == 3
        assert entry.base_addr == image.array("A").base

    def test_detects_4_byte_element_pattern(self):
        image = make_image(elem_size=8)
        # Replace A with a 4-byte element array.
        image = MemoryImage()
        rng = np.random.default_rng(0)
        image.add_array("B", rng.integers(0, 1024, 256, dtype=np.int32))
        image.add_array("A", np.zeros(1024, dtype=np.int32))
        imp = IMP(IMPConfig(), image)
        run_loop(imp, image, iterations=12)
        entry = imp.pt.lookup_by_pc(PC_INDEX)
        assert entry is not None and entry.enabled
        assert entry.shift == 2

    def test_no_detection_without_indirection(self):
        """Streaming-only access patterns must not enable indirect prefetching
        (the paper's SPLASH-2 sanity check)."""
        image = MemoryImage()
        image.add_array("S", np.arange(4096, dtype=np.float64))
        imp = IMP(IMPConfig(), image)
        now = 0.0
        for i in range(200):
            imp.on_access(ctx(image, PC_OTHER, image.addr_of("S", i),
                              hit=(i % 8 != 0), now=now))
            now += 1
        assert imp.patterns_detected == 0
        assert imp.indirect_prefetches_generated == 0

    def test_prefetching_starts_only_after_confidence(self):
        image = make_image()
        config = IMPConfig(confidence_threshold=2)
        imp = IMP(config, image)
        run_loop(imp, image, iterations=4)
        entry = imp.pt.lookup_by_pc(PC_INDEX)
        # Detection happened, but very few iterations: counter may be low.
        assert entry is not None
        run_loop(imp, image, iterations=12, start=4)
        assert entry.is_prefetching(config.confidence_threshold)
        assert imp.indirect_prefetches_generated > 0


class TestPrefetchGeneration:
    def test_prefetch_addresses_follow_equation_2(self):
        image = make_image()
        imp = IMP(IMPConfig(), image)
        requests = run_loop(imp, image, iterations=60)
        indirect = [r for r in requests if r.is_indirect]
        assert indirect, "IMP generated no indirect prefetches"
        base = image.array("A").base
        indices = image.data("B")
        valid_targets = {base + int(v) * 8 for v in indices}
        for request in indirect:
            assert request.addr in valid_targets

    def test_prefetch_distance_ramps_up_to_configured_max(self):
        image = make_image()
        config = IMPConfig(max_prefetch_distance=16)
        imp = IMP(config, image)
        run_loop(imp, image, iterations=60)
        entry = imp.pt.lookup_by_pc(PC_INDEX)
        assert entry.prefetch_distance == 16

    def test_max_distance_respected_when_reduced(self):
        image = make_image()
        config = IMPConfig(max_prefetch_distance=4)
        imp = IMP(config, image)
        run_loop(imp, image, iterations=60)
        entry = imp.pt.lookup_by_pc(PC_INDEX)
        assert entry.prefetch_distance == 4

    def test_stream_prefetches_also_generated_for_index_array(self):
        image = make_image()
        imp = IMP(IMPConfig(), image)
        requests = run_loop(imp, image, iterations=60)
        stream = [r for r in requests if not r.is_indirect]
        assert stream, "the embedded stream prefetcher never fired"
        b_spec = image.array("B")
        assert any(b_spec.contains(r.addr) for r in stream)


class TestMultiWayAndMultiLevel:
    def test_two_way_indirection_detected_and_prefetched(self):
        image = make_image(two_way=True)
        imp = IMP(IMPConfig(), image)
        requests = run_loop(imp, image, iterations=60, extra_arrays=["C"])
        entry = imp.pt.lookup_by_pc(PC_INDEX)
        assert entry is not None and entry.enabled
        assert imp.secondary_patterns_detected >= 1
        children = imp.pt.children_of(entry)
        assert len(children) == 1
        assert children[0].ind_type is IndirectType.SECOND_WAY
        c_base = image.array("C").base
        c_spec = image.array("C")
        indirect = [r for r in requests if r.is_indirect]
        assert any(c_spec.contains(r.addr) for r in indirect)

    def test_max_ways_limit_respected(self):
        image = make_image(two_way=True)
        config = IMPConfig(max_indirect_ways=1)
        imp = IMP(config, image)
        run_loop(imp, image, iterations=60, extra_arrays=["C"])
        entry = imp.pt.lookup_by_pc(PC_INDEX)
        assert entry is not None
        assert imp.pt.children_of(entry) == []

    def test_two_level_indirection_detected(self):
        # A[B[C[i]]]: C is the scanned stream, B holds indices into A.
        rng = np.random.default_rng(5)
        image = MemoryImage()
        image.add_array("C", rng.integers(0, 512, 256, dtype=np.int32))
        image.add_array("B", rng.integers(0, 2048, 512, dtype=np.int32))
        image.add_array("A", np.zeros(2048, dtype=np.float64))
        imp = IMP(IMPConfig(), image)
        c_values = image.data("C")
        b_values = image.data("B")
        now = 0.0
        requests: List[PrefetchRequest] = []
        for i in range(120):
            c_addr = image.addr_of("C", i)
            requests.extend(imp.on_access(ctx(image, PC_INDEX, c_addr,
                                              hit=False, now=now, size=4)))
            now += 2
            b_index = int(c_values[i])
            b_addr = image.addr_of("B", b_index)
            requests.extend(imp.on_access(ctx(image, PC_INDEX + 8, b_addr,
                                              hit=False, now=now, size=4)))
            now += 2
            a_addr = image.addr_of("A", int(b_values[b_index]))
            requests.extend(imp.on_access(ctx(image, PC_INDEX + 16, a_addr,
                                              hit=False, now=now)))
            now += 2
        primary = imp.pt.lookup_by_pc(PC_INDEX)
        assert primary is not None and primary.enabled
        level_child = imp.pt.level_child(primary)
        assert level_child is not None
        assert level_child.ind_type is IndirectType.SECOND_LEVEL
        assert level_child.base_addr == image.array("A").base
        # Dependent prefetches are marked as such.
        dependent = [r for r in requests if r.depends_on_previous]
        assert dependent


class TestNestedLoops:
    def test_pattern_survives_stream_restart(self):
        """Section 3.3.1: the indirect pattern is PC-associated, so a new
        outer-loop iteration (stream hiccup) must not require re-learning."""
        image = make_image(n_indices=512)
        imp = IMP(IMPConfig(), image)
        run_loop(imp, image, iterations=40)
        detected_before = imp.patterns_detected
        assert detected_before == 1
        # Restart the scan at a distant position (new inner loop).
        requests = run_loop(imp, image, iterations=40, start=300)
        assert imp.patterns_detected == detected_before   # no re-detection
        assert any(r.is_indirect for r in requests)


class TestPartialAccessing:
    def test_partial_prefetches_use_gp_granularity(self):
        image = make_image()
        config = IMPConfig(partial_enabled=True)
        imp = IMP(config, image)
        requests = run_loop(imp, image, iterations=80)
        indirect = [r for r in requests if r.is_indirect]
        assert indirect
        # Before any GP update the granularity is a full line.
        assert all(r.size in (8, 16, 24, 32, 40, 48, 56, 64) for r in indirect)
        entry = imp.pt.lookup_by_pc(PC_INDEX)
        assert imp.gp.entry(entry.entry_id) is not None

    def test_eviction_hook_feeds_granularity_predictor(self):
        image = make_image()
        config = IMPConfig(partial_enabled=True, gp_samples=1)
        imp = IMP(config, image)
        run_loop(imp, image, iterations=40)
        entry = imp.pt.lookup_by_pc(PC_INDEX)
        gp_entry = imp.gp.entry(entry.entry_id)
        sampled = list(gp_entry.samples)
        assert sampled, "GP sampled no prefetched lines"
        imp.on_eviction(sampled[0], now=1000.0)
        assert imp.gp.predictions_updated == 1

    def test_partial_disabled_always_full_line(self):
        image = make_image()
        imp = IMP(IMPConfig(partial_enabled=False), image)
        requests = run_loop(imp, image, iterations=60)
        assert all(r.size == 64 for r in requests if r.is_indirect)


class TestReset:
    def test_reset_clears_all_state(self):
        image = make_image()
        imp = IMP(IMPConfig(), image)
        run_loop(imp, image, iterations=30)
        imp.reset()
        assert imp.patterns_detected == 0
        assert imp.pt.occupancy == 0
        assert imp.ipd.occupancy == 0
        assert imp.stream.entries() == []
