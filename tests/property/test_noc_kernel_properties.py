"""Property-based tests for the NoC reservation kernels.

The randomized equivalence suite (tests/noc/) drives whole meshes; these
properties attack the kernels directly with hypothesis-generated
bounded-disorder streams, the regime every backend is specified for.
Tests taking ``noc_kernel`` run once per non-reference backend
(``conftest.py``), skipped where its implementation is not built.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.kernel import (NOC_KERNELS, PRUNE_SLACK, ReferenceKernel,
                              live_intervals)
from repro.sim.queueing import ResourceSchedule

LINK = (0, 1)

#: A bounded-disorder arrival stream: a non-decreasing base clock with
#: backward jitter far below PRUNE_SLACK — the shape the simulator's event
#: heap produces — paired with a serialization per message.
streams = st.lists(
    st.tuples(st.floats(min_value=0, max_value=30, allow_nan=False),   # dt
              st.floats(min_value=0, max_value=PRUNE_SLACK / 4,
                        allow_nan=False),                              # jitter
              st.floats(min_value=0.1, max_value=50, allow_nan=False)),
    min_size=1, max_size=80)


def arrivals(stream):
    base = 0.0
    for dt, jitter, serialization in stream:
        base += dt
        yield max(0.0, base - jitter), serialization


@given(stream=streams, hop=st.floats(min_value=0, max_value=4,
                                     allow_nan=False))
@settings(max_examples=60)
def test_single_link_parity_with_resource_schedule(noc_kernel, stream, hop):
    # Per-link placement must be bit-identical to the executable spec:
    # delivery through a one-link route equals the schedule's start plus
    # hop latency plus the pipeline drain.
    kernel = NOC_KERNELS.get(noc_kernel).factory(hop_latency=hop)
    spec = ResourceSchedule()
    for arrival, serialization in arrivals(stream):
        reserve = kernel.route_reserver((LINK,), serialization)
        start = spec.reserve(arrival, serialization)
        assert reserve(arrival) == start + hop + serialization
    assert kernel.busy_time(LINK) == spec.busy_time()


@pytest.mark.parametrize("name", NOC_KERNELS.names())
@given(stream=streams)
@settings(max_examples=60)
def test_slab_invariants_hold_after_every_reservation(name, stream):
    # What every backend exposes after each reservation: sorted, disjoint,
    # non-touching live intervals (reserve coalesces exact touches) and a
    # busy total that counts every reservation exactly once.
    if not NOC_KERNELS.get(name).is_available():
        pytest.skip(f"backend {name!r} unavailable on this host")
    kernel = NOC_KERNELS.get(name).factory(hop_latency=1.0)
    busy = 0.0
    for arrival, serialization in arrivals(stream):
        kernel.route_reserver((LINK,), serialization)(arrival)
        busy += serialization
        starts, ends = kernel.intervals(LINK)
        assert len(starts) == len(ends) >= 1
        for start, end in zip(starts, ends):
            assert start < end
        for i in range(1, len(ends)):
            assert starts[i] > ends[i - 1], \
                "live intervals must be sorted, disjoint and non-touching"
        # The newest reservation is live: it ends at or after its arrival.
        assert ends[-1] >= arrival + serialization
        assert kernel.busy_time(LINK) == busy


@given(stream=streams)
@settings(max_examples=60)
def test_forced_sweeps_never_change_placements(noc_kernel, stream):
    # Sweep timing is an implementation freedom: a kernel swept after
    # every single message must place identically to one that never
    # sweeps on its own schedule.
    factory = NOC_KERNELS.get(noc_kernel).factory
    swept = factory(hop_latency=1.0)
    unswept = factory(hop_latency=1.0)
    newest = 0.0
    for arrival, serialization in arrivals(stream):
        newest = max(newest, arrival)
        a = swept.route_reserver((LINK,), serialization)(arrival)
        b = unswept.route_reserver((LINK,), serialization)(arrival)
        assert a == b
        swept._sweep(newest)
    assert swept.busy_time(LINK) == unswept.busy_time(LINK)
    horizon = newest - PRUNE_SLACK
    assert (live_intervals(*swept.intervals(LINK), horizon)
            == live_intervals(*unswept.intervals(LINK), horizon))


@given(stream=streams)
@settings(max_examples=40)
def test_multi_link_route_parity_with_reference(noc_kernel, stream):
    # A three-hop route, reserved link by link by the reference backend
    # and in one whole-route pass by the candidate, must agree end to end.
    route = ((0, 1), (1, 5), (5, 6))
    candidate = NOC_KERNELS.get(noc_kernel).factory(hop_latency=1.0)
    reference = ReferenceKernel(hop_latency=1.0)
    for arrival, serialization in arrivals(stream):
        assert (candidate.route_reserver(route, serialization)(arrival)
                == reference.route_reserver(route, serialization)(arrival))
    for link in route:
        assert candidate.busy_time(link) == reference.busy_time(link)


@given(stream=streams,
       horizon=st.floats(min_value=-100, max_value=3000, allow_nan=False))
@settings(max_examples=40)
def test_live_intervals_is_sorted_disjoint_clipped_coverage(stream, horizon):
    spec = ResourceSchedule()
    for arrival, serialization in arrivals(stream):
        spec.reserve(arrival, serialization)
    coverage = live_intervals(spec._starts, spec._ends, horizon)
    for start, end in coverage:
        assert horizon <= start < end
    for (s1, e1), (s2, e2) in zip(coverage, coverage[1:]):
        assert s2 > e1, "coverage intervals must be fused and disjoint"
    # Clipping discards exactly the busy time below the horizon.
    raw = sum(end - max(start, horizon)
              for start, end in zip(spec._starts, spec._ends)
              if end > horizon)
    assert abs(sum(end - start for start, end in coverage) - raw) < 1e-6
