"""Randomized equivalence suite: every NoC kernel backend must reproduce
the reference backend bit for bit.

Identical message streams are driven through two meshes, one per backend,
and the suite asserts bit-identical delivery times, traffic accounting,
per-link busy totals and utilisation, and live reservation state.  Streams
respect the simulator's bounded-disorder invariant (the event heap
dispatches cores in time order), which both backends rely on for pruning;
pruning *timing* is the one sanctioned difference, so state comparisons
window intervals to the common live horizon (``live_intervals``).

The stream tests take a ``noc_kernel`` argument, which ``conftest.py``
parametrises over every registered non-reference backend (today
``compiled``, skipped where the extension is not built), so a new
``NOC_KERNELS`` entry is held to the same bar by adding nothing here.
"""

import heapq
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.kernel import NOC_KERNELS, PRUNE_SLACK, live_intervals
from repro.noc.mesh import MeshNoC
from repro.sim.config import NoCConfig, SystemConfig
from repro.sim.queueing import ResourceSchedule


def kernel_pair(name, hop_latency=1.0):
    """Bare kernel instances (no mesh): the named backend plus reference."""
    return (NOC_KERNELS.get(name).factory(hop_latency=hop_latency),
            NOC_KERNELS.get("reference").factory(hop_latency=hop_latency))


def make_pair(kernel, n_tiles=16):
    return (MeshNoC(n_tiles, NoCConfig(kernel=kernel)),
            MeshNoC(n_tiles, NoCConfig(kernel="reference")))


def assert_same_state(candidate, reference, newest_arrival):
    """Bit-identical busy totals and live coverage on every link.

    Coverage is windowed to a horizon neither backend has pruned past:
    the later of the two first retained interval ends (at least the
    bounded-disorder horizon).  On saturated links per-link arrivals
    outrun injection times, so a backend may legitimately prune past
    ``newest_arrival - PRUNE_SLACK``.
    """
    links = set(candidate.kernel.links()) | set(reference.kernel.links())
    assert set(candidate.kernel.links()) == set(reference.kernel.links())
    horizon = newest_arrival - PRUNE_SLACK
    for link in links:
        assert (candidate.kernel.busy_time(link)
                == reference.kernel.busy_time(link))
        f_starts, f_ends = candidate.kernel.intervals(link)
        r_starts, r_ends = reference.kernel.intervals(link)
        link_horizon = max(horizon,
                           f_ends[0] if f_ends else float("-inf"),
                           r_ends[0] if r_ends else float("-inf"))
        f = live_intervals(f_starts, f_ends, link_horizon)
        r = live_intervals(r_starts, r_ends, link_horizon)
        assert f == r, f"live coverage diverges on link {link}"


def drive(stream, kernel, n_tiles=16):
    """Send one stream through both backends; return the meshes."""
    candidate, reference = make_pair(kernel, n_tiles)
    newest = float("-inf")
    for i, (src, dst, payload, now) in enumerate(stream):
        newest = max(newest, now)
        a = candidate.send_fast(src, dst, payload, now)
        b = reference.send_fast(src, dst, payload, now)
        assert a == b, f"delivery time diverges at message {i}"
    assert candidate.traffic.noc_messages == reference.traffic.noc_messages
    assert candidate.traffic.noc_flits == reference.traffic.noc_flits
    assert candidate.traffic.noc_bytes == reference.traffic.noc_bytes
    assert_same_state(candidate, reference, newest)
    if newest > 0:
        assert (candidate.link_utilization(newest)
                == reference.link_utilization(newest))
        assert (candidate.max_link_utilization(newest)
                == reference.max_link_utilization(newest))
    return candidate, reference


class TestStreamEquivalence:
    def test_in_order_uniform_random(self, noc_kernel):
        rng = random.Random(101)
        t, stream = 0.0, []
        for _ in range(4000):
            t += rng.random() * 4.0
            stream.append((rng.randrange(16), rng.randrange(16),
                           rng.choice([0, 8, 64, 72]), t))
        drive(stream, noc_kernel)

    def test_bounded_out_of_order(self, noc_kernel):
        # Arrivals jitter backwards by far less than PRUNE_SLACK — the
        # disorder the event heap's in-flight lookahead can produce.
        rng = random.Random(202)
        base, stream = 0.0, []
        for _ in range(4000):
            base += rng.random() * 6.0
            jitter = rng.random() * (PRUNE_SLACK / 4)
            stream.append((rng.randrange(16), rng.randrange(16),
                           rng.choice([8, 64]), max(0.0, base - jitter)))
        drive(stream, noc_kernel)

    def test_exact_touch_coalescing(self, noc_kernel):
        # Back-to-back messages on one route serialize behind each other:
        # each arrival lands exactly on the previous reservation's end,
        # exercising the exact-touch coalesce on every link.
        candidate, reference = make_pair(noc_kernel)
        t_f = t_r = 0.0
        newest = 0.0
        for i in range(500):
            newest = max(newest, t_f)
            a = candidate.send_fast(0, 15, 64, t_f)
            b = reference.send_fast(0, 15, 64, t_r)
            assert a == b
            # Re-inject exactly when the head would clear the first link.
            t_f = t_r = a - a % 1.0 if i % 7 == 0 else a
        assert_same_state(candidate, reference, newest)

    def test_prune_window_crossings(self, noc_kernel):
        # Idle gaps longer than the prune trigger force both backends to
        # discard history at (different) moments; live state and
        # placements must not move.
        rng = random.Random(303)
        t, stream = 0.0, []
        for epoch in range(6):
            for _ in range(600):
                t += rng.random() * 3.0
                stream.append((rng.randrange(16), rng.randrange(16),
                               rng.choice([8, 64, 72]), t))
            t += 2.5 * ResourceSchedule.PRUNE_TRIGGER   # cross the window
        drive(stream, noc_kernel)

    def test_saturated_links(self, noc_kernel):
        # Every message crosses the same central column: heavy contention,
        # long busy runs, constant slow-path placements.
        rng = random.Random(404)
        t, stream = 0.0, []
        for _ in range(4000):
            t += rng.random() * 0.5
            stream.append((rng.choice([0, 1, 4, 5]),
                           rng.choice([10, 11, 14, 15]), 64, t))
        drive(stream, noc_kernel)

    def test_heap_ordered_closed_loop(self, noc_kernel):
        # Self-clocking senders dispatched in global time order — the
        # sharpest model of the simulator's traffic.
        candidate, reference = make_pair(noc_kernel)
        rng = random.Random(505)
        pairs = [(rng.randrange(16), rng.randrange(16)) for _ in range(32)]
        heap = [(i * 0.25, i) for i in range(32)]
        heapq.heapify(heap)
        newest = 0.0
        for _ in range(8000):
            t, i = heapq.heappop(heap)
            newest = max(newest, t)
            src, dst = pairs[i]
            a = candidate.send_fast(src, dst, 64 if i % 3 else 8, t)
            b = reference.send_fast(src, dst, 64 if i % 3 else 8, t)
            assert a == b
            heapq.heappush(heap, (a + 1.0, i))
        assert_same_state(candidate, reference, newest)


class TestWholeRunEquivalence:
    """Whole-run fingerprints under every non-reference backend selection.

    Parametrised directly rather than through the ``noc_kernel`` skip: on a
    host without the extension, selecting ``compiled`` resolves to
    ``reference`` through the mesh fallback, so the run still checks that
    the selection a user makes reproduces the reference fingerprint.
    """

    @pytest.mark.parametrize("kernel", [e.name for e in NOC_KERNELS.entries()
                                        if e.name != "reference"])
    @pytest.mark.parametrize("prefetcher", ["none", "imp"])
    def test_run_workload_fingerprints_match(self, prefetcher, kernel):
        from repro.registry import WORKLOADS
        from repro.sim.system import run_workload

        def fingerprint(kernel):
            workload = WORKLOADS.get("indirect_stream").factory(
                n_indices=2048, n_data=8192, seed=3)
            config = SystemConfig(n_cores=16, noc=NoCConfig(kernel=kernel))
            result = run_workload(workload, config, prefetcher=prefetcher)
            return result.stats.fingerprint()

        assert fingerprint(kernel) == fingerprint("reference")


#: One directed link and a short route for the kernel-level properties.
LINK = (0, 1)
ROUTE = ((0, 1), (1, 5), (5, 6))

#: Bounded-disorder storm: a non-decreasing base clock with backward
#: jitter up to half the slack — far more disorder than the event heap
#: produces, but still inside the regime every backend is specified for —
#: plus a serialization that may be exactly zero (a message whose route
#: reserves nothing).
storm_streams = st.lists(
    st.tuples(st.floats(min_value=0, max_value=25, allow_nan=False),   # dt
              st.floats(min_value=0, max_value=PRUNE_SLACK / 2,
                        allow_nan=False),                              # jitter
              st.one_of(st.just(0.0),
                        st.floats(min_value=0.1, max_value=40,
                                  allow_nan=False))),                  # serial
    min_size=1, max_size=120)


def storm_arrivals(stream):
    base = 0.0
    for dt, jitter, serialization in stream:
        base += dt
        yield max(0.0, base - jitter), serialization


class TestFrontierResumeProperties:
    """Hypothesis attacks on the frontier-resume search path, the one part
    of the compiled algorithm with no counterpart in the reference
    backend: out-of-order bisect storms (every placement lands behind the
    watermark, so every placement exercises the frontier validity check),
    zero-length reservations interleaved between them, and reservations at
    exactly the pruned boundary immediately after a forced sweep."""

    @given(stream=storm_streams)
    @settings(max_examples=40, deadline=None)
    def test_out_of_order_bisect_storm(self, noc_kernel, stream):
        candidate, reference = kernel_pair(noc_kernel)
        for arrival, serialization in storm_arrivals(stream):
            assert (candidate.route_reserver(ROUTE, serialization)(arrival)
                    == reference.route_reserver(ROUTE, serialization)(arrival))
        for link in ROUTE:
            assert candidate.busy_time(link) == reference.busy_time(link)

    @given(stream=storm_streams)
    @settings(max_examples=40, deadline=None)
    def test_zero_length_reservations_never_occupy_links(self, noc_kernel,
                                                             stream):
        candidate, reference = kernel_pair(noc_kernel)
        busy = 0.0
        for arrival, serialization in storm_arrivals(stream):
            a = candidate.route_reserver((LINK,), serialization)(arrival)
            b = reference.route_reserver((LINK,), serialization)(arrival)
            assert a == b
            if serialization <= 0.0:
                # Pure pass-through: hop latency only, no busy accrual.
                assert a == arrival + 1.0
            busy += max(serialization, 0.0)
        assert candidate.busy_time(LINK) == busy
        assert reference.busy_time(LINK) == busy

    @given(stream=storm_streams,
           offsets=st.lists(st.floats(min_value=0, max_value=PRUNE_SLACK,
                                      allow_nan=False),
                            min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_post_sweep_reservation_at_pruned_boundary(self, noc_kernel,
                                                       stream, offsets):
        # Force a sweep at the newest arrival, then reserve at exactly the
        # pruned cutoff (newest - PRUNE_SLACK, the oldest arrival the
        # bounded-disorder invariant permits) and at offsets above it.
        # The reference backend prunes on its own schedule and may still
        # retain (and exact-touch coalesce with) intervals the swept
        # backend discarded; placements and busy totals must not move.
        candidate, reference = kernel_pair(noc_kernel)
        newest = 0.0
        for arrival, serialization in storm_arrivals(stream):
            newest = max(newest, arrival)
            assert (candidate.route_reserver((LINK,), serialization)(arrival)
                    == reference.route_reserver((LINK,), serialization)(arrival))
        candidate._sweep(newest)
        boundary = max(0.0, newest - PRUNE_SLACK)
        for offset in [0.0] + offsets:
            arrival = boundary + offset
            assert (candidate.route_reserver((LINK,), 2.0)(arrival)
                    == reference.route_reserver((LINK,), 2.0)(arrival))
        assert candidate.busy_time(LINK) == reference.busy_time(LINK)
        horizon = max(newest, boundary + max(offsets)) - PRUNE_SLACK
        c_live = live_intervals(*candidate.intervals(LINK), horizon)
        r_live = live_intervals(*reference.intervals(LINK), horizon)
        if c_live and r_live and c_live[0] != r_live[0]:
            # One backend may have pruned past the common horizon on a
            # saturated link; re-window to the later first-retained end.
            horizon = max(horizon,
                          candidate.intervals(LINK)[1][0],
                          reference.intervals(LINK)[1][0])
            c_live = live_intervals(*candidate.intervals(LINK), horizon)
            r_live = live_intervals(*reference.intervals(LINK), horizon)
        assert c_live == r_live


class TestEveryRegisteredBackend:
    def test_all_backends_match_reference(self, noc_kernel):
        # Any future backend registered in NOC_KERNELS is held to the same
        # bar automatically: conftest parametrises ``noc_kernel`` over every
        # non-reference backend and skips one that is unavailable here,
        # rather than letting it resolve to the reference fallback.
        rng = random.Random(606)
        t, stream = 0.0, []
        for _ in range(1500):
            t += rng.random() * 2.0
            stream.append((rng.randrange(16), rng.randrange(16),
                           rng.choice([8, 64]), t))
        reference = MeshNoC(16, NoCConfig(kernel="reference"))
        ref_times = [reference.send_fast(*m) for m in stream]
        newest = max(m[3] for m in stream)
        mesh = MeshNoC(16, NoCConfig(kernel=noc_kernel))
        assert mesh.kernel_name == noc_kernel
        times = [mesh.send_fast(*m) for m in stream]
        assert times == ref_times, f"backend {noc_kernel!r} diverges"
        assert_same_state(mesh, reference, newest)
