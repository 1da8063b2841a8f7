"""Determinism regression tests.

Two runs of the same (workload, config, prefetcher) triple must produce
identical ``SystemStats``.  This guards the columnar-trace/hot-path
refactors and any future parallelism work: a change that makes simulation
results depend on allocation order, dict iteration, caching, or wall-clock
time shows up here as a diff.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.configs import CONFIG_MODES, experiment_config, scaled_config
from repro.experiments.runner import ExperimentRunner, RunRequest
from repro.sim.config import HierarchyConfig, LevelConfig
from repro.sim.stats import SystemStats
from repro.sim.system import run_workload
from repro.sim.trace import AccessKind
from repro.workloads import PagerankWorkload
from repro.workloads.synthetic import IndirectStreamWorkload

GOLDEN_PATH = (Path(__file__).resolve().parents[1] / "data"
               / "mode_fingerprints.json")
CLASSIC_GOLDEN_PATH = GOLDEN_PATH.with_name("classic_path_goldens.json")


def snapshot(stats: SystemStats) -> dict:
    """A complete, comparable snapshot of one simulation's statistics."""
    return {
        "runtime_cycles": stats.runtime_cycles,
        "cores": [
            {
                "cycles": core.cycles,
                "instructions": core.instructions,
                "mem_accesses": core.mem_accesses,
                "loads": core.loads,
                "stores": core.stores,
                "l1_hits": core.l1_hits,
                "l1_misses": core.l1_misses,
                "l2_hits": core.l2_hits,
                "l2_misses": core.l2_misses,
                "total_mem_latency": core.total_mem_latency,
                "total_stall_cycles": core.total_stall_cycles,
                "misses_by_kind": {k.value: v
                                   for k, v in core.misses_by_kind.items()},
                "stalls_by_kind": {
                    k.value: v for k, v in core.stall_cycles_by_kind.items()},
                "prefetches_issued": core.prefetches_issued,
                "prefetches_useful": core.prefetches_useful,
                "prefetch_covered_misses": core.prefetch_covered_misses,
                "sw_prefetches_issued": core.sw_prefetches_issued,
            }
            for core in stats.cores
        ],
        "traffic": {
            "noc_bytes": stats.traffic.noc_bytes,
            "noc_flits": stats.traffic.noc_flits,
            "noc_messages": stats.traffic.noc_messages,
            "dram_bytes": stats.traffic.dram_bytes,
            "dram_requests": stats.traffic.dram_requests,
            "invalidations": stats.traffic.invalidations,
        },
    }


@pytest.mark.parametrize("prefetcher", ["none", "stream", "imp"])
def test_repeated_runs_are_identical(prefetcher):
    config = scaled_config(4)
    snapshots = []
    for _ in range(2):
        # Fresh workload objects: determinism must not depend on build
        # caching or on reusing prefetcher/simulator state.
        workload = IndirectStreamWorkload(n_indices=2048, n_data=4096, seed=3)
        result = run_workload(workload, config, prefetcher=prefetcher)
        snapshots.append(snapshot(result.stats))
    assert snapshots[0] == snapshots[1]


def test_same_workload_object_reruns_identically():
    """Build caching (Workload.cached_build) must not change results."""
    config = scaled_config(4)
    workload = IndirectStreamWorkload(n_indices=2048, n_data=4096, seed=5)
    first = run_workload(workload, config, prefetcher="imp")
    second = run_workload(workload, config, prefetcher="imp")
    assert snapshot(first.stats) == snapshot(second.stats)


def test_ooo_core_model_is_deterministic():
    config = scaled_config(4).with_ooo()
    runs = [
        run_workload(IndirectStreamWorkload(n_indices=2048, seed=7), config,
                     prefetcher="imp")
        for _ in range(2)
    ]
    assert snapshot(runs[0].stats) == snapshot(runs[1].stats)


def test_parallel_sweep_matches_serial_fingerprints():
    """A ``--jobs 4`` sweep must be bit-identical to the serial engine.

    Covers every scenario of a small cross-product (two workloads, five
    modes, two core counts): worker processes rebuild workloads from specs
    with deterministic per-spec seeding, so parallel execution must not
    change a single statistic.
    """
    def make_runner(jobs):
        workloads = [
            IndirectStreamWorkload(n_indices=1024, n_data=4096, seed=3),
            PagerankWorkload(n_vertices=256, seed=3),
        ]
        return ExperimentRunner(workloads=workloads,
                                base_config=scaled_config(4), jobs=jobs)

    requests = [RunRequest(workload, mode, n_cores)
                for workload in ("indirect_stream", "pagerank")
                for mode in ("ideal", "base", "imp", "swpref",
                             "imp_partial_noc_dram")
                for n_cores in (1, 4)]
    serial, parallel = make_runner(1), make_runner(4)
    parallel.prefetch(requests)
    assert parallel.engine.jobs == 4
    snapshots = {}
    for request in requests:
        record_s = serial.run(request.workload, request.mode, request.n_cores)
        record_p = parallel.run(request.workload, request.mode,
                                request.n_cores)
        key = (request.workload, request.mode, request.n_cores)
        snapshots[key] = (snapshot(record_s.result.stats),
                          snapshot(record_p.result.stats))
    assert parallel.engine.simulations_run == len(requests)
    for key, (serial_snap, parallel_snap) in snapshots.items():
        assert serial_snap == parallel_snap, f"divergence in {key}"


def test_access_kind_attribution_is_populated():
    """The per-kind breakdowns survive the columnar refactor."""
    config = scaled_config(4)
    workload = IndirectStreamWorkload(n_indices=2048, n_data=4096, seed=3)
    result = run_workload(workload, config, prefetcher="none")
    misses = {kind: 0 for kind in AccessKind}
    for core in result.stats.cores:
        for kind, count in core.misses_by_kind.items():
            misses[kind] += count
    assert misses[AccessKind.INDIRECT] > 0
    assert sum(misses.values()) == result.stats.total_l1_misses


# ----------------------------------------------------------------------
# Registry-refactor bit-identity
# ----------------------------------------------------------------------
def _golden_workloads():
    params = json.loads(GOLDEN_PATH.read_text())["workloads"]
    return {
        "indirect_stream": IndirectStreamWorkload(**params["indirect_stream"]),
        "pagerank": PagerankWorkload(**params["pagerank"]),
    }


def test_registry_modes_match_pre_refactor_fingerprints():
    """Every mode, resolved through the registry, must reproduce the
    fingerprints captured before the registry/hierarchy refactor
    bit-identically (tests/data/mode_fingerprints.json)."""
    golden = json.loads(GOLDEN_PATH.read_text())["fingerprints"]
    workloads = _golden_workloads()
    assert set(golden) == {f"{name}/{mode}/4" for name in workloads
                           for mode in CONFIG_MODES}
    for name, workload in workloads.items():
        for mode in CONFIG_MODES:
            config, prefetcher, imp_cfg, software = experiment_config(
                mode, 4, base_config=scaled_config(4))
            result = run_workload(workload, config, prefetcher=prefetcher,
                                  imp_config=imp_cfg,
                                  software_prefetch=software)
            key = f"{name}/{mode}/4"
            assert result.stats.fingerprint() == golden[key], \
                f"fingerprint drift in {key}"


def test_explicit_classic_hierarchy_matches_inlined_path():
    """An explicit (l1 private, l2 shared) HierarchyConfig with the classic
    geometry must simulate bit-identically to what the retired inlined
    ``hierarchy=None`` path produced — pinned as sha256 digests of
    ``stats.to_dict()`` in tests/data/classic_path_goldens.json (see
    tests/memory/test_attach_equivalence.py for the capture recipe)."""
    golden = json.loads(CLASSIC_GOLDEN_PATH.read_text())["explicit_classic"]
    base = scaled_config(4)
    explicit = base.with_hierarchy(HierarchyConfig(levels=(
        LevelConfig(name="l1", size_bytes=base.l1d.size_bytes,
                    associativity=base.l1d.associativity,
                    hit_latency=base.l1d.hit_latency),
        LevelConfig(name="l2", size_bytes=base.l2_slice.size_bytes,
                    associativity=base.l2_slice.associativity,
                    scope="shared", hit_latency=base.l2_slice.hit_latency),
    )))
    for prefetcher in ("none", "stream", "imp"):
        generalised = run_workload(
            IndirectStreamWorkload(n_indices=1024, n_data=4096, seed=3),
            explicit, prefetcher=prefetcher)
        stats_digest = hashlib.sha256(json.dumps(
            generalised.stats.to_dict(), sort_keys=True).encode()).hexdigest()
        assert stats_digest == golden[prefetcher], \
            f"divergence from the inlined path with prefetcher={prefetcher}"


def test_hybrid_mode_is_deterministic_and_multi_attach():
    """The 'hybrid' mode (stream@L1 + per-slice IMP@shared-L2) must be
    reproducible from fresh state and actually run both attachments.

    Its golden fingerprint lives in tests/data/mode_fingerprints.json
    (covered by test_registry_modes_match_pre_refactor_fingerprints); this
    entry keeps the next golden re-anchor mechanical by pinning the mode's
    structure, not just its numbers."""
    config, prefetcher, imp_cfg, software = experiment_config(
        "hybrid", 4, base_config=scaled_config(4))
    hierarchy = config.hierarchy
    assert [(a.level, a.prefetcher) for a in hierarchy.attach] \
        == [("l1", "stream"), ("l2", "imp")]
    assert hierarchy.shared_attaches  # IMP rides the shared slices
    runs = [
        run_workload(IndirectStreamWorkload(n_indices=1024, n_data=4096,
                                            seed=3),
                     config, prefetcher=prefetcher, imp_config=imp_cfg,
                     software_prefetch=software)
        for _ in range(2)
    ]
    assert snapshot(runs[0].stats) == snapshot(runs[1].stats)
    # Both banks exist: one stream prefetcher per core + one IMP per slice.
    assert len(runs[0].imps) == 4


def test_three_level_hierarchy_is_deterministic():
    hierarchy = HierarchyConfig(prefetch_level="l2", levels=(
        LevelConfig(name="l1", size_bytes=4 * 1024, associativity=4),
        LevelConfig(name="l2", size_bytes=16 * 1024, associativity=8,
                    hit_latency=4),
        LevelConfig(name="l3", size_bytes=32 * 1024, associativity=8,
                    scope="shared", hit_latency=8),
    ))
    config = scaled_config(4).with_hierarchy(hierarchy)
    runs = [
        run_workload(IndirectStreamWorkload(n_indices=1024, n_data=4096,
                                            seed=3),
                     config, prefetcher="imp")
        for _ in range(2)
    ]
    assert snapshot(runs[0].stats) == snapshot(runs[1].stats)
