"""Sharded sweeps under fire: kill one ``repro serve`` shard mid-sweep
(via the deterministic fault plan) and prove the service backend
requeues its work to the survivor, finishes with fingerprints
bit-identical to a serial run, and never simulates anything twice."""

import json

from svc_helpers import serve_env, simulated_done_counts, start_serve, \
    stop_serve

from repro.experiments.faults import KILL_EXIT_CODE
from repro.experiments.sweep import (ResultCache, RunPolicy, RunSpec,
                                     SweepEngine)
from repro.service.app import JOB_STORE_FILENAME
from repro.workloads.synthetic import IndirectStreamWorkload


def make_specs(n):
    """Moderate-size specs: big enough that the doomed shard is still
    mid-simulation when the backend notices it is gone."""
    specs, lookup = [], {}
    for seed in range(1, n + 1):
        workload = IndirectStreamWorkload(n_indices=1024, n_data=4096,
                                          seed=seed)
        spec = RunSpec.for_run(workload, "imp", 1)
        specs.append(spec)
        lookup[spec] = workload
    return specs, lookup


def test_shard_kill_requeues_to_survivor_without_duplicates(tmp_path):
    specs, lookup = make_specs(4)
    baseline = SweepEngine(jobs=1, backend="serial").run(
        list(specs), workload_lookup=lookup.get)

    # The doomed shard kills itself pre-publish on its first execution of
    # *any* job (probability 1.0 — no seed search needed); the survivor
    # runs clean.
    doomed_dir = tmp_path / "doomed"
    survivor_dir = tmp_path / "survivor"
    faults = json.dumps({"seed": 1, "serve_kill": 1.0})
    doomed, doomed_url, _ = start_serve(
        doomed_dir, env=serve_env(REPRO_FAULTS=faults))
    survivor, survivor_url, _ = start_serve(survivor_dir)

    try:
        engine = SweepEngine(
            jobs=1, cache=ResultCache(tmp_path / "local"),
            policy=RunPolicy(retries=2, backoff=0.05),
            backend="service", shards=[doomed_url, survivor_url])
        results = engine.run(specs, workload_lookup=lookup.get)
    finally:
        doomed.wait(timeout=60)
        code, _ = stop_serve(survivor)

    assert doomed.returncode == KILL_EXIT_CODE
    assert code == 143

    # Bit-identical to the serial reference, shard kill or not.
    for spec in specs:
        assert (results[spec].stats.fingerprint()
                == baseline[spec].stats.fingerprint())

    backend = engine.backend
    assert backend.dead_shards == [doomed_url]
    # At least the job the doomed shard died executing was stranded
    # in-flight and requeued uncharged to the survivor.
    assert backend.requeued >= 1
    # The survivor finished everything: no process-backend fallback.
    assert backend.fallback_specs == 0
    assert backend.ingested == len(specs)
    assert engine.simulations_run == len(specs)

    # Zero duplicate simulations across both shard journals: the doomed
    # shard died pre-publish, so every spec simulated exactly once, all
    # on the survivor.
    counts = {}
    for directory in (doomed_dir, survivor_dir):
        journal = directory / JOB_STORE_FILENAME
        if journal.exists():
            for digest, count in simulated_done_counts(journal).items():
                counts[digest] = counts.get(digest, 0) + count
    assert all(count <= 1 for count in counts.values())
    assert sum(counts.values()) == len(specs)
    assert set(counts) == {spec.digest() for spec in specs}

    # The ingested records warmed the local cache: a rerun simulates
    # nothing and needs no shards at all.
    warm = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "local"))
    warm_results = warm.run(specs, workload_lookup=lookup.get)
    assert warm.simulations_run == 0
    for spec in specs:
        assert (warm_results[spec].stats.fingerprint()
                == baseline[spec].stats.fingerprint())
