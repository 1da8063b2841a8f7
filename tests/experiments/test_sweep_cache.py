"""Tests for the parallel sweep engine's persistent on-disk result cache.

Covers the satellite checklist of the sweep-engine PR: hit/miss behaviour,
invalidation when any config field or the cache schema version changes,
corrupted-entry recovery, and the ``--no-cache`` bypass — plus the
robustness PR's guarantees: every class of corrupt record is quarantined
(not deleted) and recomputed without aborting, and concurrent sweeps
publishing into one cache directory never tear a record.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import IMPConfig
from repro.experiments import figures
from repro.experiments.configs import scaled_config
from repro.experiments.runner import ExperimentRunner, RunRequest
from repro.experiments.sweep import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    RunSpec,
    SweepEngine,
    execute_spec,
    list_quarantined,
    make_record,
    purge_quarantined,
    quarantine_dir,
)
from repro.registry import WORKLOADS
from repro.workloads import PagerankWorkload
from repro.workloads.base import WorkloadSpecError
from repro.workloads.synthetic import IndirectStreamWorkload

N_CORES = 4


def tiny_workload(seed: int = 3) -> IndirectStreamWorkload:
    return IndirectStreamWorkload(n_indices=512, n_data=2048, seed=seed)


def tiny_spec(mode: str = "base", **kwargs) -> RunSpec:
    return RunSpec.for_run(tiny_workload(), mode, N_CORES, **kwargs)


@pytest.fixture()
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


def cache_records(cache: ResultCache):
    """The live (non-quarantined) record files of a cache directory."""
    return sorted(path for path in cache.directory.iterdir()
                  if path.is_file() and path.suffix == ".json")


def quarantine_reasons(cache: ResultCache):
    return [entry.reason for entry in list_quarantined(cache.directory)]


class TestRunSpec:
    def test_round_trips_through_json(self):
        spec = tiny_spec("imp", imp_config=IMPConfig().with_pt_size(8))
        clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.digest() == spec.digest()

    def test_every_registered_workload_is_reconstructible(self):
        for entry in WORKLOADS.entries():
            cls = entry.factory
            workload = cls(seed=7)
            rebuilt = RunSpec.for_run(workload, "base", N_CORES) \
                .make_workload()
            assert type(rebuilt) is cls
            assert rebuilt.spec_params() == workload.spec_params()

    def test_equivalent_default_configs_share_a_digest(self):
        explicit = tiny_spec(imp_config=IMPConfig(),
                             base_config=scaled_config(N_CORES))
        assert tiny_spec().digest() == explicit.digest()

    def test_any_config_field_change_changes_the_digest(self):
        base = tiny_spec()
        assert tiny_spec(
            imp_config=IMPConfig().with_ipd_size(8)).digest() != base.digest()
        assert tiny_spec(
            base_config=scaled_config(N_CORES).with_ooo()
        ).digest() != base.digest()
        assert tiny_spec(sw_prefetch_distance=4).digest() != base.digest()
        assert RunSpec.for_run(tiny_workload(seed=9), "base",
                               N_CORES).digest() != base.digest()

    def test_unserialisable_workload_is_rejected(self):
        class CustomWorkload(IndirectStreamWorkload):
            pass

        with pytest.raises(WorkloadSpecError):
            RunSpec.for_run(CustomWorkload(), "base", N_CORES)

    def test_lazy_matrix_build_does_not_poison_spec(self, tmp_path):
        """Running SpMV once must not disable caching for later runs: the
        lazily derived matrix is not a constructor parameter."""
        from repro.workloads import SpMVWorkload

        workload = SpMVWorkload(nx=4, ny=4, nz=4, seed=3)
        before = RunSpec.for_run(workload, "base", N_CORES)
        workload.matrix()  # triggers the lazy build
        assert RunSpec.for_run(workload, "base", N_CORES) == before
        # End to end: both runs of a two-mode sweep reach the disk cache.
        runner = ExperimentRunner(workloads=[SpMVWorkload(nx=4, ny=4, nz=4,
                                                          seed=3)],
                                  base_config=scaled_config(N_CORES),
                                  cache_dir=tmp_path / "cache")
        runner.run("spmv", "base", N_CORES)
        runner.run("spmv", "imp", N_CORES)
        assert runner.engine.cache.stores == 2
        # A user-supplied matrix is still (correctly) unserialisable.
        with pytest.raises(WorkloadSpecError):
            SpMVWorkload(matrix=workload.matrix(), seed=3).spec_params()


class TestResultCache:
    def test_miss_then_hit(self, cache):
        spec = tiny_spec()
        assert cache.get(spec) is None
        result = execute_spec(spec)
        cache.put(spec, make_record(spec, result))
        restored = cache.get(spec)
        assert restored is not None
        assert restored.stats.fingerprint() == result.stats.fingerprint()
        assert restored.config == result.config
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_config_change_misses(self, cache):
        spec = tiny_spec()
        cache.put(spec, make_record(spec, execute_spec(spec)))
        assert cache.get(tiny_spec(sw_prefetch_distance=4)) is None

    def test_schema_version_change_invalidates(self, cache, monkeypatch):
        spec = tiny_spec()
        cache.put(spec, make_record(spec, execute_spec(spec)))
        monkeypatch.setattr("repro.experiments.sweep.CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        # The stale entry was quarantined so the next sweep rewrites it.
        assert not cache_records(cache)
        assert quarantine_reasons(cache) == ["schema"]

    def test_v2_record_self_heals(self, cache):
        """The v2->v3 migration path: a record written under the previous
        schema (pre-attach-list hierarchies, ``prefetch_level`` in the
        spec) is treated as a miss, quarantined on first lookup, and the
        slot is repopulated with a v3 record by the next engine run."""
        spec = tiny_spec()
        result = execute_spec(spec)
        record = make_record(spec, result)
        assert record["schema"] == 3
        # Forge the on-disk shape a v2 sweep would have left behind.
        stale = json.loads(json.dumps(record))
        stale["schema"] = 2
        hierarchy = {
            "levels": [{"name": "l1", "size_bytes": 16384,
                        "associativity": 4, "scope": "private",
                        "line_size": 64, "hit_latency": 1,
                        "sector_size": 0}],
            "prefetch_level": "l1",           # the retired v2 spelling
        }
        stale["spec"]["base_config"] = dict(stale["spec"]["base_config"],
                                            hierarchy=hierarchy)
        cache.directory.mkdir(parents=True, exist_ok=True)
        (cache.directory / f"{spec.digest()}.json").write_text(
            json.dumps(stale))
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        assert not cache_records(cache)
        assert quarantine_reasons(cache) == ["schema"]
        # A fresh engine run repopulates the digest with a v3 record.
        engine = SweepEngine(jobs=1, cache=cache)
        engine.run([spec])
        healed = json.loads(
            (cache.directory / f"{spec.digest()}.json").read_text())
        assert healed["schema"] == CACHE_SCHEMA_VERSION == 3
        assert cache.get(spec).stats.fingerprint() \
            == result.stats.fingerprint()

    @pytest.mark.parametrize("garbage, reason", [
        ("{ not json", "truncated"),
        ("[]", "malformed"),
        ("null", "malformed"),
        ('"x"', "malformed"),
    ])
    def test_corrupted_entry_is_quarantined_and_rerun(self, cache, garbage,
                                                      reason):
        spec = tiny_spec()
        cache.put(spec, make_record(spec, execute_spec(spec)))
        [entry] = cache_records(cache)
        entry.write_text(garbage)
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        assert quarantine_reasons(cache) == [reason]
        # A fresh store recovers the entry.
        cache.put(spec, make_record(spec, execute_spec(spec)))
        assert cache.get(spec) is not None

    def test_fingerprint_tampering_is_detected(self, cache):
        spec = tiny_spec()
        cache.put(spec, make_record(spec, execute_spec(spec)))
        [entry] = cache_records(cache)
        record = json.loads(entry.read_text())
        record["fingerprint"]["runtime_cycles"] += 1
        entry.write_text(json.dumps(record))
        assert cache.get(spec) is None
        assert cache.corrupt == 1
        assert quarantine_reasons(cache) == ["fingerprint"]

    def test_pre_kernel_field_record_still_hits(self, cache):
        """Records written before ``NoCConfig.kernel`` existed (their spec
        has no ``noc.kernel`` key) stay valid: the kernel backend is
        result-neutral by contract, so it is excluded from the digest and
        from the stored-spec comparison — persisted caches and journals
        survived the kernel boundary landing."""
        spec = tiny_spec()
        result = execute_spec(spec)
        record = make_record(spec, result)
        vintage = json.loads(json.dumps(record))
        removed = vintage["spec"]["base_config"]["noc"].pop("kernel")
        assert removed                      # the field was actually there
        cache.directory.mkdir(parents=True, exist_ok=True)
        (cache.directory / f"{spec.digest()}.json").write_text(
            json.dumps(vintage))
        restored = cache.get(spec)
        assert restored is not None
        assert restored.stats.fingerprint() == result.stats.fingerprint()
        assert cache.corrupt == 0

    def test_kernel_backend_choice_shares_one_cache_entry(self, cache):
        """Specs differing only in the reservation-kernel backend are one
        experiment: same digest, and a record produced under either
        backend satisfies both — including ``compiled``, whose host
        availability must never split a cache."""
        from dataclasses import replace
        base_config = scaled_config(N_CORES)
        specs = {
            name: tiny_spec(base_config=replace(
                base_config, noc=replace(base_config.noc, kernel=name)))
            for name in ("reference", "compiled")}
        digests = {spec.digest() for spec in specs.values()}
        assert len(digests) == 1            # one identity for all backends
        assert specs["compiled"] != specs["reference"]  # configs do differ
        cache.put(specs["compiled"],
                  make_record(specs["compiled"],
                              execute_spec(specs["compiled"])))
        for spec in specs.values():
            assert cache.get(spec) is not None
        assert cache.corrupt == 0

    def test_kernel_availability_never_changes_digest(self, monkeypatch):
        """A host that loses (or gains) the compiled extension computes
        the same digest for the same spec: pre-existing cache records keep
        hitting after an extension build appears or $REPRO_NO_CEXT is set."""
        spec = tiny_spec()
        with_ext = spec.digest()
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        assert tiny_spec().digest() == with_ext

    def test_disabled_cache_bypasses_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", enabled=False)
        spec = tiny_spec()
        cache.put(spec, make_record(spec, execute_spec(spec)))
        assert not (tmp_path / "cache").exists()
        assert cache.get(spec) is None


class TestEngineAndRunnerIntegration:
    def test_engine_reuses_cache_across_instances(self, cache):
        specs = [tiny_spec("base"), tiny_spec("imp")]
        first = SweepEngine(jobs=1, cache=cache)
        results = first.run(specs)
        assert first.simulations_run == 2
        second = SweepEngine(jobs=1, cache=cache)
        warm = second.run(specs)
        assert second.simulations_run == 0
        for spec in specs:
            assert (warm[spec].stats.fingerprint()
                    == results[spec].stats.fingerprint())

    def test_warm_figure_rebuild_performs_zero_simulations(self, tmp_path):
        def make_runner():
            return ExperimentRunner(workloads=[tiny_workload()],
                                    base_config=scaled_config(N_CORES),
                                    cache_dir=tmp_path / "cache")

        cold = make_runner()
        rows = figures.fig02_motivation(cold, N_CORES)
        assert cold.engine.simulations_run > 0
        warm = make_runner()
        assert figures.fig02_motivation(warm, N_CORES) == rows
        assert warm.engine.simulations_run == 0
        assert warm.engine.cache.hits == cold.engine.simulations_run

    def test_use_cache_false_bypasses_disk(self, tmp_path):
        runner = ExperimentRunner(workloads=[tiny_workload()],
                                  base_config=scaled_config(N_CORES),
                                  cache_dir=tmp_path / "cache",
                                  use_cache=False)
        runner.run("indirect_stream", "base", N_CORES)
        assert runner.engine.cache is None
        assert not (tmp_path / "cache").exists()

    def test_shared_runs_are_simulated_once_across_figures(self, tmp_path):
        """Fig 1/2/10 all need the Base run; the batched prefetch path must
        request it exactly once (the PR's figure-dedup satellite)."""
        runner = ExperimentRunner(
            workloads=[tiny_workload(), PagerankWorkload(n_vertices=256,
                                                         seed=3)],
            base_config=scaled_config(N_CORES))
        figures.fig01_miss_breakdown(runner, N_CORES)   # base
        base_only = runner.engine.simulations_run
        assert base_only == 2                            # one per workload
        figures.fig02_motivation(runner, N_CORES)       # ideal/base/perfpref
        assert runner.engine.simulations_run == base_only + 4
        figures.fig10_sw_overhead(runner, N_CORES)      # base/imp/swpref
        assert runner.engine.simulations_run == base_only + 8

    def test_prefetch_deduplicates_requests(self):
        runner = ExperimentRunner(workloads=[tiny_workload()],
                                  base_config=scaled_config(N_CORES))
        runner.prefetch([RunRequest("indirect_stream", "base", N_CORES)] * 5)
        assert runner.engine.simulations_run == 1


class TestCacheSelfHealing:
    """Every corruption class quarantines the record (keeping the evidence
    inspectable) and the next sweep recomputes it without aborting."""

    def heal(self, cache, spec, reason):
        engine = SweepEngine(jobs=1, cache=cache)
        result = engine.run([spec])[spec]
        assert engine.simulations_run == 1
        assert cache.quarantined == 1
        assert quarantine_reasons(cache) == [reason]
        # The slot was rewritten and reads clean again.
        fresh = ResultCache(cache.directory)
        assert fresh.get(spec).stats.fingerprint() \
            == result.stats.fingerprint()
        assert fresh.quarantined == 0
        return result

    def seeded(self, cache, spec):
        record = make_record(spec, execute_spec(spec))
        cache.put(spec, record)
        return cache._path(spec), record

    def test_truncated_record(self, cache):
        from repro.experiments.faults import corrupt_record

        spec = tiny_spec()
        path, _ = self.seeded(cache, spec)
        corrupt_record(path)
        self.heal(cache, spec, "truncated")

    def test_non_utf8_record(self, cache):
        # Bytes that do not decode at all read as a torn record, not as a
        # traceback that kills the sweep.
        spec = tiny_spec()
        path, _ = self.seeded(cache, spec)
        path.write_bytes(b"\xff\xfe{")
        self.heal(cache, spec, "truncated")

    def test_digest_collision_record(self, cache):
        # Another spec's (valid!) record sitting at this spec's path —
        # the shape a digest collision or a botched copy would produce.
        spec = tiny_spec("base")
        other = tiny_spec("imp")
        _, other_record = self.seeded(ResultCache(cache.directory), other)
        cache._path(spec).parent.mkdir(parents=True, exist_ok=True)
        cache._path(spec).write_text(json.dumps(other_record))
        self.heal(cache, spec, "spec-mismatch")

    def test_wrong_schema_version_record(self, cache):
        spec = tiny_spec()
        path, record = self.seeded(cache, spec)
        path.write_text(json.dumps(dict(record, schema=2)))
        self.heal(cache, spec, "schema")

    def test_unreadable_record(self, cache):
        # The record path exists but cannot be opened as a file.
        spec = tiny_spec()
        path, _ = self.seeded(cache, spec)
        path.unlink()
        path.mkdir()
        self.heal(cache, spec, "unreadable")

    def test_quarantine_inspection_and_purge(self, cache):
        from repro.experiments.faults import corrupt_record

        spec = tiny_spec()
        path, _ = self.seeded(cache, spec)
        corrupt_record(path)
        assert cache.get(spec) is None
        [entry] = list_quarantined(cache.directory)
        assert entry.digest == spec.digest()
        assert entry.reason == "truncated"
        assert entry.path.is_file()
        assert purge_quarantined(cache.directory) == 1
        assert list_quarantined(cache.directory) == []
        assert not quarantine_dir(cache.directory).exists()

    def test_repeat_quarantine_keeps_both_evidence_files(self, cache):
        # Satellite: a digest quarantined twice for the same reason must
        # keep BOTH evidence files — the second quarantine uniquifies its
        # filename instead of silently clobbering the first.
        from repro.experiments.faults import corrupt_record

        spec = tiny_spec()
        path, _ = self.seeded(cache, spec)
        corrupt_record(path)
        assert cache.get(spec) is None          # first quarantine
        self.seeded(cache, spec)                # reseed the same slot...
        corrupt_record(path)                    # ...and tear it again
        assert ResultCache(cache.directory).get(spec) is None
        entries = list_quarantined(cache.directory)
        assert len(entries) == 2
        assert {entry.digest for entry in entries} == {spec.digest()}
        assert {entry.reason for entry in entries} == {"truncated"}
        assert len({entry.path.name for entry in entries}) == 2
        assert purge_quarantined(cache.directory) == 2
        assert list_quarantined(cache.directory) == []

    def test_purge_handles_directory_entries(self, cache):
        # An "unreadable" quarantine entry can itself be a directory.
        spec = tiny_spec()
        path, _ = self.seeded(cache, spec)
        path.unlink()
        path.mkdir()
        (path / "junk").write_text("x")
        assert cache.get(spec) is None
        assert quarantine_reasons(cache) == ["unreadable"]
        assert purge_quarantined(cache.directory) == 1
        assert list_quarantined(cache.directory) == []


class TestConcurrentWriters:
    def test_cross_process_sweeps_share_one_cache_cleanly(self, tmp_path):
        """Two sweeps in separate processes race on the same cache
        directory; atomic publishes mean every record ends up valid —
        no torn files, no quarantines (the concurrent-writer satellite)."""
        cache_dir = tmp_path / "cache"
        script = (
            "import sys\n"
            "from repro.experiments.sweep import ResultCache, RunSpec, "
            "SweepEngine\n"
            "from repro.workloads.synthetic import IndirectStreamWorkload\n"
            "w = IndirectStreamWorkload(n_indices=512, n_data=2048, seed=3)\n"
            "specs = [RunSpec.for_run(w, m, 4)\n"
            "         for m in ('base', 'imp', 'swpref')]\n"
            "SweepEngine(jobs=1, cache=ResultCache(sys.argv[1]))"
            ".run(specs)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parents[2] / "src")
        env.pop("REPRO_FAULTS", None)
        procs = [subprocess.Popen([sys.executable, "-c", script,
                                   str(cache_dir)], env=env)
                 for _ in range(2)]
        for proc in procs:
            assert proc.wait(timeout=300) == 0

        cache = ResultCache(cache_dir)
        specs = [tiny_spec(mode) for mode in ("base", "imp", "swpref")]
        fingerprints = {}
        for spec in specs:
            restored = cache.get(spec)
            assert restored is not None
            fingerprints[spec] = restored.stats.fingerprint()
        assert cache.hits == 3
        assert cache.quarantined == 0
        assert not quarantine_dir(cache_dir).exists()
        # Both writers produced the same deterministic bytes.
        serial = SweepEngine(jobs=1).run(specs)
        for spec in specs:
            assert fingerprints[spec] == serial[spec].stats.fingerprint()
