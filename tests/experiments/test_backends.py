"""The sweep backend boundary (repro.experiments.backends).

Covers the registry/resolution contract, the one-rule jobs resolution,
digest neutrality (``--backend`` is an execution knob, never an
experiment parameter), and the equivalence suite: every backend —
serial, process with a real pool, and service over two live in-process
shards — must produce bit-identical fingerprints for the same specs.
"""

from collections import Counter

import pytest

from repro.experiments.backends import (
    DEFAULT_BACKEND,
    ProcessBackend,
    SerialBackend,
    ServiceBackend,
    resolve_backend,
)
from repro.experiments.durable import read_log
from repro.experiments.sweep import (
    ResultCache,
    RunSpec,
    SweepEngine,
    resolve_jobs,
)
from repro.registry import SWEEP_BACKENDS, RegistryError
from repro.workloads.synthetic import IndirectStreamWorkload


def simulated_done_counts(journal) -> Counter:
    """Per-job count of the ``done`` records of a service job journal that
    mark a real simulation."""
    return Counter(entry["id"] for entry in read_log(journal)[0]
                   if entry.get("status") == "done" and entry.get("simulated"))


def make_specs(n=4, n_cores=1):
    """``n`` small specs over distinct seeds, plus their workload map."""
    specs, lookup = [], {}
    for seed in range(1, n + 1):
        workload = IndirectStreamWorkload(n_indices=256, n_data=1024,
                                          seed=seed)
        spec = RunSpec.for_run(workload, "imp", n_cores)
        specs.append(spec)
        lookup[spec] = workload
    return specs, lookup


def fingerprints(results):
    return {spec.digest(): result.stats.fingerprint()
            for spec, result in results.items()}


# ----------------------------------------------------------------------
# Registry + resolution contract
# ----------------------------------------------------------------------
class TestResolution:
    def test_registry_lists_all_backends(self):
        assert SWEEP_BACKENDS.names() == ["serial", "process", "service"]

    def test_default_is_process(self):
        assert DEFAULT_BACKEND == "process"
        assert isinstance(resolve_backend(None), ProcessBackend)
        assert isinstance(SweepEngine(jobs=1).backend, ProcessBackend)

    def test_names_resolve(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(RegistryError, match="serial, process, service"):
            resolve_backend("cloud")

    def test_local_backends_reject_shards(self):
        for name in ("serial", "process"):
            with pytest.raises(ValueError, match="no --shard"):
                resolve_backend(name, ["http://localhost:1"])

    def test_service_requires_a_shard(self):
        with pytest.raises(ValueError, match="at least one shard"):
            resolve_backend("service")

    def test_service_normalises_shard_urls(self):
        backend = resolve_backend("service", ["http://h:80/",
                                              "http://g:81"])
        assert backend.shard_urls == ["http://h:80", "http://g:81"]

    def test_engine_threads_backend_through(self):
        engine = SweepEngine(jobs=1, backend="serial")
        assert isinstance(engine.backend, SerialBackend)
        with pytest.raises(ValueError, match="at least one shard"):
            SweepEngine(jobs=1, backend="service")


# ----------------------------------------------------------------------
# The one jobs rule (explicit > $REPRO_JOBS > 1; 0=auto)
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_wins_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_zero_means_auto(self, monkeypatch):
        import os
        auto = max(1, os.cpu_count() or 1)
        assert resolve_jobs(0) == auto
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs(None) == auto

    def test_explicit_negative_raises(self):
        with pytest.raises(ValueError, match="0 = auto"):
            resolve_jobs(-1)

    def test_explicit_garbage_raises(self):
        with pytest.raises(ValueError, match="non-negative integer"):
            resolve_jobs("many")

    def test_env_garbage_warns_and_uses_default(self, monkeypatch,
                                                capsys):
        for junk in ("banana", "-2", "1.5"):
            monkeypatch.setenv("REPRO_JOBS", junk)
            assert resolve_jobs(None) == 1
            err = capsys.readouterr().err
            assert "ignoring invalid REPRO_JOBS" in err
            assert "using 1 job" in err


# ----------------------------------------------------------------------
# Digest neutrality: the backend never enters the experiment identity
# ----------------------------------------------------------------------
class TestDigestNeutrality:
    def test_canonical_json_carries_no_backend(self):
        specs, _ = make_specs(1)
        canonical = specs[0].canonical_json()
        assert "backend" not in canonical
        assert "shard" not in canonical

    def test_digest_identical_across_engine_backends(self, tmp_path):
        specs, _ = make_specs(1)
        digest = specs[0].digest()
        for engine in (SweepEngine(jobs=1, backend="serial"),
                       SweepEngine(jobs=2, backend="process"),
                       SweepEngine(jobs=1, backend="service",
                                   shards=["http://localhost:1"])):
            # The digest is a pure function of the spec; engine/backend
            # configuration must not be able to influence it.
            assert specs[0].digest() == digest
            assert engine.backend.name in ("serial", "process", "service")


# ----------------------------------------------------------------------
# Equivalence: every backend matches the serial reference bit-for-bit
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def reference(self):
        specs, lookup = make_specs(4)
        results = SweepEngine(jobs=1, backend="serial").run(
            specs, workload_lookup=lookup.get)
        return fingerprints(results)

    def test_process_pool_matches_serial(self, reference):
        specs, lookup = make_specs(4)
        engine = SweepEngine(jobs=2, backend="process")
        results = engine.run(specs, workload_lookup=lookup.get)
        assert fingerprints(results) == reference
        assert engine.simulations_run == len(specs)

    def test_service_backend_matches_serial(self, reference, tmp_path):
        from repro.service import ServiceApp

        apps = [ServiceApp(tmp_path / f"shard{i}", port=0, queue_depth=8)
                for i in range(2)]
        for app in apps:
            app.start()
        try:
            specs, lookup = make_specs(4)
            cache = ResultCache(tmp_path / "local")
            engine = SweepEngine(jobs=1, cache=cache, backend="service",
                                 shards=[app.url for app in apps])
            results = engine.run(specs, workload_lookup=lookup.get)
            assert fingerprints(results) == reference
            assert engine.backend.ingested == len(specs)
            assert engine.backend.dead_shards == []
            assert engine.backend.fallback_specs == 0
            # Round-robin really sharded the cross-product: both shards
            # simulated some of it.
            per_shard = [app.manager.simulations_run for app in apps]
            assert all(count > 0 for count in per_shard)
            assert sum(per_shard) == len(specs)
            # The same at the journal level: each shard's job journal holds
            # simulated ``done`` records, and across both journals every
            # spec was simulated exactly once.
            journaled = [simulated_done_counts(app.store.path)
                         for app in apps]
            assert all(journaled)
            assert sum(journaled, Counter()) == Counter(
                {spec.digest(): 1 for spec in specs})

            # Ingested records are real cache-v3 records: a second local
            # engine on the same cache dir is fully warm.
            warm = SweepEngine(jobs=1, cache=ResultCache(tmp_path / "local"))
            warm_results = warm.run(specs, workload_lookup=lookup.get)
            assert warm.simulations_run == 0
            assert fingerprints(warm_results) == reference
        finally:
            for app in apps:
                app.stop(drain_timeout=10.0)

    def test_lost_submit_response_requeues_stranded_spec(self, reference,
                                                         tmp_path,
                                                         monkeypatch):
        # A shard that dies mid-response (e.g. IncompleteRead) may already
        # have journaled the job: the spec is stranded in flight, requeued
        # uncharged and counted, and finishes on the surviving shard.
        from repro.experiments import backends
        from repro.service import ServiceApp
        from repro.service.client import ServiceClient, ShardUnavailable

        doomed_url = "http://127.0.0.1:9"

        class DyingClient:
            submits = 0

            def __init__(self, url):
                self.url = url

            def submit(self, doc):
                DyingClient.submits += 1
                raise ShardUnavailable(self.url, "IncompleteRead(0 bytes "
                                                 "read)")

        monkeypatch.setattr(
            backends, "ServiceClient",
            lambda url: (DyingClient(url) if url == doomed_url
                         else ServiceClient(url)))
        app = ServiceApp(tmp_path / "survivor", port=0, queue_depth=8)
        app.start()
        try:
            specs, lookup = make_specs(2)
            engine = SweepEngine(jobs=1, backend="service",
                                 shards=[doomed_url, app.url])
            results = engine.run(specs, workload_lookup=lookup.get)
        finally:
            app.stop(drain_timeout=10.0)
        backend = engine.backend
        assert DyingClient.submits == 1
        assert backend.dead_shards == [doomed_url]
        assert backend.requeued == 1
        assert backend.fallback_specs == 0
        assert backend.ingested == len(specs)
        assert app.manager.simulations_run == len(specs)
        assert fingerprints(results) == {
            digest: fingerprint for digest, fingerprint in reference.items()
            if digest in {spec.digest() for spec in specs}}

    @pytest.mark.parametrize("probe", ["known", "unknown", "unreachable"])
    def test_garbled_submit_response_probes_the_job(self, reference,
                                                    tmp_path, monkeypatch,
                                                    probe):
        # The first submit answer is not the JSON envelope.  One job probe
        # decides: a job the shard knows stays in flight there, a 404
        # requeues the spec with the shard alive, and a failed probe
        # marks the shard down as before.
        from repro.experiments import backends
        from repro.service import ServiceApp
        from repro.service.client import (ServiceClient, ShardProtocolError,
                                          ShardUnavailable)

        class GarbledClient(ServiceClient):
            submits = 0

            def submit(self, doc):
                GarbledClient.submits += 1
                if GarbledClient.submits > 1:
                    return super().submit(doc)
                if probe == "known":
                    super().submit(doc)   # journaled; the answer is lost
                raise ShardProtocolError("non-JSON response body")

            def job(self, job_id):
                if probe == "unreachable":
                    raise ShardUnavailable(self.base_url, "connection refused")
                return super().job(job_id)

        apps = [ServiceApp(tmp_path / f"shard{i}", port=0, queue_depth=8)
                for i in range(2)]
        for app in apps:
            app.start()
        glitchy, survivor = apps
        monkeypatch.setattr(
            backends, "ServiceClient",
            lambda url: (GarbledClient(url) if url == glitchy.url
                         else ServiceClient(url)))
        try:
            specs, lookup = make_specs(2)
            engine = SweepEngine(jobs=1, backend="service",
                                 shards=[glitchy.url, survivor.url])
            results = engine.run(specs, workload_lookup=lookup.get)
        finally:
            for app in apps:
                app.stop(drain_timeout=10.0)
        backend = engine.backend
        assert backend.fallback_specs == 0
        assert backend.ingested == len(specs)
        assert fingerprints(results) == {
            digest: fingerprint for digest, fingerprint in reference.items()
            if digest in {spec.digest() for spec in specs}}
        if probe == "unreachable":
            assert backend.dead_shards == [glitchy.url]
            assert backend.requeued == 1
            assert survivor.manager.simulations_run == len(specs)
        else:
            assert backend.dead_shards == []
            assert backend.requeued == 0
            # Nothing simulated twice: the journaled job finished on the
            # shard that took it, the lost one ran exactly once elsewhere.
            assert (glitchy.manager.simulations_run
                    + survivor.manager.simulations_run) == len(specs)
            if probe == "known":
                assert glitchy.manager.simulations_run >= 1

    def test_service_summary_counts_remote_work(self, reference, tmp_path):
        # The engine's simulations_run includes remote ingests, so the
        # CLI summary line stays truthful whichever backend ran.
        from repro.service import ServiceApp

        app = ServiceApp(tmp_path / "shard", port=0, queue_depth=8)
        app.start()
        try:
            specs, lookup = make_specs(2)
            engine = SweepEngine(jobs=1, backend="service",
                                 shards=[app.url])
            results = engine.run(specs, workload_lookup=lookup.get)
            assert engine.simulations_run == len(specs)
            assert fingerprints(results) == {
                digest: fingerprint
                for digest, fingerprint in reference.items()
                if digest in {spec.digest() for spec in specs}}
        finally:
            app.stop(drain_timeout=10.0)


# ----------------------------------------------------------------------
# Ingest: a shard record is checked before it is ever used or published
# ----------------------------------------------------------------------
class TestServiceIngestRejection:
    @pytest.mark.parametrize("tamper", ["schema", "spec", "fingerprint"])
    def test_tampered_record_is_charged_never_ingested(self, tmp_path,
                                                       monkeypatch, tamper):
        # The shard simulates correctly, but the record it returns is
        # tampered on the way back: a stale schema, another spec's spec,
        # or an edited fingerprint.  Each must cost the spec one ``error``
        # attempt naming the shard, and must reach neither the results
        # nor the local cache.
        from repro.experiments import backends
        from repro.experiments.sweep import RunPolicy, SweepError
        from repro.service import ServiceApp
        from repro.service.client import ServiceClient

        specs, lookup = make_specs(2)
        victim, other = specs

        class TamperingClient(ServiceClient):
            def result(self, digest):
                status, envelope, headers = super().result(digest)
                record = envelope["data"]["record"]
                if tamper == "schema":
                    record["schema"] = 2
                elif tamper == "spec":
                    record["spec"] = other.to_dict()
                else:
                    record["fingerprint"]["runtime_cycles"] += 1
                return status, envelope, headers

        monkeypatch.setattr(backends, "ServiceClient", TamperingClient)
        app = ServiceApp(tmp_path / "shard", port=0, queue_depth=8)
        app.start()
        try:
            cache = ResultCache(tmp_path / "local")
            engine = SweepEngine(jobs=1, cache=cache, backend="service",
                                 shards=[app.url],
                                 policy=RunPolicy(retries=0, backoff=0.0))
            with pytest.raises(SweepError) as excinfo:
                engine.run([victim], workload_lookup=lookup.get)
        finally:
            app.stop(drain_timeout=10.0)
        error = excinfo.value
        assert error.results == {}
        assert [(failure.digest, failure.kind, failure.attempts)
                for failure in error.failures] == [
                    (victim.digest(), "error", 1)]
        assert f"shard {app.url}" in error.failures[0].error
        assert engine.backend.ingested == 0
        assert engine.simulations_run == 0
        assert cache.stores == 0
        assert list((tmp_path / "local").glob("*.json")) == []
        assert cache.get(victim) is None
