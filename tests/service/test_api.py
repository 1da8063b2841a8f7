"""The versioned REST surface: routing, envelopes, status codes and the
live HTTP server (end-to-end submit → poll → result)."""

import json
from pathlib import Path

import pytest

from svc_helpers import http, poll_job, scenario_digest, tiny_scenario

from repro.experiments.scenario import ScenarioSpec
from repro.experiments.sweep import ResultCache
from repro.service.api import (
    API_VERSION,
    MAX_BODY_BYTES,
    RETRY_AFTER_SECONDS,
    ServiceAPI,
)
from repro.service.jobs import JobManager
from repro.service.store import JobStore


@pytest.fixture
def api(tmp_path):
    """An API over a manager whose drain worker is NOT running, so queue
    contents are fully deterministic."""
    store = JobStore(tmp_path / "jobs.jsonl")
    cache = ResultCache(tmp_path / "cache")
    manager = JobManager(store, cache, queue_depth=2)
    yield ServiceAPI(manager)
    store.close()


def post_job(api, doc):
    return api.handle("POST", "/v1/jobs", json.dumps(doc).encode())


def merged(base, update):
    """``base`` with ``update`` merged in, nested mappings key by key."""
    if not (isinstance(base, dict) and isinstance(update, dict)):
        return update
    return {**base, **{key: merged(base.get(key), value)
                       for key, value in update.items()}}


#: Where a scenario document's sections live in a RunSpec document.
RUNSPEC_SECTIONS = {"imp": "imp_config", "system": "base_config"}


def assert_400_in_both_forms(api, update, message):
    """A valid tiny scenario given ``update``'s bad values is refused with
    a 400 naming ``message`` in the scenario form, and with its field-level
    part in the runspec form, where the same values sit in the full
    configs of a valid run."""
    body = ScenarioSpec.from_dict(tiny_scenario(1)).to_runspec().to_dict()
    runspec = merged(body, {RUNSPEC_SECTIONS.get(key, key): value
                            for key, value in update.items()})
    for doc, expected in ((dict(tiny_scenario(1), **update), message),
                          ({"runspec": runspec}, message.split(": ")[-1])):
        status, envelope, _ = post_job(api, doc)
        assert status == 400, envelope
        assert envelope["error"]["code"] == "invalid-scenario"
        assert expected in envelope["error"]["message"]


class TestProbesAndRegistries:
    def test_healthz_is_alive(self, api):
        status, envelope, _ = api.handle("GET", "/healthz")
        assert status == 200
        assert envelope == {"ok": True,
                            "data": {"status": "alive", "api": API_VERSION}}

    def test_readyz_reports_queue_state(self, api):
        status, envelope, _ = api.handle("GET", "/readyz")
        assert status == 200
        assert envelope["data"] == {"ready": True, "draining": False,
                                    "pending": 0, "queue_depth": 2}

    def test_readyz_503_while_draining(self, api):
        api.manager.begin_drain()
        status, envelope, headers = api.handle("GET", "/readyz")
        assert status == 503
        assert envelope["error"]["code"] == "draining"
        assert headers["Retry-After"] == str(RETRY_AFTER_SECONDS)

    def test_retry_after_clamps_to_the_drain_deadline(self, api):
        # Satellite regression: a 503 during a timed drain must never
        # advertise a Retry-After beyond the moment the server will be
        # gone — a client honoring the hint would otherwise wake up to a
        # dead socket.
        api.manager.begin_drain(timeout=1.0)
        _, _, headers = api.handle("GET", "/readyz")
        assert int(headers["Retry-After"]) <= 1
        api.manager.begin_drain(timeout=0.0)     # deadline only shrinks
        status, _, headers = api.handle("GET", "/readyz")
        assert status == 503
        assert headers["Retry-After"] == "0"
        _, _, headers = api.handle(
            "POST", "/v1/jobs", json.dumps(tiny_scenario(1)).encode())
        assert headers["Retry-After"] == "0"

    def test_retry_after_keeps_default_under_long_drains(self, api):
        # A generous (or unbounded) drain window must not inflate the
        # hint past the default.
        api.manager.begin_drain(timeout=3600.0)
        _, _, headers = api.handle("GET", "/readyz")
        assert headers["Retry-After"] == str(RETRY_AFTER_SECONDS)

    def test_registries_lists_every_component_registry(self, api):
        status, envelope, _ = api.handle("GET", "/v1/registries")
        assert status == 200
        registries = envelope["data"]["registries"]
        assert set(registries) == {"prefetchers", "dram-models",
                                   "workloads", "modes", "noc-kernels",
                                   "sweep-backends"}
        assert any(entry["name"] == "imp"
                   for entry in registries["prefetchers"])
        assert all(entry["description"]
                   for entries in registries.values() for entry in entries)

    def test_registries_filter_unavailable_backends(self, api, monkeypatch):
        # The compiled NoC kernel is listed only where its extension
        # imports: the endpoint describes what this host can run.
        from repro.noc.kernel import compiled_kernel_available
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        _, envelope, _ = api.handle("GET", "/v1/registries")
        names = [e["name"] for e in envelope["data"]["registries"]["noc-kernels"]]
        assert names == ["reference"]
        monkeypatch.delenv("REPRO_NO_CEXT")
        if compiled_kernel_available():
            _, envelope, _ = api.handle("GET", "/v1/registries")
            names = [e["name"]
                     for e in envelope["data"]["registries"]["noc-kernels"]]
            assert names == ["reference", "compiled"]


class TestSubmission:
    def test_submit_queues_with_202_and_links(self, api):
        doc = tiny_scenario(1)
        status, envelope, _ = post_job(api, doc)
        assert status == 202
        data = envelope["data"]
        assert data["id"] == scenario_digest(doc)
        assert data["status"] == "queued"
        assert data["created"] is True
        assert data["links"]["self"] == f"/v1/jobs/{data['id']}"
        assert data["links"]["result"] == f"/v1/results/{data['id']}"

    def test_resubmission_joins_with_200(self, api):
        doc = tiny_scenario(1)
        post_job(api, doc)
        status, envelope, _ = post_job(api, doc)
        assert status == 200
        assert envelope["data"]["created"] is False

    def test_invalid_json_is_400(self, api):
        status, envelope, _ = api.handle("POST", "/v1/jobs", b"{ not json")
        assert status == 400
        assert envelope["error"]["code"] == "invalid-json"

    def test_unknown_workload_400_lists_choices(self, api):
        doc = dict(tiny_scenario(1), workload="does_not_exist")
        status, envelope, _ = post_job(api, doc)
        assert status == 400
        assert envelope["error"]["code"] == "invalid-scenario"
        assert "indirect_stream" in envelope["error"]["message"]

    def test_bad_cache_geometry_is_400(self, api):
        doc = dict(tiny_scenario(1), system={"hierarchy": {"levels": [
            {"name": "l1", "size_bytes": 4096, "associativity": 0},
            {"name": "l2", "size_bytes": 16384, "associativity": 8,
             "scope": "shared"}]}})
        status, envelope, _ = post_job(api, doc)
        assert status == 400
        assert envelope["error"]["code"] == "invalid-scenario"
        assert "associativity must be positive" in envelope["error"]["message"]

    @pytest.mark.parametrize("system, message", [
        ({"partial_noc": True, "l1_sector_size": -8},
         "l1_sector_size must be positive"),
        ({"partial_noc": True, "l2_sector_size": 24},
         "l2_sector_size must be positive"),
        ({"l1d": {"size_bytes": 4096, "associativity": 4,
                  "hit_latency": -1}},
         "hit_latency must be non-negative"),
        ({"noc": {"link_bandwidth_flits": 0}},
         "bad system.noc: link_bandwidth_flits must be positive"),
        ({"noc": {"hop_latency": -2}},
         "bad system.noc: hop_latency must be non-negative"),
        ({"noc": {"header_flits": -1}},
         "bad system.noc: header_flits must be non-negative"),
        ({"dram": {"latency_cycles": -100}},
         "latency_cycles must be non-negative (an int >= 0, below 2**31), "
         "got -100"),
        ({"frequency_ghz": 0}, "bad system: frequency_ghz must be positive"),
        ({"rob_size": 0}, "bad system: rob_size must be positive"),
        ({"perfect_prefetch_lead": -5},
         "bad system: perfect_prefetch_lead must be non-negative"),
        ({"l2_assoc": 8.0},
         "l2_assoc must be positive (an int > 0, below 2**31), got 8.0"),
        ({"dram": {"bandwidth_bytes_per_cycle": 0}},
         "bad system.dram: bandwidth_bytes_per_cycle must be positive"),
        ({"dram": {"access_granularity": 0}},
         "bad system.dram: access_granularity must be positive"),
        ({"dram": {"model": "banked", "banks_per_rank": 0}},
         "bad system.dram: banks_per_rank must be positive"),
        ({"noc": {"hop_latency": 2 ** 63}},
         "bad system.noc: hop_latency must be non-negative (an int >= 0, "
         f"below 2**31), got {2 ** 63}"),
        ({"l1d": {"size_bytes": 2 ** 63, "associativity": 4}},
         "bad system.l1d: size_bytes must be positive"),
        ({"hierarchy": {"levels": [1, 2]}},
         "bad system.hierarchy: bad levels entry 1"),
        ({"hierarchy": {"levels": "ab"}},
         "bad system.hierarchy: levels must be a list, got 'ab'"),
        ({"hierarchy": {"levels": {"a": 1}}},
         "bad system.hierarchy: levels must be a list, got {'a': 1}"),
    ], ids=["sector-negative", "sector-not-dividing", "hit-latency",
            "noc-bandwidth-zero", "noc-hop-latency-negative",
            "noc-header-negative", "dram-latency", "frequency-zero",
            "rob-size-zero", "prefetch-lead", "l2-assoc-float",
            "dram-bandwidth-zero", "dram-granularity-zero",
            "dram-banks-zero", "noc-hop-latency-huge", "l1d-size-huge",
            "hierarchy-levels-not-mappings", "hierarchy-levels-string",
            "hierarchy-levels-mapping"])
    def test_bad_system_is_400(self, api, system, message):
        assert_400_in_both_forms(api, {"system": system}, message)

    @pytest.mark.parametrize("n_cores, message", [
        ("four", "n_cores must be a positive perfect square (1, 4, 16, 64, "
                 "...) for a 2-D mesh, got 'four'"),
        (4.0, "n_cores must be a positive perfect square (1, 4, 16, 64, "
              "...) for a 2-D mesh, got 4.0"),
        (3, "n_cores must be a positive perfect square"),
    ], ids=["string", "float", "not-square"])
    def test_bad_n_cores_is_400(self, api, n_cores, message):
        doc = dict(tiny_scenario(1), n_cores=n_cores)
        status, envelope, _ = post_job(api, doc)
        assert status == 400
        assert envelope["error"]["code"] == "invalid-scenario"
        assert message in envelope["error"]["message"]

    @pytest.mark.parametrize("imp, message", [
        ({"pt_size": 0}, "pt_size must be positive"),
        ({"l1_sector_size": 0, "partial_enabled": True},
         "l1_sector_size must be positive"),
        ({"confidence_threshold": 9}, "confidence_threshold must be in"),
        ({"rw_write_threshold": 4}, "rw_write_threshold must not exceed"),
        ({"stream": {"table_size": 0}},
         "bad imp.stream: table_size must be positive"),
        ({"pt_size": 16.5}, "bad imp: pt_size must be positive (an int > 0, "
                            "below 2**31), got 16.5"),
        ({"pt_size": True}, "bad imp: pt_size must be positive (an int > 0, "
                            "below 2**31), got True"),
        ({"throttle_low_ratio": 5}, "bad imp: throttle_low_ratio must be a "
                                    "finite number in [0, 1], got 5"),
        ({"shift_values": "abc"}, "bad imp: shift_values must be a "
                                  "non-empty list of ints, got 'abc'"),
    ], ids=["pt-zero", "l1-sector-zero", "confidence-high",
            "rw-threshold-high", "stream-table-zero", "pt-float", "pt-bool",
            "ratio-high", "shift-values-string"])
    def test_bad_imp_is_400(self, api, imp, message):
        assert_400_in_both_forms(api, {"imp": imp}, message)

    @pytest.mark.parametrize("update, message", [
        ({"workload_params": {"n_indices": 0}},
         "bad workload_params: n_indices must be positive (an int > 0, "
         "below 2**31), got 0"),
        ({"workload_params": {"n_indices": 2 ** 63}},
         "n_indices must be positive (an int > 0, below 2**31), "
         f"got {2 ** 63}"),
        ({"workload_params": {"n_indices": -5}}, "n_indices must be positive"),
        ({"workload_params": {"n_indices": "abc"}}, "got 'abc'"),
        ({"workload_params": {"n_indices": 256.0}}, "got 256.0"),
        ({"workload_params": {"n_data": 0}}, "n_data must be positive"),
        ({"workload_params": {"seed": "x"}},
         "seed must be non-negative (an int >= 0, below 2**31), got 'x'"),
        ({"workload_params": {"bogus": 1}},
         "unknown parameter key(s) 'bogus'"),
        ({"sw_prefetch_distance": -3},
         "sw_prefetch_distance must be positive (an int > 0, below 2**31), "
         "got -3"),
    ], ids=["n-indices-zero", "n-indices-huge", "n-indices-negative", "n-indices-string",
            "n-indices-float", "n-data-zero", "seed-string", "unknown-key",
            "sw-distance-negative"])
    def test_bad_workload_params_is_400(self, api, update, message):
        assert_400_in_both_forms(api, update, message)

    def test_non_object_body_is_400(self, api):
        status, envelope, _ = api.handle("POST", "/v1/jobs", b"[1, 2]")
        assert status == 400
        assert envelope["error"]["code"] == "invalid-scenario"

    def test_oversized_body_is_413(self, api):
        body = b"x" * (MAX_BODY_BYTES + 1)
        status, envelope, _ = api.handle("POST", "/v1/jobs", body)
        assert status == 413
        assert envelope["error"]["code"] == "body-too-large"

    def test_queue_full_is_429_with_retry_after(self, api):
        post_job(api, tiny_scenario(1))     # queue_depth=2, no worker
        post_job(api, tiny_scenario(2))
        status, envelope, headers = post_job(api, tiny_scenario(3))
        assert status == 429
        assert envelope["error"]["code"] == "queue-full"
        assert headers["Retry-After"] == str(RETRY_AFTER_SECONDS)

    def test_draining_rejects_submissions_503(self, api):
        api.manager.begin_drain()
        status, envelope, headers = post_job(api, tiny_scenario(1))
        assert status == 503
        assert envelope["error"]["code"] == "draining"
        assert "Retry-After" in headers


class TestLookups:
    def test_unknown_job_is_404(self, api):
        status, envelope, _ = api.handle("GET", f"/v1/jobs/{'a' * 64}")
        assert status == 404
        assert envelope["error"]["code"] == "job-not-found"

    def test_bad_result_digest_is_400(self, api):
        status, envelope, _ = api.handle("GET", "/v1/results/abc123")
        assert status == 400
        assert envelope["error"]["code"] == "bad-digest"

    def test_missing_result_is_404(self, api):
        status, envelope, _ = api.handle("GET", f"/v1/results/{'a' * 64}")
        assert status == 404
        assert envelope["error"]["code"] == "result-not-found"

    def test_unrouted_paths_are_404(self, api):
        status, envelope, _ = api.handle("GET", "/v2/jobs")
        assert status == 404
        status, envelope, _ = api.handle("POST", "/v1/registries", b"{}")
        assert status == 404

    def test_unsupported_method_is_405(self, api):
        status, envelope, _ = api.handle("DELETE", "/v1/jobs")
        assert status == 405
        assert envelope["error"]["code"] == "method-not-allowed"

    def test_jobs_listing_carries_queue_counters(self, api):
        post_job(api, tiny_scenario(1))
        status, envelope, _ = api.handle("GET", "/v1/jobs")
        assert status == 200
        data = envelope["data"]
        assert len(data["jobs"]) == 1
        assert data["queue"]["pending"] == 1
        assert data["queue"]["by_status"] == {"queued": 1}


class TestLiveServer:
    """End-to-end over a real socket: submit, poll, fetch the result."""

    def test_submit_poll_result_round_trip(self, app):
        doc = tiny_scenario(5)
        status, envelope, _ = http("POST", f"{app.url}/v1/jobs", doc)
        assert status == 202
        job_id = envelope["data"]["id"]

        final = poll_job(app.url, job_id)
        assert final["status"] == "done"
        assert final["simulated"] is True
        assert final["cached"] is False
        fingerprint = final["fingerprint"]
        assert fingerprint["runtime_cycles"] > 0

        status, envelope, _ = http("GET", f"{app.url}/v1/results/{job_id}")
        assert status == 200
        assert envelope["data"]["record"]["fingerprint"] == fingerprint

        # Resubmission after completion: instant, joined, same fingerprint.
        status, envelope, _ = http("POST", f"{app.url}/v1/jobs", doc)
        assert status == 200
        assert envelope["data"]["status"] == "done"
        assert envelope["data"]["fingerprint"] == fingerprint

    def test_golden_scenario_matches_its_pinned_fingerprint(self, app):
        scenarios = Path(__file__).resolve().parents[2] / "examples/scenarios"
        doc = json.loads((scenarios / "tiny_smoke.json").read_text())
        expected = json.loads(
            (scenarios / "tiny_smoke.fingerprint.json").read_text())
        status, envelope, _ = http("POST", f"{app.url}/v1/jobs", doc)
        assert status == 202
        final = poll_job(app.url, envelope["data"]["id"], deadline=120.0)
        assert final["status"] == "done"
        assert final["fingerprint"] == expected["fingerprint"]
        assert final["simulated"] is True
        assert final["cached"] is False

    def test_cache_warm_submission_never_simulates(self, app):
        doc = tiny_scenario(6)
        _, envelope, _ = http("POST", f"{app.url}/v1/jobs", doc)
        poll_job(app.url, envelope["data"]["id"])
        before = app.manager.simulations_run

        status, envelope, _ = http("POST", f"{app.url}/v1/jobs", doc)
        assert status == 200
        assert app.manager.simulations_run == before

    def test_failed_job_carries_failure_record(self, app, monkeypatch):
        import repro.service.jobs as jobs_module
        from repro.experiments.sweep import FailureRecord, SweepError

        class ExhaustedEngine:
            def __init__(self, **kwargs):
                self.simulations_run = 0

            def run(self, specs, workload_lookup=None):
                raise SweepError([FailureRecord.for_spec(
                    specs[0], "transient", 3, "injected: still failing")], {})

        monkeypatch.setattr(jobs_module, "SweepEngine", ExhaustedEngine)
        doc = tiny_scenario(7)
        status, envelope, _ = http("POST", f"{app.url}/v1/jobs", doc)
        assert status == 202
        final = poll_job(app.url, envelope["data"]["id"])
        assert final["status"] == "failed"
        failure = final["failure"]
        assert failure["kind"] == "transient"
        assert failure["attempts"] == 3
        assert failure["digest"] == envelope["data"]["id"]

        # A resubmission re-queues the failed job for another try.
        status, envelope, _ = http("POST", f"{app.url}/v1/jobs", doc)
        assert status == 202
        assert envelope["data"]["created"] is True
