"""Chaos proof for the sweep service: kill the server mid-sweep (both via
the deterministic fault plan and a literal SIGKILL), restart it on the
same cache directory, and prove bit-identical fingerprints with zero
duplicate simulations and no accepted job lost."""

import json
import signal

from svc_helpers import http, journal_entries, poll_job, scenario_digest, \
    serve_env, simulated_done_counts, start_serve, stop_serve

from repro.experiments.faults import KILL_EXIT_CODE, FaultPlan
from repro.experiments.scenario import ScenarioSpec
from repro.experiments.sweep import SweepEngine
from repro.service.app import JOB_STORE_FILENAME


def clean_fingerprint(doc):
    """The ground-truth fingerprint, simulated in this (test) process."""
    spec = ScenarioSpec.from_dict(doc)
    runspec = spec.to_runspec()
    results = SweepEngine(jobs=1).run(
        [runspec], workload_lookup=lambda _: spec.resolve()[0])
    return results[runspec].stats.fingerprint()


def moderate_scenario(seed):
    """Big enough that a six-scenario sweep takes a few seconds — a
    window to SIGKILL the server mid-sweep."""
    return {"name": f"chaos-{seed}", "workload": "indirect_stream",
            "workload_params": {"n_indices": 1024, "n_data": 4096,
                                "seed": seed},
            "mode": "imp", "n_cores": 4}


class TestFaultInjectedKillWindows:
    """Deterministic kills in both crash windows of one sweep: before the
    cache publish (the run must re-execute exactly once) and after it
    (the completed run must never re-execute)."""

    def find_seed(self, digests, rate=0.25):
        # decide_serve_kill is pure, so the seed that produces
        # [survive, post-kill, pre-kill] over our FIFO submission order
        # can be found without running anything.
        for seed in range(20000):
            plan = FaultPlan(seed=seed, serve_kill=rate,
                             serve_kill_post=rate)
            if [plan.decide_serve_kill(digest, 0)
                    for digest in digests] == [None, "post", "pre"]:
                return seed
        raise AssertionError("no kill seed found (plan draw changed?)")

    def test_kill_windows_recover_losslessly(self, tmp_path):
        # Big enough that submitting all three comfortably outruns the
        # first execution (admission never touches the simulator).
        docs = [{"name": f"kw-{seed}", "workload": "indirect_stream",
                 "workload_params": {"n_indices": 1024, "n_data": 4096,
                                     "seed": seed},
                 "mode": "imp", "n_cores": 1} for seed in (1, 2, 3)]
        digests = [scenario_digest(doc) for doc in docs]
        baseline = {digest: clean_fingerprint(doc)
                    for digest, doc in zip(digests, docs)}
        seed = self.find_seed(digests)
        cache_dir = tmp_path / "cache"

        faults = json.dumps({"seed": seed, "serve_kill": 0.25,
                             "serve_kill_post": 0.25})
        process, url, _ = start_serve(cache_dir,
                                      env=serve_env(REPRO_FAULTS=faults))
        for doc in docs:
            status, envelope, _ = http("POST", f"{url}/v1/jobs", doc)
            assert status == 202
        # d0 completes, d1 simulates + publishes then dies post-publish
        # (d2's pre-publish kill is never reached this boot).
        process.wait(timeout=60)
        assert process.returncode == KILL_EXIT_CODE

        process, url, startup = start_serve(cache_dir)  # no faults now
        assert any("recovered 2 interrupted job(s)" in line
                   for line in startup)
        # Resubmission after the crash: every job already exists — the
        # accepted work survived the kill.
        for doc in docs:
            status, envelope, _ = http("POST", f"{url}/v1/jobs", doc)
            assert envelope["data"]["created"] is False
        finals = {digest: poll_job(url, digest) for digest in digests}
        code, _ = stop_serve(process)
        assert code == 143

        assert all(final["status"] == "done"
                   for final in finals.values())
        # Bit-identical fingerprints across the crash.
        for digest in digests:
            assert finals[digest]["fingerprint"] == baseline[digest]
        # d1 was published before the kill: completed from the cache,
        # provably not re-simulated.
        assert finals[digests[1]]["cached"] is True
        assert finals[digests[1]]["simulated"] is False
        # d2 never ran before the kill: simulated exactly once, after it.
        assert finals[digests[2]]["simulated"] is True

        journal = cache_dir / JOB_STORE_FILENAME
        counts = simulated_done_counts(journal)
        assert counts.get(digests[0], 0) == 1
        assert counts.get(digests[1], 0) == 0   # done record was lost,
        assert (cache_dir / f"{digests[1]}.json").exists()  # result wasn't
        assert counts.get(digests[2], 0) == 1
        assert all(count <= 1 for count in counts.values())
        boots = [entry for entry in journal_entries(journal)
                 if "service" in entry]
        assert len(boots) == 2


class TestSigkillMidSweep:
    def test_sigkill_restart_bit_identical_no_duplicates(self, tmp_path):
        docs = [moderate_scenario(seed) for seed in range(1, 7)]
        digests = [scenario_digest(doc) for doc in docs]
        baseline = {digest: clean_fingerprint(doc)
                    for digest, doc in zip(digests, docs)}
        cache_dir = tmp_path / "cache"

        process, url, _ = start_serve(cache_dir)
        for doc in docs:
            status, _, _ = http("POST", f"{url}/v1/jobs", doc)
            assert status == 202
        # SIGKILL the instant the first job lands — mid-sweep, with the
        # rest queued or running.
        poll_job(url, digests[0], deadline=60)
        process.kill()
        process.wait(timeout=30)
        assert process.returncode == -signal.SIGKILL

        process, url, _ = start_serve(cache_dir)
        for doc in docs:                     # idempotent resubmission
            _, envelope, _ = http("POST", f"{url}/v1/jobs", doc)
            assert envelope["data"]["created"] is False
        finals = {digest: poll_job(url, digest, deadline=120)
                  for digest in digests}
        code, output = stop_serve(process)
        assert code == 143
        assert "drained cleanly" in output

        # No accepted job lost, every fingerprint bit-identical.
        assert all(final["status"] == "done" for final in finals.values())
        for digest in digests:
            assert finals[digest]["fingerprint"] == baseline[digest]
        # Zero duplicate simulations across both server lifetimes.
        counts = simulated_done_counts(cache_dir / JOB_STORE_FILENAME)
        assert all(count <= 1 for count in counts.values())
        # The first job survived the kill as completed work: its restart
        # lifetime added no second simulated record.
        assert counts.get(digests[0], 0) == 1


def test_decide_serve_kill_is_pure_and_budgeted():
    plan = FaultPlan(seed=7, serve_kill=0.5, serve_kill_post=0.5)
    digest = "ab" * 32
    decisions = {plan.decide_serve_kill(digest, 0) for _ in range(32)}
    assert len(decisions) == 1
    # Beyond the per-spec fault budget nothing fires.
    assert plan.decide_serve_kill(digest, plan.max_faults_per_spec) is None
