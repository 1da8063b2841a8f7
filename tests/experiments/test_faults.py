"""Deterministic fault injection: every recovery path of the sweep engine
is exercised under the :mod:`repro.experiments.faults` harness and proven
to converge to stat fingerprints **bit-identical** to an undisturbed
serial sweep — the PR's acceptance criterion.
"""

import json

import pytest

from repro.experiments.faults import (
    FaultInjectionError,
    FaultPlan,
    TransientFault,
)
from repro.experiments.sweep import (
    ResultCache,
    RunPolicy,
    RunSpec,
    SweepEngine,
    SweepError,
    SweepJournal,
)
from repro.workloads.synthetic import IndirectStreamWorkload

N_CORES = 4

#: Retry budget for chaos runs: a batch may contain several injected
#: killers, each of which charges its batch-mates one attempt.
CHAOS_POLICY = RunPolicy(retries=4, backoff=0.01)


def tiny_specs(modes=("base", "imp", "swpref")):
    workload = IndirectStreamWorkload(n_indices=256, n_data=1024, seed=3)
    return [RunSpec.for_run(workload, mode, N_CORES) for mode in modes]


@pytest.fixture(scope="module")
def golden():
    """Fingerprints of the undisturbed serial sweep."""
    results = SweepEngine(jobs=1).run(tiny_specs())
    return {spec.digest(): result.stats.fingerprint()
            for spec, result in results.items()}


def assert_bit_identical(results, golden):
    assert len(results) == len(golden)
    for spec, result in results.items():
        assert result.stats.fingerprint() == golden[spec.digest()]


class TestFaultPlan:
    def test_decisions_are_deterministic_and_seeded(self):
        plan = FaultPlan(seed=5, kill=0.3, transient=0.3, stall=0.3)
        decisions = [plan.decide(f"digest-{i}", 0) for i in range(64)]
        assert decisions == [plan.decide(f"digest-{i}", 0)
                             for i in range(64)]
        # All three kinds appear over a reasonable sample...
        assert {"kill", "transient", "stall"} <= set(d for d in decisions if d)
        # ...and a different seed disturbs different runs.
        other = FaultPlan(seed=6, kill=0.3, transient=0.3, stall=0.3)
        assert decisions != [other.decide(f"digest-{i}", 0)
                             for i in range(64)]

    def test_attempts_beyond_the_bound_run_clean(self):
        plan = FaultPlan(seed=1, kill=1.0, max_faults_per_spec=2)
        assert plan.decide("d", 0) == "kill"
        assert plan.decide("d", 1) == "kill"
        assert plan.decide("d", 2) is None

    def test_transient_raises_everywhere(self):
        plan = FaultPlan(seed=1, transient=1.0)
        with pytest.raises(TransientFault):
            plan.apply("d", 0, in_worker=False)

    def test_kill_and_stall_suppressed_in_process(self):
        # Would take the test process down / hang it if not suppressed.
        FaultPlan(seed=1, kill=1.0).apply("d", 0, in_worker=False)
        FaultPlan(seed=1, stall=1.0, stall_seconds=600).apply(
            "d", 0, in_worker=False)

    def test_rate_validation(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(kill=1.5)
        with pytest.raises(FaultInjectionError):
            FaultPlan(kill=0.5, transient=0.4, stall=0.2)
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"seed": 1, "explode": True})

    @pytest.mark.parametrize("doc, field", [
        ({"kill": "x"}, "kill"), ({"kill": True}, "kill"),
        ({"seed": "x"}, "seed"), ({"seed": -1}, "seed"),
        ({"max_faults_per_spec": 1.5}, "max_faults_per_spec"),
        ({"interrupt_after": "x"}, "interrupt_after"),
        ({"stall_seconds": -1}, "stall_seconds"),
    ])
    def test_every_field_is_declared(self, doc, field):
        with pytest.raises(FaultInjectionError, match=f"^{field} must be"):
            FaultPlan.from_dict(doc)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS",
                           json.dumps({"seed": 9, "transient": 0.5}))
        plan = FaultPlan.from_env()
        assert plan == FaultPlan(seed=9, transient=0.5)
        monkeypatch.setenv("REPRO_FAULTS", "{ not json")
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_env()

    def test_round_trips(self):
        plan = FaultPlan(seed=4, kill=0.2, corrupt=0.3, interrupt_after=7)
        assert FaultPlan.from_dict(plan.to_dict()) == plan


class TestTransientRecovery:
    def test_serial_retries_converge_bit_identically(self, golden):
        engine = SweepEngine(jobs=1, policy=RunPolicy(retries=2,
                                                      backoff=0.01),
                             faults=FaultPlan(seed=5, transient=0.9))
        assert_bit_identical(engine.run(tiny_specs()), golden)

    def test_parallel_retries_converge_bit_identically(self, golden):
        engine = SweepEngine(jobs=2, policy=CHAOS_POLICY,
                             faults=FaultPlan(seed=5, transient=0.9))
        assert_bit_identical(engine.run(tiny_specs()), golden)

    def test_one_bad_run_never_poisons_its_batch_mates(self, golden):
        # All three specs share one build_key (one worker batch); the
        # outcome-envelope protocol must retry only the disturbed run.
        # The disturbed subset depends on the spec digests (which move
        # whenever a config field is added), so search for a seed that
        # disturbs a strict subset instead of hard-coding one.
        for seed in range(100):
            plan = FaultPlan(seed=seed, transient=0.4)
            disturbed = [spec for spec in tiny_specs()
                         if plan.decide(spec.digest(), 0) == "transient"]
            if 1 <= len(disturbed) < 3:
                break
        else:
            raise AssertionError("no seed disturbs a strict subset")
        engine = SweepEngine(jobs=2, policy=CHAOS_POLICY, faults=plan)
        assert_bit_identical(engine.run(tiny_specs()), golden)


class TestWorkerDeathRecovery:
    def test_broken_pool_is_rebuilt_and_converges(self, golden):
        plan = FaultPlan(seed=7, kill=0.9)
        engine = SweepEngine(jobs=2, policy=CHAOS_POLICY, faults=plan)
        assert_bit_identical(engine.run(tiny_specs()), golden)
        assert engine.backend.pool_restarts >= 1
        assert not engine.backend.degraded

    def test_unusable_pool_degrades_to_serial(self, golden):
        # Every attempt kills its worker, so the pool can never make
        # progress; after max_pool_restarts the engine must fall back to
        # in-process execution, where kills are suppressed.
        plan = FaultPlan(seed=7, kill=1.0, max_faults_per_spec=1000)
        engine = SweepEngine(
            jobs=2, faults=plan,
            policy=RunPolicy(retries=1000, backoff=0.0,
                             max_pool_restarts=2))
        assert_bit_identical(engine.run(tiny_specs()), golden)
        assert engine.backend.degraded
        assert engine.backend.pool_restarts == 3


class TestTimeoutRecovery:
    def test_stalled_run_times_out_and_retries_clean(self, golden):
        # One batch stalls far past the per-run budget; the parent must
        # reclaim the stuck worker, charge a timeout, and the clean retry
        # (attempts beyond the bound are undisturbed) must converge.
        specs = tiny_specs(("base", "imp"))
        plan = FaultPlan(seed=3, stall=0.9, stall_seconds=120.0)
        assert any(plan.decide(spec.digest(), 0) == "stall"
                   for spec in specs)
        engine = SweepEngine(jobs=2, faults=plan,
                             policy=RunPolicy(timeout=1.5, retries=3,
                                              backoff=0.01))
        assert_bit_identical(
            engine.run(specs),
            {digest: fp for digest, fp in golden.items()
             if digest in {spec.digest() for spec in specs}})
        assert engine.backend.pool_restarts >= 1


class TestPermanentFailures:
    def test_keep_going_finishes_everything_then_raises(self):
        # One spec fails on every attempt; the other two must complete.
        specs = tiny_specs()
        victim = specs[0].digest()

        class TargetedPlan(FaultPlan):
            def decide(self, digest, attempt):
                return "transient" if digest == victim else None

        engine = SweepEngine(jobs=1, faults=TargetedPlan(),
                             policy=RunPolicy(retries=1, backoff=0.0))
        with pytest.raises(SweepError) as excinfo:
            engine.run(specs)
        error = excinfo.value
        assert len(error.failures) == 1
        assert error.failures[0].digest == victim
        assert error.failures[0].kind == "transient"
        assert error.failures[0].attempts == 2
        assert len(error.results) == 2
        assert "1 run(s) permanently failed" in str(error)

    def test_fail_fast_abandons_outstanding_work(self):
        engine = SweepEngine(
            jobs=1, faults=FaultPlan(seed=1, transient=1.0,
                                     max_faults_per_spec=1000),
            policy=RunPolicy(retries=0, backoff=0.0, keep_going=False))
        with pytest.raises(SweepError) as excinfo:
            engine.run(tiny_specs())
        assert len(excinfo.value.failures) == 1

    def test_fail_fast_state_ends_with_its_run(self, golden):
        # A fail-fast run that abandoned its work must not leave the
        # engine abandoned: the next run on the same engine executes its
        # specs (an empty answer would be a KeyError for the caller).
        engine = SweepEngine(
            jobs=1, backend="serial",
            faults=FaultPlan(transient=1.0, max_faults_per_spec=5),
            policy=RunPolicy(retries=0, backoff=0, keep_going=False))
        first, second = tiny_specs(("base", "imp"))
        with pytest.raises(SweepError):
            engine.run([first])
        engine.faults = None
        results = engine.run([second])
        assert list(results) == [second]
        digest = second.digest()
        assert_bit_identical(results, {digest: golden[digest]})

    def test_failure_kinds_are_distinguished(self):
        from repro.experiments.sweep import FailureRecord

        spec = tiny_specs()[0]
        record = FailureRecord.for_spec(spec, "timeout", 3, "too slow")
        doc = record.to_dict()
        assert doc["kind"] == "timeout"
        assert doc["workload"] == spec.workload
        assert doc["digest"] == spec.digest()


class TestInterruptAndResume:
    def test_injected_interrupt_then_resume_is_bit_identical(
            self, golden, tmp_path):
        cache_dir = tmp_path / "cache"
        journal_path = cache_dir / "journal.jsonl"
        first = SweepEngine(
            jobs=1, cache=ResultCache(cache_dir),
            journal=SweepJournal(journal_path),
            faults=FaultPlan(seed=1, interrupt_after=1))
        with pytest.raises(KeyboardInterrupt):
            first.run(tiny_specs())
        journal = SweepJournal(journal_path, resume=True)
        assert journal.resumed == 1
        cache = ResultCache(cache_dir)
        resumed = SweepEngine(jobs=1, cache=cache, journal=journal)
        assert_bit_identical(resumed.run(tiny_specs()), golden)
        assert resumed.simulations_run == 2
        assert cache.hits == 1

    def test_parallel_interrupt_cleans_up_the_pool(self, golden, tmp_path):
        cache_dir = tmp_path / "cache"
        engine = SweepEngine(
            jobs=2, cache=ResultCache(cache_dir), policy=CHAOS_POLICY,
            journal=SweepJournal(cache_dir / "journal.jsonl"),
            faults=FaultPlan(seed=1, interrupt_after=1))
        with pytest.raises(KeyboardInterrupt):
            engine.run(tiny_specs())
        assert engine.backend._pool is None  # terminated, not leaked
        resumed = SweepEngine(jobs=2, cache=ResultCache(cache_dir),
                              policy=CHAOS_POLICY)
        assert_bit_identical(resumed.run(tiny_specs()), golden)


class TestCacheCorruptionInjection:
    def test_torn_publishes_quarantine_and_heal(self, golden, tmp_path):
        cache_dir = tmp_path / "cache"
        chaotic = SweepEngine(jobs=1, cache=ResultCache(cache_dir),
                              faults=FaultPlan(seed=1, corrupt=1.0))
        assert_bit_identical(chaotic.run(tiny_specs()), golden)
        # Every record on disk is now torn; a fresh sweep must quarantine
        # and recompute them all, still bit-identically.
        cache = ResultCache(cache_dir)
        healer = SweepEngine(jobs=1, cache=cache)
        assert_bit_identical(healer.run(tiny_specs()), golden)
        assert cache.quarantined == 3
        assert healer.simulations_run == 3


class TestChaosSmoke:
    def test_chaos_smoke_converges(self, tmp_path, capsys):
        """The self-checking chaos smoke (``python -m
        repro.experiments.faults``): a parallel sweep disturbed by seeded
        worker kills, transients, stalls past the timeout, a mid-sweep
        interrupt and a torn record, resumed to completion, ends
        bit-identical to a clean serial sweep with the torn record
        quarantined."""
        from repro.experiments.faults import main

        assert main(["--jobs", "2", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "fingerprints bit-identical" in out
        assert ", 1 quarantined," in out
