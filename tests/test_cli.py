"""Tests for the command-line interface (repro.cli)."""

import glob
import io
import json

import pytest

from repro.cli import FIGURES, main
from repro.registry import NOC_KERNELS


def run_cli(*argv) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


class TestListAndCost:
    def test_list_workloads_names_all_seven(self):
        output = run_cli("list", "workloads")
        for name in ("pagerank", "tri_count", "graph500", "sgd", "lsh",
                     "spmv", "symgs"):
            assert name in output
        assert "dense_stencil" in output

    def test_cost_reports_kbits(self):
        output = run_cli("cost")
        assert "imp_total_kbits" in output
        assert "gp_total_bytes" in output


class TestRun:
    def test_run_indirect_stream_with_imp(self):
        output = run_cli("run", "indirect_stream", "--cores", "4",
                         "--prefetcher", "imp")
        assert "runtime (cycles)" in output
        assert "prefetch coverage" in output

    def test_run_with_partial_and_ooo_flags(self):
        output = run_cli("run", "streaming", "--cores", "4", "--partial",
                         "--ooo", "--prefetcher", "stream")
        assert "NoC traffic" in output

    def test_unknown_workload_exits_with_error(self):
        with pytest.raises(SystemExit):
            run_cli("run", "does_not_exist")

    def test_unknown_prefetcher_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            run_cli("run", "streaming", "--prefetcher", "oracle")


@pytest.mark.parametrize("argv", [
    ("run", "spmv"),
    ("compare", "spmv"),
    ("figure", "fig9"),
    ("sweep", "--figures", "fig1", "--cores", "16"),
    ("profile", "spmv"),
], ids=["run", "compare", "figure", "sweep", "profile"])
@pytest.mark.parametrize("cores", ["5", "0", "-4"])
def test_bad_core_count_is_a_clean_error(argv, cores):
    """A core count the mesh cannot tile is refused before any work, with
    one error line naming the rule, by every command taking --cores."""
    out = io.StringIO()
    assert main([*argv, "--cores", cores], out=out) == 2
    assert out.getvalue().splitlines() == [
        f"error: --cores: n_cores must be a positive perfect square "
        f"(1, 4, 16, 64, ...) for a 2-D mesh, got {cores}"]


class TestCompareAndFigure:
    def test_compare_prints_all_requested_modes(self):
        output = run_cli("compare", "indirect_stream", "--cores", "4",
                         "--modes", "ideal", "base", "imp", "perfpref")
        for mode in ("ideal", "base", "imp", "perfpref"):
            assert mode in output

    def test_figure_names_registered(self):
        assert {"fig1", "fig2", "fig9", "table3", "fig12"} <= set(FIGURES)

    def test_figure_cost_free_generation(self, tmp_path):
        # fig14 on a tiny scale exercises the runner path end to end.
        output = run_cli("figure", "fig1", "--cores", "4", "--scale", "0.05",
                         "--cache-dir", str(tmp_path / "cache"))
        assert "workload" in output
        assert "avg" in output

    def test_figure_no_cache_writes_nothing(self, tmp_path):
        run_cli("figure", "fig1", "--cores", "4", "--scale", "0.05",
                "--cache-dir", str(tmp_path / "cache"), "--no-cache")
        assert not (tmp_path / "cache").exists()


class TestSweep:
    def test_sweep_builds_figures_and_reports_cache_reuse(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_cli("sweep", "--figures", "fig1", "fig2", "--cores", "4",
                       "--scale", "0.05", "--jobs", "2",
                       "--cache-dir", cache_dir)
        assert "== fig1 ==" in cold and "== fig2 ==" in cold
        assert "[sweep]" in cold
        # Warm rerun: every run comes from the on-disk cache.
        warm = run_cli("sweep", "--figures", "fig1", "fig2", "--cores", "4",
                       "--scale", "0.05", "--cache-dir", cache_dir)
        assert "0 simulated" in warm
        # The figures themselves are identical to the cold run.
        assert warm.split("[sweep]")[0] == cold.split("[sweep]")[0]


class TestRegistryList:
    def test_list_shows_all_registries(self):
        output = run_cli("list")
        for heading in ("prefetchers", "dram-models", "workloads", "modes"):
            assert heading in output
        # Entries appear with their descriptions.
        assert "imp" in output
        assert "Indirect Memory Prefetcher" in output
        assert "imp_partial_noc_dram" in output

    def test_list_single_registry(self):
        output = run_cli("list", "modes")
        assert "imp_partial_noc_dram" in output
        assert "dram-models" not in output

    def test_list_includes_noc_kernels(self):
        output = run_cli("list", "noc-kernels")
        assert "reference" in output

    def test_list_hides_unavailable_compiled_kernel(self, monkeypatch):
        from repro.noc.kernel import compiled_kernel_available

        def listed(output):
            # First token of each entry line ("  name  description...").
            return [line.split()[0] for line in output.splitlines()
                    if line.startswith("  ")]

        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        assert listed(run_cli("list", "noc-kernels")) == ["reference"]
        monkeypatch.delenv("REPRO_NO_CEXT")
        if compiled_kernel_available():
            assert listed(run_cli("list", "noc-kernels")) == [
                "reference", "compiled"]


class TestScenario:
    SCENARIO = "examples/scenarios/tiny_smoke.json"
    FINGERPRINT = "examples/scenarios/tiny_smoke.fingerprint.json"

    def test_scenario_run_prints_summary(self):
        output = run_cli("run", "--scenario", self.SCENARIO)
        assert "scenario          : tiny-smoke" in output
        assert "hierarchy         : l1(private) -> l2(shared) -> dram" in output
        assert "fingerprint       :" in output

    @pytest.mark.parametrize("kernel", NOC_KERNELS.names())
    def test_scenario_fingerprint_check_passes(self, kernel, monkeypatch):
        # The golden replays bit for bit under every NoC kernel backend.
        if not NOC_KERNELS.get(kernel).is_available():
            pytest.skip(f"backend {kernel!r} unavailable on this host")
        monkeypatch.setenv("REPRO_NOC_KERNEL", kernel)
        output = run_cli("run", "--scenario", self.SCENARIO,
                         "--expect-fingerprint", self.FINGERPRINT)
        assert "fingerprint check : ok" in output

    @pytest.mark.parametrize("argv", [
        ("run", "indirect_stream", "--cores", "4"),
        ("run", "--scenario", SCENARIO),
    ], ids=["workload", "scenario"])
    @pytest.mark.parametrize("name", ["bogus", "fused"])
    def test_unknown_kernel_env_override_is_a_clean_error(self, argv, name,
                                                          monkeypatch):
        monkeypatch.setenv("REPRO_NOC_KERNEL", name)
        out = io.StringIO()
        assert main(list(argv), out=out) == 2
        lines = out.getvalue().splitlines()
        assert lines == [
            f"error: $REPRO_NOC_KERNEL: unknown NoC kernel {name!r}; "
            f"valid NoC kernels: reference, compiled"]

    @pytest.mark.parametrize("plan, message", [
        ({"kill": "x"}, "kill must be a finite number in [0, 1], got 'x'"),
        ({"seed": "x"}, "seed must be non-negative"),
        ({"max_faults_per_spec": 1.5}, "max_faults_per_spec must be"),
        ({"kill": 0.5, "stall": 0.6}, "must sum to at most 1"),
    ], ids=["kill-string", "seed-string", "max-faults-float", "sum-high"])
    def test_bad_fault_plan_is_a_clean_error(self, plan, message,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", json.dumps(plan))
        out = io.StringIO()
        assert main(["run", "--scenario", self.SCENARIO], out=out) == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: $REPRO_FAULTS: ")
        assert message in lines[0]

    def test_three_level_scenario_runs(self):
        output = run_cli(
            "run", "--scenario", "examples/scenarios/imp_l2_three_level.json",
            "--expect-fingerprint",
            "examples/scenarios/imp_l2_three_level.fingerprint.json")
        assert "l1(private) -> l2(private) -> l3(shared) -> dram" in output
        assert "prefetch: imp@l2" in output
        assert "fingerprint check : ok" in output

    def test_fingerprint_mismatch_fails(self, tmp_path):
        import io
        import json

        bogus = tmp_path / "wrong.json"
        bogus.write_text(json.dumps({"fingerprint": {"runtime_cycles": 1}}))
        out = io.StringIO()
        code = main(["run", "--scenario", self.SCENARIO,
                     "--expect-fingerprint", str(bogus)], out=out)
        assert code == 1
        assert "FINGERPRINT MISMATCH" in out.getvalue()

    def test_write_fingerprint(self, tmp_path):
        import json

        target = tmp_path / "fp.json"
        run_cli("run", "--scenario", self.SCENARIO,
                "--write-fingerprint", str(target))
        doc = json.loads(target.read_text())
        assert doc["scenario"] == "tiny-smoke"
        assert doc["fingerprint"]["runtime_cycles"] > 0

    def test_workload_and_scenario_are_exclusive(self):
        import io

        out = io.StringIO()
        code = main(["run", "spmv", "--scenario", self.SCENARIO], out=out)
        assert code == 2

    def test_run_without_workload_or_scenario_errors(self):
        import io

        out = io.StringIO()
        code = main(["run"], out=out)
        assert code == 2
        assert "repro list" in out.getvalue()

    def test_invalid_scenario_file_reports_error(self, tmp_path):
        import io

        bad = tmp_path / "bad.json"
        bad.write_text('{"workload": "minesweeper"}')
        out = io.StringIO()
        code = main(["run", "--scenario", str(bad)], out=out)
        assert code == 2
        assert "minesweeper" in out.getvalue()

    def test_plain_run_flags_rejected_with_scenario(self):
        import io

        out = io.StringIO()
        code = main(["run", "--scenario", self.SCENARIO, "--cores", "64"],
                    out=out)
        assert code == 2
        assert "--cores" in out.getvalue()

    def test_missing_expectation_file_fails_cleanly(self, tmp_path):
        import io

        out = io.StringIO()
        code = main(["run", "--scenario", self.SCENARIO,
                     "--expect-fingerprint", str(tmp_path / "absent.json")],
                    out=out)
        assert code == 2
        assert "cannot read expected fingerprint" in out.getvalue()


class TestProfileCommand:
    def test_profile_reports_subsystem_attribution(self):
        output = run_cli("profile", "indirect_stream", "--prefetcher",
                         "stream", "--quick", "--cores", "4")
        assert "subsystem" in output
        for bucket in ("noc", "cache", "prefetcher"):
            assert bucket in output
        assert "simulated cycles" in output

    def test_profile_writes_json_document(self, tmp_path):
        import json

        out_path = tmp_path / "profile.json"
        run_cli("profile", "indirect_stream", "--prefetcher", "none",
                "--quick", "--cores", "4", "--out", str(out_path))
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro-profile-v1"
        assert document["runtime_cycles"] > 0
        assert 0.99 < sum(bucket["share"] for bucket
                          in document["subsystems"].values()) < 1.01
        assert document["top_functions"]

    def test_profile_unknown_workload_errors(self):
        out = io.StringIO()
        assert main(["profile", "nonsense"], out=out) == 2
        assert "unknown profile workload" in out.getvalue()


class TestSweepScenarioDir:
    def test_scenario_dir_checks_fingerprints(self, tmp_path):
        output = run_cli("sweep", "--scenario-dir", "examples/scenarios",
                         "--cache-dir", str(tmp_path / "cache"))
        assert "tiny_smoke.json" in output
        assert "imp_l2_three_level.json" in output
        assert "fingerprint ok" in output
        assert "MISMATCH" not in output

    def test_scenario_dir_warm_cache_simulates_nothing(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_cli("sweep", "--scenario-dir", "examples/scenarios",
                "--cache-dir", cache_dir)
        output = run_cli("sweep", "--scenario-dir", "examples/scenarios",
                         "--cache-dir", cache_dir)
        assert "0 simulated" in output

    def test_scenario_dir_converges_under_injected_faults(self, tmp_path,
                                                          monkeypatch):
        """The corpus swept cold while ``$REPRO_FAULTS`` kills workers and
        raises transients across the pool: retries and pool rebuilds
        converge to exit 0 with every pinned fingerprint matching."""
        monkeypatch.setenv("REPRO_FAULTS", '{"seed":7,"kill":0.25,'
                           '"transient":0.35,"max_faults_per_spec":1}')
        output = run_cli("sweep", "--scenario-dir", "examples/scenarios",
                         "--jobs", "2", "--timeout", "120", "--retries", "4",
                         "--backoff", "0.1",
                         "--cache-dir", str(tmp_path / "cache"))
        pinned = glob.glob("examples/scenarios/*.fingerprint.json")
        assert output.count("fingerprint ok") == len(pinned) > 0
        assert "MISMATCH" not in output

    def test_scenario_dir_mismatch_fails(self, tmp_path):
        import json
        import shutil

        scenario_dir = tmp_path / "scenarios"
        scenario_dir.mkdir()
        shutil.copy("examples/scenarios/tiny_smoke.json",
                    scenario_dir / "tiny_smoke.json")
        (scenario_dir / "tiny_smoke.fingerprint.json").write_text(
            json.dumps({"fingerprint": {"runtime_cycles": -1}}))
        out = io.StringIO()
        assert main(["sweep", "--scenario-dir", str(scenario_dir),
                     "--no-cache"], out=out) == 1
        assert "MISMATCH" in out.getvalue()

    def test_scenario_dir_empty_errors(self, tmp_path):
        out = io.StringIO()
        assert main(["sweep", "--scenario-dir", str(tmp_path)], out=out) == 2
        assert "no scenario files" in out.getvalue()

    def test_scenario_dir_excludes_figures(self):
        out = io.StringIO()
        assert main(["sweep", "--scenario-dir", "examples/scenarios",
                     "--figures", "fig1"], out=out) == 2
        assert "not both" in out.getvalue()


class TestSweepRobustness:
    """The fault-tolerance surface of ``repro sweep``: policy flags,
    --resume, exit codes, the failure report and quarantine warnings."""

    def sweep(self, *extra, code=0):
        out = io.StringIO()
        argv = ["sweep", "--figures", "fig1", "--cores", "4",
                "--scale", "0.05", *extra]
        assert main(argv, out=out) == code
        return out.getvalue()

    def test_policy_flags_are_accepted(self, tmp_path):
        output = self.sweep("--cache-dir", str(tmp_path / "cache"),
                            "--timeout", "60", "--retries", "1",
                            "--backoff", "0.1", "--keep-going")
        assert "== fig1 ==" in output

    def test_keep_going_and_fail_fast_are_exclusive(self):
        with pytest.raises(SystemExit):
            self.sweep("--keep-going", "--fail-fast", "--no-cache")

    def test_resume_requires_the_cache(self):
        out = io.StringIO()
        assert main(["sweep", "--figures", "fig1", "--cores", "4",
                     "--scale", "0.05", "--resume", "--no-cache"],
                    out=out) == 2
        assert "--resume needs the persistent cache" in out.getvalue()

    def test_sweep_journals_and_resume_reports_prior_work(self, tmp_path):
        cache_dir = tmp_path / "cache"
        self.sweep("--cache-dir", str(cache_dir))
        journals = list(cache_dir.glob("journal-*.jsonl"))
        assert len(journals) == 1
        warm = self.sweep("--cache-dir", str(cache_dir), "--resume")
        assert "[sweep] resuming from journal-" in warm
        assert "0 simulated" in warm

    def test_quarantine_warning_after_corruption(self, tmp_path):
        cache_dir = tmp_path / "cache"
        self.sweep("--cache-dir", str(cache_dir))
        record = sorted(cache_dir.glob("*.json"))[0]
        record.write_text("{ torn")
        healed = self.sweep("--cache-dir", str(cache_dir))
        assert "[cache] warning: 1 quarantined record(s)" in healed
        assert "repro cache doctor" in healed
        # The damaged run was recomputed, not skipped.
        assert "== fig1 ==" in healed

    def test_permanent_failures_exit_3_with_report(self, tmp_path,
                                                   monkeypatch):
        import json

        monkeypatch.setenv("REPRO_FAULTS", json.dumps(
            {"seed": 2, "transient": 1.0, "max_faults_per_spec": 1000}))
        failures_out = tmp_path / "failures.json"
        out = io.StringIO()
        code = main(["sweep", "--figures", "fig1", "--cores", "4",
                     "--scale", "0.05", "--no-cache", "--retries", "0",
                     "--failures-out", str(failures_out)], out=out)
        assert code == 3
        text = out.getvalue()
        assert "permanently failed" in text
        assert "transient" in text
        report = json.loads(failures_out.read_text())
        assert report["schema"] == "repro-failures-v1"
        assert report["failed_runs"] == len(report["failures"]) > 0
        assert report["policy"]["retries"] == 0
        assert all(failure["kind"] == "transient"
                   for failure in report["failures"])

    def test_keyboard_interrupt_exits_130(self, monkeypatch):
        def boom(args, out, policy=None):
            raise KeyboardInterrupt()

        monkeypatch.setattr("repro.cli._command_sweep_figures", boom)
        out = io.StringIO()
        assert main(["sweep", "--figures", "fig1", "--no-cache"],
                    out=out) == 130
        assert "rerun with --resume" in out.getvalue()

    def test_sigterm_exits_143(self, monkeypatch):
        import signal

        def self_terminate(args, out, policy=None):
            # _sigterm_raises() must have installed its handler by now.
            signal.raise_signal(signal.SIGTERM)

        monkeypatch.setattr("repro.cli._command_sweep_figures",
                            self_terminate)
        out = io.StringIO()
        assert main(["sweep", "--figures", "fig1", "--no-cache"],
                    out=out) == 143
        assert "terminated (SIGTERM)" in out.getvalue()


class TestSweepResumeMismatch:
    """Satellite of the service PR: ``--resume`` against a journal that
    was written for a *different* spec set warns and starts fresh instead
    of silently mixing two sweeps' progress."""

    def sweep_dir(self, scenario_dir, cache_dir, *extra, code=0):
        out = io.StringIO()
        argv = ["sweep", "--scenario-dir", str(scenario_dir),
                "--cache-dir", str(cache_dir), *extra]
        assert main(argv, out=out) == code
        return out.getvalue()

    def test_resume_mismatch_warns_and_starts_fresh(self, tmp_path):
        import json
        import shutil

        scenario_dir = tmp_path / "scenarios"
        scenario_dir.mkdir()
        shutil.copy("examples/scenarios/tiny_smoke.json",
                    scenario_dir / "tiny_smoke.json")
        cache_dir = tmp_path / "cache"
        self.sweep_dir(scenario_dir, cache_dir)

        # Same directory (same journal file), different spec set.
        doc = json.loads((scenario_dir / "tiny_smoke.json").read_text())
        doc["workload_params"]["seed"] = 99
        (scenario_dir / "tiny_smoke.json").write_text(json.dumps(doc))
        changed = self.sweep_dir(scenario_dir, cache_dir, "--resume")
        assert "different spec set" in changed
        assert "starting a fresh journal" in changed
        assert "resuming from" not in changed

        # Resuming the *same* spec set stays quiet and does no work.
        again = self.sweep_dir(scenario_dir, cache_dir, "--resume")
        assert "different spec set" not in again
        assert "resuming from" in again
        assert "0 simulated" in again

    def test_failure_report_creates_missing_parents(self, tmp_path,
                                                    monkeypatch):
        import json

        monkeypatch.setenv("REPRO_FAULTS", json.dumps(
            {"seed": 2, "transient": 1.0, "max_faults_per_spec": 1000}))
        failures_out = tmp_path / "deep" / "nested" / "dirs" / "failures.json"
        out = io.StringIO()
        code = main(["sweep", "--figures", "fig1", "--cores", "4",
                     "--scale", "0.05", "--no-cache", "--retries", "0",
                     "--failures-out", str(failures_out)], out=out)
        assert code == 3
        report = json.loads(failures_out.read_text())
        assert report["failed_runs"] > 0


class TestServeArguments:
    """Fast argument-validation paths of ``repro serve`` (live-server
    behaviour is covered end to end by tests/service/)."""

    def test_queue_depth_must_be_positive(self):
        out = io.StringIO()
        assert main(["serve", "--queue-depth", "0"], out=out) == 2
        assert "--queue-depth" in out.getvalue()

    def test_cache_dir_is_required(self):
        out = io.StringIO()
        assert main(["serve", "--cache-dir", ""], out=out) == 2
        assert "durable job journal" in out.getvalue()


class TestSweepBackendFlags:
    def test_shard_requires_service_backend(self):
        out = io.StringIO()
        assert main(["sweep", "--figures", "fig1",
                     "--shard", "http://h:1"], out=out) == 2
        assert "--shard requires --backend service" in out.getvalue()

    def test_service_backend_requires_a_shard(self):
        out = io.StringIO()
        assert main(["sweep", "--figures", "fig1",
                     "--backend", "service"], out=out) == 2
        assert "at least one" in out.getvalue()

    def test_figure_validates_backend_pairing_too(self):
        out = io.StringIO()
        assert main(["figure", "fig1", "--backend", "service"],
                    out=out) == 2
        assert "--shard" in out.getvalue()

    def test_unknown_backend_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            run_cli("sweep", "--figures", "fig1", "--backend", "cloud")

    def test_jobs_flag_rejects_negative_and_garbage(self):
        for bad in ("-1", "many"):
            with pytest.raises(SystemExit):
                run_cli("sweep", "--figures", "fig1", "--jobs", bad)

    def test_summary_names_the_backend(self, tmp_path):
        output = run_cli("sweep", "--figures", "fig1", "--cores", "4",
                         "--scale", "0.05", "--cache-dir", str(tmp_path),
                         "--backend", "serial")
        assert "serial backend" in output


class TestCacheDoctor:
    def test_clean_cache_reports_nothing(self, tmp_path):
        output = run_cli("cache", "doctor", "--cache-dir", str(tmp_path))
        assert "no quarantined records" in output

    def test_lists_then_purges_quarantined_records(self, tmp_path):
        out = io.StringIO()
        assert main(["sweep", "--figures", "fig1", "--cores", "4",
                     "--scale", "0.05", "--cache-dir", str(tmp_path)],
                    out=out) == 0
        record = sorted(tmp_path.glob("*.json"))[0]
        record.write_text("{ torn")
        # Heal it (moves the damage into quarantine/).
        assert main(["sweep", "--figures", "fig1", "--cores", "4",
                     "--scale", "0.05", "--cache-dir", str(tmp_path)],
                    out=io.StringIO()) == 0
        listing = run_cli("cache", "doctor", "--cache-dir", str(tmp_path))
        assert "1 quarantined record(s)" in listing
        assert "truncated" in listing
        assert "--purge" in listing
        purged = run_cli("cache", "doctor", "--cache-dir", str(tmp_path),
                         "--purge")
        assert "purged 1 quarantined record(s)" in purged
        after = run_cli("cache", "doctor", "--cache-dir", str(tmp_path))
        assert "no quarantined records" in after

    def test_repeat_damage_lists_every_quarantine(self, tmp_path):
        # The same record torn twice (same digest, same reason): doctor
        # must list two uniquified evidence files, and purge both.
        from repro.experiments.faults import corrupt_record
        from repro.experiments.sweep import ResultCache, SweepEngine
        from repro.workloads.synthetic import IndirectStreamWorkload

        workload = IndirectStreamWorkload(n_indices=64, n_data=256, seed=1)
        lookup = {}
        from repro.experiments.sweep import RunSpec
        spec = RunSpec.for_run(workload, "base", 1)
        lookup[spec] = workload
        for _ in range(2):
            cache = ResultCache(tmp_path)
            SweepEngine(jobs=1, cache=cache).run(
                [spec], workload_lookup=lookup.get)
            corrupt_record(cache._path(spec))
            assert ResultCache(tmp_path).get(spec) is None

        listing = run_cli("cache", "doctor", "--cache-dir", str(tmp_path))
        assert "2 quarantined record(s)" in listing
        assert f"{spec.digest()}.truncated.json" in listing
        assert f"{spec.digest()}.truncated.1.json" in listing
        purged = run_cli("cache", "doctor", "--cache-dir", str(tmp_path),
                         "--purge")
        assert "purged 2 quarantined record(s)" in purged
