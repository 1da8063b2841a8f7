"""Tests for the wall-clock benchmark harness (repro.experiments.bench)."""

import copy
import io

import pytest

from repro.experiments.bench import (
    PREFETCHERS,
    check_sweep_document,
    compare,
    run_benchmark,
    run_sweep_benchmark,
)


def small_run():
    return run_benchmark(cores=4, seed=1, repeat=1, quick=True,
                         workloads=["indirect_stream"], out=io.StringIO())


class TestRunBenchmark:
    def test_document_shape(self):
        document = small_run()
        assert document["schema"] == "repro-bench-v1"
        assert document["cores"] == 4
        keys = set(document["scenarios"])
        assert keys == {f"indirect_stream/{p}" for p in PREFETCHERS}
        for entry in document["scenarios"].values():
            assert entry["wall_seconds"] > 0
            fp = entry["fingerprint"]
            assert fp["runtime_cycles"] > 0
            assert fp["mem_accesses"] > 0
        assert document["total_wall_seconds"] > 0

    def test_fingerprints_reproducible(self):
        first = small_run()
        second = small_run()
        for key, entry in first["scenarios"].items():
            assert entry["fingerprint"] == second["scenarios"][key]["fingerprint"]


class TestKernelAB:
    def test_same_session_ab_document_shape(self):
        from repro.noc.kernel import compiled_kernel_available
        if not compiled_kernel_available():
            pytest.skip("repro._nockernel extension not built")
        document = run_benchmark(cores=4, seed=1, repeat=1, quick=True,
                                 workloads=["indirect_stream"],
                                 ab_kernels=["reference", "compiled"],
                                 out=io.StringIO())
        section = document["kernel_ab"]
        assert section["kernels"] == ["reference", "compiled"]
        assert section["baseline_kernel"] == "reference"
        # Fingerprint identity across backends is enforced during
        # collection (a divergence raises), so the section records True.
        assert section["fingerprints_identical"] is True
        keys = {f"indirect_stream/{p}" for p in PREFETCHERS}
        for kernel in ("reference", "compiled"):
            assert set(section["wall_seconds"][kernel]) == keys
            assert all(wall > 0
                       for wall in section["wall_seconds"][kernel].values())
        # Every non-baseline backend gets its own speedup column and
        # miss-heavy geomean entry.
        assert set(section["speedup_by_scenario"]) == {"compiled"}
        assert set(section["speedup_by_scenario"]["compiled"]) == keys
        assert section["miss_heavy_rows"] == sorted(
            key for key in keys if key.rsplit("/", 1)[-1] in ("ghb", "imp"))
        assert set(section["miss_heavy_geomean_speedup"]) == {"compiled"}
        geomean = section["miss_heavy_geomean_speedup"]["compiled"]
        assert geomean is not None and geomean > 0
        # The headline scenarios table carries the default backend's walls
        # when it took part in the A/B, else the baseline backend's.
        from repro.sim.config import NoCConfig
        default = NoCConfig().kernel
        headline = default if default in section["kernels"] \
            else section["baseline_kernel"]
        for key in keys:
            assert document["scenarios"][key]["wall_seconds"] \
                == section["wall_seconds"][headline][key]

    def test_unknown_kernel_fails_fast(self):
        from repro.registry import RegistryError

        with pytest.raises(RegistryError, match="reference, compiled"):
            run_benchmark(cores=4, seed=1, quick=True,
                          workloads=["indirect_stream"],
                          ab_kernels=["typo"], out=io.StringIO())

    def test_unavailable_kernel_fails_fast(self, monkeypatch):
        # The mesh would silently substitute reference and make the
        # compiled lane an A/A; the harness must refuse instead.
        monkeypatch.setenv("REPRO_NO_CEXT", "1")
        with pytest.raises(RuntimeError, match="unavailable"):
            run_benchmark(cores=4, seed=1, quick=True,
                          workloads=["indirect_stream"],
                          ab_kernels=["reference", "compiled"],
                          out=io.StringIO())

    def test_ab_ignores_ambient_kernel_override(self, monkeypatch):
        # An exported $REPRO_NOC_KERNEL would turn the A/B into an A/A;
        # the harness measures the named backends and restores the
        # variable afterwards.  One lane exercises that handling and runs
        # on hosts without the compiled extension.
        monkeypatch.setenv("REPRO_NOC_KERNEL", "reference")
        import os
        run_benchmark(cores=4, seed=1, quick=True,
                      workloads=["indirect_stream"],
                      ab_kernels=["reference"], out=io.StringIO())
        assert os.environ["REPRO_NOC_KERNEL"] == "reference"


class TestCompare:
    def test_identical_documents_pass(self):
        document = small_run()
        assert compare(document, document, out=io.StringIO()) == 0

    def test_fingerprint_divergence_fails(self):
        document = small_run()
        broken = copy.deepcopy(document)
        key = next(iter(broken["scenarios"]))
        broken["scenarios"][key]["fingerprint"]["runtime_cycles"] += 1
        assert compare(broken, document, out=io.StringIO()) != 0

    def test_wall_clock_regression_fails(self):
        document = small_run()
        slow = copy.deepcopy(document)
        slow["total_wall_seconds"] = document["total_wall_seconds"] * 2.0
        assert compare(slow, document, budget=1.25, out=io.StringIO()) != 0

    def test_mismatched_parameters_fail(self):
        document = small_run()
        other = copy.deepcopy(document)
        other["quick"] = not document["quick"]
        assert compare(other, document, out=io.StringIO()) != 0


class TestSweepBenchmark:
    def test_quick_sweep_document_and_invariants(self):
        document = run_sweep_benchmark(quick=True, jobs=2,
                                       figures=["fig1"], out=io.StringIO())
        assert document["schema"] == "repro-sweep-bench-v1"
        assert document["fingerprints_identical"] is True
        phases = document["phases"]
        assert phases["serial"]["simulations"] == \
            phases["serial"]["unique_runs"] > 0
        assert phases["warm_cache"]["simulations"] == 0
        assert phases["warm_cache"]["cache_hits"] == \
            phases["serial"]["unique_runs"]
        # The built-in validation accepts its own output.
        assert check_sweep_document(document, min_warm_speedup=1.0,
                                    out=io.StringIO()) == 0

    def test_check_rejects_divergence_and_warm_simulations(self):
        document = run_sweep_benchmark(quick=True, jobs=2,
                                       figures=["fig1"], out=io.StringIO())
        divergent = copy.deepcopy(document)
        divergent["fingerprints_identical"] = False
        assert check_sweep_document(divergent, out=io.StringIO()) != 0
        warm_sim = copy.deepcopy(document)
        warm_sim["phases"]["warm_cache"]["simulations"] = 1
        assert check_sweep_document(warm_sim, out=io.StringIO()) != 0
        slow = copy.deepcopy(document)
        slow["speedup"]["warm_vs_serial"] = 2.0
        assert check_sweep_document(slow, out=io.StringIO()) != 0


class TestSweepScaling:
    def test_single_cpu_host_records_documented_skip(self, monkeypatch):
        import repro.experiments.bench as bench
        monkeypatch.setattr(bench.os, "cpu_count", lambda: 1)
        out = io.StringIO()
        section = bench.sweep_scaling_section(quick=True, out=out)
        assert section["measured"] is False
        assert section["cpus"] == 1
        assert "single CPU" in section["skip_reason"]
        assert "SKIPPED" in out.getvalue()

    def test_multi_cpu_host_measures_jobs_1_vs_n(self, monkeypatch):
        import repro.experiments.bench as bench
        if (bench.os.cpu_count() or 1) <= 1:
            pytest.skip("host has a single CPU")
        section = bench.sweep_scaling_section(quick=True, jobs=2,
                                              out=io.StringIO())
        assert section["measured"] is True
        assert section["jobs"] == 2
        assert section["jobs_1"]["wall_seconds"] > 0
        assert section["jobs_n"]["wall_seconds"] > 0
        assert section["fingerprints_identical"] is True


class TestBaselineComparison:
    def _document(self, wall, cycles):
        return {"schema": "repro-bench-v1",
                "scenarios": {
                    "spmv/imp": {"wall_seconds": wall,
                                 "fingerprint": {"runtime_cycles": cycles}},
                    "spmv/none": {"wall_seconds": 2 * wall,
                                  "fingerprint": {"runtime_cycles": cycles}},
                }}

    def test_speedups_and_miss_heavy_geomean(self):
        from repro.experiments.bench import baseline_comparison

        current = self._document(1.0, 100)
        baseline = self._document(1.5, 100)
        section = baseline_comparison(current, baseline)
        assert section["speedup_by_scenario"]["spmv/imp"] == pytest.approx(1.5)
        assert section["miss_heavy_rows"] == ["spmv/imp"]
        assert section["miss_heavy_geomean_speedup"] == pytest.approx(1.5)
        assert section["fingerprints_identical"] is True

    def test_fingerprint_divergence_flagged(self):
        from repro.experiments.bench import baseline_comparison

        current = self._document(1.0, 100)
        baseline = self._document(1.0, 101)
        assert baseline_comparison(current,
                                   baseline)["fingerprints_identical"] is False

    def test_zero_overlap_is_not_vacuously_identical(self):
        """Comparing against a baseline that shares no scenario keys (a
        wrong/renamed baseline document) must not claim identical
        fingerprints over an empty set."""
        from repro.experiments.bench import baseline_comparison

        current = self._document(1.0, 100)
        section = baseline_comparison(current, {"schema": "repro-bench-v1",
                                                "scenarios": {}})
        assert section["compared_scenarios"] == 0
        assert section["fingerprints_identical"] is False
        assert section["miss_heavy_geomean_speedup"] is None

    def test_compared_scenario_count_recorded(self):
        from repro.experiments.bench import baseline_comparison

        section = baseline_comparison(self._document(1.0, 100),
                                      self._document(1.5, 100))
        assert section["compared_scenarios"] == 2
