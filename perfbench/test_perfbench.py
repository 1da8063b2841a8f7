"""Self-tests of the benchmark harness: tiny inputs, one pass each."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.compare import Incomparable, compare, spread, verdict
from perfbench.tracer import LayerSpec, Tracer, empty_wrapper_cost

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def quick_run(workload: str, trace: int) -> dict:
    """One ``--quick`` run in a fresh interpreter; its last output line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--quick", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def declared(section: str) -> list:
    return [metric["name"] for metric in BENCHMARK[section]]


def test_metric_names_are_valid_and_unique():
    names = declared("end_to_end") + declared("per_layer")
    names += [workload["name"] for workload in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name) and len(name) <= 64, name


@pytest.mark.parametrize("workload", ["sim-indirect", "sweep-cold",
                                      "sweep-service"])
def test_quick_pass_emits_end_to_end_metrics(workload):
    metrics = quick_run(workload, trace=0)["metrics"]
    assert list(metrics) == declared("end_to_end")
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_quick_traced_sim_regular_has_idle_prefetchers():
    metrics = quick_run("sim-regular", trace=1)["metrics"]
    assert list(metrics) == declared("per_layer")
    assert metrics["prefetchers.calls"]["value"] == 0
    assert metrics["core.self_s"]["value"] > 0
    assert metrics["cache.calls"]["value"] > 0


def test_quick_traced_sweep_warm_publishes_nothing():
    metrics = quick_run("sweep-warm", trace=1)["metrics"]
    assert list(metrics) == declared("per_layer")
    assert metrics["publish.calls"]["value"] == 0
    assert metrics["cache_lookup.hit_ratio"]["value"] == 1.0
    assert metrics["ingest.calls"]["value"] == \
        metrics["cache_lookup.calls"]["value"]


def test_golden_sim_indirect_matches_recorded_scenarios():
    """The sim-indirect rows are BENCH_5's stream and imp scenarios: same
    code, same inputs, same fingerprints."""
    golden = json.loads((ROOT / "perfbench" / "golden_seed1.json")
                        .read_text())
    scenarios = json.loads((ROOT / "BENCH_5.json").read_text())["scenarios"]
    assert len(golden["sim-indirect"]) == 6
    for key, fingerprint in golden["sim-indirect"].items():
        assert scenarios[key]["fingerprint"] == fingerprint, key


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
ENV = {"cpus": 2, "python": "3.11.7", "noc_kernel": "fused",
       "nockernel_built": False}


def document(workload: str, walls, env=ENV, seed=1, calls=100) -> dict:
    runs = [{"workload": workload, "seed": seed, "quick": False,
             "trace": False, "simulated": {"imp_speedup": 2.0 + seed},
             "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
            for wall in walls]
    runs.append({"workload": workload, "seed": seed, "quick": False,
                 "trace": True, "simulated": {},
                 "metrics": {"noc.calls": {"value": calls,
                                           "unit": "count"}}})
    return {"env": dict(env), "runs": runs}


def rows_by_metric(rows) -> dict:
    return {row["metric"]: row for row in rows}


def test_verdicts():
    assert verdict([10.0], [10.5], "lower", 0.1) == "within bound"
    assert verdict([10.0], [12.0], "lower", 0.1) == "worse"
    assert verdict([10.0], [8.0], "lower", 0.1) == "better"
    assert verdict([10.0], [12.0], "higher", 0.1) == "better"
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert spread(noisy) > 0.1
    assert verdict(noisy, [9.0, 11.0, 13.0], "lower", 0.1) == "unresolved"
    # A wide spread still resolves when every run of one side wins.
    assert verdict(noisy, [1.0, 2.0, 3.0], "lower", 0.1) == "better"


def test_compare_reports_worse_and_exact_differences():
    base = document("sim-indirect", [5.0, 5.1, 4.9])
    rows, code = compare(base, document("sim-indirect", [5.05, 5.0, 5.1]),
                         BENCHMARK)
    by_metric = rows_by_metric(rows)
    assert code == 0
    assert by_metric["wall_s"]["verdict"] == "within bound"
    assert by_metric["noc.calls"]["verdict"] == "identical"
    assert by_metric["imp_speedup"]["verdict"] == "identical"

    bound = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    slower = [wall * (1 + bound["wall_s"]) * 1.1 for wall in (5.0, 5.1, 4.9)]
    rows, code = compare(base, document("sim-indirect", slower, calls=101),
                         BENCHMARK)
    by_metric = rows_by_metric(rows)
    assert code == 1
    assert by_metric["wall_s"]["verdict"] == "worse"
    assert by_metric["noc.calls"]["verdict"] == "differs"


def test_compare_checks_exact_results_per_seed():
    """Simulated results differ between seeds, never within one."""
    two_seeds = document("sim-indirect", [5.0])
    two_seeds["runs"] += document("sim-indirect", [5.0], seed=2)["runs"]
    rows, code = compare(two_seeds, two_seeds, BENCHMARK)
    assert code == 0
    assert rows_by_metric(rows)["imp_speedup"]["verdict"] == "identical"


@pytest.mark.parametrize("change", [{"noc_kernel": "compiled"},
                                    {"cpus": 4}, {"python": "3.12.0"}])
def test_compare_refuses_other_environments(change):
    other = document("sim-indirect", [5.0], env={**ENV, **change})
    with pytest.raises(Incomparable):
        compare(document("sim-indirect", [5.0]), other, BENCHMARK)


def test_compare_refuses_other_seeds():
    with pytest.raises(Incomparable):
        compare(document("sim-indirect", [5.0]),
                document("sim-indirect", [5.0], seed=2), BENCHMARK)


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class Demo:
    def outer(self, inner_calls: int) -> int:
        for _ in range(inner_calls):
            self.inner()
        return inner_calls

    def inner(self) -> None:
        time.sleep(0.002)

    @classmethod
    def build(cls) -> "Demo":
        return cls()

    def fail(self) -> None:
        raise KeyError("boom")


SPECS = (LayerSpec("outer", __name__, "Demo", ("outer", "build", "fail")),
         LayerSpec("inner", __name__, "Demo", ("inner",)))


def test_tracer_attributes_self_time_and_restores():
    originals = {name: vars(Demo)[name]
                 for name in ("outer", "inner", "build", "fail")}
    with Tracer(SPECS) as tracer:
        assert vars(Demo)["inner"] is not originals["inner"]
        assert isinstance(vars(Demo)["build"], classmethod)
        assert Demo.build().outer(3) == 3
    assert tracer.unrestored() == []
    assert all(vars(Demo)[name] is original
               for name, original in originals.items())
    totals = tracer.layer_totals()
    assert totals["outer"]["calls"] == 2 and totals["inner"]["calls"] == 3
    assert totals["inner"]["self_s"] >= 0.006
    assert totals["outer"]["self_s"] < totals["inner"]["self_s"]


def test_tracer_restores_on_exceptions():
    originals = dict(vars(Demo))
    with pytest.raises(KeyError):
        with Tracer(SPECS, keep_spans=True) as tracer:
            Demo().fail()
    assert tracer.unrestored() == []
    assert tracer.spans[0][0] == "Demo.fail"
    missing = (LayerSpec("inner", __name__, "Demo", ("inner",)),
               LayerSpec("ghost", __name__, "Demo", ("no_such_method",)))
    with pytest.raises(LookupError):
        with Tracer(missing):
            pass
    assert dict(vars(Demo)) == originals


def test_empty_wrapper_cost_is_positive():
    c_in, c_out = empty_wrapper_cost(calls=20_000, repeats=2)
    assert c_in >= 0 and c_out > 0
