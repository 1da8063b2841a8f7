"""Schema and headline checks of the committed benchmark records.

``BENCH_1.json`` .. ``BENCH_5.json`` at the repository root are the
recorded performance trajectory.  They are never regenerated by the test
suite (full-size runs take minutes and depend on the recording host), so
these tests only guard the committed files against accidental corruption
and pin the claims each record was committed to support.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def record(n: int) -> dict:
    return json.loads((ROOT / f"BENCH_{n}.json").read_text())


def test_bench_1_seed_baseline():
    doc = record(1)
    assert doc["schema"] == "repro-bench-v1", doc.get("schema")
    assert doc["scenarios"], "BENCH_1.json has no scenarios"
    assert doc["seed_baseline"]["speedup"] >= 3.0


def test_bench_2_warm_cache_sweep():
    doc = record(2)
    assert doc["schema"] == "repro-sweep-bench-v1", doc.get("schema")
    assert doc["fingerprints_identical"] is True
    assert doc["phases"]["warm_cache"]["simulations"] == 0
    assert doc["speedup"]["warm_vs_serial"] >= 3.0


def test_bench_3_miss_heavy_speedup():
    doc = record(3)
    assert doc["schema"] == "repro-bench-v1", doc.get("schema")
    comparison = doc["baseline_comparison"]
    assert comparison["fingerprints_identical"] is True
    assert comparison["miss_heavy_geomean_speedup"] > 1.0


def test_bench_4_fused_kernel_parity():
    doc = record(4)
    assert doc["schema"] == "repro-bench-v1", doc.get("schema")
    comparison = doc["baseline_comparison"]
    assert comparison["fingerprints_identical"] is True
    # Cross-record wall ratios (BENCH_4 vs BENCH_3) conflate code changes
    # with recording-host speed drift, so they only get a loose runaway
    # guard.  The load-bearing speed check is the kernel_ab section: both
    # backends timed interleaved in the same session, immune to drift.
    assert comparison["miss_heavy_geomean_speedup"] > 0.6
    ab = doc["kernel_ab"]
    assert ab["baseline_kernel"] == "reference"
    assert "fused" in ab["kernels"]
    assert ab["fingerprints_identical"] is True
    # The fused backend must stay at wall-clock parity with the executable
    # spec; per-row noise on a loaded 1-CPU recorder is about +-20%, so the
    # guard sits with margin under the recorded 0.98x.
    assert ab["miss_heavy_geomean_speedup"]["fused"] > 0.8


def test_bench_5_compiled_kernel_speedup():
    doc = record(5)
    assert doc["schema"] == "repro-bench-v1", doc.get("schema")
    # Gated the same drift-immune way as BENCH_4: the three-way kernel_ab
    # section times every backend interleaved in one session on one host.
    # Cross-record wall ratios are checked for fingerprint identity only.
    ab = doc["kernel_ab"]
    assert ab["baseline_kernel"] == "reference"
    assert ab["kernels"] == ["reference", "fused", "compiled"]
    assert ab["fingerprints_identical"] is True
    assert ab["miss_heavy_geomean_speedup"]["compiled"] > 1.25
    assert doc["baseline_comparison"]["fingerprints_identical"] is True
    scaling = doc["sweep_scaling"]
    # Multi-worker sweep scaling is measured when the recording host has
    # more than one CPU; otherwise the record carries an explicit skip.
    assert scaling["measured"] or scaling["skip_reason"]
