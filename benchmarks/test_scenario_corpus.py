"""Scenario-corpus regression benchmark.

Runs every checked-in ``examples/scenarios/*.json`` through the batched
sweep engine (``repro sweep --scenario-dir``), asserting that every
scenario has a pinned ``.fingerprint.json`` and that each one matches
bit-for-bit, and records the per-scenario report as one deterministic
section of ``results/benchmark_tables.txt``.  New scenarios join the
corpus by committing a fingerprint next to the file (``repro run
--scenario f.json --write-fingerprint f.fingerprint.json``).

``--jobs 1`` (overriding ``$REPRO_JOBS``) and ``--no-cache`` keep the
recorded report byte-identical across environments: the trailing summary
line would otherwise embed the worker count and cache-hit statistics.
"""

import io
from pathlib import Path

from benchmarks.conftest import record_text
from repro.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "examples" / "scenarios"


def test_scenario_corpus_fingerprints(benchmark):
    out = io.StringIO()
    code = benchmark.pedantic(
        main,
        args=(["sweep", "--scenario-dir", str(SCENARIO_DIR),
               "--jobs", "1", "--no-cache"],),
        kwargs={"out": out},
        rounds=1, iterations=1, warmup_rounds=0)
    report = out.getvalue()
    assert code == 0, f"scenario corpus failed:\n{report}"
    assert "MISMATCH" not in report
    # Every scenario must carry a pinned fingerprint...
    pinned = sorted(path.name[:-len(".fingerprint.json")] + ".json"
                    for path in SCENARIO_DIR.glob("*.fingerprint.json"))
    scenarios = sorted(path.name for path in SCENARIO_DIR.glob("*.json")
                       if not path.name.endswith(".fingerprint.json"))
    assert scenarios == pinned, "scenario without a pinned fingerprint"
    assert "no expectation" not in report
    # ...and every pinned fingerprint must have been checked.
    for name in pinned:
        assert f"{name}" in report
        assert "no expectation" not in report.split(name, 1)[1].split("\n")[0]
    # Drop the engine-summary line (worker/cache details vary by
    # environment) so the recorded section is deterministic.
    body = "\n".join(line for line in report.splitlines()
                     if not line.startswith("[sweep]"))
    record_text("Scenario corpus", body)
