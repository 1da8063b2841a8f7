"""The ``repro sweep`` CLI over two live ``repro serve`` shard processes.

The whole golden scenario corpus goes through ``--backend service`` with
two ``--shard`` URLs.  The sweep's exit code is the fingerprint check
(any divergence from a committed ``*.fingerprint.json`` exits non-zero),
a warm local rerun proves the ingested records are first-class cache
records, and SIGTERM must still drain both shards cleanly (exit 143).
That both shards simulated and no digest was simulated twice is checked
from the shard job journals by ``tests/experiments/test_backends.py``.
"""

import subprocess
import sys

from svc_helpers import REPO_ROOT, serve_env, start_serve, stop_serve

SCENARIO_DIR = REPO_ROOT / "examples" / "scenarios"


def repro_sweep(cwd, *args):
    """Run ``repro sweep`` over the scenario corpus; returns the process."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "sweep",
         "--scenario-dir", str(SCENARIO_DIR), *args],
        capture_output=True, text=True, env=serve_env(), cwd=str(cwd),
        timeout=300)


def test_scenario_corpus_across_two_shards(tmp_path):
    shards = []
    try:
        for name in ("a", "b"):
            shards.append(start_serve(tmp_path / f"shard-{name}"))
        local = tmp_path / "local"
        sweep = repro_sweep(tmp_path, "--backend", "service",
                            "--shard", shards[0][1], "--shard", shards[1][1],
                            "--cache-dir", str(local))
        assert sweep.returncode == 0, sweep.stdout + sweep.stderr
        assert "service backend" in sweep.stdout
        assert "MISMATCH" not in sweep.stdout

        warm = repro_sweep(tmp_path, "--cache-dir", str(local))
        assert warm.returncode == 0, warm.stdout + warm.stderr
        assert " 0 simulated" in warm.stdout
    finally:
        codes = [stop_serve(process)[0] for process, _, _ in shards]
    assert codes == [143, 143]
