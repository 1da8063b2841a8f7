"""Shared helpers for the sweep-service tests."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from repro.experiments.durable import read_log
from repro.experiments.scenario import ScenarioSpec

REPO_ROOT = Path(__file__).resolve().parents[2]


def tiny_scenario(seed: int = 1, n_indices: int = 64) -> dict:
    """A scenario document that simulates in milliseconds."""
    return {
        "name": f"tiny-{seed}",
        "workload": "indirect_stream",
        "workload_params": {"n_indices": n_indices, "n_data": 256,
                            "seed": seed},
        "mode": "imp",
        "n_cores": 1,
    }


def scenario_digest(doc: dict) -> str:
    return ScenarioSpec.from_dict(doc).to_runspec().digest()


def http(method: str, url: str, doc=None, timeout: float = 10.0):
    """One JSON request; returns ``(status, envelope, headers)`` and never
    raises on HTTP error statuses (they carry JSON envelopes too)."""
    data = None if doc is None else json.dumps(doc).encode()
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (response.status, json.loads(response.read().decode()),
                    dict(response.headers))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), dict(exc.headers)


def poll_job(base_url: str, job_id: str, deadline: float = 30.0) -> dict:
    """Poll ``GET /v1/jobs/<id>`` until the job settles; returns its doc."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        status, envelope, _ = http("GET", f"{base_url}/v1/jobs/{job_id}")
        if status == 200 and envelope["data"]["status"] in ("done", "failed"):
            return envelope["data"]
        time.sleep(0.05)
    raise AssertionError(f"job {job_id[:12]} did not settle in {deadline}s")


def journal_entries(path) -> list:
    """The service job journal's records, skipping corrupt lines the way
    the store does."""
    return read_log(path)[0]


def simulated_done_counts(path) -> dict:
    """Per-job count of ``done`` records marking a real simulation across
    the whole journal history — the zero-duplicate-work evidence."""
    counts: dict = {}
    for entry in journal_entries(path):
        if entry.get("status") == "done" and entry.get("simulated"):
            counts[entry["id"]] = counts.get(entry["id"], 0) + 1
    return counts


def serve_env(**extra):
    """The environment a ``repro serve`` subprocess runs in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    # In-process execution inside the server: deterministic timing, no
    # orphaned pool workers when the server is killed.
    env.pop("REPRO_JOBS", None)
    env.pop("REPRO_FAULTS", None)
    env.update(extra)
    return env


def start_serve(cache_dir, *, env=None, queue_depth=32):
    """Start ``repro serve --port 0`` on ``cache_dir``; returns ``(process,
    base_url, startup_lines)`` once the server has printed its port."""
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
         "--cache-dir", str(cache_dir), "--queue-depth", str(queue_depth)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env or serve_env(), cwd=str(cache_dir.parent))
    port = None
    startup = []
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        startup.append(line)
        if "port=" in line:
            port = int(line.split("port=")[1].split()[0])
            break
    if port is None:
        process.kill()
        raise AssertionError("server never printed its port: "
                             + "".join(startup))
    return process, f"http://127.0.0.1:{port}", startup


def stop_serve(process):
    """SIGTERM and return (exit_code, remaining_output)."""
    process.send_signal(signal.SIGTERM)
    output = process.stdout.read()
    process.wait(timeout=30)
    return process.returncode, output
