"""Smoke test of ``repro serve`` over a real socket: probe it, submit the
pinned-corpus tiny_smoke scenario, poll the job to completion, fetch its
result, then SIGTERM and require a clean drain (exit 143).  The job's
fingerprint is checked against the committed golden file in
test_api.py."""

import json

from svc_helpers import REPO_ROOT, http, poll_job, start_serve, stop_serve

TINY_SMOKE = REPO_ROOT / "examples" / "scenarios" / "tiny_smoke.json"


def test_serve_submit_poll_fetch_drain(tmp_path):
    process, url, _ = start_serve(tmp_path / "cache")
    try:
        assert http("GET", f"{url}/healthz")[0] == 200
        status, envelope, _ = http("GET", f"{url}/readyz")
        assert status == 200 and envelope["data"]["ready"] is True
        status, envelope, _ = http("POST", f"{url}/v1/jobs",
                                   json.loads(TINY_SMOKE.read_text()))
        assert status == 202
        job_id = envelope["data"]["id"]
        assert poll_job(url, job_id, deadline=120)["status"] == "done"
        status, envelope, _ = http("GET", f"{url}/v1/results/{job_id}")
        assert status == 200 and envelope["ok"] is True
    finally:
        code, output = stop_serve(process)
    assert code == 143
    assert "drained cleanly" in output
