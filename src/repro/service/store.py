"""Durable, crash-safe job state for the sweep service.

The :class:`JobStore` is the service's write-ahead log, kept on the
shared fsynced :class:`~repro.experiments.durable.AppendLog`: one JSONL
line per job state transition, flushed and fsynced before the transition
is acknowledged anywhere else.  The file is append-only across server
lifetimes — every boot appends a header line and replays everything that
came before it, so the complete history of a job (queued → running →
done/failed, possibly interleaved with crashes) is inspectable in one
place.

Crash-safety contract (the ordering the job manager must respect):

1. ``queued`` is appended (with the full scenario document) before the
   submission is acknowledged to the client — an accepted job can always
   be reconstructed.
2. ``running`` is appended before the simulation starts.
3. The result is published to the result cache (atomic ``os.replace``)
   *before* ``done`` is appended.

A crash in any window then recovers losslessly on replay:

* before 1 — the client never got an id; nothing was promised.
* between 1 and 2 (job ``queued``) — re-enqueued, executed once.
* between 2 and 3 (job ``running``) — re-enqueued; the cache has no
  record, so the run executes exactly once.
* between 3 and ``done`` (the torn window) — re-enqueued; the cache
  *hit* completes the job without re-executing the simulation.
* after ``done`` — replayed as complete; served straight from the store
  and the cache.

Corruption tolerance: any unparseable line — the torn final line of a
killed server, or a line damaged mid-file — is counted and skipped; the
affected job simply replays at its previous durable state and is
re-enqueued, which the deterministic chaos suite exercises via the
``serve_corrupt`` fault point.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.durable import AppendLog, read_log

#: Schema tag of the append-only service job journal.
JOB_STORE_SCHEMA = "repro-service-jobs-v1"

#: Job lifecycle states as journalled.  ``interrupted`` is appended by a
#: graceful shutdown for jobs it could not drain; ``queued``/``running``
#: jobs found at replay time were interrupted *ungracefully* and are
#: treated identically (re-enqueued).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
INTERRUPTED = "interrupted"

#: States a replayed job recovers from (re-enqueue on boot).
RECOVERABLE_STATES = (QUEUED, RUNNING, INTERRUPTED)


class JobStore:
    """Job state folded from an append-only fsynced JSONL log.

    Thread-safe: the HTTP handler threads append ``queued`` records while
    the drain worker appends ``running``/``done``/``failed``; the log
    serialises appends so records never interleave mid-line.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.jobs: Dict[str, Dict] = {}
        self.boots = 0
        # A torn final line (killed server) or a damaged middle line is
        # skipped; the affected job replays at its last durable state.
        entries, self.corrupt_lines = read_log(self.path)
        for entry in entries:
            if "service" in entry:
                self.boots = max(self.boots, int(entry.get("boot", 0)))
            else:
                self._apply(entry)
        self.log = AppendLog(self.path)
        self.boots += 1
        self.log.append({"service": JOB_STORE_SCHEMA, "boot": self.boots})

    def _apply(self, entry: Dict) -> None:
        job_id = entry.get("id")
        status = entry.get("status")
        if not job_id or status not in (QUEUED, RUNNING, DONE, FAILED,
                                        INTERRUPTED):
            self.corrupt_lines += 1
            return
        job = self.jobs.get(job_id)
        if job is None:
            job = {"id": job_id, "status": status, "attempts": 0}
            self.jobs[job_id] = job
        job["status"] = status
        if status == QUEUED:
            # Carries the scenario document (and resets the outcome on a
            # resubmission of a previously failed job).
            job["scenario"] = entry.get("scenario")
            job["name"] = entry.get("name", "")
            job.pop("failure", None)
            job.pop("fingerprint", None)
        elif status == RUNNING:
            job["attempts"] = job.get("attempts", 0) + 1
        elif status == DONE:
            job["cached"] = bool(entry.get("cached", False))
            job["simulated"] = bool(entry.get("simulated", False))
            job["fingerprint"] = entry.get("fingerprint")
            job.pop("failure", None)
        elif status == FAILED:
            job["failure"] = entry.get("failure")

    # ------------------------------------------------------------------
    # Appends (each one durable before it returns)
    # ------------------------------------------------------------------
    def record_queued(self, job_id: str, scenario: Dict,
                      name: str = "") -> None:
        self._apply(entry := {"id": job_id, "status": QUEUED,
                              "scenario": scenario, "name": name})
        self.log.append(entry)

    def record_running(self, job_id: str) -> int:
        """Append a ``running`` transition; returns the attempt number
        (1-based, counted across server lifetimes)."""
        entry = {"id": job_id, "status": RUNNING,
                 "attempt": self.jobs.get(job_id, {}).get("attempts", 0) + 1}
        self._apply(entry)
        self.log.append(entry)
        return self.jobs[job_id]["attempts"]

    def record_done(self, job_id: str, *, cached: bool, simulated: bool,
                    fingerprint: Optional[Dict] = None) -> None:
        self._apply(entry := {"id": job_id, "status": DONE, "cached": cached,
                              "simulated": simulated,
                              "fingerprint": fingerprint})
        self.log.append(entry)

    def record_failed(self, job_id: str, failure: Dict) -> None:
        self._apply(entry := {"id": job_id, "status": FAILED,
                              "failure": failure})
        self.log.append(entry)

    def record_interrupted(self, job_id: str) -> None:
        self._apply(entry := {"id": job_id, "status": INTERRUPTED})
        self.log.append(entry)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Dict]:
        return self.jobs.get(job_id)

    def recoverable(self) -> List[Dict]:
        """Jobs whose last durable state needs re-enqueueing on boot, in
        journal order (FIFO fairness across restarts)."""
        return [job for job in self.jobs.values()
                if job["status"] in RECOVERABLE_STATES]

    def simulated_done_count(self, job_id: str) -> int:
        """How many ``done`` records for this job mark a real simulation
        (``simulated: true``) across the *entire* journal history — the
        chaos suite's zero-duplicate-work evidence.  Reads the file, not
        the replayed state, so repeated transitions are all counted."""
        entries, _ = read_log(self.path)
        return sum(1 for entry in entries
                   if entry.get("id") == job_id
                   and entry.get("status") == DONE and entry.get("simulated"))

    def close(self) -> None:
        self.log.close()
