"""Admission queue and drain worker for the sweep service.

The :class:`JobManager` owns the runtime job table.  Its contract:

* **Idempotent admission.**  The job id *is* the scenario's
  content-addressed :class:`~repro.experiments.sweep.RunSpec` digest.
  Submitting a digest that is already queued/running/done joins the
  existing job; a digest whose result is already in the persistent cache
  completes instantly (``cached``) without simulating.  N concurrent
  clients posting the same scenario therefore share exactly one
  simulation — the admission path holds one lock, so there is no window
  in which two jobs for one digest can both be created.
* **Bounded queue with backpressure.**  At most ``queue_depth`` jobs may
  be pending; beyond that :class:`QueueFull` is raised (HTTP 429 with
  ``Retry-After``).  During a graceful drain :class:`Draining` is raised
  instead (HTTP 503).
* **Durability before acknowledgement.**  Every transition goes through
  the fsynced :class:`~repro.service.store.JobStore` *before* it is
  visible to clients, in the order the store's crash-safety contract
  requires (``queued`` → ``running`` → cache publish → ``done``).
* **PR 6 execution semantics.**  Each job runs through a
  :class:`~repro.experiments.sweep.SweepEngine` under the configured
  :class:`~repro.experiments.sweep.RunPolicy` — per-run timeouts,
  bounded retries with backoff, pool rebuild and serial degradation all
  apply; a permanent failure lands as a structured
  :class:`~repro.experiments.sweep.FailureRecord` on the job.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional

from repro.contract import check_keys
from repro.experiments.faults import FaultPlan
from repro.experiments.scenario import ScenarioError, ScenarioSpec
from repro.experiments.sweep import (FailureRecord, ResultCache, RunPolicy,
                                     RunSpec, SweepEngine, SweepError, _thaw)
from repro.service import store as job_states
from repro.service.store import JobStore


class QueueFull(RuntimeError):
    """The bounded admission queue is at capacity (backpressure)."""


class Draining(RuntimeError):
    """The server is draining for shutdown and accepts no new work."""


@dataclass(frozen=True)
class JobSource:
    """One validated job document, whichever form it arrived in."""

    runspec: RunSpec
    name: str
    #: Set for scenario-form documents only; resolves the workload (and
    #: its memoised trace build) in-process at execution time.
    scenario: Optional[ScenarioSpec] = None


def parse_job_document(doc: Mapping) -> JobSource:
    """Validate one ``POST /v1/jobs`` document into a :class:`JobSource`.

    Two forms are accepted:

    * a **scenario** document — the declarative JSON ``repro run
      --scenario`` consumes, validated by :class:`ScenarioSpec`;
    * a **runspec** document — ``{"runspec": RunSpec.to_dict(), "name":
      ...}``, the exact spec a sweep engine holds, submitted by the
      ``service`` sweep backend.  Its fields pass the same checks as a
      scenario's at admission, so a bad document is a 400, not a failed
      job.

    Raises :class:`ScenarioError` (a ``ValueError``) for anything
    invalid, exactly like the scenario path always has.
    """
    if "runspec" in doc:
        check_keys(doc, ("runspec", "name"), "runspec-document",
                   ScenarioError)
        body = doc.get("runspec")
        if not isinstance(body, Mapping):
            raise ScenarioError(
                "'runspec' must be an object in RunSpec.to_dict() form")
        try:
            runspec = RunSpec.from_dict(dict(body))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(
                f"invalid runspec document "
                f"({type(exc).__name__}: {exc})") from None
        # The runspec's fields pass the scenario path's checks, its two
        # configurations as the overrides of a scenario.
        system = _thaw(runspec.base_config)
        cores = system.pop("n_cores", None) if isinstance(system, dict) \
            else None
        ScenarioSpec(workload=runspec.workload, mode=runspec.mode,
                     n_cores=runspec.n_cores,
                     workload_params=_thaw(runspec.workload_params),
                     system=system, imp=_thaw(runspec.imp_config),
                     sw_prefetch_distance=runspec.sw_prefetch_distance)
        if not (cores is None or type(cores) is int
                and cores == runspec.n_cores):
            raise ScenarioError(f"runspec base_config.n_cores must equal "
                                f"{runspec.n_cores}, got {cores!r}")
        name = doc.get("name") or runspec.workload
        if not isinstance(name, str):
            raise ScenarioError("'name' must be a string")
        return JobSource(runspec=runspec, name=name)
    spec = ScenarioSpec.from_dict(doc)
    return JobSource(runspec=spec.to_runspec(),
                     name=spec.name or spec.workload, scenario=spec)


@dataclass
class Job:
    """Runtime view of one job (the store holds the durable state)."""

    id: str
    scenario: Dict
    name: str = ""
    workload: str = ""
    mode: str = ""
    n_cores: int = 0
    status: str = job_states.QUEUED
    attempts: int = 0
    cached: bool = False
    simulated: bool = False
    fingerprint: Optional[Dict] = None
    failure: Optional[Dict] = None
    submitted_at: float = field(default_factory=time.monotonic)

    def to_doc(self) -> Dict:
        doc = {
            "id": self.id,
            "status": self.status,
            "scenario": self.name,
            "workload": self.workload,
            "mode": self.mode,
            "n_cores": self.n_cores,
            "attempts": self.attempts,
            "links": {"self": f"/v1/jobs/{self.id}",
                      "result": f"/v1/results/{self.id}"},
        }
        if self.status == job_states.DONE:
            doc["cached"] = self.cached
            doc["simulated"] = self.simulated
            doc["fingerprint"] = self.fingerprint
        if self.status == job_states.FAILED:
            doc["failure"] = self.failure
        return doc


class JobManager:
    """Owns the job table, the bounded queue and the drain worker."""

    def __init__(self, store: JobStore, cache: ResultCache, *,
                 queue_depth: int = 64, jobs: Optional[int] = None,
                 policy: Optional[RunPolicy] = None,
                 faults: Optional[FaultPlan] = None) -> None:
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.store = store
        self.cache = cache
        self.queue_depth = queue_depth
        self.jobs_arg = jobs
        self.policy = policy or RunPolicy()
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.simulations_run = 0
        self.recovered = 0
        self._jobs: Dict[str, Job] = {}
        self._pending: Deque[str] = deque()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._draining = False
        self._drain_deadline: Optional[float] = None
        self._stopped = False
        self._running_id: Optional[str] = None
        self._worker = threading.Thread(target=self._drain_loop,
                                        name="repro-serve-drain", daemon=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._worker.start()

    def recover(self) -> int:
        """Replay the store: re-enqueue every job whose last durable state
        was queued/running/interrupted, and restore completed ones.  Call
        before :meth:`start`.  Returns how many jobs were re-enqueued."""
        for stored in self.store.jobs.values():
            job = Job(id=stored["id"], scenario=stored.get("scenario") or {},
                      name=stored.get("name", ""),
                      status=stored["status"],
                      attempts=stored.get("attempts", 0),
                      cached=stored.get("cached", False),
                      simulated=stored.get("simulated", False),
                      fingerprint=stored.get("fingerprint"),
                      failure=stored.get("failure"))
            try:
                source = parse_job_document(job.scenario)
            except ValueError as exc:
                # The journalled document no longer validates (e.g. a
                # registry entry was removed between versions): surface a
                # structured failure instead of dropping the job.
                if job.status in job_states.RECOVERABLE_STATES:
                    job.status = job_states.FAILED
                    job.failure = {"digest": job.id, "kind": "error",
                                   "attempts": job.attempts,
                                   "workload": "", "mode": "", "n_cores": 0,
                                   "error": f"recovered job document no "
                                            f"longer valid: {exc}"}
                    self.store.record_failed(job.id, job.failure)
                self._jobs[job.id] = job
                continue
            job.name = job.name or source.name
            job.workload = source.runspec.workload
            job.mode = source.runspec.mode
            job.n_cores = source.runspec.n_cores
            self._jobs[job.id] = job
            if job.status in job_states.RECOVERABLE_STATES:
                job.status = job_states.QUEUED
                self._pending.append(job.id)
                self.recovered += 1
        return self.recovered

    # ------------------------------------------------------------------
    # Admission (called from HTTP handler threads)
    # ------------------------------------------------------------------
    def submit(self, doc: Dict) -> tuple:
        """Admit one scenario or runspec document; returns ``(job,
        created)``.

        Raises :class:`~repro.experiments.scenario.ScenarioError` (or a
        registry error) for invalid documents, :class:`Draining` during
        shutdown and :class:`QueueFull` under backpressure.  Never blocks
        on simulation work.
        """
        source = parse_job_document(doc)   # raises listing valid choices
        runspec = source.runspec
        digest = runspec.digest()
        with self._lock:
            if self._draining:
                raise Draining("server is draining; not accepting jobs")
            existing = self._jobs.get(digest)
            if existing is not None and existing.status != job_states.FAILED:
                return existing, False
            resubmit = existing is not None
            job = Job(id=digest, scenario=dict(doc),
                      name=source.name,
                      workload=runspec.workload, mode=runspec.mode,
                      n_cores=runspec.n_cores,
                      attempts=existing.attempts if resubmit else 0)
            # Idempotency fast path: a digest the persistent cache already
            # holds completes without queue admission or simulation.
            cached = self.cache.get(runspec)
            if cached is not None:
                fingerprint = cached.stats.fingerprint()
                self.store.record_queued(digest, job.scenario, job.name)
                self.store.record_done(digest, cached=True, simulated=False,
                                       fingerprint=fingerprint)
                job.status = job_states.DONE
                job.cached = True
                job.fingerprint = fingerprint
                self._jobs[digest] = job
                return job, not resubmit
            if len(self._pending) >= self.queue_depth:
                raise QueueFull(
                    f"job queue is full ({self.queue_depth} pending)")
            self.store.record_queued(digest, job.scenario, job.name)
            self._jobs[digest] = job
            self._pending.append(digest)
            self._work.notify()
            return job, True

    # ------------------------------------------------------------------
    # Views (handler threads)
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def snapshot(self) -> Dict:
        with self._lock:
            by_status: Dict[str, int] = {}
            for job in self._jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            return {
                "jobs": [job.to_doc() for job in self._jobs.values()],
                "queue": {"depth": self.queue_depth,
                          "pending": len(self._pending),
                          "draining": self._draining,
                          "by_status": by_status},
            }

    @property
    def draining(self) -> bool:
        return self._draining

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending) + (1 if self._running_id else 0)

    # ------------------------------------------------------------------
    # Drain worker
    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            with self._lock:
                while not self._pending and not self._stopped:
                    self._idle.notify_all()
                    self._work.wait(timeout=0.2)
                if self._stopped:
                    self._idle.notify_all()
                    return
                job_id = self._pending.popleft()
                job = self._jobs[job_id]
                self._running_id = job_id
            try:
                self._execute(job)
            finally:
                with self._lock:
                    self._running_id = None
                    self._idle.notify_all()

    def _execute(self, job: Job) -> None:
        """Run one job under the crash-safety ordering: ``running`` is
        journalled before execution, the cache publish (inside the
        engine) precedes the ``done`` append."""
        source = parse_job_document(job.scenario)
        runspec = source.runspec
        attempt = self.store.record_running(job.id)
        job.status = job_states.RUNNING
        job.attempts = attempt
        plan = self.faults
        if plan is not None:
            # Chaos window 1: the server dies between the fsynced
            # ``running`` append and the cache publish — the run never
            # completed, so the restarted server must execute it once.
            plan.apply_serve_kill(job.id, attempt - 1, "pre")
        # A restarted (or racing) server may have published this digest
        # already: complete from the cache without re-executing.
        cached = self.cache.get(runspec)
        if cached is not None:
            self._finish(job, cached.stats.fingerprint(), cached=True,
                         simulated=False)
            return
        engine = SweepEngine(jobs=self.jobs_arg, cache=self.cache,
                             policy=self.policy)
        # Scenario-form jobs resolve their workload in-process (reusing
        # the memoised trace build); runspec-form jobs let the engine
        # rebuild the workload from the spec, exactly like a pool worker.
        workload_lookup = ((lambda _: source.scenario.resolve()[0])
                           if source.scenario is not None else None)
        try:
            results = engine.run([runspec], workload_lookup=workload_lookup)
        except SweepError as exc:
            failure = exc.failures[0] if exc.failures else \
                FailureRecord.for_spec(runspec, "error", job.attempts,
                                       str(exc))
            self.simulations_run += engine.simulations_run
            job.failure = failure.to_dict()
            job.status = job_states.FAILED
            self.store.record_failed(job.id, job.failure)
            self._maybe_corrupt(job.id)
            return
        except Exception as exc:  # noqa: BLE001 — a job, not the server
            job.failure = FailureRecord.for_spec(
                runspec, "error", job.attempts,
                f"{type(exc).__name__}: {exc}").to_dict()
            job.status = job_states.FAILED
            self.store.record_failed(job.id, job.failure)
            return
        self.simulations_run += engine.simulations_run
        result = results[runspec]
        if plan is not None:
            # Chaos window 2: the server dies after the atomic cache
            # publish but before the ``done`` append.  The restarted
            # server re-enqueues the job and completes it from the cache
            # — provably without a duplicate simulation.
            plan.apply_serve_kill(job.id, attempt - 1, "post")
        self._finish(job, result.stats.fingerprint(), cached=False,
                     simulated=True)

    def _finish(self, job: Job, fingerprint: Dict, *, cached: bool,
                simulated: bool) -> None:
        self.store.record_done(job.id, cached=cached, simulated=simulated,
                               fingerprint=fingerprint)
        job.fingerprint = fingerprint
        job.cached = cached
        job.simulated = simulated
        job.status = job_states.DONE
        self._maybe_corrupt(job.id)

    def _maybe_corrupt(self, job_id: str) -> None:
        plan = self.faults
        if plan is not None and plan.should_serve_corrupt(job_id):
            self.store.log.corrupt_tail()

    # ------------------------------------------------------------------
    # Graceful shutdown
    # ------------------------------------------------------------------
    def begin_drain(self, timeout: Optional[float] = None) -> None:
        """Stop admissions; queued and in-flight work keeps draining.

        ``timeout`` (when known) records the drain deadline so 503
        responses can clamp their ``Retry-After`` to the time the server
        actually has left (see :meth:`retry_after_hint`)."""
        with self._lock:
            self._draining = True
            if timeout is not None:
                deadline = time.monotonic() + max(0.0, timeout)
                if (self._drain_deadline is None
                        or deadline < self._drain_deadline):
                    self._drain_deadline = deadline

    def retry_after_hint(self, default: int) -> int:
        """Seconds a 429/503 should advertise as ``Retry-After``.

        While draining with a known deadline the hint is clamped to the
        remaining drain window (floored to whole seconds, never below
        0): a client told to retry *after* the server is gone would just
        turn one clean 503 into a connection error."""
        with self._lock:
            deadline = self._drain_deadline if self._draining else None
        if deadline is None:
            return default
        remaining = max(0.0, deadline - time.monotonic())
        return max(0, min(default, math.floor(remaining)))

    def drain(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for the queue to empty, then
        stop the worker and journal whatever remains as ``interrupted``
        (it is re-enqueued on the next boot).  Returns ``True`` when
        everything drained inside the deadline."""
        self.begin_drain(timeout)
        with self._lock:
            deadline = self._drain_deadline
            while (self._pending or self._running_id) and \
                    time.monotonic() < deadline:
                self._idle.wait(timeout=min(
                    0.2, max(0.01, deadline - time.monotonic())))
            drained = not self._pending and self._running_id is None
            self._stopped = True
            self._work.notify_all()
            leftovers: List[str] = list(self._pending)
            if self._running_id is not None:
                leftovers.insert(0, self._running_id)
            self._pending.clear()
        for job_id in leftovers:
            self.store.record_interrupted(job_id)
            job = self._jobs.get(job_id)
            if job is not None and job.status in (job_states.QUEUED,
                                                  job_states.RUNNING):
                job.status = job_states.INTERRUPTED
        self._worker.join(timeout=1.0)
        return drained
