"""Sweep execution backends: how cache-miss specs actually run.

:meth:`SweepEngine.run <repro.experiments.sweep.SweepEngine.run>` keeps
what must not vary with *where* the simulations execute — spec dedupe,
cache lookups and journaling — and hands the cache misses to a
:class:`SweepBackend` with a fresh :class:`~repro.experiments.sweep.
SweepRun`.  The backend owns its execution loop and reports every
outcome through ``run.complete`` and ``run.charge``, which apply the
one record check and the one RunPolicy retry rule.  Backends are
catalogued (like the NoC reservation kernels) in
:data:`repro.registry.SWEEP_BACKENDS`:

``serial``
    In-process, one spec at a time.  The reference executor the
    equivalence suite holds every other backend to.
``process``
    The ``serial`` loop below the parallel threshold (``jobs <= 1``, a
    single miss, or a degraded pool), else a ``ProcessPoolExecutor``
    batch loop.  The backend owns the pool: per-batch timeouts, rebuilds
    after worker death and, past ``max_pool_restarts``, degradation to
    the ``serial`` loop.  The default.
``service``
    Shards specs across one or more ``repro serve`` endpoints
    (``--backend service --shard URL [--shard URL ...]``): submits each
    spec as a runspec document via ``POST /v1/jobs``, polls with backoff
    honoring ``Retry-After``, and completes each spec with the cache-v3
    record its shard returns — so warm-cache semantics, ``--resume``
    journals and failure reports are identical to a local sweep.  A shard
    that dies mid-sweep has its in-flight specs requeued (uncharged) to
    the survivors; when every shard is gone, the leftovers fall back to
    the ``process`` backend so the sweep still completes.

Backends are result-neutral by contract: every spec simulates to
bit-identical statistics whichever backend runs it, and the backend
choice never enters a RunSpec digest (``--backend`` is an execution
knob, not an experiment parameter).
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.faults import FaultPlan, TransientFault
from repro.experiments.sweep import (RunSpec, SweepRun, execute_spec,
                                     make_record)
from repro.registry import SWEEP_BACKENDS
from repro.service.client import (ServiceClient, ShardProtocolError,
                                  ShardUnavailable, retry_after)

#: Name resolved when an engine is built without an explicit backend.
DEFAULT_BACKEND = "process"

#: Maximum jobs the service backend keeps in flight per shard.  Small on
#: purpose: the shard's own bounded queue (429 + ``Retry-After``) is the
#: real backpressure; this just caps how much work a dying shard strands.
SUBMIT_WINDOW = 8

#: Poll pacing bounds, seconds.  The interval starts at the minimum,
#: grows geometrically while nothing completes, and resets on progress.
POLL_MIN = 0.05
POLL_MAX = 1.0


def resolve_backend(backend=None, shards: Sequence[str] = ()):
    """Resolve a backend name (or pass through an instance) + shards.

    ``None`` means :data:`DEFAULT_BACKEND`.  Raises
    :class:`repro.registry.RegistryError` for unknown names and
    :class:`ValueError` when the shard list does not fit the backend
    (``service`` requires at least one, the others take none).
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, str):
        backend = SWEEP_BACKENDS.get(backend).factory()
    return backend.configure(list(shards))


class SweepBackend:
    """Interface every sweep backend implements."""

    name = "abstract"

    def configure(self, shards: List[str]) -> "SweepBackend":
        """Bind deployment parameters; returns ``self`` for chaining."""
        if shards:
            raise ValueError(
                f"the {self.name!r} sweep backend runs locally and takes "
                f"no --shard URLs (use --backend service)")
        return self

    def execute(self, run: SweepRun, misses: Sequence[RunSpec]) -> None:
        """Run every miss until each is settled through ``run.complete``
        or ``run.charge`` (retrying no earlier than they say), or until
        ``run.abandoned`` is set."""
        raise NotImplementedError


@SWEEP_BACKENDS.register("serial", description="in-process, one spec at "
                         "a time — the reference executor every backend "
                         "must match bit-identically")
class SerialBackend(SweepBackend):
    name = "serial"

    def execute(self, run: SweepRun, misses: Sequence[RunSpec]) -> None:
        plan = run.faults
        for spec in misses:
            if run.abandoned:
                return
            due: Optional[float] = 0.0
            while due is not None:
                time.sleep(max(0.0, due - time.monotonic()))
                try:
                    if plan is not None:
                        plan.apply(spec.digest(), run.attempts.get(spec, 0),
                                   in_worker=False)
                    result = execute_spec(spec, workload=run.workload(spec))
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:  # noqa: BLE001 — retried, bounded
                    kind = ("transient" if isinstance(exc, TransientFault)
                            else "error")
                    due = run.charge(spec, kind,
                                     f"{type(exc).__name__}: {exc}")
                else:
                    due = run.complete(spec, result=result)


def _run_batch(payload: Dict) -> List[Dict]:
    """Pool worker entry point: simulate one batch of specs.

    All specs in a batch share one ``build_key``, so a single workload
    object (and its memoised trace build) serves the whole batch.  Each
    spec yields an *outcome envelope* — ``{"record": ...}`` on success,
    ``{"kind": ..., "error": ...}`` on a per-run exception — so one bad
    run never poisons its batch-mates.  ``payload["faults"]`` (when set)
    is a :class:`repro.experiments.faults.FaultPlan` applied per spec.
    """
    specs = [RunSpec.from_dict(doc) for doc in payload["specs"]]
    attempts = payload.get("attempts") or [0] * len(specs)
    plan = (FaultPlan.from_dict(payload["faults"])
            if payload.get("faults") else None)
    workload = specs[0].make_workload()
    outcomes: List[Dict] = []
    for spec, attempt in zip(specs, attempts):
        try:
            if plan is not None:
                plan.apply(spec.digest(), attempt, in_worker=True)
            record = make_record(spec, execute_spec(spec, workload=workload))
        except TransientFault as exc:
            outcomes.append({"kind": "transient", "error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — envelope, not swallow
            outcomes.append({"kind": "error",
                             "error": f"{type(exc).__name__}: {exc}"})
        else:
            outcomes.append({"record": record})
    return outcomes


@SWEEP_BACKENDS.register("process", description="ProcessPoolExecutor "
                         "worker pool on this host (the default)")
class ProcessBackend(SweepBackend):
    name = "process"

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Times the pool broke (a dead or stuck worker, a failed submit)
        #: and was torn down.
        self.pool_restarts = 0
        #: Set once ``pool_restarts`` passes the policy's
        #: ``max_pool_restarts``: from then on every run of this backend
        #: executes in process.
        self.degraded = False

    def execute(self, run: SweepRun, misses: Sequence[RunSpec]) -> None:
        # The pool only pays off with >1 worker and >1 miss, and a
        # degraded pool stays retired for the rest of the backend's life.
        if run.jobs <= 1 or len(misses) == 1 or self.degraded:
            SerialBackend().execute(run, misses)
        else:
            self._run_pool(run, misses)

    # ------------------------------------------------------------------
    def _retire_pool(self, terminate: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if not terminate:
            pool.shutdown()
            return
        # A stuck or killed worker cannot be joined: cancel what never
        # started, then forcibly terminate the worker processes so their
        # wall-clock (and the stall, if injected) is reclaimed.
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except (OSError, ValueError, AttributeError):
                pass

    def _pool_broken(self, run: SweepRun, waiting, inflight,
                     reason: str) -> None:
        """Requeue in-flight work uncharged and rebuild (or give up on)
        the pool."""
        now = time.monotonic()
        for future in list(inflight):
            batch, _ = inflight.pop(future)
            waiting.append((now, batch))
        self._retire_pool(terminate=True)
        self.pool_restarts += 1
        if self.pool_restarts > run.policy.max_pool_restarts:
            if not self.degraded:
                print(f"[sweep] warning: worker pool unusable after "
                      f"{self.pool_restarts} restarts ({reason}); "
                      f"degrading to in-process serial execution",
                      file=sys.stderr)
            self.degraded = True

    @staticmethod
    def _requeue(waiting, retries: Sequence[Tuple[Optional[float],
                                                  RunSpec]]) -> None:
        """Put charged specs whose retry is due back in line, regrouped
        by build key so batch-mates keep sharing one trace build; a group
        waits for its latest member."""
        groups: Dict[Tuple, List[Tuple[float, RunSpec]]] = {}
        for due, spec in retries:
            if due is not None:
                groups.setdefault(spec.build_key, []).append((due, spec))
        for group in groups.values():
            waiting.append((max(due for due, _ in group),
                            [spec for _, spec in group]))

    def _run_pool(self, run: SweepRun, misses: Sequence[RunSpec]) -> None:
        policy = run.policy
        grouped: Dict[Tuple, List[RunSpec]] = {}
        for spec in misses:
            grouped.setdefault(spec.build_key, []).append(spec)
        # (ready_at, batch) pairs; ready_at > now while backing off.
        waiting: List[Tuple[float, List[RunSpec]]] = [
            (0.0, batch) for batch in grouped.values()]
        inflight: Dict = {}
        plan_dict = run.faults.to_dict() if run.faults is not None else None
        try:
            while (waiting or inflight) and not run.abandoned \
                    and not self.degraded:
                now = time.monotonic()
                # Submit every ready batch (bounded, to keep retry batches
                # interleaving with first-time work).
                ready = [item for item in waiting if item[0] <= now]
                for item in ready:
                    if len(inflight) >= 2 * run.jobs:
                        break
                    waiting.remove(item)
                    batch = item[1]
                    payload = {
                        "specs": [spec.to_dict() for spec in batch],
                        "attempts": [run.attempts.get(spec, 0)
                                     for spec in batch],
                        "faults": plan_dict,
                    }
                    try:
                        if self._pool is None:
                            self._pool = ProcessPoolExecutor(max_workers=max(
                                1, min(run.jobs,
                                       len(waiting) + len(inflight) + 1)))
                        future = self._pool.submit(_run_batch, payload)
                    except (BrokenProcessPool, RuntimeError, OSError) as exc:
                        waiting.append((now, batch))
                        self._pool_broken(run, waiting, inflight,
                                          f"submit failed: {exc}")
                        break
                    deadline = (now + policy.timeout * len(batch)
                                if policy.timeout else None)
                    inflight[future] = (batch, deadline)
                if not inflight:
                    if waiting and not self.degraded:
                        # Everything is backing off; sleep to the nearest
                        # ready time.
                        ready_at = min(item[0] for item in waiting)
                        time.sleep(max(0.0, ready_at - time.monotonic()))
                    continue
                # Wait for a completion, the nearest deadline, or the
                # nearest backoff expiry — whichever comes first.
                now = time.monotonic()
                horizons = [deadline for _, deadline in inflight.values()
                            if deadline is not None]
                horizons.extend(item[0] for item in waiting
                                if item[0] > now)
                wait_for = None
                if horizons:
                    wait_for = max(0.0, min(horizons) - time.monotonic())
                done, _ = futures_wait(set(inflight), timeout=wait_for,
                                       return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    batch, _ = inflight.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        broken = True
                        error = "worker process died (BrokenProcessPool)"
                        self._requeue(waiting, [
                            (run.charge(spec, "worker_death", error), spec)
                            for spec in batch])
                    except Exception as exc:  # noqa: BLE001
                        error = f"{type(exc).__name__}: {exc}"
                        self._requeue(waiting, [
                            (run.charge(spec, "error", error), spec)
                            for spec in batch])
                    else:
                        for spec, outcome in zip(batch, outcomes):
                            record = outcome.get("record")
                            if record is not None:
                                due = run.complete(spec, record=record)
                            else:
                                due = run.charge(
                                    spec, outcome.get("kind", "error"),
                                    outcome.get("error", "unknown error"))
                            self._requeue(waiting, [(due, spec)])
                if broken:
                    self._pool_broken(run, waiting, inflight,
                                      "worker process died")
                    continue
                # Enforce per-run wall-clock deadlines: a stuck worker is
                # unrecoverable in-place, so expired batches are charged a
                # timeout and the pool is rebuilt without them.
                now = time.monotonic()
                expired = [future for future, (_, deadline)
                           in inflight.items()
                           if deadline is not None and deadline <= now]
                if expired:
                    error = (f"run exceeded the {policy.timeout}s "
                             f"wall-clock timeout")
                    for future in expired:
                        batch, _ = inflight.pop(future)
                        self._requeue(waiting, [
                            (run.charge(spec, "timeout", error), spec)
                            for spec in batch])
                    self._pool_broken(run, waiting, inflight, "stuck worker")
        except (KeyboardInterrupt, SystemExit):
            self._retire_pool(terminate=True)
            raise
        if run.abandoned:
            self._retire_pool(terminate=True)
            return
        if self.degraded:
            self._retire_pool(terminate=True)
            SerialBackend().execute(
                run, [spec for _, batch in waiting for spec in batch])
            return
        self._retire_pool(terminate=False)


# ----------------------------------------------------------------------
# The service (sharded) backend
# ----------------------------------------------------------------------
@dataclass
class _Flight:
    """One spec accepted by a shard and not yet resolved."""

    spec: RunSpec
    #: Wall-clock deadline, armed when the job is first seen ``running``
    #: (queue time on a busy shard does not count against the budget).
    deadline: Optional[float] = None


class _Shard:
    """Client-side view of one ``repro serve`` endpoint."""

    def __init__(self, url: str) -> None:
        self.url = url
        self.client = ServiceClient(url)
        self.inflight: Dict[str, _Flight] = {}
        self.not_before = 0.0   # submit backpressure (429 Retry-After)
        self.alive = True
        self.draining = False

    def accepting(self, now: float) -> bool:
        return (self.alive and not self.draining
                and self.not_before <= now
                and len(self.inflight) < SUBMIT_WINDOW)


def _retry(pending, spec: RunSpec, due: Optional[float]) -> None:
    """Put a charged spec back in line for its retry, unless settled."""
    if due is not None:
        pending.append((due, spec))


@SWEEP_BACKENDS.register("service", description="shard specs across "
                         "repro serve endpoints (--shard URL, "
                         "repeatable); falls back to process when every "
                         "shard dies")
class ServiceBackend(SweepBackend):
    name = "service"

    def __init__(self) -> None:
        self.shard_urls: List[str] = []
        #: Records ingested from shards (remote simulations + remote
        #: cache hits) — the service-path share of the engine's
        #: ``simulations_run``.
        self.ingested = 0
        #: Specs requeued uncharged because their shard died.
        self.requeued = 0
        #: Shards marked dead during the sweep, in order.
        self.dead_shards: List[str] = []
        #: Specs handed to the process-backend fallback.
        self.fallback_specs = 0

    def configure(self, shards: List[str]) -> "ServiceBackend":
        if not shards:
            raise ValueError(
                "the 'service' sweep backend needs at least one shard "
                "URL (--shard http://HOST:PORT, repeatable)")
        self.shard_urls = [url.rstrip("/") for url in shards]
        return self

    # ------------------------------------------------------------------
    def execute(self, run: SweepRun, misses: Sequence[RunSpec]) -> None:
        shards = [_Shard(url) for url in self.shard_urls]
        leftovers = self._drive(run, shards, misses)
        if leftovers and not run.abandoned:
            self.fallback_specs = len(leftovers)
            print(f"[sweep] warning: every service shard is gone; "
                  f"falling back to the process backend for "
                  f"{len(leftovers)} outstanding run(s)", file=sys.stderr)
            ProcessBackend().execute(run, leftovers)

    # ------------------------------------------------------------------
    def _drive(self, run: SweepRun, shards: List[_Shard],
               misses: Sequence[RunSpec]) -> List[RunSpec]:
        """Submit/poll loop; returns the specs no shard could finish."""
        # (ready_at, spec): ready_at > now while a retry is backing off.
        pending: List[Tuple[float, RunSpec]] = [(0.0, spec)
                                                for spec in misses]
        interval = POLL_MIN
        while ((pending or any(shard.inflight for shard in shards))
               and not run.abandoned):
            live = [shard for shard in shards if shard.alive]
            if not live:
                break
            if (pending and not any(shard.inflight for shard in shards)
                    and all(shard.draining for shard in live)):
                # Every surviving shard is draining away: nothing will
                # ever accept the pending specs — hand them to the
                # fallback instead of polling forever.
                break
            now = time.monotonic()
            # Round-robin: one spec per accepting shard per pass, so the
            # cross-product spreads across shards instead of saturating
            # the first one's window before the second sees any work.
            submitted = True
            while submitted and not run.abandoned:
                submitted = False
                for shard in live:
                    if not shard.accepting(now):
                        continue
                    item = next((it for it in pending if it[0] <= now),
                                None)
                    if item is None:
                        break
                    pending.remove(item)
                    self._submit(run, shard, item[1], pending)
                    submitted = True
            progressed = 0
            for shard in list(live):
                if shard.alive and shard.inflight:
                    progressed += self._poll(run, shard, pending)
                if run.abandoned:
                    break
            if run.abandoned:
                break
            if progressed:
                interval = POLL_MIN
            elif pending or any(shard.inflight for shard in shards):
                time.sleep(interval)
                interval = min(interval * 1.6, POLL_MAX)
        leftovers: List[RunSpec] = []
        for shard in shards:
            for flight in shard.inflight.values():
                leftovers.append(flight.spec)
            shard.inflight.clear()
        leftovers.extend(spec for _, spec in pending)
        return list(dict.fromkeys(leftovers))

    # ------------------------------------------------------------------
    def _shard_down(self, shard: _Shard, reason: str, pending,
                    now: Optional[float] = None) -> None:
        """Mark a shard dead and requeue its in-flight specs uncharged —
        the shard, not the runs, failed (mirrors the process backend's
        requeue when its pool breaks)."""
        shard.alive = False
        self.dead_shards.append(shard.url)
        stranded = [flight.spec for flight in shard.inflight.values()]
        shard.inflight.clear()
        now = time.monotonic() if now is None else now
        for spec in stranded:
            pending.append((now, spec))
        self.requeued += len(stranded)
        print(f"[sweep] warning: shard {shard.url} is down ({reason}); "
              f"requeued {len(stranded)} in-flight run(s) to the "
              f"surviving shards", file=sys.stderr)

    # ------------------------------------------------------------------
    def _submit(self, run: SweepRun, shard: _Shard, spec: RunSpec,
                pending) -> None:
        digest = spec.digest()
        doc = {"runspec": spec.to_dict(),
               "name": f"sweep:{spec.workload}/{spec.mode}"
                       f"@{spec.n_cores}c"}
        try:
            status, envelope, headers = shard.client.submit(doc)
        except (ShardUnavailable, ShardProtocolError) as exc:
            if (isinstance(exc, ShardProtocolError)
                    and self._probe_lost_submit(shard, spec, pending)):
                return
            # The shard may have journaled the job before its response was
            # lost: the spec is stranded in flight like the shard's others.
            shard.inflight[digest] = _Flight(spec)
            self._shard_down(shard, str(exc), pending)
            return
        if status == 429:
            # Queue full: honor the shard's Retry-After and try the spec
            # elsewhere (or here, later).
            shard.not_before = (time.monotonic()
                                + retry_after(headers, 1.0))
            pending.append((time.monotonic(), spec))
            return
        if status == 503:
            # Draining: the shard finishes what it accepted but takes no
            # more; poll its in-flight jobs, submit everything else
            # elsewhere.
            shard.draining = True
            pending.append((time.monotonic(), spec))
            return
        if status in (400, 413):
            # The shard understood the request and rejected the document
            # — deterministic, so retrying anywhere is pointless.
            message = envelope.get("error", {}).get("message", "rejected")
            run.charge(spec, "error",
                       f"shard {shard.url} rejected the runspec: {message}",
                       retry=False)
            return
        data = envelope.get("data") if envelope.get("ok") else None
        if status in (200, 202) and isinstance(data, dict):
            if data.get("id") != digest:
                # Digest skew: the shard canonicalises specs differently
                # (version mismatch) — nothing it computes is safe to
                # ingest under our key.
                pending.append((time.monotonic(), spec))
                self._shard_down(shard,
                                 f"digest skew (shard derived "
                                 f"{data.get('id')!r})", pending)
                return
            if data.get("status") == "done":
                self._ingest(run, shard, spec, pending)
            elif data.get("status") == "failed":
                self._charge_remote_failure(run, spec, data, pending, shard)
            else:
                shard.inflight[digest] = _Flight(spec)
            return
        _retry(pending, spec, run.charge(
            spec, "error",
            f"shard {shard.url} answered HTTP {status} to a job submission"))

    def _probe_lost_submit(self, shard: _Shard, spec: RunSpec,
                           pending) -> bool:
        """A shard answered a submit with something other than the JSON
        envelope.  Ask it once about the job before declaring it down: a
        job it knows stays in flight there, a job it never took (404) goes
        back to the pending queue uncharged.  False when the probe fails
        too, or answers neither way."""
        digest = spec.digest()
        try:
            status, envelope, _ = shard.client.job(digest)
        except (ShardUnavailable, ShardProtocolError):
            return False
        data = envelope.get("data") if envelope.get("ok") else None
        if (status == 200 and isinstance(data, dict)
                and data.get("id") == digest):
            shard.inflight[digest] = _Flight(spec)
            return True
        if status == 404:
            pending.append((time.monotonic(), spec))
            return True
        return False

    # ------------------------------------------------------------------
    def _poll(self, run: SweepRun, shard: _Shard, pending) -> int:
        """Advance one shard's in-flight jobs; returns completions."""
        policy = run.policy
        progressed = 0
        for digest in list(shard.inflight):
            flight = shard.inflight.get(digest)
            if flight is None:
                continue
            try:
                status, envelope, _ = shard.client.job(digest)
            except (ShardUnavailable, ShardProtocolError) as exc:
                self._shard_down(shard, str(exc), pending)
                return progressed
            data = envelope.get("data") if envelope.get("ok") else None
            state = data.get("status") if isinstance(data, dict) else None
            now = time.monotonic()
            if status == 200 and state == "done":
                del shard.inflight[digest]
                self._ingest(run, shard, flight.spec, pending)
                progressed += 1
            elif status == 200 and state == "failed":
                del shard.inflight[digest]
                self._charge_remote_failure(run, flight.spec, data,
                                            pending, shard)
                progressed += 1
            elif status == 200 and state in ("queued", "running"):
                if (state == "running" and flight.deadline is None
                        and policy.timeout):
                    flight.deadline = now + policy.timeout
                if flight.deadline is not None and now > flight.deadline:
                    # The shard may still finish it eventually (its
                    # result then lands in the shard's own cache only);
                    # our budget for the run is spent.
                    del shard.inflight[digest]
                    _retry(pending, flight.spec, run.charge(
                        flight.spec, "timeout",
                        f"run exceeded the {policy.timeout}s wall-clock "
                        f"timeout on shard {shard.url}"))
            else:
                # 404 (a shard that lost the job) or any other surprise:
                # charge one attempt and place the spec back in rotation.
                del shard.inflight[digest]
                _retry(pending, flight.spec, run.charge(
                    flight.spec, "error",
                    f"shard {shard.url} answered HTTP {status} "
                    f"({state or 'no status'}) while polling"))
            if run.abandoned:
                break
        return progressed

    # ------------------------------------------------------------------
    def _ingest(self, run: SweepRun, shard: _Shard, spec: RunSpec,
                pending) -> None:
        """Fetch a completed job's cache record and complete the spec
        with it.  ``run.complete`` checks the record, so a corrupt or
        mismatched one costs an attempt and is never used."""
        try:
            status, envelope, _ = shard.client.result(spec.digest())
        except (ShardUnavailable, ShardProtocolError) as exc:
            pending.append((time.monotonic(), spec))
            self._shard_down(shard, str(exc), pending)
            return
        record = None
        if status == 200 and envelope.get("ok"):
            record = envelope.get("data", {}).get("record")
        if record is None:
            due = run.charge(spec, "error",
                             f"shard {shard.url} reported the job done but "
                             f"returned HTTP {status} for its result record")
        else:
            due = run.complete(spec, record=record,
                               source=f"shard {shard.url}")
            if spec in run.results:
                self.ingested += 1
        _retry(pending, spec, due)

    def _charge_remote_failure(self, run: SweepRun, spec: RunSpec,
                               data: Dict, pending, shard: _Shard) -> None:
        failure = data.get("failure") or {}
        _retry(pending, spec, run.charge(
            spec, failure.get("kind", "error"),
            f"shard {shard.url} failed the run after "
            f"{failure.get('attempts', '?')} server-side attempt(s): "
            f"{failure.get('error', 'unknown')}"))
