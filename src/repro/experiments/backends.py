"""Sweep execution backends: how cache-miss specs actually run.

The :class:`~repro.experiments.sweep.SweepEngine` owns everything about
a sweep that must not vary with *where* the simulations execute — cache
lookups and publishes, journaling, the RunPolicy retry/timeout budget,
and :class:`~repro.experiments.sweep.FailureRecord` reporting.  What
remains — "given these cache-miss specs, produce a verified cache record
for each" — is a :class:`SweepBackend`, catalogued (like the NoC
reservation kernels) in :data:`repro.registry.SWEEP_BACKENDS`:

``serial``
    In-process, one spec at a time.  The reference executor the
    equivalence suite holds every other backend to.
``process``
    The historical engine behaviour, verbatim: in-process below the
    parallel threshold (``jobs <= 1``, a single miss, or a degraded
    pool), else the ``ProcessPoolExecutor`` batch path.  The default.
``service``
    Shards specs across one or more ``repro serve`` endpoints
    (``--backend service --shard URL [--shard URL ...]``): submits each
    spec as a runspec document via ``POST /v1/jobs``, polls with backoff
    honoring ``Retry-After``, and ingests the returned cache-v3 records
    through the engine's normal completion path — so warm-cache
    semantics, ``--resume`` journals and failure reports are identical
    to a local sweep.  A shard that dies mid-sweep has its in-flight
    specs requeued (uncharged) to the survivors; when every shard is
    gone, the leftovers fall back to the ``process`` backend so the
    sweep still completes.

Backends are result-neutral by contract: every spec simulates to
bit-identical statistics whichever backend runs it, and the backend
choice never enters a RunSpec digest (``--backend`` is an execution
knob, not an experiment parameter).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.sweep import (CACHE_SCHEMA_VERSION, FailureRecord,
                                     RunSpec, _strip_result_neutral)
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

    def execute(self, engine, misses: Sequence[RunSpec], results: Dict,
                workload_lookup, failures: List[FailureRecord]) -> None:
        """Run every miss, reporting through ``engine._complete`` /
        ``engine._fail_spec`` so bookkeeping stays backend-agnostic."""
        raise NotImplementedError


@SWEEP_BACKENDS.register("serial", description="in-process, one spec at "
                         "a time — the reference executor every backend "
                         "must match bit-identically")
class SerialBackend(SweepBackend):
    name = "serial"

    def execute(self, engine, misses, results, workload_lookup,
                failures) -> None:
        engine._run_serial(misses, results, workload_lookup, failures)


@SWEEP_BACKENDS.register("process", description="ProcessPoolExecutor "
                         "worker pool on this host (the default)")
class ProcessBackend(SweepBackend):
    name = "process"

    def execute(self, engine, misses, results, workload_lookup,
                failures) -> None:
        # The engine's historical dispatch, verbatim: the pool only pays
        # off with >1 worker and >1 miss, and a degraded pool stays
        # retired for the rest of the engine's life.
        if engine.jobs <= 1 or len(misses) == 1 or engine.degraded:
            engine._run_serial(misses, results, workload_lookup, failures)
        else:
            engine._run_pool(misses, results, failures)


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
    def execute(self, engine, misses, results, workload_lookup,
                failures) -> None:
        shards = [_Shard(url) for url in self.shard_urls]
        leftovers = self._drive(engine, shards, misses, results, failures)
        if leftovers and not engine._abandoned:
            self.fallback_specs = len(leftovers)
            print(f"[sweep] warning: every service shard is gone; "
                  f"falling back to the process backend for "
                  f"{len(leftovers)} outstanding run(s)", file=sys.stderr)
            ProcessBackend().execute(engine, leftovers, results,
                                     workload_lookup, failures)

    # ------------------------------------------------------------------
    def _drive(self, engine, shards: List[_Shard], misses, results,
               failures) -> List[RunSpec]:
        """Submit/poll loop; returns the specs no shard could finish."""
        attempts: Dict[RunSpec, int] = {}
        # (ready_at, spec): ready_at > now while a retry is backing off.
        pending: List[Tuple[float, RunSpec]] = [(0.0, spec)
                                                for spec in misses]
        interval = POLL_MIN
        while ((pending or any(shard.inflight for shard in shards))
               and not engine._abandoned):
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
            while submitted and not engine._abandoned:
                submitted = False
                for shard in live:
                    if not shard.accepting(now):
                        continue
                    item = next((it for it in pending if it[0] <= now),
                                None)
                    if item is None:
                        break
                    pending.remove(item)
                    self._submit(engine, shard, item[1], attempts,
                                 pending, results, failures)
                    submitted = True
            progressed = 0
            for shard in list(live):
                if shard.alive and shard.inflight:
                    progressed += self._poll(engine, shard, attempts,
                                             pending, results, failures)
                if engine._abandoned:
                    break
            if engine._abandoned:
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
        the shard, not the runs, failed (mirrors ``_pool_broken``)."""
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

    def _charge(self, engine, spec: RunSpec, kind: str, error: str,
                attempts, pending, failures) -> None:
        """One failed attempt against a spec: requeue with backoff until
        the policy's retry budget is spent, then fail permanently."""
        attempts[spec] = attempts.get(spec, 0) + 1
        if attempts[spec] > engine.policy.retries:
            engine._fail_spec(spec, kind, error, attempts[spec], failures)
        else:
            ready_at = (time.monotonic()
                        + engine.policy.backoff_for(attempts[spec]))
            pending.append((ready_at, spec))

    # ------------------------------------------------------------------
    def _submit(self, engine, shard: _Shard, spec: RunSpec, attempts,
                pending, results, failures) -> None:
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
            engine._fail_spec(spec, "error",
                              f"shard {shard.url} rejected the runspec: "
                              f"{message}",
                              attempts.get(spec, 0) + 1, failures)
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
                self._ingest(engine, shard, spec, attempts, pending,
                             results, failures)
            elif data.get("status") == "failed":
                self._charge_remote_failure(engine, spec, data, attempts,
                                            pending, failures, shard)
            else:
                shard.inflight[digest] = _Flight(spec)
            return
        self._charge(engine, spec, "error",
                     f"shard {shard.url} answered HTTP {status} to a "
                     f"job submission", attempts, pending, failures)

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
    def _poll(self, engine, shard: _Shard, attempts, pending, results,
              failures) -> int:
        """Advance one shard's in-flight jobs; returns completions."""
        policy = engine.policy
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
                self._ingest(engine, shard, flight.spec, attempts,
                             pending, results, failures)
                progressed += 1
            elif status == 200 and state == "failed":
                del shard.inflight[digest]
                self._charge_remote_failure(engine, flight.spec,
                                            data, attempts, pending,
                                            failures, shard)
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
                    self._charge(engine, flight.spec, "timeout",
                                 f"run exceeded the {policy.timeout}s "
                                 f"wall-clock timeout on shard "
                                 f"{shard.url}",
                                 attempts, pending, failures)
            else:
                # 404 (a shard that lost the job) or any other surprise:
                # charge one attempt and place the spec back in rotation.
                del shard.inflight[digest]
                self._charge(engine, flight.spec, "error",
                             f"shard {shard.url} answered HTTP {status} "
                             f"({state or 'no status'}) while polling",
                             attempts, pending, failures)
            if engine._abandoned:
                break
        return progressed

    # ------------------------------------------------------------------
    def _ingest(self, engine, shard: _Shard, spec: RunSpec, attempts,
                pending, results, failures) -> None:
        """Fetch a completed job's cache record and complete it through
        the engine — verifying schema, spec identity and fingerprint, so
        a corrupt or mismatched shard record reads as a failed attempt,
        never as a silently wrong result."""
        digest = spec.digest()
        try:
            status, envelope, _ = shard.client.result(digest)
        except (ShardUnavailable, ShardProtocolError) as exc:
            pending.append((time.monotonic(), spec))
            self._shard_down(shard, str(exc), pending)
            return
        record = None
        if status == 200 and envelope.get("ok"):
            record = envelope.get("data", {}).get("record")
        if not isinstance(record, dict):
            self._charge(engine, spec, "error",
                         f"shard {shard.url} reported the job done but "
                         f"returned HTTP {status} for its result record",
                         attempts, pending, failures)
            return
        if record.get("schema") != CACHE_SCHEMA_VERSION:
            self._charge(engine, spec, "error",
                         f"shard {shard.url} returned a schema-"
                         f"{record.get('schema')} record (expected "
                         f"{CACHE_SCHEMA_VERSION})",
                         attempts, pending, failures)
            return
        stored_spec = record.get("spec")
        if (not isinstance(stored_spec, dict)
                or _strip_result_neutral(stored_spec)
                != spec.canonical_dict()):
            self._charge(engine, spec, "error",
                         f"shard {shard.url} returned a record for a "
                         f"different spec (digest collision or skew)",
                         attempts, pending, failures)
            return
        try:
            engine._complete(spec, results, record=record,
                             attempts=attempts.get(spec, 0) + 1)
        except (KeyboardInterrupt, SystemExit):
            raise
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            # FingerprintMismatch or a malformed result payload.
            self._charge(engine, spec, "error",
                         f"shard {shard.url} returned an invalid record "
                         f"({type(exc).__name__}: {exc})",
                         attempts, pending, failures)
            return
        self.ingested += 1

    def _charge_remote_failure(self, engine, spec: RunSpec, data: Dict,
                               attempts, pending, failures,
                               shard: _Shard) -> None:
        failure = data.get("failure") or {}
        kind = failure.get("kind", "error")
        self._charge(engine, spec, kind,
                     f"shard {shard.url} failed the run after "
                     f"{failure.get('attempts', '?')} server-side "
                     f"attempt(s): {failure.get('error', 'unknown')}",
                     attempts, pending, failures)
